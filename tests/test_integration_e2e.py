"""End-to-end integration: the full §2.1 data flow in one test module.

sensors → LoRaWAN → TTN dedup → MQTT landing → Structured Streaming →
TSDB → dashboards/analyses, with completeness accounting at each hop.
"""
import importlib.util
import pathlib
import sys

import pandas as pd
from pyspark.sql import functions as F

from repro.core import dashboard, harmonize
from repro.iot import deployment as dep
from repro.lorawan.network import PAYLOAD_COLS
from repro.tsdb import query, store
from tests.conftest import TEST_SF


class TestCompletenessChain:
    def test_sent_vs_landed(self, world):
        sent = len(world.readings_pdf)
        delivered = len(
            world.receptions_pdf.drop_duplicates(["sensor_id", "f_cnt"])
        )
        assert world.n_landed == delivered
        assert 0.85 * sent <= delivered <= sent

    def test_landed_vs_uplinks(self, world):
        assert world.uplinks.count() == world.n_landed

    def test_points_explosion(self, world):
        accepted = world.points.count()
        quarantined = world.quarantined.count()
        assert accepted + quarantined == world.n_landed * len(PAYLOAD_COLS)

    def test_per_sensor_chain(self, world):
        # For one healthy sensor: every delivered packet reaches the TSDB.
        delivered = len(
            world.receptions_pdf[world.receptions_pdf["sensor_id"] == "T-00"]
            .drop_duplicates(["f_cnt"])
        )
        stored = world.points.filter(
            "sensor_id = 'T-00' AND metric = 'air.co2'"
        ).count()
        assert stored == delivered


class TestAnalysesOnStreamedData:
    def test_dashboard_from_tsdb(self, spark, world):
        pts = store.read(spark, world.tsdb_root, metric="air.no2")
        aq = dashboard.air_quality_index(store.read(spark, world.tsdb_root))
        assert aq.count() == 14
        s = query.series(pts, "1h-avg")
        assert s.count() > 0

    def test_harmonized_frame_from_tsdb(self, spark, world, nilu_df, traffic_df):
        wide = harmonize.integrated_city_frame(
            store.read(spark, world.tsdb_root), nilu_df, traffic_df
        )
        assert wide.filter("air_co2 IS NOT NULL AND jam_factor IS NOT NULL").count() > 100

    def test_faults_visible_end_to_end(self, spark, world):
        # T-03 died at hour 30: its last TSDB point is right before.
        last = (
            store.read(spark, world.tsdb_root, sensor_id="T-03")
            .agg(F.max("ts").alias("m"))
            .collect()[0]["m"]
        )
        death = dep.SIM_START + pd.Timedelta(hours=30)
        assert last < death
        assert last > death - pd.Timedelta(hours=1)

    def test_gateway_outage_invisible_in_data_but_visible_in_metadata(
        self, spark, world
    ):
        """The §2.3 punchline: during gw-tr-1's outage the *data* keeps
        flowing (coverage overlap) while the *network metadata* shows
        the hole — exactly why the dataport monitors metadata."""
        o = world.outages[0]
        pts = store.read(
            spark, world.tsdb_root, metric="air.co2", city="trondheim",
            start=o.start, end=o.end,
        )
        assert pts.select("sensor_id").distinct().count() >= 11
        heard = (
            world.uplinks.select(F.explode("gateways").alias("g"), "ts")
            .filter((F.col("ts") >= F.lit(o.start)) & (F.col("ts") < F.lit(o.end)))
            .filter(F.col("g.gtw_id") == o.gateway_id)
        )
        assert heard.count() == 0


def load_job(stem: str):
    path = pathlib.Path(__file__).resolve().parents[1] / "jobs" / f"{stem}.py"
    spec = importlib.util.spec_from_file_location(f"jobs.{stem}", path)
    job = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(job)
    return job


class TestSparkSubmitJobSmoke:
    def test_jobs_importable(self):
        """Every job imports, so one that names a removed function
        fails here, and has the ``run``/``main`` entrypoints."""
        jobs_dir = pathlib.Path(__file__).resolve().parents[1] / "jobs"
        found = sorted(jobs_dir.glob("*.py"))
        assert len(found) >= 9  # one per experiment table
        for path in found:
            job = load_job(path.stem)
            assert callable(job.run) and callable(job.main), path.name

    def test_t1_runs_on_the_test_world(self, spark, clean_world, monkeypatch):
        """``jobs/t1_integration.py`` ``run`` over the clean test world:
        one row per Table 1 source, in the paper's order."""
        job = load_job("t1_integration")
        monkeypatch.setattr(job, "build_world", lambda *a, **k: clean_world)
        t = job.run(spark, sf=TEST_SF).set_index("source", drop=False)
        assert list(t["source"]) == [
            "sensor_network", "official_air_quality", "traffic_density",
            "municipal_traffic_counts", "remote_sensing", "city_3d_model",
            "national_statistics",
        ]
        assert list(t.columns) == [
            "source", "paper_example", "rows", "units", "cadence_min", "span_days",
            "hourly_coverage", "role",
        ]
        assert t.loc["sensor_network", "hourly_coverage"] == 1.0
        assert t.loc["sensor_network", "units"] == 14
        # sim_days = 3 ends before OCO-2's first overpass on day 3.
        assert t.loc["remote_sensing", "rows"] == 0
        assert t.loc["remote_sensing", "hourly_coverage"] == 0.0
        assert t.loc["national_statistics", "cadence_min"] == 525_600.0

    def test_e7_takes_the_shared_sf_argument(self, spark, monkeypatch, capsys):
        """``python jobs/e7_density.py 0.1`` runs like every other job.
        E7 does not depend on SF, so it prints the committed E7 table."""
        job = load_job("e7_density")
        monkeypatch.setattr(sys, "argv", ["e7_density.py", "0.1"])
        job.main()
        root = pathlib.Path(__file__).resolve().parents[1]
        want = (root / "experiments_raw" / "e7_density.txt").read_text()
        assert capsys.readouterr().out == want
