"""The benchmark's workloads and the output checks that gate them.

Each workload is a class with ``setup()`` (untimed; its wall time is
``setup_s``), ``run_pass(i)`` (the timed pass; its wall time is
``pass_s``) and ``check(i)`` (outside the timed window; returns a list
of ``(name, ok, detail)``). Every pass works in a fresh directory that
is measured and deleted once checked, so repeated runs neither fill the
disk nor read stale streaming checkpoints.
"""
from __future__ import annotations

import contextlib
import os
import shutil
import time

import numpy as np
import pandas as pd
from pyspark.sql import functions as F

from repro import oracle, runner
from repro.core import (
    battery, calibrate, citymodel, co2_traffic, dashboard, density, harmonize,
)
from repro.dataport import alarms, hierarchy, twins
from repro.external import citygml, herecom, nilu
from repro.ingest import etl
from repro.iot import deployment
from repro.lorawan.network import PAYLOAD_COLS
from repro.tsdb import query, store

#: Sensor co-located with each city's official station (E5).
CO_LOCATED = {"trondheim": "T-00", "vejle": "V-00"}
#: Probe instants, hours after SIM_START, at which E6 classifies failures.
PROBE_HOURS = (29, 45, 53)


def deaths(world) -> dict:
    """sensor_id → start of each injected sensor death."""
    return {f.sensor_id: f.start for f in world.faults if f.kind == "death"}


def dir_stats(root: str, suffix: str) -> tuple[int, int]:
    """(files, bytes) under ``root`` whose name ends in ``suffix``."""
    files = size = 0
    for dirpath, _, names in os.walk(root):
        for n in names:
            if n.endswith(suffix):
                files += 1
                size += os.path.getsize(os.path.join(dirpath, n))
    return files, size


def landed_sum_sql(landing_dir: str) -> str:
    """DuckDB oracle: per (metric, sensor_id) count and value sum of the
    points the landed JSON should yield after validation."""
    fields = ", ".join(f"{c} DOUBLE" for c in PAYLOAD_COLS)
    arms = " UNION ALL ".join(
        f"SELECT sensor_id, '{etl.METRIC_NAME[c]}' AS metric, p.{c} AS value "
        f"FROM m WHERE p.{c} BETWEEN {lo} AND {hi}"
        for c, (lo, hi) in etl.VALID_RANGE.items()
    )
    return f"""
        WITH m AS (
          SELECT dev_id AS sensor_id, payload_fields AS p
          FROM read_json('{landing_dir}/*.jsonl', format='newline_delimited',
                         columns={{'dev_id': 'VARCHAR',
                                   'payload_fields': 'STRUCT({fields})'}}))
        SELECT metric, sensor_id, count(*) AS n, round(sum(value), 3) AS total
        FROM ({arms}) GROUP BY metric, sensor_id
    """


def tsdb_sql(root: str, where: str = "TRUE") -> str:
    """DuckDB scan of the Parquet TSDB, independent of Spark."""
    return (
        f"(SELECT metric, ts, value, sensor_id, city FROM read_parquet("
        f"'{root}/*/*/*.parquet', hive_partitioning = true) WHERE {where})"
    )


def aqi_sql(pts: str) -> str:
    """DuckDB oracle for :func:`dashboard.air_quality_index`."""
    bands = dashboard.AQI_BANDS
    cases = " ".join(
        f"WHEN field = '{fld}' THEN CASE "
        + " ".join(f"WHEN value < {e} THEN '{b}'" for b, e in zip(bands, edges))
        + f" ELSE '{bands[-1]}' END"
        for fld, edges in dashboard.AQI_EDGES.items()
    )
    rank = " ".join(f"WHEN '{b}' THEN {i}" for i, b in enumerate(bands))
    fields = list(dashboard.AQI_EDGES)
    return f"""
        WITH latest AS (
          SELECT sensor_id, city, replace(metric, 'air.', '') AS field,
                 arg_max(value, ts) AS value
          FROM {pts} WHERE metric IN ({", ".join(f"'air.{f}'" for f in fields)})
          GROUP BY ALL),
        banded AS (SELECT *, CASE {cases} END AS band FROM latest),
        ranked AS (SELECT *, CASE band {rank} END AS r FROM banded)
        SELECT sensor_id, city, arg_max(band, r) AS overall_band,
               {", ".join(f"max(CASE WHEN field = '{f}' THEN band END) AS {f}" for f in fields)}
        FROM ranked GROUP BY sensor_id, city
    """


class Workload:
    """Shared plumbing: fresh pass directories and the trace hook."""

    def __init__(self, spark, tracer, *, sf: float, seed: int, work: str):
        self.spark, self.tracer = spark, tracer
        self.sf, self.seed, self.work = sf, seed, work
        self.info: dict = {}

    def span(self, name: str):
        return contextlib.nullcontext() if self.tracer is None else self.tracer.span(name)

    def pass_dir(self, i: int) -> str:
        d = os.path.join(self.work, f"pass-{i}")
        shutil.rmtree(d, ignore_errors=True)
        return d


#: Scale factor of the ingest warm-up: the simulator's 2-day minimum.
WARMUP_SF = 0.005


class Ingest(Workload):
    """simulate → receptions → TTN dedup → MQTT landing → streaming ingest
    and live aggregate → TSDB: one ``runner.build_world`` per pass."""

    def setup(self) -> None:
        # One small untimed build_world, so the pass measures the write
        # path rather than the JVM's first use of Spark SQL, streaming and
        # Parquet (class loading, JIT, code generation). Its spans are
        # tagged "warmup" and left out of the per-layer times.
        d = os.path.join(self.work, "warmup")
        if self.tracer:
            self.tracer.pass_id = "warmup"
        runner.build_world(
            self.spark, sf=WARMUP_SF, seed=self.seed, with_faults=True,
            work_dir=d, run_streaming=True,
        )
        if self.tracer:
            self.tracer.pass_id = "setup"
        shutil.rmtree(d, ignore_errors=True)

    def run_pass(self, i: int) -> None:
        self.world = runner.build_world(
            self.spark, sf=self.sf, seed=self.seed, with_faults=True,
            work_dir=self.pass_dir(i), run_streaming=True,
        )

    def check(self, i: int) -> list:
        w, spark = self.world, self.spark
        rc = w.receptions_pdf
        delivered = len(rc.drop_duplicates(["sensor_id", "f_cnt"]))
        uplinks = w.uplinks.count()
        accepted = store.read(spark, w.tsdb_root).count()
        quarantined = spark.read.parquet(w.quarantine_dir).count()
        landed_files, landed_bytes = dir_stats(w.landing_dir, ".jsonl")
        tsdb_files, tsdb_bytes = dir_stats(w.tsdb_root, ".parquet")
        hops = {
            "readings": len(w.readings_pdf),
            "receptions": len(rc),
            "delivered": delivered,
            "landed": w.n_landed,
            "uplinks": uplinks,
            "accepted": accepted,
            "quarantined": quarantined,
            "tsdb_points": accepted,
            "landed_files": landed_files,
            "landed_bytes": landed_bytes,
            "tsdb_files": tsdb_files,
            "tsdb_bytes": tsdb_bytes,
        }
        self.info = {"hops": hops}
        checks = [
            ("landed == distinct (sensor_id, f_cnt) receptions",
             w.n_landed == delivered, f"{w.n_landed} vs {delivered}"),
            ("uplinks == landed", uplinks == w.n_landed, f"{uplinks} vs {w.n_landed}"),
            ("accepted + quarantined == landed x 9",
             accepted + quarantined == w.n_landed * len(PAYLOAD_COLS),
             f"{accepted} + {quarantined} vs {w.n_landed * len(PAYLOAD_COLS)}"),
        ]
        got = (
            store.read(spark, w.tsdb_root)
            .groupBy("metric", "sensor_id")
            .agg(F.count(F.lit(1)).alias("n"), F.round(F.sum("value"), 3).alias("total"))
        )
        checks.append(_oracle("TSDB per (metric, sensor) count/sum == landed JSON",
                              got, landed_sum_sql(w.landing_dir)))
        # The injected deaths must be visible at the end of the flow.
        dead = deaths(w)
        last = dict(
            store.read(spark, w.tsdb_root, metric="air.co2")
            .filter(F.col("sensor_id").isin(list(dead)))
            .groupBy("sensor_id").agg(F.max("ts").alias("m")).collect()
        )
        for sid, death in dead.items():
            ok = sid in last and death - pd.Timedelta(hours=1) < last[sid] < death
            checks.append((f"{sid} last TSDB point within the hour before its death",
                           ok, str(last.get(sid))))
        return checks

    def cleanup(self, i: int) -> None:
        shutil.rmtree(os.path.join(self.work, f"pass-{i}"), ignore_errors=True)
        self.world = None


class Analytics(Workload):
    """The analyses ``jobs/`` runs (T1, E2, E3, E5–E9) plus the dashboard
    reads of Figs 6/8, over one world built in set-up."""

    def setup(self) -> None:
        spark, sf, seed = self.spark, self.sf, self.seed
        d = os.path.join(self.work, "world")
        w = runner.build_world(
            spark, sf=sf, seed=seed, with_faults=True, work_dir=d, run_streaming=False,
        )
        self.tsdb_root = os.path.join(d, "tsdb")
        backfill = etl.ingest_batch(spark, w.landing_dir, self.tsdb_root)
        self.points = store.read(spark, self.tsdb_root).cache()
        self.uplinks = w.uplinks.cache()
        self.nilu = nilu.observations(spark, sf=sf, seed=seed).cache()
        self.traffic = herecom.feed(spark, sf=sf, seed=seed).cache()
        for df in (self.points, self.uplinks, self.nilu, self.traffic):
            df.count()
        self.end = w.readings_pdf["ts"].max()
        self.deaths = deaths(w)
        self.sensor_ids = sorted(w.sensors_pdf["sensor_id"])
        self.days = deployment.sim_days(sf)
        landed_files, landed_bytes = dir_stats(w.landing_dir, ".jsonl")
        tsdb_files, tsdb_bytes = dir_stats(self.tsdb_root, ".parquet")
        self.info = {"hops": {
            "readings": len(w.readings_pdf), "receptions": len(w.receptions_pdf),
            "landed": w.n_landed, **backfill,
            "landed_files": landed_files, "landed_bytes": landed_bytes,
            "tsdb_files": tsdb_files, "tsdb_bytes": tsdb_bytes,
        }}

    def run_pass(self, i: int) -> None:
        spark, pts, up = self.spark, self.points, self.uplinks
        r: dict = {}
        with self.span("core.harmonize"):
            r["t1_rows"] = harmonize.integrated_city_frame(pts, self.nilu, self.traffic).count()
        with self.span("core.battery"):
            irr = battery.irradiance_table(spark, sf=self.sf, seed=self.seed)
            r["e2_profile"] = battery.hourly_delta_profile(
                battery.battery_deltas(up, irr)).toPandas()
            r["e2_depletion"] = battery.depletion_estimate(up).toPandas()
        with self.span("core.co2_traffic"):
            al = co2_traffic.aligned_series(
                pts, self.traffic, sensor_id="T-01", link_id="T-elgeseter").cache()
            r["e3_r"] = co2_traffic.correlation(al)
            r["e3_cc"] = co2_traffic.cross_correlation(al, max_lag_hours=6).toPandas()
            r["e3_diurnal"] = co2_traffic.diurnal_profiles(al).toPandas()
            al.unpersist()
        with self.span("core.calibrate"):
            pairs = calibrate.co_location_pairs(pts, self.nilu, co_located=CO_LOCATED)
            coefs = calibrate.fit_linear(pairs).cache()
            r["e5_fits"] = coefs.toPandas()
            air = pts.filter(F.col("metric").startswith("air."))
            r["e5_applied"] = calibrate.apply_calibration(air, coefs).count()
            coefs.unpersist()
        with self.span("dataport.alarm_sweep"):
            r["e6_events"] = alarms.alarm_events(
                up, start=deployment.SIM_START, end=self.end).toPandas()
        with self.span("dataport.classify"):
            r["e6_classes"] = [
                hierarchy.classify(up, deployment.SIM_START + pd.Timedelta(hours=h)).toPandas()
                for h in PROBE_HOURS
            ]
        with self.span("dataport.packet_gaps"):
            r["e6_gaps"] = twins.packet_gaps(up).agg(
                F.sum("missed_cycles").alias("missed"),
                F.sum("lost_frames").alias("lost")).collect()[0]
        with self.span("core.density"):
            r["e7"] = density.sweep(spark, day=1, seed=self.seed)
        with self.span("core.dashboard"):
            r["e8_aqi"] = dashboard.air_quality_index(pts).toPandas()
            r["e8_wall"] = dashboard.wall_summary(up, pts).toPandas()
        r["queries"] = self.dashboard_reads(i)
        with self.span("core.citymodel"):
            sensors, grid = deployment.sensors(spark), citygml.grid(spark)
            bld = citygml.buildings(spark, seed=self.seed)
            latest = dashboard.latest_per_sensor(pts.filter("metric = 'air.no2'"))
            cells = citymodel.cell_pollution(latest, sensors, grid).cache()
            r["e9_cells"] = cells.count()
            r["e9_siting"] = citymodel.siting_candidates(
                grid, cells, bld, deployment.road_links(spark), top_n=10).toPandas()
            cells.unpersist()
        self.results = r
        self.info["queries"] = [
            {k: q[k] for k in ("template", "rows", "plan_ms", "exec_ms")} for q in r["queries"]
        ]

    def dashboard_reads(self, i: int) -> list[dict]:
        """A wall display's query mix, read uncached from the TSDB: the
        four Fig 6/8 templates once each, with seeded parameters. Each
        query's plan (DataFrame built and physically planned) and
        execution (collected) are timed apart."""
        rng = np.random.default_rng([self.seed, i])
        sid = str(rng.choice(self.sensor_ids))
        metric = str(rng.choice(["air.co2", "air.no2", "air.pm10", "air.pm25"]))
        start = deployment.SIM_START + pd.Timedelta(
            days=int(rng.integers(0, self.days - 1)), hours=int(rng.integers(0, 24)))
        end = start + pd.Timedelta(hours=24)
        root = self.tsdb_root
        templates = {
            "sparkline": (
                lambda: dashboard.hourly_series(store.read(
                    self.spark, root, metric=metric, sensor_id=sid, start=start, end=end)),
                f"metric = '{metric}' AND sensor_id = '{sid}' AND ts >= "
                f"TIMESTAMP '{start}' AND ts < TIMESTAMP '{end}'",
            ),
            "metric_1h": (
                lambda: query.series(store.read(self.spark, root, metric=metric), "1h-avg"),
                f"metric = '{metric}'",
            ),
            "aqi": (
                lambda: dashboard.air_quality_index(store.read(self.spark, root)),
                "TRUE",
            ),
            "wall": (
                lambda: dashboard.wall_summary(self.uplinks, store.read(self.spark, root)),
                "TRUE",
            ),
        }
        out = []
        for name, (build, where) in templates.items():
            with self.span(f"tsdb.query.{name}"):
                t0 = time.perf_counter()
                with self.span(f"tsdb.query.{name}.plan"):
                    df = build()
                    df._jdf.queryExecution().executedPlan()
                t1 = time.perf_counter()
                with self.span(f"tsdb.query.{name}.exec"):
                    pdf = df.toPandas()
                t2 = time.perf_counter()
            out.append({"template": name, "where": where, "rows": len(pdf), "result": pdf,
                        "plan_ms": (t1 - t0) * 1e3, "exec_ms": (t2 - t1) * 1e3})
        return out

    def check(self, i: int) -> list:
        r = self.results
        e7 = r["e7"].set_index("scenario")
        checks = [
            ("T1 integrated frame has rows", r["t1_rows"] > 0, str(r["t1_rows"])),
            ("E2 14 depletion rows", len(r["e2_depletion"]) == 14, str(len(r["e2_depletion"]))),
            ("E2 24-hour delta profile", r["e2_profile"]["hour"].nunique() == 24,
             str(r["e2_profile"]["hour"].nunique())),
            ("E3 |r(CO2, jam)| < 0.35", abs(r["e3_r"]) < 0.35, f"{r['e3_r']:.4f}"),
            ("E3 13 lags", len(r["e3_cc"]) == 13, str(len(r["e3_cc"]))),
            ("E5 8 fits", len(r["e5_fits"]) == 8, str(len(r["e5_fits"]))),
            ("E7 lowcost_250 RMSE < official_station",
             e7.loc["lowcost_250", "rmse"] < e7.loc["official_station", "rmse"],
             f"{e7.loc['lowcost_250', 'rmse']} vs {e7.loc['official_station', 'rmse']}"),
            ("E8 14 AQI rows", len(r["e8_aqi"]) == 14, str(len(r["e8_aqi"]))),
            ("E8 wall has 2 cities", len(r["e8_wall"]) == 2, str(len(r["e8_wall"]))),
            ("E9 20 siting rows", len(r["e9_siting"]) == 20, str(len(r["e9_siting"]))),
        ]
        ev = r["e6_events"]
        for sid in self.deaths:
            failed = ((ev["sensor_id"] == sid) & (ev["status"] == "FAILED")).any()
            checks.append((f"E6 {sid} death raises FAILED", bool(failed), ""))
        checks += self.check_queries(r["queries"])
        return checks

    def check_queries(self, queries: list[dict]) -> list:
        """DuckDB oracle on each query's result, over the Parquet files."""
        out = []
        up = self.uplinks.select("sensor_id", "city").toPandas()
        for q in queries:
            pts = tsdb_sql(self.tsdb_root, q["where"])
            got, tables = q["result"], {}
            if q["template"] == "sparkline":
                sql = (f"SELECT sensor_id, city, metric, date_trunc('hour', ts) AS bucket, "
                       f"round(avg(value), 6) AS value FROM {pts} GROUP BY ALL")
                got = got.assign(value=got["value"].round(6))
            elif q["template"] == "metric_1h":
                sql = (f"SELECT metric, sensor_id, city, date_trunc('hour', ts) AS bucket, "
                       f"round(avg(value), 6) AS value FROM {pts} GROUP BY ALL")
                got = got.assign(value=got["value"].round(6))
            elif q["template"] == "aqi":
                sql = aqi_sql(pts)
                got = got[["sensor_id", "city", "overall_band", *dashboard.AQI_EDGES]]
            else:
                sql = (f"SELECT u.city, count(DISTINCT u.sensor_id) AS sensors_active, "
                       f"count(*) AS uplinks, any_value(p.n) AS data_points, "
                       f"any_value(p.k) AS metrics FROM up u JOIN (SELECT city, count(*) AS n, "
                       f"count(DISTINCT metric) AS k FROM {pts} GROUP BY city) p "
                       f"ON u.city = p.city GROUP BY u.city")
                got = got[["city", "sensors_active", "uplinks", "data_points", "metrics"]]
                tables = {"up": up}
            out.append(_oracle(f"dashboard {q['template']} == DuckDB", got, sql, **tables))
        return out

    def cleanup(self, i: int) -> None:
        self.results = None


def _oracle(name: str, got, sql: str, **tables) -> tuple:
    try:
        oracle.assert_equivalent(_Frame(got), sql, **tables)
    except AssertionError as e:
        return (name, False, str(e).splitlines()[0] if str(e) else "mismatch")
    return (name, True, "")


class _Frame:
    """Lets :func:`repro.oracle.assert_equivalent` take a collected
    result as well as a Spark DataFrame."""

    def __init__(self, df):
        self.df = df

    def toPandas(self):
        return self.df if isinstance(self.df, pd.DataFrame) else self.df.toPandas()


WORKLOADS = {"ingest": Ingest, "analytics": Analytics}
