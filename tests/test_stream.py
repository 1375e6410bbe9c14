"""Structured Streaming ingestion: streaming == batch, the dashboard's
read path over the streamed TSDB, and bad input."""
import glob
import json
import os

import duckdb
import numpy as np
import pytest

from repro.ingest import etl, stream
from repro.lorawan.network import PAYLOAD_COLS
from repro.tsdb import query, store
from tests.conftest import parquet_files_per_partition


@pytest.fixture(scope="module")
def batch(spark, world):
    """The reference for the streamed world: the ``etl`` batch parse of
    its landing zone, validated."""
    return etl.validate(
        etl.parse_messages(etl.read_landing_batch(spark, world.landing_dir))
    ).cache()


def assert_same_rows(got, want):
    """Equal as multisets of rows: nothing missing, nothing extra."""
    assert got.exceptAll(want).count() == 0
    assert want.exceptAll(got).count() == 0


class TestStreamingIngest:
    def test_tsdb_written(self, spark, world):
        pts = spark.read.parquet(world.tsdb_root)
        assert pts.count() > 0

    def test_streaming_equals_batch(self, world, batch):
        """The streamed TSDB holds exactly the batch parse's accepted
        points, in the TSDB's column order."""
        want = etl.accepted_points(batch)
        assert world.points.columns == store.POINT_COLUMNS == want.columns
        assert_same_rows(world.points, want)

    def test_partitioned_by_metric_and_date(self, world):
        files = parquet_files_per_partition(world.tsdb_root)
        assert files and set(files.values()) == {1}  # one file per (metric, date)

    def test_no_per_file_listing_and_a_parallel_write(self, spark, world, tmp_path):
        """Landed files are listed on the driver, not by a Spark job with
        one task per file, and the TSDB is written by one task per core,
        not by one task in all."""
        q = stream.start_ingest(
            spark, world.landing_dir, str(tmp_path / "tsdb"), str(tmp_path / "ckpt"),
            quarantine_dir=str(tmp_path / "quarantine"),
        )
        assert q.awaitTermination(300)
        sc = spark.sparkContext
        st = sc.statusTracker()
        jobs = [st.getJobInfo(j) for j in sorted(st.getJobIdsForGroup(str(q.runId)))]
        stages = [[st.getStageInfo(s) for s in sorted(j.stageIds)] for j in jobs]
        n_files = len(os.listdir(world.landing_dir))
        # A scan of small files runs about one task per core, so one task
        # per file marks the listing job only where cores are fewer.
        if sc.defaultParallelism < n_files:
            assert all(s.numTasks != n_files for ss in stages for s in ss)
        # The write's repartition is the batch's one shuffle: its job holds
        # the map stage and, last, the write stage.
        shuffled = [ss for ss in stages if len(ss) > 1]
        assert len(shuffled) == 1
        assert shuffled[0][-1].numTasks == sc.defaultParallelism

    def test_quarantine_written(self, world, batch):
        assert_same_rows(world.quarantined, etl.quarantined_points(batch))

    def test_one_quarantine_file_per_batch(self, world):
        """Each micro-batch writes its invalid points as one Parquet file,
        not one per input partition (``test_quarantine_written`` checks
        that the rows are all there)."""
        commits = os.path.join(os.path.dirname(world.tsdb_root), "ckpt_ingest", "commits")
        n_batches = sum(name.isdigit() for name in os.listdir(commits))
        files = glob.glob(os.path.join(world.quarantine_dir, "*.parquet"))
        assert n_batches >= 1 and len(files) == n_batches

    def test_checkpoint_makes_rerun_a_noop(self, spark, world):
        before = spark.read.parquet(world.tsdb_root).count()
        q = stream.start_ingest(
            spark,
            world.landing_dir,
            world.tsdb_root,
            os.path.join(os.path.dirname(world.tsdb_root), "ckpt_ingest"),
            quarantine_dir=world.quarantine_dir,
        )
        q.awaitTermination(300)
        after = spark.read.parquet(world.tsdb_root).count()
        assert after == before  # exactly-once within a checkpoint


class TestDashboardReadPath:
    def test_hourly_downsample_matches_batch_oracle(self, spark, world, batch):
        """The dashboard's hourly avg/count, downsampled at read time from
        the streamed TSDB, equal DuckDB's hourly aggregate of the batch
        points in every window, the last (still open) hour included."""
        keys = ["bucket", "metric", "sensor_id"]
        pts = store.read(spark, world.tsdb_root)
        got = (
            query.downsample(pts, "1h-avg").withColumnRenamed("value", "avg")
            .join(query.downsample(pts, "1h-count").withColumnRenamed("value", "n"),
                  keys + ["city"])
            .select(*keys, "avg", "n").toPandas()
        )
        ref = etl.accepted_points(batch).select("metric", "sensor_id", "ts", "value").toPandas()
        want = duckdb.sql("""
            SELECT date_trunc('hour', ts) AS bucket, metric, sensor_id,
                   avg(value) AS avg, count(*) AS n
            FROM ref GROUP BY 1, 2, 3
        """).df()
        for df in (got, want):
            df["bucket"] = df["bucket"].astype("datetime64[ns]")
        m = got.merge(want, on=keys, how="outer", suffixes=("", "_want"), indicator=True)
        assert len(m) == len(want) and (m["_merge"] == "both").all()
        assert (m["n"] == m["n_want"]).all()
        assert np.allclose(m["avg"], m["avg_want"], rtol=1e-12, atol=0)


def _landed_line(counter: int, time: str, gateways: list) -> str:
    payload = {
        "co2": 400.0, "no2": 20.0, "pm10": 10.0, "pm25": 5.0, "temperature": 0.0,
        "pressure": 1000.0, "humidity": 50.0, "battery": 80.0, "interval_min": 5.0,
    }
    return json.dumps({
        "app_id": "ctt", "dev_id": "X-00", "counter": counter, "city": "trondheim",
        "metadata": {"time": time, "gateways": gateways},
        "payload_fields": payload,
    })


class TestBadInput:
    """A bad time or an empty gateway list must not abort the ingest
    (Spark runs in ANSI mode, where one bad value raises)."""

    @pytest.fixture
    def landing(self, tmp_path):
        d = tmp_path / "landing"
        d.mkdir()
        (d / "msgs-2017010100.jsonl").write_text("\n".join([
            _landed_line(0, "2017-01-01T00:00:00Z", [{"gtw_id": "gw-tr-0", "rssi": -100.0}]),
            _landed_line(1, "garbage", [{"gtw_id": "gw-tr-0", "rssi": -100.0}]),
            _landed_line(2, "2017-01-01T00:05:00Z", []),
        ]) + "\n")
        return str(d)

    def test_batch_and_stream_quarantine_bad_time(self, spark, landing, tmp_path):
        validated = etl.validate(
            etl.parse_messages(etl.read_landing_batch(spark, landing))
        ).collect()
        assert len(validated) == 3 * len(PAYLOAD_COLS)
        bad = [r for r in validated if not r["valid"]]
        assert len(bad) == len(PAYLOAD_COLS)
        assert {(r["f_cnt"], r["ts"]) for r in bad} == {(1, None)}
        empty = [r for r in validated if r["f_cnt"] == 2]
        assert all(r["valid"] and r["n_gateways"] == 0 for r in empty)
        assert all(r["best_gateway"] is None for r in empty)

        up = {r["f_cnt"]: r for r in etl.uplinks_batch(spark, landing).collect()}
        assert sorted(up) == [0, 1, 2]
        assert up[0]["best_gateway"] == "gw-tr-0" and up[0]["n_gateways"] == 1
        assert up[1]["ts"] is None
        assert up[2]["n_gateways"] == 0 and up[2]["best_gateway"] is None

        tsdb, quar = str(tmp_path / "tsdb"), str(tmp_path / "quarantine")
        q = stream.start_ingest(
            spark, landing, tsdb, str(tmp_path / "ckpt"), quarantine_dir=quar
        )
        assert q.awaitTermination(300)
        assert q.exception() is None
        stored = store.read(spark, tsdb)
        assert stored.count() == 2 * len(PAYLOAD_COLS)
        assert not any("__HIVE_DEFAULT_PARTITION__" in d for d, _, _ in os.walk(tsdb))
        quarantined = spark.read.parquet(quar).collect()
        assert len(quarantined) == len(PAYLOAD_COLS)
        assert {(r["f_cnt"], r["ts"]) for r in quarantined} == {(1, None)}
