"""E4 bench: the Structured Streaming ETL itself (landing → TSDB)."""
import os

from repro.ingest import stream
from repro.lorawan.network import PAYLOAD_COLS


def test_bench_e4_streaming_ingest(benchmark, spark_utc, bench_world, tmp_path_factory):
    """Times a full availableNow ingest of the benchmark landing zone
    into a fresh TSDB (fresh checkpoint each round); every landed point
    is accepted or quarantined, at any scale."""
    counter = {"i": 0}

    def job():
        counter["i"] += 1
        work = str(tmp_path_factory.mktemp(f"e4_round{counter['i']}"))
        q = stream.start_ingest(
            spark_utc,
            bench_world.landing_dir,
            os.path.join(work, "tsdb"),
            os.path.join(work, "ckpt"),
            quarantine_dir=os.path.join(work, "quar"),
        )
        assert q.awaitTermination(600)
        return (
            spark_utc.read.parquet(os.path.join(work, "tsdb")).count(),
            spark_utc.read.parquet(os.path.join(work, "quar")).count(),
        )

    n, n_quar = benchmark.pedantic(job, rounds=2, iterations=1, warmup_rounds=0)
    assert n == bench_world.points.count()
    assert n + n_quar == bench_world.n_landed * len(PAYLOAD_COLS)


def test_bench_e4_batch_parse(benchmark, spark_utc, bench_world):
    from repro.ingest import etl

    def job():
        raw = etl.read_landing_batch(spark_utc, bench_world.landing_dir)
        return etl.accepted_points(etl.validate(etl.parse_messages(raw))).count()

    benchmark.pedantic(job, rounds=3, iterations=1, warmup_rounds=1)
