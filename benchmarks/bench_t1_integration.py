"""T1 bench: heterogeneous-source harmonization + integration join."""
from pyspark.sql import functions as F

from repro.core import harmonize


def test_bench_t1_integrated_frame(benchmark, bench_world, bench_nilu, bench_traffic):
    def job():
        wide = harmonize.integrated_city_frame(
            bench_world.points, bench_nilu, bench_traffic
        )
        return wide.count()

    n = benchmark.pedantic(job, rounds=3, iterations=1, warmup_rounds=1)
    # The full outer join has one row per (city, hour) any source covers.
    buckets = (
        bench_world.points.select("city", "ts")
        .unionByName(bench_nilu.select("city", "ts"))
        .unionByName(bench_traffic.select("city", "ts"))
        .select("city", F.date_trunc("hour", "ts"))
        .distinct()
    )
    assert n == buckets.count()


def test_bench_t1_source_profiles(benchmark, bench_world):
    def job():
        return harmonize.source_profile(
            bench_world.points, unit_cols=("sensor_id",)
        )

    prof = benchmark.pedantic(job, rounds=3, iterations=1, warmup_rounds=1)
    assert prof["units"] == 14
