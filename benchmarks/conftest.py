"""Benchmark fixtures: one SF=0.1 world (~36 simulated days, ~125k
uplinks, ~1.1M data points) shared by all benchmarks.

Override the scale with REPRO_BENCH_SF. The world is built once per
session; benchmarks time the *analyses*, not the generator.
"""
from __future__ import annotations

import os

import pytest

BENCH_SF = float(os.environ.get("REPRO_BENCH_SF", "0.1"))
SEED = 0


@pytest.fixture(scope="session")
def bench_world(spark_utc, tmp_path_factory):
    """Full pipeline world (with faults) at benchmark scale, streaming
    ingested so TSDB-backed benches read real Parquet."""
    from repro.runner import build_world

    work = str(tmp_path_factory.mktemp("bench_world"))
    w = build_world(
        spark_utc, sf=BENCH_SF, seed=SEED, with_faults=True,
        work_dir=work, run_streaming=True,
    )
    w["points"] = w["points"].cache()
    w["uplinks"] = w["uplinks"].cache()
    w["points"].count(), w["uplinks"].count()
    return w


@pytest.fixture(scope="session")
def bench_nilu(spark_utc):
    from repro.external import nilu

    return nilu.observations(spark_utc, sf=BENCH_SF, seed=SEED).cache()


@pytest.fixture(scope="session")
def bench_traffic(spark_utc):
    from repro.external import herecom

    return herecom.feed(spark_utc, sf=BENCH_SF, seed=SEED).cache()
