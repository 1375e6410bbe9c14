"""Shared test fixtures: one simulated CTT world per test session.

The simulation (sensor readings → radio receptions → TTN dedup → MQTT
landing → Structured Streaming ingest → Parquet TSDB) is deterministic
and moderately expensive, so it is built once at session scope and
shared, by the same ``runner.build_world`` the jobs and ``perfbench/``
use. ``world.points`` and ``world.quarantined`` are what the streaming
ingest wrote, as in every job; a test that checks the ingest takes its
reference from the ``etl`` batch parse of ``world.landing_dir``.
SF=0.008 gives a 3-day window — long enough for the standard fault
scenario (last event at hour 56) and the daily-pattern analyses, small
enough for fast tests.
"""
from __future__ import annotations

import glob
import os

import pytest

from repro import runner

TEST_SF = 0.008
SEED = 0


def parquet_files_per_partition(root: str) -> dict[str, int]:
    """Parquet file count of every ``metric=*/date=*`` directory under a
    TSDB ``root``."""
    return {
        d: len(glob.glob(os.path.join(d, "*.parquet")))
        for d in glob.glob(os.path.join(root, "metric=*", "date=*"))
    }


def _cached_world(spark, tmp_path_factory, *, with_faults: bool) -> runner.World:
    w = runner.build_world(
        spark, sf=TEST_SF, seed=SEED, with_faults=with_faults,
        work_dir=str(tmp_path_factory.mktemp("world")),
    )
    for k in ("points", "quarantined", "uplinks"):
        w[k] = w[k].cache()
    w.points.count(), w.uplinks.count()  # materialise caches once
    return w


@pytest.fixture(scope="session")
def world(spark, tmp_path_factory) -> runner.World:
    """The standard fault scenario: sensor deaths, drift, a flatline
    and gateway outages."""
    return _cached_world(spark, tmp_path_factory, with_faults=True)


@pytest.fixture(scope="session")
def clean_world(spark, tmp_path_factory) -> runner.World:
    """A fault-free, outage-free world for tests where injected faults
    would be noise (calibration, battery, dashboards)."""
    return _cached_world(spark, tmp_path_factory, with_faults=False)


@pytest.fixture(scope="session")
def nilu_df(spark):
    from repro.external import nilu

    return nilu.observations(spark, sf=TEST_SF, seed=SEED).cache()


@pytest.fixture(scope="session")
def traffic_df(spark):
    from repro.external import herecom

    return herecom.feed(spark, sf=TEST_SF, seed=SEED).cache()
