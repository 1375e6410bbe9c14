"""Building an analysis runs no Spark job, and landing runs none at all.

A DataFrame is a plan; only an action should run it. A ``pivot``
without a value list, for one, runs jobs while the DataFrame is built,
to find its output columns. Each analysis below is built under a fresh
job group, which must then hold no job. The TTN dedup and the MQTT
landing run on the driver, so they too leave their job group empty.
"""
import os

import pandas as pd
import pytest

from repro.core import battery, co2_traffic, dashboard, harmonize, quality
from repro.dataport import hierarchy
from repro.iot import deployment as dep
from repro.lorawan import mqtt, network

BUILDERS = {
    "integrated_city_frame": lambda w, nl, tr, irr: harmonize.integrated_city_frame(
        w.points, nl, tr),
    "air_quality_index": lambda w, nl, tr, irr: dashboard.air_quality_index(w.points),
    "traffic_tiles": lambda w, nl, tr, irr: dashboard.traffic_tiles(tr),
    "battery_deltas": lambda w, nl, tr, irr: battery.battery_deltas(w.uplinks, irr),
    "classify": lambda w, nl, tr, irr: hierarchy.classify(
        w.uplinks, dep.SIM_START + pd.Timedelta(hours=45)),
    "drift_scores": lambda w, nl, tr, irr: quality.drift_scores(w.points),
    "flatline_sensors": lambda w, nl, tr, irr: quality.flatline_sensors(w.points),
    "robust_outliers": lambda w, nl, tr, irr: quality.robust_outliers(w.points),
    "source_matrix": lambda w, nl, tr, irr: harmonize.source_matrix(
        w.points, {"official_air_quality": (nl, ("station_id",)),
                   "traffic_density": (tr, ("link_id",))}),
    "diurnal_profiles": lambda w, nl, tr, irr: co2_traffic.diurnal_profiles(
        co2_traffic.aligned_series(
            w.points, tr, sensor_id="T-01", link_id="T-elgeseter")),
}


@pytest.fixture(scope="module")
def irr(spark, world):
    return battery.irradiance_table(spark, sf=world.sf, seed=0)


def jobs_run_by(spark, group: str, fn) -> list[int]:
    """The Spark jobs ``fn()`` runs, under a fresh job group."""
    sc = spark.sparkContext
    sc.setJobGroup(group, group)
    try:
        fn()
        return sc.statusTracker().getJobIdsForGroup(group)
    finally:
        sc.setLocalProperty("spark.jobGroup.id", None)
        sc.setLocalProperty("spark.job.description", None)


@pytest.mark.parametrize("name", list(BUILDERS))
def test_building_runs_no_job(spark, world, nilu_df, traffic_df, irr, name):
    build = BUILDERS[name]
    assert jobs_run_by(spark, f"build-{name}",
                       lambda: build(world, nilu_df, traffic_df, irr)) == []


def test_landing_runs_no_job(spark, world, tmp_path):
    out = str(tmp_path / "landing")
    assert jobs_run_by(spark, "land", lambda: mqtt.land_messages(
        network.ttn_dedup(world.receptions_pdf), out)) == []
    assert sorted(os.listdir(out)) == sorted(os.listdir(world.landing_dir))
