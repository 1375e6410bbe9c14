"""Building an analysis runs no Spark job.

A DataFrame is a plan; only an action should run it. A ``pivot``
without a value list, for one, runs jobs while the DataFrame is built,
to find its output columns. Each analysis below is built under a fresh
job group, which must then hold no job.
"""
import pandas as pd
import pytest

from repro.core import battery, co2_traffic, dashboard, harmonize, quality
from repro.dataport import hierarchy
from repro.iot import deployment as dep

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


@pytest.mark.parametrize("name", list(BUILDERS))
def test_building_runs_no_job(spark, world, nilu_df, traffic_df, irr, name):
    sc = spark.sparkContext
    group = f"build-{name}"
    sc.setJobGroup(group, f"build {name}")
    try:
        BUILDERS[name](world, nilu_df, traffic_df, irr)
        jobs = sc.statusTracker().getJobIdsForGroup(group)
    finally:
        sc.setLocalProperty("spark.jobGroup.id", None)
        sc.setLocalProperty("spark.job.description", None)
    assert jobs == []
