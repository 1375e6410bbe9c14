"""3D city model integration (Fig 7 / E9)."""
import pytest
from pyspark.sql import functions as F

from repro.core import citymodel, dashboard
from repro.external import citygml
from repro.iot import deployment as dep


@pytest.fixture(scope="module")
def sensors_df(spark):
    return dep.sensors(spark).cache()


@pytest.fixture(scope="module")
def buildings_df(spark):
    return citygml.buildings(spark).cache()


@pytest.fixture(scope="module")
def grid_df(spark):
    return citygml.grid(spark).cache()


@pytest.fixture(scope="module")
def cells(clean_world, sensors_df, grid_df):
    latest = dashboard.latest_per_sensor(
        clean_world.points.filter("metric = 'air.no2'")
    )
    return citymodel.cell_pollution(latest, sensors_df, grid_df).cache()


class TestAssignment:
    def test_nearest_building(self, sensors_df, buildings_df):
        asg = citymodel.assign_sensors_to_buildings(sensors_df, buildings_df).toPandas()
        assert asg["sensor_id"].is_unique
        assert (asg["distance_m"] <= citymodel.ATTACH_MAX_M).all()

    def test_city_respected(self, sensors_df, buildings_df):
        asg = citymodel.assign_sensors_to_buildings(sensors_df, buildings_df).toPandas()
        assert (
            asg["building_id"].str[2:4] == asg["city"].str[:2]
        ).all()

    def test_is_actually_nearest(self, sensors_df, buildings_df):
        import numpy as np

        asg = citymodel.assign_sensors_to_buildings(sensors_df, buildings_df).toPandas()
        b = citygml.buildings_pdf().set_index("building_id")
        s = dep.sensors_pdf().set_index("sensor_id")
        for _, row in asg.iterrows():
            srow = s.loc[row["sensor_id"]]
            cb = b[b["city"] == srow["city"]]
            dmin = np.sqrt(
                (cb["x_m"] - srow["x_m"]) ** 2 + (cb["y_m"] - srow["y_m"]) ** 2
            ).min()
            assert abs(dmin - row["distance_m"]) < 0.2


class TestCellPollution:
    def test_cells_covered_near_sensors(self, cells, sensors_df):
        assert cells.count() > 50  # dense-ish coverage around 14 sensors

    def test_values_positive_banded(self, cells):
        pdf = cells.toPandas()
        assert (pdf["value"] > 0).all()
        assert pdf["band"].isin(dashboard.AQI_BANDS).all()

    def test_n_sensors_bounded(self, cells):
        assert cells.agg(F.max("n_sensors").alias("m")).first()["m"] <= 14

    def test_uncovered_cells_absent(self, cells, grid_df):
        assert cells.count() < grid_df.count()


class TestInjection:
    def test_scenario_changes_bands(self, cells):
        inj = citymodel.inject_scenario(cells, factor=3.0)
        assert inj.filter("changed").count() > 0

    def test_outside_region_untouched(self, cells):
        inj = citymodel.inject_scenario(
            cells, factor=3.0, x_c=0.0, y_c=0.0, radius_m=500.0
        ).toPandas()
        far = inj[(inj["x_c"] ** 2 + inj["y_c"] ** 2) > 500.0**2]
        assert (far["value_injected"] == far["value"]).all()
        assert not far["changed"].any()

    def test_factor_one_is_noop(self, cells):
        inj = citymodel.inject_scenario(cells, factor=1.0)
        assert inj.filter("changed").count() == 0


class TestSiting:
    def test_top_n_per_city(self, spark, grid_df, cells, buildings_df):
        sit = citymodel.siting_candidates(
            grid_df, cells, buildings_df, dep.road_links(spark), top_n=5
        ).toPandas()
        assert (sit.groupby("city").size() == 5).all()

    def test_candidates_are_uncovered(self, spark, grid_df, cells, buildings_df):
        sit = citymodel.siting_candidates(
            grid_df, cells, buildings_df, dep.road_links(spark), top_n=10
        )
        overlap = sit.join(cells.select("cell_id"), "cell_id", "inner")
        assert overlap.count() == 0

    def test_scores_ranked(self, spark, grid_df, cells, buildings_df):
        sit = citymodel.siting_candidates(
            grid_df, cells, buildings_df, dep.road_links(spark), top_n=10
        ).toPandas()
        for _, grp in sit.groupby("city"):
            assert grp.sort_values("rk")["score"].is_monotonic_decreasing
