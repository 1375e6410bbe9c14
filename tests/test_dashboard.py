"""Dashboard aggregations (Figs 6 & 8), oracle-checked."""
import pandas as pd
import pytest
from pyspark.sql import functions as F

from repro.core import dashboard
from repro.oracle import assert_equivalent


class TestLatest:
    def test_one_row_per_sensor_metric(self, clean_world):
        latest = dashboard.latest_per_sensor(clean_world.points)
        assert latest.count() == 14 * 9  # 9 payload metrics

    def test_latest_oracle(self, clean_world):
        got = dashboard.latest_per_sensor(
            clean_world.points.filter("metric = 'air.co2'")
        ).select("sensor_id", "ts", F.round("value", 3).alias("value"))
        pts = clean_world.points.filter("metric = 'air.co2'").toPandas()
        assert_equivalent(
            got,
            """
            SELECT sensor_id, max(ts) AS ts,
                   round(arg_max(value, ts), 3) AS value
            FROM pts GROUP BY sensor_id
            """,
            pts=pts,
        )

    def test_as_of_respected(self, clean_world):
        cut = pd.Timestamp("2017-01-02")
        latest = dashboard.latest_per_sensor(clean_world.points, as_of=cut)
        assert latest.filter(F.col("ts") > F.lit(cut)).count() == 0


class TestAQI:
    def test_band_for_pure(self):
        assert dashboard.band_for("no2", 10.0) == "good"
        assert dashboard.band_for("no2", 40.0) == "fair"
        assert dashboard.band_for("no2", 250.0) == "very_poor"
        assert dashboard.band_for("pm25", 24.9) == "moderate"
        assert dashboard.band_for("pm10", 100.0) == "very_poor"

    def test_sql_banding_matches_python(self, clean_world):
        aq = dashboard.air_quality_index(clean_world.points).toPandas()
        latest = dashboard.latest_per_sensor(
            clean_world.points.filter(
                F.col("metric").isin("air.no2", "air.pm10", "air.pm25")
            )
        ).toPandas()
        for _, row in latest.iterrows():
            fld = row["metric"].replace("air.", "")
            want = dashboard.band_for(fld, row["value"])
            got = aq[aq["sensor_id"] == row["sensor_id"]][fld].iloc[0]
            assert got == want, (row["sensor_id"], fld)

    def test_overall_is_worst(self, clean_world):
        aq = dashboard.air_quality_index(clean_world.points).toPandas()
        rank = {b: i for i, b in enumerate(dashboard.AQI_BANDS)}
        for _, r in aq.iterrows():
            worst = max(rank[r["no2"]], rank[r["pm10"]], rank[r["pm25"]])
            assert rank[r["overall_band"]] == worst

    def test_every_sensor_has_index(self, clean_world):
        aq = dashboard.air_quality_index(clean_world.points)
        assert aq.count() == 14


class TestSeriesAndTiles:
    def test_hourly_series_window(self, clean_world):
        cut = pd.Timestamp("2017-01-03")
        s = dashboard.hourly_series(
            clean_world.points.filter("metric = 'air.no2'"), as_of=cut
        ).toPandas()
        assert s["bucket"].min() >= cut - pd.Timedelta(hours=24)
        # "now" (= as_of) is included, so the boundary instant opens a
        # 25th, single-point bucket.
        assert s["bucket"].max() <= cut
        one = s[s["sensor_id"] == "T-00"]
        assert len(one) in (24, 25)

    def test_hourly_series_oracle(self, clean_world):
        got = dashboard.hourly_series(
            clean_world.points.filter("metric = 'air.pm25' AND sensor_id = 'V-00'")
        ).select("bucket", F.round("value", 4).alias("value"))
        pts = clean_world.points.filter(
            "metric = 'air.pm25' AND sensor_id = 'V-00'"
        ).toPandas()
        assert_equivalent(
            got,
            """
            SELECT date_trunc('hour', ts) AS bucket,
                   round(avg(value), 4) AS value
            FROM pts GROUP BY 1
            """,
            pts=pts[["ts", "value"]],
        )

    def test_traffic_tiles(self, traffic_df):
        tiles = dashboard.traffic_tiles(traffic_df).toPandas()
        assert len(tiles) == 7
        assert tiles["jam_now"].between(0, 10).all()
        assert tiles["jam_avg"].between(0, 10).all()

    def test_traffic_tiles_oracle(self, traffic_df):
        got = dashboard.traffic_tiles(traffic_df).select(
            "link_id", "city", "ts",
            F.round("jam_now", 4).alias("jam_now"),
            F.round("jam_avg", 4).alias("jam_avg"),
        )
        assert_equivalent(
            got,
            """
            SELECT link_id, city, max(ts) AS ts,
                   round(arg_max(jam_factor, ts), 4) AS jam_now,
                   round(avg(jam_factor), 4) AS jam_avg
            FROM feed GROUP BY link_id, city
            """,
            feed=traffic_df.select("link_id", "city", "ts", "jam_factor").toPandas(),
        )

    def test_traffic_tiles_as_of(self, traffic_df):
        cut = pd.Timestamp("2017-01-02 08:00")
        tiles = dashboard.traffic_tiles(traffic_df, as_of=cut).toPandas()
        assert (tiles["ts"] == cut).all()  # feed has a row at every tick


class TestWallSummary:
    def test_per_city_row(self, clean_world):
        w = dashboard.wall_summary(clean_world.uplinks, clean_world.points).toPandas()
        assert set(w["city"]) == {"trondheim", "vejle"}

    def test_totals_oracle(self, clean_world):
        got = dashboard.wall_summary(
            clean_world.uplinks, clean_world.points
        ).select("city", "sensors_active", "uplinks", "data_points")
        up = clean_world.uplinks.select("city", "sensor_id").toPandas()
        pts = clean_world.points.select("city").toPandas()
        assert_equivalent(
            got,
            """
            SELECT u.city,
                   count(DISTINCT u.sensor_id) AS sensors_active,
                   count(*) AS uplinks,
                   any_value(p.n) AS data_points
            FROM up u JOIN (
              SELECT city, count(*) AS n FROM pts GROUP BY city
            ) p ON u.city = p.city
            GROUP BY u.city
            """,
            up=up,
            pts=pts,
        )
