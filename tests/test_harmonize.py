"""Harmonization of heterogeneous sources onto the common grid."""
import pytest
from pyspark.sql import functions as F

from repro.core import harmonize
from repro.oracle import assert_equivalent


class TestSensorCitySeries:
    def test_network_mean_oracle(self, spark, world):
        got = (
            harmonize.sensor_city_series(world.points)
            .filter(F.col("metric") == "air.no2")
            .select("city", "bucket", F.round("value", 4).alias("value"), "n_sensors")
        )
        pts = world.points.filter("metric = 'air.no2'").toPandas()
        assert_equivalent(
            got,
            """
            SELECT city, date_trunc('hour', ts) AS bucket,
                   round(avg(value), 4) AS value,
                   count(DISTINCT sensor_id) AS n_sensors
            FROM pts GROUP BY 1, 2
            """,
            pts=pts,
        )

    def test_sensor_aggregation_counts(self, world):
        s = harmonize.sensor_city_series(world.points).filter(
            "metric = 'air.co2' AND city = 'trondheim'"
        )
        # Early buckets (pre-fault): all 12 sensors contribute.
        first = s.orderBy("bucket").first()
        assert first["n_sensors"] == 12


class TestIntegratedFrame:
    @pytest.fixture(scope="class")
    def wide(self, world, nilu_df, traffic_df):
        return harmonize.integrated_city_frame(
            world.points, nilu_df, traffic_df
        ).cache()

    def test_columns(self, wide):
        cols = set(wide.columns)
        assert {"city", "bucket", "air_co2", "air_no2", "nilu_no2",
                "jam_factor", "weather_temperature"} <= cols

    def test_column_order(self, wide):
        assert wide.columns == [
            "city", "bucket",
            "air_co2", "air_no2", "air_pm10", "air_pm25",
            "node_battery", "node_interval_min",
            "weather_humidity", "weather_pressure", "weather_temperature",
            "nilu_co2", "nilu_no2", "nilu_pm10", "nilu_pm25",
            "jam_factor",
        ]

    def test_every_column_oracle(self, wide, world, nilu_df, traffic_df):
        # Each source is pivoted on its own and full-joined on (city,
        # hour), so the oracle does not share the frame's single
        # aggregate over the sources' union.
        values = [c for c in wide.columns if c not in ("city", "bucket")]
        sensor = [c for c in values if not c.startswith("nilu_") and c != "jam_factor"]
        station = [c for c in values if c.startswith("nilu_")]
        sens_cols = ", ".join(
            f"avg(value) FILTER (WHERE metric = '{c.replace('_', '.', 1)}') AS {c}"
            for c in sensor
        )
        st_cols = ", ".join(
            f"avg(value) FILTER (WHERE field = '{c[5:]}') AS {c}" for c in station
        )
        got = wide.select(
            "city", "bucket", *[F.round(c, 4).alias(c) for c in values]
        )
        assert_equivalent(
            got,
            f"""
            WITH s AS (
              SELECT city, date_trunc('hour', ts) AS bucket, {sens_cols}
              FROM pts GROUP BY ALL
            ), n AS (
              SELECT city, date_trunc('hour', ts) AS bucket, {st_cols}
              FROM nilu GROUP BY ALL
            ), t AS (
              SELECT city, date_trunc('hour', ts) AS bucket,
                     avg(jam_factor) AS jam_factor
              FROM feed GROUP BY ALL
            )
            SELECT coalesce(s.city, n.city, t.city) AS city,
                   coalesce(s.bucket, n.bucket, t.bucket) AS bucket,
                   {", ".join(f"round({c}, 4) AS {c}" for c in values)}
            FROM s
            FULL JOIN n ON s.city = n.city AND s.bucket = n.bucket
            FULL JOIN t ON coalesce(s.city, n.city) = t.city
                       AND coalesce(s.bucket, n.bucket) = t.bucket
            """,
            pts=world.points.select("city", "ts", "metric", "value").toPandas(),
            nilu=nilu_df.select("city", "ts", "field", "value").toPandas(),
            feed=traffic_df.select("city", "ts", "jam_factor").toPandas(),
        )

    def test_one_row_per_city_bucket(self, wide):
        dupes = wide.groupBy("city", "bucket").count().filter("count > 1")
        assert dupes.count() == 0

    def test_full_join_keeps_all_buckets(self, wide, nilu_df, traffic_df, world):
        # The full outer join has one row per (city, hour) any source covers.
        buckets = (
            world.points.select("city", "ts")
            .unionByName(nilu_df.select("city", "ts"))
            .unionByName(traffic_df.select("city", "ts"))
            .select("city", F.date_trunc("hour", "ts"))
            .distinct()
        )
        assert wide.count() == buckets.count()

    def test_values_physically_plausible(self, wide):
        row = wide.filter("air_co2 IS NOT NULL").first()
        assert 380 < row["air_co2"] < 600

    def test_station_and_network_agree_in_trend(self, wide):
        r = wide.filter(
            "city = 'trondheim' AND air_no2 IS NOT NULL AND nilu_no2 IS NOT NULL"
        ).agg(F.corr("air_no2", "nilu_no2").alias("r")).collect()[0]["r"]
        assert r > 0.5  # different footprints, same city signal


class TestSourceProfile:
    def test_sensor_cadence(self, world):
        prof = harmonize.source_profile(
            world.points.filter("metric = 'air.co2' AND sensor_id = 'T-00'"),
        )
        assert prof["cadence_min"] == 5.0

    def test_sensor_units(self, world):
        prof = harmonize.source_profile(world.points, unit_cols=("sensor_id",))
        assert prof["units"] == 14

    def test_nilu_cadence(self, nilu_df):
        prof = harmonize.source_profile(
            nilu_df.filter("station_id = 'st-tr' AND field = 'no2'"),
            unit_cols=("station_id",),
        )
        assert prof["cadence_min"] == 60.0
        assert prof["units"] == 1

    def test_traffic_units(self, traffic_df):
        prof = harmonize.source_profile(traffic_df, unit_cols=("link_id",))
        assert prof["units"] == 7

    def test_empty_source(self, spark):
        empty = spark.createDataFrame([], "ts timestamp, v double")
        prof = harmonize.source_profile(empty)
        assert prof["rows"] == 0 and prof["cadence_min"] is None


class TestJoinCoverage:
    def test_full_coverage_of_self(self, world, traffic_df):
        tr = harmonize.traffic_series(traffic_df)
        assert harmonize.join_coverage(tr, tr) == 1.0

    def test_partial_coverage(self, world, traffic_df, nilu_df):
        tr = harmonize.traffic_series(traffic_df)
        st = harmonize.station_series(nilu_df).withColumnRenamed("field", "f")
        cov = harmonize.join_coverage(tr, st)
        assert 0.9 <= cov <= 1.0  # hourly station covers hourly buckets

    def test_zero_for_disjoint(self, spark, traffic_df):
        tr = harmonize.traffic_series(traffic_df)
        other = tr.withColumn("bucket", F.col("bucket") + F.expr("INTERVAL 400 DAYS"))
        assert harmonize.join_coverage(tr, other) == 0.0
