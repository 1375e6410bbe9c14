"""Harmonization of heterogeneous sources onto the common grid."""
from functools import reduce

import pandas as pd
import pytest
from pyspark.sql import functions as F

from repro.core import harmonize
from repro.external import citygml, municipal
from repro.iot import deployment
from repro.oracle import assert_equivalent
from tests.conftest import SEED, TEST_SF


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


@pytest.fixture(scope="module")
def sources(spark, world, nilu_df, traffic_df):
    """Every behaviour of :func:`harmonize.source_matrix` in one call:
    the frames and unit columns of the sources next to the sensor
    network."""
    day1 = F.col("ts") < F.lit(deployment.SIM_START + pd.Timedelta(days=1))
    first = nilu_df.agg(F.min("ts")).first()[0]
    return {
        "sensor_copy": (world.points, ("sensor_id",)),
        "sensor_T-00_co2": (
            world.points.filter("metric = 'air.co2' AND sensor_id = 'T-00'"), ("sensor_id",)),
        "nilu": (nilu_df, ("station_id",)),
        "nilu_st-tr_no2": (
            nilu_df.filter("station_id = 'st-tr' AND field = 'no2'"), ("station_id",)),
        "nilu_one_instant": (nilu_df.filter(F.col("ts") == F.lit(first)), ("station_id",)),
        "traffic": (traffic_df, ("link_id",)),
        "traffic_shifted": (
            traffic_df.withColumn("ts", F.col("ts") + F.expr("INTERVAL 400 DAYS")), ("link_id",)),
        "municipal_day1": (
            municipal.counts(spark, sf=TEST_SF, seed=SEED).filter(day1), ("link_id",)),
        "empty": (spark.createDataFrame([], "city string, ts timestamp, v double"), ("city",)),
        "buildings": (citygml.buildings(spark, seed=SEED), ("city", "building_id")),
    }


@pytest.fixture(scope="module")
def matrix(world, sources):
    return harmonize.source_matrix(world.points, sources).toPandas().set_index("source")


class TestSourceMatrix:
    def test_matrix_oracle(self, world, sources):
        """Rows, distinct units, median gap between distinct instants,
        span and the share of the sensor network's (city, hour) grid,
        per source, in DuckDB: one row for each source, the empty one
        included; no cadence for one instant; no cadence, span or
        coverage without ``ts``."""
        named = {"sensor_network": (world.points, ("sensor_id",)), **sources}
        frames = []
        for name, (df, cols) in named.items():
            timed = "ts" in df.columns
            pdf = df.select(*dict.fromkeys([*cols, *(["city", "ts"] if timed else [])])).toPandas()
            frames.append(pd.DataFrame({
                "source": name,
                "unit": reduce(lambda a, b: a + "/" + b, (pdf[c].astype(str) for c in cols)),
                "city": pdf["city"] if timed else None,
                "ts": pdf["ts"] if timed else pd.NaT,
            }))
        assert_equivalent(
            harmonize.source_matrix(world.points, sources),
            """
            WITH grid AS (
              SELECT DISTINCT city, date_trunc('hour', ts) AS b
              FROM src WHERE source = 'sensor_network'
            ), p AS (
              SELECT source, count(*) AS n, count(DISTINCT unit) AS u
              FROM src GROUP BY source
            ), t AS (
              SELECT source, median(gap) AS gap,
                     (epoch_us(max(ts)) - epoch_us(min(ts))) / 86400e6 AS span
              FROM (
                SELECT source, ts,
                       epoch(ts) - epoch(lag(ts) OVER (PARTITION BY source ORDER BY ts)) AS gap
                FROM (SELECT DISTINCT source, ts FROM src WHERE ts IS NOT NULL)
              ) GROUP BY source
            ), h AS (
              SELECT source, count(*) AS hits
              FROM (SELECT DISTINCT source, city, date_trunc('hour', ts) AS b
                    FROM src WHERE ts IS NOT NULL)
              JOIN grid USING (city, b) GROUP BY source
            )
            SELECT source, coalesce(n, 0) AS rows, coalesce(u, 0) AS units,
                   round(gap / 60, 2) AS cadence_min,
                   CASE WHEN timed THEN round(coalesce(span, 0), 2) END AS span_days,
                   CASE WHEN timed THEN
                     round(coalesce(hits, 0) / (SELECT count(*) FROM grid), 4)
                   END AS hourly_coverage
            FROM names LEFT JOIN p USING (source) LEFT JOIN t USING (source)
                       LEFT JOIN h USING (source)
            """,
            src=pd.concat(frames, ignore_index=True),
            names=pd.DataFrame(
                [(n, "ts" in df.columns) for n, (df, _) in named.items()],
                columns=["source", "timed"],
            ),
        )


class TestSourceProfile:
    """The rows, units and cadence columns of :func:`harmonize.source_matrix`."""

    def test_sensor_cadence(self, matrix):
        assert matrix.loc["sensor_T-00_co2", "cadence_min"] == 5.0

    def test_sensor_units(self, matrix):
        assert matrix.loc["sensor_network", "units"] == 14

    def test_nilu_cadence(self, matrix):
        assert matrix.loc["nilu_st-tr_no2", "cadence_min"] == 60.0
        assert matrix.loc["nilu_st-tr_no2", "units"] == 1
        assert matrix.loc["nilu", "units"] == 2

    def test_traffic_units(self, matrix):
        assert matrix.loc["traffic", "units"] == 7

    def test_empty_source(self, matrix):
        row = matrix.loc["empty"]
        assert row["rows"] == 0 and row["units"] == 0
        assert pd.isna(row["cadence_min"])
        assert row["span_days"] == 0.0 and row["hourly_coverage"] == 0.0


class TestJoinCoverage:
    """The hourly_coverage column of :func:`harmonize.source_matrix`."""

    def test_full_coverage_of_self(self, matrix):
        assert matrix.loc["sensor_network", "hourly_coverage"] == 1.0
        assert matrix.loc["sensor_copy", "hourly_coverage"] == 1.0

    def test_partial_coverage(self, matrix, world):
        # One day of municipal counts covers that day's 24 hours in both
        # cities, out of the hours the sensor network reported in.
        grid = world.points.select("city", F.date_trunc("hour", "ts")).distinct().count()
        assert grid > 48
        assert matrix.loc["municipal_day1", "hourly_coverage"] == round(48 / grid, 4)

    def test_zero_for_disjoint(self, matrix):
        assert matrix.loc["traffic_shifted", "hourly_coverage"] == 0.0
