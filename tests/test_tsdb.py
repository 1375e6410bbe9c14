"""OpenTSDB-lite store + downsampling query layer (oracle-checked)."""
import pandas as pd
import pytest
from pyspark.sql import functions as F

from repro.oracle import assert_equivalent
from repro.tsdb import query, store


@pytest.fixture(scope="module")
def root(spark, world, tmp_path_factory):
    r = str(tmp_path_factory.mktemp("tsdb_root"))
    store.write(world.points, r)
    return r


class TestStore:
    def test_round_trip_count(self, spark, world, root):
        assert store.read(spark, root).count() == world.points.count()

    def test_metric_filter(self, spark, world, root):
        got = store.read(spark, root, metric="air.no2").count()
        want = world.points.filter("metric = 'air.no2'").count()
        assert got == want

    def test_time_range_filter(self, spark, world, root):
        t0 = pd.Timestamp("2017-01-02")
        t1 = pd.Timestamp("2017-01-03")
        got = store.read(spark, root, start=t0, end=t1)
        assert got.filter((F.col("ts") < F.lit(t0)) | (F.col("ts") >= F.lit(t1))).count() == 0
        want = world.points.filter(
            (F.col("ts") >= F.lit(t0)) & (F.col("ts") < F.lit(t1))
        ).count()
        assert got.count() == want

    def test_tag_filters(self, spark, world, root):
        got = store.read(spark, root, sensor_id="V-00", city="vejle").count()
        want = world.points.filter("sensor_id = 'V-00'").count()
        assert got == want

    def test_missing_columns_rejected(self, spark, world, tmp_path):
        with pytest.raises(ValueError, match="missing columns"):
            store.write(world.points.drop("city"), str(tmp_path / "bad"))

    def test_append_mode(self, spark, world, tmp_path):
        r = str(tmp_path / "appendable")
        small = world.points.limit(100)
        store.write(small, r)
        store.write(small, r)
        assert store.read(spark, r).count() == 200


class TestDownsample:
    def test_parse_spec(self):
        assert query.parse_downsample("1h-avg") == ("1 hours", "avg")
        assert query.parse_downsample("15m-max") == ("15 minutes", "max")
        assert query.parse_downsample("1d-count") == ("1 days", "count")

    @pytest.mark.parametrize("bad", ["1x-avg", "h-avg", "1h-median", "nope", "1h"])
    def test_parse_rejects(self, bad):
        with pytest.raises(ValueError):
            query.parse_downsample(bad)

    def test_hourly_avg_oracle(self, spark, world, root):
        pts = store.read(spark, root, metric="air.co2", sensor_id="T-00")
        got = query.downsample(pts, "1h-avg").select(
            "bucket", "sensor_id", F.round("value", 4).alias("value")
        )
        assert_equivalent(
            got,
            """
            SELECT date_trunc('hour', ts) AS bucket, sensor_id,
                   round(avg(value), 4) AS value
            FROM pts GROUP BY 1, 2
            """,
            pts=pts.toPandas(),
        )

    def test_daily_max_oracle(self, spark, world, root):
        pts = store.read(spark, root, metric="air.pm10")
        got = query.downsample(pts, "1d-max").select(
            "bucket", "sensor_id", F.round("value", 4).alias("value")
        )
        assert_equivalent(
            got,
            """
            SELECT date_trunc('day', ts) AS bucket, sensor_id,
                   round(max(value), 4) AS value
            FROM pts GROUP BY 1, 2
            """,
            pts=pts.toPandas(),
        )

    def test_count_oracle(self, spark, world, root):
        pts = store.read(spark, root, metric="node.battery", city="vejle")
        got = query.downsample(pts, "6h-count", by=("city",)).select(
            "bucket", "city", F.col("value").cast("long").alias("value")
        )
        assert_equivalent(
            got,
            """
            SELECT time_bucket(INTERVAL '6 hours', ts) AS bucket, city,
                   count(value) AS value
            FROM pts GROUP BY 1, 2
            """,
            pts=pts.toPandas(),
        )

    def test_series_ordered(self, spark, root):
        pts = store.read(spark, root, metric="air.no2", sensor_id="T-01")
        s = query.series(pts, "1h-avg").toPandas()
        assert s["bucket"].is_monotonic_increasing
