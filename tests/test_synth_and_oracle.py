"""CTT dataset entry points and the DuckDB oracle's self-tests."""
import pandas as pd
import pytest
from pyspark.sql import functions as F

from repro.external import herecom, municipal, nilu
from repro.iot import deployment
from repro.oracle import assert_equivalent


class TestCttReexports:
    def test_registries(self, spark):
        assert deployment.sensors(spark).count() == 14
        assert deployment.gateways(spark).count() == 5
        assert deployment.stations(spark).count() == 2
        assert deployment.road_links(spark).count() == 7

    def test_external_feeds(self, spark):
        assert nilu.observations(spark, sf=0.005).count() > 0
        assert herecom.feed(spark, sf=0.005).count() > 0
        assert municipal.counts(spark, sf=0.005).count() > 0


class TestOracle:
    @pytest.fixture(scope="class")
    def pts(self, world):
        return world.points.filter("metric = 'air.co2'").select("sensor_id", "value")

    def test_detects_wrong_result(self, pts):
        wrong = pts.groupBy("sensor_id").agg((F.count(F.lit(1)) + 1).alias("n"))
        with pytest.raises(AssertionError):
            assert_equivalent(
                wrong, "SELECT sensor_id, count(*) AS n FROM pts GROUP BY 1", pts=pts
            )

    def test_detects_column_mismatch(self, pts):
        got = pts.groupBy("sensor_id").agg(F.count(F.lit(1)).alias("total"))
        with pytest.raises(AssertionError, match="column mismatch"):
            assert_equivalent(
                got, "SELECT sensor_id, count(*) AS n FROM pts GROUP BY 1", pts=pts
            )

    def test_accepts_pandas_tables(self, spark):
        pdf = pd.DataFrame({"k": [1, 1, 2], "v": [1.0, 2.0, 3.0]})
        got = spark.createDataFrame(pdf).groupBy("k").agg(
            F.sum("v").alias("s")
        )
        assert_equivalent(got, "SELECT k, sum(v) AS s FROM t GROUP BY k", t=pdf)
