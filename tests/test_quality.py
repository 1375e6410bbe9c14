"""Outlier / flatline / drift detection against injected faults."""
import pytest
from pyspark.sql import functions as F

from repro.core import quality
from repro.dataport import twins
from repro.oracle import assert_equivalent


class TestRobustOutliers:
    def test_clean_data_few_outliers(self, clean_world):
        out = quality.robust_outliers(
            clean_world.points.filter("metric = 'air.co2'")
        )
        frac = out.filter("outlier").count() / out.count()
        assert frac < 0.01

    def test_injected_spike_caught(self, spark, clean_world):
        pts = clean_world.points.filter("metric = 'air.co2'").limit(2000)
        spike = pts.limit(1).withColumn("value", F.lit(4000.0))
        out = quality.robust_outliers(pts.union(spike))
        caught = out.filter("outlier AND value = 4000.0")
        assert caught.count() == 1

    def test_zscore_matches_oracle(self, clean_world):
        pts = clean_world.points.filter(
            "metric = 'air.no2' AND city = 'vejle'"
        )
        got = quality.robust_outliers(pts).select(
            "sensor_id", "ts", F.round("z_score", 3).alias("z_score")
        )
        assert_equivalent(
            got,
            """
            WITH s AS (
              SELECT median(value) AS med,
                     median(abs(value - (SELECT median(value) FROM pts)))
                       AS mad
              FROM pts
            )
            SELECT sensor_id, ts,
                   round(abs(value - s.med) / (1.4826 * s.mad + 1e-9), 3)
                     AS z_score
            FROM pts, s
            """,
            pts=pts.toPandas(),
        )


class TestFlatline:
    def test_injected_flatline_caught(self, world):
        # T-09's NO2 freezes at hour 20 → days 2 and 3 are flat.
        fl = quality.flatline_sensors(world.points.filter("metric = 'air.no2'"))
        flagged = fl.filter("flatline").toPandas()
        assert "T-09" in set(flagged["sensor_id"])

    def test_healthy_sensors_not_flagged(self, world):
        fl = quality.flatline_sensors(world.points.filter("metric = 'air.no2'"))
        flagged = fl.filter("flatline").toPandas()
        assert set(flagged["sensor_id"]) == {"T-09"}

    def test_flatline_oracle(self, world):
        # std_city is the spread of every reading of the city's metric
        # that day, not of the sensors' daily values.
        pts = world.points.filter(F.col("metric").isin("air.no2", "air.pm25"))
        got = quality.flatline_sensors(pts).select(
            "sensor_id", "metric", F.col("date").cast("string").alias("date"), "n", "flatline",
            F.round("std_sensor", 4).alias("std_sensor"),
            F.round("std_city", 4).alias("std_city"),
        )
        assert_equivalent(
            got,
            f"""
            WITH s AS (
              SELECT sensor_id, city, metric, CAST(ts AS DATE) AS date,
                     stddev_pop(value) AS std_sensor, count(*) AS n
              FROM pts GROUP BY ALL
            ), c AS (
              SELECT city, metric, CAST(ts AS DATE) AS date,
                     stddev_pop(value) AS std_city
              FROM pts GROUP BY ALL
            )
            SELECT sensor_id, metric, CAST(date AS VARCHAR) AS date, n,
                   n >= 12 AND std_sensor < {quality.FLATLINE_REL_STD} * std_city
                     AS flatline,
                   round(std_sensor, 4) AS std_sensor, round(std_city, 4) AS std_city
            FROM s JOIN c USING (city, metric, date)
            """,
            pts=pts.select("sensor_id", "city", "metric", "ts", "value").toPandas(),
        )

    def test_other_metrics_of_faulty_sensor_fine(self, world):
        fl = quality.flatline_sensors(world.points.filter("metric = 'air.co2'"))
        assert fl.filter("flatline").count() == 0


class TestDrift:
    def test_injected_drift_caught(self, world):
        dr = quality.drift_scores(world.points.filter("metric = 'air.co2'"))
        flagged = dr.filter("drifting").toPandas()
        assert set(flagged["sensor_id"]) == {"T-05"}

    def test_drift_magnitude_plausible(self, world):
        dr = quality.drift_scores(world.points.filter("metric = 'air.co2'"))
        t05 = dr.filter("sensor_id = 'T-05'").first()
        # 0.4 %/h gain drift on a ~470 ppm signal ≈ 45 ppm/day divergence
        assert 20 < t05["slope_per_day"] < 80

    def test_clean_world_no_drifters(self, clean_world):
        dr = quality.drift_scores(clean_world.points.filter("metric = 'air.co2'"))
        assert dr.filter("drifting").count() == 0

    def test_divergence_oracle(self, world):
        # day_index counts days from the first day of the sensor's (city,
        # metric); divergence is the sensor's daily mean minus the median
        # of its city's daily sensor means.
        pts = world.points.filter(F.col("metric").isin("air.co2", "air.pm10"))
        got = quality.divergence_from_network(pts).select(
            "sensor_id", "metric", "day_index",
            F.round("divergence", 4).alias("divergence"),
        )
        assert_equivalent(
            got,
            """
            WITH sd AS (
              SELECT sensor_id, city, metric, CAST(ts AS DATE) AS d,
                     avg(value) AS v_sensor
              FROM pts GROUP BY ALL
            ), cd AS (
              SELECT city, metric, d, median(v_sensor) AS v_network
              FROM sd GROUP BY ALL
            )
            SELECT sensor_id, metric,
                   CAST(date_diff('day', min(d) OVER (PARTITION BY city, metric), d)
                        AS DOUBLE) AS day_index,
                   round(v_sensor - v_network, 4) AS divergence
            FROM sd JOIN cd USING (city, metric, d)
            """,
            pts=pts.select("sensor_id", "city", "metric", "ts", "value").toPandas(),
        )

    def test_divergence_centered_for_healthy(self, clean_world):
        div = quality.divergence_from_network(
            clean_world.points.filter("metric = 'air.pm10'")
        )
        m = div.agg(F.avg(F.abs("divergence")).alias("m")).collect()[0]["m"]
        assert m < 5.0


class TestMissingDataSummary:
    def test_summary_accounting(self, world):
        gaps = twins.packet_gaps(world.uplinks)
        s = quality.missing_data_summary(gaps).toPandas().set_index("sensor_id")
        assert (s["delivery_ratio"] <= 1.0).all()
        assert (s["delivery_ratio"] > 0.8).all()
        # The far-from-gateways sensor loses the most packets.
        assert s["missed_cycles"].max() > 10
