"""Data quality: outliers and malfunctioning sensors.

§2.4: "In connection with the network monitoring, it also allows the
identification of outliers and malfunctioning sensors"; §2.3 names the
fault classes: "decaying sensors, erroneous behavior of sensor nodes,
or missing data patterns".

Three detectors, all pure DataFrame transformations:

* :func:`robust_outliers` — per (city, metric) median/MAD z-score;
  robust statistics so the outliers themselves don't mask the scale.
* :func:`flatline_sensors` — a stuck channel has (near-)zero variance
  over a day while its city peers vary.
* :func:`drift_scores` — a decaying sensor diverges from the network
  median over time; the detector fits a per-sensor linear trend to the
  daily (sensor − network median) difference and flags steep slopes.
"""
from __future__ import annotations

from pyspark.sql import DataFrame, Window
from pyspark.sql import functions as F

#: Robust z-score threshold for point outliers.
OUTLIER_Z = 5.0
#: A day whose per-sensor stddev is below this fraction of the city's
#: stddev is a flatline day.
FLATLINE_REL_STD = 0.05
#: |daily divergence slope| (units/day) beyond which a sensor is
#: flagged as drifting, per metric field.
#: Calibrated against healthy-network variability: location-specific
#: weather response gives healthy sensors apparent slopes of ±2–3
#: units/day over short windows, while an injected decaying sensor
#: (0.4 %/h gain drift) diverges by tens of units/day.
DRIFT_SLOPE = {"co2": 8.0, "no2": 4.0, "pm10": 3.0, "pm25": 2.0}


def robust_outliers(points: DataFrame, *, z: float = OUTLIER_Z) -> DataFrame:
    """Flag data points whose robust z-score exceeds ``z``.

    z = |value − median| / (1.4826·MAD), computed per (city, metric).
    Returns the input plus ``med``, ``mad``, ``z_score``, ``outlier``.
    """
    by_metric = Window.partitionBy("city", "metric")
    out = (
        points.withColumn("med", F.median("value").over(by_metric))
        .withColumn("mad", F.median(F.abs(F.col("value") - F.col("med"))).over(by_metric))
        .withColumn(
            "z_score",
            F.abs(F.col("value") - F.col("med")) / (1.4826 * F.col("mad") + 1e-9),
        )
    )
    return out.withColumn("outlier", F.col("z_score") > z)


def flatline_sensors(points: DataFrame) -> DataFrame:
    """Per (sensor, metric, day): flag days with collapsed variance.

    Returns sensor_id, city, metric, date, std_sensor, std_city,
    flatline.
    """
    daily = points.withColumn("date", F.to_date("ts")).withColumn(
        "std_city", F.stddev_pop("value").over(Window.partitionBy("city", "metric", "date"))
    )
    return (
        daily.groupBy("sensor_id", "city", "metric", "date")
        .agg(
            F.stddev_pop("value").alias("std_sensor"),
            F.count(F.lit(1)).alias("n"),
            F.any_value("std_city").alias("std_city"),
        )
        .withColumn(
            "flatline",
            (F.col("n") >= 12)
            & (F.col("std_sensor") < FLATLINE_REL_STD * F.col("std_city")),
        )
    )


def divergence_from_network(points: DataFrame) -> DataFrame:
    """Daily per-sensor divergence from the network median.

    Returns sensor_id, city, metric, date, day_index, divergence —
    the input to drift fitting. The *median* across sensors is robust
    to the drifting sensor itself (for network sizes ≥ 3).
    """
    daily = points.withColumn("date", F.to_date("ts"))
    sensor_day = daily.groupBy("sensor_id", "city", "metric", "date").agg(
        F.avg("value").alias("v_sensor")
    )
    d0 = F.min("date").over(Window.partitionBy("city", "metric"))
    v_network = F.median("v_sensor").over(Window.partitionBy("city", "metric", "date"))
    return (
        sensor_day.withColumn("v_network", v_network)
        .withColumn("day_index", F.datediff("date", d0).cast("double"))
        .withColumn("divergence", F.col("v_sensor") - F.col("v_network"))
    )


def drift_scores(points: DataFrame) -> DataFrame:
    """Per (sensor, metric): slope of daily divergence; flag drifters.

    Returns sensor_id, city, metric, slope_per_day, n_days, drifting.
    """
    div = divergence_from_network(points)
    fitted = div.groupBy("sensor_id", "city", "metric").agg(
        (
            F.covar_pop("day_index", "divergence") / (F.var_pop("day_index") + 1e-12)
        ).alias("slope_per_day"),
        F.countDistinct("date").alias("n_days"),
    )
    thresh = F.create_map(
        *[
            x
            for k, v in DRIFT_SLOPE.items()
            for x in (F.lit(f"air.{k}"), F.lit(v))
        ]
    )
    return fitted.withColumn(
        "drifting",
        (F.col("n_days") >= 3)
        & (F.abs(F.col("slope_per_day")) > F.coalesce(thresh[F.col("metric")], F.lit(1e9))),
    )


def missing_data_summary(gaps: DataFrame) -> DataFrame:
    """Aggregate the dataport's packet-gap analysis into the per-sensor
    missing-data pattern table: delivery ratio, missed cycles, max gap.

    Input: :func:`repro.dataport.twins.packet_gaps` output.
    """
    return gaps.groupBy("sensor_id", "city").agg(
        F.count(F.lit(1)).alias("packets"),
        F.sum("missed_cycles").alias("missed_cycles"),
        F.max("gap_min").alias("max_gap_min"),
        (
            F.count(F.lit(1))
            / (F.count(F.lit(1)) + F.sum("missed_cycles") + 1e-9)
        ).alias("delivery_ratio"),
    )
