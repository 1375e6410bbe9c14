"""Grounding and calibration against the official station.

§2.4: "to support the grounding and calibration, we have co-located one
of our sensor units to the only station in the pilot area. This allows
to compare both absolute and relative accuracy and calibrate the local
sensor and, through larger-scale correlated trends, the network, but
with lower certainty."

Pipeline:

1. pair the co-located sensor's hourly means with the station's hourly
   values per pollutant (:func:`co_location_pairs`);
2. fit ``ref ≈ a·raw + b`` per pollutant with Spark aggregates
   (:func:`fit_linear` — closed-form OLS from covariance/variance);
3. apply the coefficients network-wide (:func:`apply_calibration`) —
   the "larger-scale correlated trends" transfer;
4. score accuracy (:func:`accuracy`): absolute (bias/RMSE) and relative
   (MAPE, correlation), before vs after.
"""
from __future__ import annotations

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame
from pyspark.sql import functions as F

from repro.core.harmonize import bucketed, station_series
from repro.iot import field

#: Pollutants calibrated against the station.
CAL_METRICS = ("co2", "no2", "pm10", "pm25")


def _sensor_hourly(points: DataFrame) -> DataFrame:
    """Hourly mean of every sensor's ``air.*`` points.

    Returns city, sensor_id, field, bucket, raw.
    """
    return (
        bucketed(points.filter(F.col("metric").startswith("air.")))
        .withColumn("field", F.replace(F.col("metric"), F.lit("air."), F.lit("")))
        .groupBy("city", "sensor_id", "field", "bucket")
        .agg(F.avg("value").alias("raw"))
    )


def co_location_pairs(
    points: DataFrame, nilu_obs: DataFrame, *, co_located: dict[str, str]
) -> DataFrame:
    """Hourly (raw sensor, station reference) pairs per pollutant.

    ``co_located`` maps city → the sensor_id physically at the station.
    Returns city, field, bucket, sensor_id, raw, ref.
    """
    pairs_filter = F.lit(False)
    for city, sid in co_located.items():
        pairs_filter = pairs_filter | (
            (F.col("city") == city) & (F.col("sensor_id") == sid)
        )
    ref = station_series(nilu_obs).withColumnRenamed("value", "ref")
    return _sensor_hourly(points).filter(pairs_filter).join(
        ref, ["city", "field", "bucket"], "inner"
    )


def fit_linear(pairs: DataFrame) -> DataFrame:
    """Per (city, field) closed-form OLS of the station ``ref`` on the
    sensor ``raw``.

    slope = cov(x,y)/var(x); intercept = ȳ − slope·x̄. Returns city,
    field, slope, intercept, r2, n.
    """
    x, y = "raw", "ref"
    return pairs.groupBy("city", "field").agg(
        (F.covar_pop(x, y) / F.var_pop(x)).alias("slope"),
        (F.avg(y) - (F.covar_pop(x, y) / F.var_pop(x)) * F.avg(x)).alias(
            "intercept"
        ),
        F.pow(F.corr(x, y), 2).alias("r2"),
        F.count(F.lit(1)).alias("n"),
    )


def apply_calibration(points: DataFrame, coefs: DataFrame) -> DataFrame:
    """Apply per (city, field) linear coefficients to *all* sensors.

    Input: TSDB air points; output adds ``value_cal``. Metrics with no
    fit pass through unchanged (slope 1, intercept 0).
    """
    pts = points.withColumn(
        "field", F.replace(F.col("metric"), F.lit("air."), F.lit(""))
    )
    joined = pts.join(
        coefs.select("city", "field", "slope", "intercept"), ["city", "field"], "left"
    )
    return joined.withColumn(
        "value_cal",
        F.coalesce(F.col("slope"), F.lit(1.0)) * F.col("value")
        + F.coalesce(F.col("intercept"), F.lit(0.0)),
    ).drop("slope", "intercept")


def accuracy(
    df: DataFrame,
    *,
    pred: str,
    truth: str,
    by: tuple[str, ...] = ("city", "field"),
) -> DataFrame:
    """Absolute + relative accuracy of ``pred`` against ``truth``.

    Returns per group: bias (mean error), rmse, mape (%, relative
    accuracy), corr (trend agreement), n.
    """
    err = F.col(pred) - F.col(truth)
    return df.groupBy(*by).agg(
        F.avg(err).alias("bias"),
        F.sqrt(F.avg(err * err)).alias("rmse"),
        (100.0 * F.avg(F.abs(err) / F.abs(F.col(truth)))).alias("mape"),
        F.corr(pred, truth).alias("corr"),
        F.count(F.lit(1)).alias("n"),
    )


def network_pairs_against_truth(points: DataFrame, sensors_pdf) -> DataFrame:
    """Hourly sensor means paired with the ground-truth field at each
    sensor's location — used to quantify the *lower certainty* of the
    network-wide calibration transfer (§2.4).

    The truth is :func:`repro.iot.field.truth` at each row's registry
    position (``sensors_pdf``) and bucket + 30 min, sampled on the driver
    with one call per city (static registry, hourly buckets — small).
    Returns city, sensor_id, field, bucket, raw, truth.
    """
    hp = _sensor_hourly(points).toPandas()
    reg = sensors_pdf.set_index("sensor_id").loc[hp["sensor_id"]]
    x, y = reg["x_m"].to_numpy(), reg["y_m"].to_numpy()
    # Truth at bucket midpoint: the hourly mean of a smooth field is
    # well-approximated by its value at +30 min.
    mid = (hp["bucket"] + pd.Timedelta(minutes=30)).to_numpy()
    fields = hp["field"].to_numpy()
    truth = np.empty(len(hp))
    for city, rows in reg.groupby("city").indices.items():
        t = field.truth(city, x[rows], y[rows], mid[rows])
        for fld in np.unique(fields[rows]):
            on = fields[rows] == fld
            truth[rows[on]] = t[fld][on]
    hp["truth"] = truth
    return points.sparkSession.createDataFrame(hp)
