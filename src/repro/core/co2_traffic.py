"""CO2 dynamics vs traffic study (paper Fig 5, §2.4).

"Dynamics of CO2 emissions and possible links to traffic in the form of
a traffic jam factor (from here.com data) ... we can conclude for this
sensor location that traffic is not the only factor that accounts for
the dynamics of the CO2 emission as they exhibit different patterns,
and have no apparent correlation."

The analysis aligns a sensor's pollutant series with a road link's jam
factor on a common hourly grid, then reports:

* Pearson correlation (:func:`correlation`),
* lagged cross-correlation (:func:`cross_correlation`) — traffic could
  lead emissions, so the claim must hold across lags, not just lag 0;
* diurnal profiles (:func:`diurnal_profiles`) — the "different
  patterns" statement: CO2 peaks pre-dawn (boundary layer), traffic
  peaks at rush hours.

Running the same analysis on NO2 provides the positive control: NO2
*is* traffic-driven, so the pipeline demonstrably can detect a
correlation when one exists.
"""
from __future__ import annotations

from pyspark.sql import DataFrame, Window
from pyspark.sql import functions as F

from repro.core.harmonize import bucketed


def aligned_series(
    points: DataFrame,
    feed: DataFrame,
    *,
    sensor_id: str,
    link_id: str,
    metric: str = "air.co2",
) -> DataFrame:
    """Hourly (pollutant, jam_factor) pairs for one sensor × one link.

    Returns city, bucket, value (pollutant network mean in the bucket),
    jam_factor (link mean in the bucket); inner-joined, so only buckets
    observed on both sides survive (§2.2 missing-data handling).
    """
    sens = (
        bucketed(
            points.filter(
                (F.col("sensor_id") == sensor_id) & (F.col("metric") == metric)
            )
        )
        .groupBy("city", "bucket")
        .agg(F.avg("value").alias("value"))
    )
    tr = (
        bucketed(feed.filter(F.col("link_id") == link_id))
        .groupBy("city", "bucket")
        .agg(F.avg("jam_factor").alias("jam_factor"))
    )
    return sens.join(tr, ["city", "bucket"], "inner")


def correlation(aligned: DataFrame) -> float:
    """Pearson correlation between the pollutant and the jam factor."""
    row = aligned.agg(F.corr("value", "jam_factor").alias("r")).collect()[0]
    return float(row["r"]) if row["r"] is not None else float("nan")


def cross_correlation(
    aligned: DataFrame, *, max_lag_hours: int = 6
) -> DataFrame:
    """corr(value(t), jam_factor(t − lag)) for lag ∈ [−max, +max] hours.

    Positive lag = traffic leads the pollutant. One plan: the traffic
    series is exploded over every lag and shifted by it, self-joined
    once on the hourly bucket and correlated per lag. A lag whose
    shifted series overlaps no pollutant hour has no row.
    """
    left = aligned.select("city", "bucket", "value")
    lags = F.explode(F.sequence(F.lit(-max_lag_hours), F.lit(max_lag_hours)))
    shifted = aligned.select(
        "city", "bucket", "jam_factor", lags.alias("lag_hours")
    ).withColumn("bucket", F.expr("bucket + make_dt_interval(0, lag_hours)"))
    return (
        left.join(shifted, ["city", "bucket"], "inner")
        .groupBy("lag_hours")
        .agg(F.corr("value", "jam_factor").alias("corr"))
        .orderBy("lag_hours")
    )


def diurnal_profiles(aligned: DataFrame) -> DataFrame:
    """Mean pollutant and jam factor per hour-of-day, plus normalized
    (0–1 min-max) columns so the *shape* difference is directly
    comparable — the "different patterns" of Fig 5.
    """
    prof = (
        aligned.withColumn("hour", F.hour("bucket"))
        .groupBy("hour")
        .agg(
            F.avg("value").alias("value_avg"),
            F.avg("jam_factor").alias("jam_avg"),
        )
    )
    # min/max over the whole 24-row profile, as a window.
    whole = Window.partitionBy()
    norm = lambda c: (F.col(c) - F.min(c).over(whole)) / (
        F.max(c).over(whole) - F.min(c).over(whole) + 1e-12
    )
    return prof.select(
        "hour",
        "value_avg",
        "jam_avg",
        norm("value_avg").alias("value_norm"),
        norm("jam_avg").alias("jam_norm"),
    ).orderBy("hour")


def peak_hours(profiles: DataFrame) -> dict:
    """Hour-of-day at which each normalized series peaks."""
    pdf = profiles.toPandas()
    return {
        "pollutant_peak_hour": int(pdf.loc[pdf["value_norm"].idxmax(), "hour"]),
        "traffic_peak_hour": int(pdf.loc[pdf["jam_norm"].idxmax(), "hour"]),
    }
