"""Heterogeneous-source harmonization.

§2.2: "The sources contain highly heterogeneous data, with different
timescales, measurement frequencies, spatial distributions and
granularities ..." — the integration layer aligns every source onto a
common time grid per city so analyses can join across them:

* sensor data points (5-min, many locations) → per-city bucket mean,
* NILU station observations (hourly, one location) → bucket value,
* here.com jam factor (5-min, per link) → per-city bucket mean,
* municipal counts (hourly, short campaign) → bucket sum,
* OCO-2 soundings (sparse instants) → per-overpass city mean.

``source_profile`` quantifies each source's heterogeneity (cadence,
spatial units, row counts) — the measured half of paper Table 1.
"""
from __future__ import annotations

from pyspark.sql import DataFrame
from pyspark.sql import functions as F

from repro.external import nilu
from repro.ingest import etl


def bucketed(df: DataFrame) -> DataFrame:
    """Add a ``bucket`` column: the start of the hour containing ``ts``."""
    return df.withColumn("bucket", F.window("ts", "1 hour").getField("start"))


def sensor_city_series(points: DataFrame) -> DataFrame:
    """TSDB points → per (city, metric, bucket) network mean.

    The network aggregate across sensor units is the paper's
    "aggregation of data from multiple sensor units" (§2.2).
    """
    return (
        bucketed(points)
        .groupBy("city", "metric", "bucket")
        .agg(
            F.avg("value").alias("value"),
            F.count("value").alias("n_points"),
            F.countDistinct("sensor_id").alias("n_sensors"),
        )
    )


def station_series(nilu_obs: DataFrame) -> DataFrame:
    """NILU observations → per (city, field, bucket) value."""
    return (
        bucketed(nilu_obs)
        .groupBy("city", "field", "bucket")
        .agg(F.avg("value").alias("value"))
    )


def traffic_series(feed: DataFrame) -> DataFrame:
    """here.com feed → per (city, bucket) mean jam factor."""
    return (
        bucketed(feed)
        .groupBy("city", "bucket")
        .agg(
            F.avg("jam_factor").alias("jam_factor"),
            F.countDistinct("link_id").alias("n_links"),
        )
    )


def integrated_city_frame(
    points: DataFrame, nilu_obs: DataFrame, feed: DataFrame
) -> DataFrame:
    """One wide row per (city, bucket): network pollutants + official
    reference + traffic — the joined frame the analyses consume.

    Sensor metrics appear as ``air_co2`` etc. (network mean), station
    fields as ``nilu_no2`` etc., traffic as ``jam_factor``: one
    conditional mean per column of the known metric and station-field
    lists, in one aggregate over the union of the three sources, so
    every (city, hour) any source covers has a row. Buckets missing
    from a source stay null — gaps are data, not errors (§2.2 "usual
    issues of missing data ... handled by standard methods").
    """
    series = (
        points.select(
            "city", "ts", F.replace("metric", F.lit("."), F.lit("_")).alias("col"), "value"
        )
        .unionByName(
            nilu_obs.select(
                "city", "ts", F.concat(F.lit("nilu_"), "field").alias("col"), "value"
            )
        )
        .unionByName(
            feed.select(
                "city", "ts", F.lit("jam_factor").alias("col"),
                F.col("jam_factor").alias("value"),
            )
        )
    )
    cols = [
        *(m.replace(".", "_") for m in sorted(etl.METRIC_NAME.values())),
        *(f"nilu_{f}" for f in sorted(nilu.STATION_METRICS)),
        "jam_factor",
    ]
    return (
        bucketed(series)
        .groupBy("city", "bucket")
        .agg(*[F.avg(F.when(F.col("col") == c, F.col("value"))).alias(c) for c in cols])
    )


def source_profile(df: DataFrame, *, unit_cols: tuple[str, ...] = ()) -> dict:
    """Quantify a source's heterogeneity: rows, spatial units, median
    cadence (minutes), and time span (days). Collected to the driver —
    profiles are scalar summaries.
    """
    n = df.count()
    units = (
        df.select(*unit_cols).distinct().count() if unit_cols else 1
    )
    span = df.agg(F.min("ts").alias("t0"), F.max("ts").alias("t1")).collect()[0]
    if n <= 1 or span["t0"] is None:
        return {"rows": n, "units": units, "cadence_min": None, "span_days": 0.0}
    distinct_ts = df.select("ts").distinct()
    from pyspark.sql import Window

    w = Window.orderBy("ts")
    gaps = distinct_ts.withColumn(
        "gap", F.unix_timestamp("ts") - F.unix_timestamp(F.lag("ts").over(w))
    ).filter(F.col("gap").isNotNull())
    med = gaps.agg(F.median("gap").alias("m")).collect()[0]["m"]
    span_days = (span["t1"] - span["t0"]).total_seconds() / 86400.0
    return {
        "rows": n,
        "units": units,
        "cadence_min": round(med / 60.0, 2) if med is not None else None,
        "span_days": round(span_days, 2),
    }


def join_coverage(base_buckets: DataFrame, other: DataFrame) -> float:
    """Fraction of base (city, bucket) rows that the other source covers."""
    on = ["city", "bucket"]
    total = base_buckets.select(*on).distinct()
    n_total = total.count()
    if n_total == 0:
        return 0.0
    n_hit = total.join(other.select(*on).distinct(), on, "left_semi").count()
    return round(n_hit / n_total, 4)
