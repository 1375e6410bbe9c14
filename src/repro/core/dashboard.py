"""Dashboard aggregations (paper Figs 6 & 8).

"The mapped sensors show the real-time data and analytic results for
each location" (§2.4). Figures are out of scope; this module produces
the *numbers* each dashboard tile renders:

* :func:`latest_per_sensor` — the live value a map pin shows;
* :func:`air_quality_index` — CAQI-style banding per sensor (the air
  quality indicator);
* :func:`hourly_series` — the 24 h sparkline per sensor/metric;
* :func:`traffic_tiles` — live and mean jam factor per road link;
* :func:`wall_summary` — the Fig 8 wall display: network totals, data
  rates, per-city health.
"""
from __future__ import annotations

from pyspark.sql import DataFrame
from pyspark.sql import functions as F

from repro.tsdb import query

#: CAQI-style band edges per pollutant field (µg/m³): the value is in
#: band i when edges[i-1] <= v < edges[i].
AQI_BANDS = ["good", "fair", "moderate", "poor", "very_poor"]
AQI_EDGES = {
    "no2": [40.0, 90.0, 120.0, 230.0],
    "pm10": [20.0, 40.0, 50.0, 100.0],
    "pm25": [10.0, 20.0, 25.0, 50.0],
}
#: Trailing window of the sparkline, hours.
SPARKLINE_HOURS = 24
#: Band rank (for the "overall = worst constituent" rule).
_BAND_RANK = {b: i for i, b in enumerate(AQI_BANDS)}


def band_for(field: str, value: float) -> str:
    """Pure-python banding (mirrors the SQL in :func:`air_quality_index`)."""
    for band, edge in zip(AQI_BANDS, AQI_EDGES[field]):
        if value < edge:
            return band
    return AQI_BANDS[-1]


def latest_per_sensor(points: DataFrame, *, as_of=None) -> DataFrame:
    """Most recent value per (sensor, metric), optionally at ``as_of``.

    Returns sensor_id, city, metric, ts, value.
    """
    pts = points if as_of is None else points.filter(F.col("ts") <= F.lit(as_of))
    return pts.groupBy("sensor_id", "city", "metric").agg(
        F.max("ts").alias("ts"), F.max_by("value", "ts").alias("value")
    )


def band_col(field_col, value_col):
    """AQI band of ``value_col`` for the pollutant in ``field_col`` (the
    SQL form of :func:`band_for`; ``F.lit(field)`` bands one field)."""
    expr = F.lit(AQI_BANDS[-1])
    # Build the when-chain from the widest band downwards.
    for fld, edges in AQI_EDGES.items():
        fld_expr = F.lit(AQI_BANDS[-1])
        for band, edge in zip(reversed(AQI_BANDS[:-1]), reversed(edges)):
            fld_expr = F.when(value_col < F.lit(edge), F.lit(band)).otherwise(
                fld_expr
            )
        expr = F.when(field_col == fld, fld_expr).otherwise(expr)
    return expr


def air_quality_index(points: DataFrame, *, as_of=None) -> DataFrame:
    """Per-sensor AQI: band per pollutant + overall worst band.

    Returns sensor_id, city, overall_band, overall_rank and one band
    column per pollutant (no2, pm10, pm25), null when the sensor has no
    value for it: one aggregate over the latest value per (sensor,
    pollutant).
    """
    latest = latest_per_sensor(points, as_of=as_of).withColumn(
        "field", F.replace(F.col("metric"), F.lit("air."), F.lit(""))
    )
    rank_map = F.create_map(
        *[x for b, i in _BAND_RANK.items() for x in (F.lit(b), F.lit(i))]
    )
    return (
        latest.filter(F.col("field").isin(list(AQI_EDGES)))
        .withColumn("band", band_col(F.col("field"), F.col("value")))
        .withColumn("band_rank", rank_map[F.col("band")])
        .groupBy("sensor_id", "city")
        .agg(
            F.max_by("band", "band_rank").alias("overall_band"),
            F.max("band_rank").alias("overall_rank"),
            *[
                F.max(F.when(F.col("field") == f, F.col("band"))).alias(f)
                for f in AQI_EDGES
            ],
        )
    )


def hourly_series(points: DataFrame, *, as_of=None) -> DataFrame:
    """The dashboard sparkline: the TSDB's ``1h-avg`` downsample, over
    the trailing :data:`SPARKLINE_HOURS` up to ``as_of`` when given."""
    pts = points
    if as_of is not None:
        since = F.lit(as_of) - F.expr(f"INTERVAL {SPARKLINE_HOURS} HOURS")
        pts = pts.filter((F.col("ts") <= F.lit(as_of)) & (F.col("ts") > since))
    return query.series(pts, "1h-avg", by=("sensor_id", "city", "metric")).select(
        "sensor_id", "city", "metric", "bucket", "value"
    )


def traffic_tiles(feed: DataFrame, *, as_of=None) -> DataFrame:
    """Per-link traffic tile: the live jam factor (``jam_now``, at the
    latest ``ts``) and ``jam_avg``, the mean over the whole feed up
    to ``as_of``."""
    f = feed if as_of is None else feed.filter(F.col("ts") <= F.lit(as_of))
    return f.groupBy("link_id", "city").agg(
        F.max("ts").alias("ts"),
        F.max_by("jam_factor", "ts").alias("jam_now"),
        F.avg("jam_factor").alias("jam_avg"),
    )


def wall_summary(uplinks: DataFrame, points: DataFrame) -> DataFrame:
    """Fig 8 wall display: one row per city with network + data totals."""
    net = uplinks.groupBy("city").agg(
        F.countDistinct("sensor_id").alias("sensors_active"),
        F.count(F.lit(1)).alias("uplinks"),
        F.avg("n_gateways").alias("gw_per_uplink"),
        F.max("ts").alias("last_uplink"),
    )
    data = points.groupBy("city").agg(
        F.count(F.lit(1)).alias("data_points"),
        F.countDistinct("metric").alias("metrics"),
    )
    return net.join(data, "city")
