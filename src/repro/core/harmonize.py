"""Heterogeneous-source harmonization.

§2.2: "The sources contain highly heterogeneous data, with different
timescales, measurement frequencies, spatial distributions and
granularities ..." — the integration layer puts the timed sources on
one hourly grid per city, so analyses can join across them:

* :func:`integrated_city_frame` — one wide row per (city, hour): the
  sensor network's mean per metric, the NILU station value per field
  and the here.com mean jam factor;
* :func:`station_series` — NILU observations per (city, field, hour),
  the reference series of the calibration (E5);
* :func:`source_matrix` — the measured half of paper Table 1: each
  source's rows, spatial units, cadence, time span and coverage of the
  sensor network's hourly grid.
"""
from __future__ import annotations

from functools import reduce

from pyspark.sql import DataFrame, Window
from pyspark.sql import functions as F

from repro.external import nilu
from repro.ingest import etl


def bucketed(df: DataFrame) -> DataFrame:
    """Add a ``bucket`` column: the start of the hour containing ``ts``."""
    return df.withColumn("bucket", F.window("ts", "1 hour").getField("start"))


def station_series(nilu_obs: DataFrame) -> DataFrame:
    """NILU observations → per (city, field, bucket) value."""
    return (
        bucketed(nilu_obs)
        .groupBy("city", "field", "bucket")
        .agg(F.avg("value").alias("value"))
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



def source_matrix(
    points: DataFrame, sources: dict[str, tuple[DataFrame, tuple[str, ...]]]
) -> DataFrame:
    """The measured half of paper Table 1: one row per source.

    ``points`` is the ``sensor_network`` source (unit ``sensor_id``) and
    gives the hourly (city, bucket) grid that coverage is measured
    against; ``sources`` maps every other source to its frame and unit
    columns. Columns: source, rows, units (distinct unit-column values),
    cadence_min (median gap between distinct instants), span_days and
    hourly_coverage (the share of the sensor grid the source has a row
    in). An empty source keeps its row, with zero rows, span and
    coverage; one distinct instant has no cadence; a source without a
    ``ts`` column has no cadence, span or coverage.

    Three aggregates over the union of the sources, joined on
    ``source``: rows and distinct units in one ``groupBy``; cadence and
    span from a ``lag`` over each timed source's distinct instants; the
    coverage from one semi-join of each timed source's hours against
    the grid.
    """
    named = {"sensor_network": (points, ("sensor_id",)), **sources}
    timed = {name: "ts" in df.columns for name, (df, _) in named.items()}
    profile = reduce(DataFrame.unionByName, [
        df.select(
            F.lit(name).alias("source"),
            F.concat_ws("/", *[F.col(c).cast("string") for c in unit_cols]).alias("unit"),
        )
        for name, (df, unit_cols) in named.items()
    ]).groupBy("source").agg(
        F.count(F.lit(1)).alias("rows"), F.countDistinct("unit").alias("units")
    )
    instants = reduce(DataFrame.unionByName, [
        bucketed(df.select(F.lit(name).alias("source"), "city", "ts"))
        for name, (df, _) in named.items() if timed[name]
    ])
    prev = F.lag("ts").over(Window.partitionBy("source").orderBy("ts"))
    timing = (
        instants.select("source", "ts").distinct()
        .withColumn("gap", F.unix_timestamp("ts") - F.unix_timestamp(prev))
        .groupBy("source")
        .agg(
            F.median("gap").alias("gap"),
            ((F.unix_micros(F.max("ts")) - F.unix_micros(F.min("ts"))) / 86_400e6).alias("span"),
        )
    )
    grid = bucketed(points).select("city", "bucket").distinct()
    hits = (
        instants.select("source", "city", "bucket").distinct()
        .join(grid, ["city", "bucket"], "left_semi")
        .groupBy("source")
        .agg(F.count(F.lit(1)).alias("hits"))
    )
    names = points.sparkSession.createDataFrame(
        list(timed.items()), "source string, timed boolean"
    )
    coverage = F.coalesce(F.try_divide("hits", "n_grid"), F.lit(0.0))
    return (
        names.join(profile, "source", "left")
        .join(timing, "source", "left")
        .join(hits, "source", "left")
        .crossJoin(grid.agg(F.count(F.lit(1)).alias("n_grid")))
        .select(
            "source",
            F.coalesce("rows", F.lit(0)).alias("rows"),
            F.coalesce("units", F.lit(0)).alias("units"),
            F.round(F.col("gap") / 60.0, 2).alias("cadence_min"),
            F.when(F.col("timed"), F.round(F.coalesce("span", F.lit(0.0)), 2)).alias("span_days"),
            F.when(F.col("timed"), F.round(coverage, 4)).alias("hourly_coverage"),
        )
    )
