"""Time-series storage over partitioned Parquet.

Data model mirrors OpenTSDB: a *data point* is (metric, timestamp,
value, tags). Tags are the two the CTT system uses throughout —
``sensor_id`` and ``city`` — kept as explicit columns (orderable, and
therefore oracle-checkable; an open map<string,string> column would be
neither). Files are partitioned by ``metric`` and calendar date so both
dashboard queries (one metric, recent window) and per-sensor scans
prune well.

A true JVM DataSourceV2 is out of scope in this container (no build
toolchain); this module is the documented stand-in (DESIGN.md §5).
"""
from __future__ import annotations

import pandas as pd
from pyspark.sql import DataFrame, SparkSession
from pyspark.sql import functions as F

#: Canonical column set of a stored data point.
POINT_COLUMNS = ["metric", "ts", "value", "sensor_id", "city"]


def write(points: DataFrame, root: str) -> None:
    """Append data points to the store at ``root``.

    ``points`` must carry exactly :data:`POINT_COLUMNS` (extra columns
    are dropped; missing ones raise).

    The shuffle before the write hashes each ``(metric, date)`` key to
    exactly one partition, so every date directory holds one file on any
    core count. Its partition count is explicit, one per core: AQE
    coalesces a by-column repartition by size, and at SF 0.01 (~127 k
    points) it merged all shuffle partitions into one, so a single task
    wrote every file in turn. A numbered repartition is not coalesced.
    One per core rather than ``spark.sql.shuffle.partitions`` (64): every
    task pays a task-commit cost, and 64 mostly empty writer tasks were
    slower than the one.
    """
    missing = [c for c in POINT_COLUMNS if c not in points.columns]
    if missing:
        raise ValueError(f"points missing columns {missing}")
    n_writers = points.sparkSession.sparkContext.defaultParallelism
    (
        points.select(*POINT_COLUMNS)
        .withColumn("date", F.to_date("ts"))
        .repartition(n_writers, "metric", "date")
        .write.mode("append")
        .partitionBy("metric", "date")
        .parquet(root)
    )


def read(
    spark: SparkSession,
    root: str,
    *,
    metric: str | None = None,
    start: pd.Timestamp | str | None = None,
    end: pd.Timestamp | str | None = None,
    sensor_id: str | None = None,
    city: str | None = None,
) -> DataFrame:
    """Scan the store with partition-pruning filters.

    ``start`` is inclusive, ``end`` exclusive. Returns
    :data:`POINT_COLUMNS`.
    """
    df = spark.read.parquet(root)
    if metric is not None:
        df = df.filter(F.col("metric") == metric)
    if start is not None:
        ts = pd.Timestamp(start)
        df = df.filter(F.col("date") >= F.lit(ts.date())).filter(
            F.col("ts") >= F.lit(ts)
        )
    if end is not None:
        ts = pd.Timestamp(end)
        df = df.filter(F.col("date") <= F.lit(ts.date())).filter(
            F.col("ts") < F.lit(ts)
        )
    if sensor_id is not None:
        df = df.filter(F.col("sensor_id") == sensor_id)
    if city is not None:
        df = df.filter(F.col("city") == city)
    return df.select(*POINT_COLUMNS)
