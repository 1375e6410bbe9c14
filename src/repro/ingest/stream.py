"""Structured Streaming ingestion: MQTT landing zone → TSDB.

This is the paper's streaming ETL path ("stream processing on
measurement data", §2.1; "demonstrate how to collect, process and
visualize high-frequent sensor data ... streamline the whole data flow,
including segmentation, chaining, and automation", §3) expressed as a
Spark Structured Streaming job:

* **source** — file stream over the landing directory with the fixed
  TTN message schema (the offline stand-in for an MQTT subscription);
* **transform** — the exact batch transformations from
  :mod:`repro.ingest.etl` applied inside ``foreachBatch`` so streaming
  and backfill share one Catalyst plan;
* **sink** — append into the Parquet TSDB, with quarantined points
  written next to it for the quality analyses;
* **windowed aggregation** — a second streaming query maintains the
  watermarked 1-hour per-sensor aggregates that feed the real-time
  dashboard (Fig 6) without rescanning history.

Both queries run with ``trigger(availableNow=True)`` so runs are
deterministic and terminate; a production deployment would use a
processing-time trigger.
"""
from __future__ import annotations

import os

from pyspark.sql import DataFrame, SparkSession
from pyspark.sql import functions as F
from pyspark.sql.streaming import StreamingQuery

from repro.ingest import etl
from repro.lorawan.mqtt import MESSAGE_SCHEMA
from repro.tsdb import store


def read_stream(spark: SparkSession, landing_dir: str) -> DataFrame:
    """Streaming source over the MQTT landing zone."""
    return spark.readStream.schema(MESSAGE_SCHEMA).json(landing_dir)


def start_ingest(
    spark: SparkSession,
    landing_dir: str,
    tsdb_root: str,
    checkpoint_dir: str,
    *,
    quarantine_dir: str,
) -> StreamingQuery:
    """Start the ingest query; caller awaits termination.

    Each micro-batch is parsed, validated, and split: accepted points
    append to the TSDB, invalid points to ``quarantine_dir``.
    """

    def _sink(batch: DataFrame, batch_id: int) -> None:
        validated = etl.validate(etl.parse_messages(batch)).cache()
        try:
            store.write(etl.accepted_points(validated), tsdb_root)
            bad = etl.quarantined_points(validated)
            bad.write.mode("append").parquet(quarantine_dir)
        finally:
            validated.unpersist()

    return (
        read_stream(spark, landing_dir)
        .writeStream.foreachBatch(_sink)
        .option("checkpointLocation", checkpoint_dir)
        .trigger(availableNow=True)
        .start()
    )


def start_live_aggregate(
    spark: SparkSession,
    landing_dir: str,
    out_dir: str,
    checkpoint_dir: str,
    *,
    window: str = "1 hour",
    watermark: str = "2 hours",
) -> StreamingQuery:
    """Watermarked streaming aggregation feeding the live dashboard.

    Emits per (window, sensor, metric) mean/min/max/count in append
    mode — the incremental counterpart of
    :func:`repro.tsdb.query.downsample` that a dashboard polls.
    """
    points = etl.validate(
        etl.parse_messages(read_stream(spark, landing_dir))
    ).filter(F.col("valid"))
    agg = (
        points.withWatermark("ts", watermark)
        .groupBy(F.window("ts", window).alias("w"), "sensor_id", "city", "metric")
        .agg(
            F.avg("value").alias("value_avg"),
            F.min("value").alias("value_min"),
            F.max("value").alias("value_max"),
            F.count("value").alias("n"),
        )
        .select(
            F.col("w.start").alias("bucket"),
            "sensor_id",
            "city",
            "metric",
            "value_avg",
            "value_min",
            "value_max",
            "n",
        )
    )
    return (
        agg.writeStream.outputMode("append")
        .format("parquet")
        .option("path", out_dir)
        .option("checkpointLocation", checkpoint_dir)
        .trigger(availableNow=True)
        .start()
    )


def run_pipeline(
    spark: SparkSession,
    landing_dir: str,
    work_dir: str,
    *,
    timeout_s: int = 600,
) -> dict:
    """Run both streaming queries to completion (availableNow).

    Returns paths: tsdb_root, quarantine_dir, live_agg_dir.
    """
    tsdb_root = os.path.join(work_dir, "tsdb")
    quarantine = os.path.join(work_dir, "quarantine")
    live_agg = os.path.join(work_dir, "live_agg")
    q1 = start_ingest(
        spark, landing_dir, tsdb_root,
        os.path.join(work_dir, "ckpt_ingest"), quarantine_dir=quarantine,
    )
    q2 = start_live_aggregate(
        spark, landing_dir, live_agg, os.path.join(work_dir, "ckpt_agg")
    )
    for q in (q1, q2):
        if not q.awaitTermination(timeout_s):
            q.stop()
            raise TimeoutError("streaming query did not finish in time")
    return {
        "tsdb_root": tsdb_root,
        "quarantine_dir": quarantine,
        "live_agg_dir": live_agg,
    }
