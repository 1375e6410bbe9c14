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
  written next to it for the quality analyses.

The real-time dashboard (Fig 6) reads the TSDB through
:func:`repro.tsdb.query.downsample`, which aggregates at read time as
OpenTSDB does, so ingest is the only streaming query. It runs with
``trigger(availableNow=True)`` so runs are deterministic and terminate;
a production deployment would use a processing-time trigger.
"""
from __future__ import annotations

import os

from pyspark.sql import DataFrame, SparkSession
from pyspark.sql.streaming import StreamingQuery

from repro.ingest import etl
from repro.lorawan.mqtt import MESSAGE_SCHEMA
from repro.tsdb import store

#: Seconds :func:`run_pipeline` waits for the query to finish.
TIMEOUT_S = 600


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
    append to the TSDB, invalid points to ``quarantine_dir`` as one
    Parquet file per batch.
    """

    def _sink(batch: DataFrame, batch_id: int) -> None:
        validated = etl.validate(etl.parse_messages(batch)).cache()
        try:
            store.write(etl.accepted_points(validated), tsdb_root)
            # About 1 % of a batch's rows: one file, not one per input partition.
            bad = etl.quarantined_points(validated).coalesce(1)
            bad.write.mode("append").parquet(quarantine_dir)
        finally:
            validated.unpersist()

    return (
        spark.readStream.schema(MESSAGE_SCHEMA).json(landing_dir)
        .writeStream.foreachBatch(_sink)
        .option("checkpointLocation", checkpoint_dir)
        .trigger(availableNow=True)
        .start()
    )


def run_pipeline(
    spark: SparkSession,
    landing_dir: str,
    work_dir: str,
) -> dict:
    """Run the ingest query to completion (availableNow).

    Returns paths: tsdb_root, quarantine_dir.
    """
    tsdb_root = os.path.join(work_dir, "tsdb")
    quarantine = os.path.join(work_dir, "quarantine")
    q = start_ingest(
        spark, landing_dir, tsdb_root,
        os.path.join(work_dir, "ckpt_ingest"), quarantine_dir=quarantine,
    )
    if not q.awaitTermination(TIMEOUT_S):
        q.stop()
        raise TimeoutError("streaming query did not finish in time")
    return {"tsdb_root": tsdb_root, "quarantine_dir": quarantine}
