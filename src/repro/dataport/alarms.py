"""Alarm stream: twin status transitions over a sweep of evaluation
instants.

The actor-based dataport re-evaluates each twin whenever time advances;
we reproduce that as a deterministic sweep — every
:data:`EVAL_EVERY_MIN` minutes each sensor twin's status is recomputed
from its packet history and *transitions* become alarm events. One
Spark plan: the evaluation grid is unioned with the packets and a
per-sensor window carries the last packet forward to each instant,
exactly the state a digital-twin actor would hold.
"""
from __future__ import annotations

import pandas as pd
from pyspark.sql import DataFrame, Window
from pyspark.sql import functions as F

from repro.dataport.twins import STATUS_FAILED, STATUS_OK, missed_cycles, status_for

#: Minutes between evaluation instants of the sweep: the base
#: measurement interval.
EVAL_EVERY_MIN = 5


def alarm_events(
    uplinks: DataFrame,
    *,
    start,
    end,
) -> DataFrame:
    """All twin status transitions in [start, end].

    Returns sensor_id, city, ts (transition instant), status,
    prev_status, missed_cycles. A transition into WARN/FAILED is an
    alarm being raised; back to OK is the alarm clearing.

    At each instant of the grid ``start, start + EVAL_EVERY_MIN, … ≤
    end`` the twin knows the last packet at or before it (packets sort
    before grid rows at equal times) and that packet's declared
    interval; before a sensor's first packet its twin does not exist
    and reads OK with 0 missed cycles.
    """
    packets = uplinks.select(
        "sensor_id", "city", "ts", "interval_min", F.lit(0).alias("kind")
    )
    grid = (
        uplinks.select("sensor_id", "city")
        .distinct()
        .select(
            "sensor_id",
            "city",
            F.explode(
                F.sequence(
                    F.lit(start).cast("timestamp"),
                    F.lit(end).cast("timestamp"),
                    F.make_dt_interval(mins=F.lit(EVAL_EVERY_MIN)),
                )
            ).alias("ts"),
            F.lit(None).alias("interval_min"),
            F.lit(1).alias("kind"),
        )
    )
    upto = (
        Window.partitionBy("sensor_id")
        .orderBy("ts", "kind")
        .rowsBetween(Window.unboundedPreceding, Window.currentRow)
    )
    last = lambda c: F.last(
        F.when(F.col("kind") == 0, F.col(c)), ignorenulls=True
    ).over(upto)
    swept = (
        packets.unionByName(grid)
        .select(
            "sensor_id", "city", "ts", "kind",
            last("ts").alias("last_ts"), last("interval_min").alias("last_interval"),
        )
        .filter(F.col("kind") == 1)
    )
    missed = F.coalesce(
        missed_cycles(F.col("ts"), F.col("last_ts"), F.col("last_interval")), F.lit(0)
    ).cast("long")
    status = swept.select(
        "sensor_id", "city", "ts", missed.alias("missed_cycles")
    ).withColumn("status", status_for(F.col("missed_cycles")))
    prev = F.lag("status", 1, STATUS_OK).over(Window.partitionBy("sensor_id").orderBy("ts"))
    return (
        status.withColumn("prev_status", prev)
        .filter(F.col("status") != F.col("prev_status"))
        .select("sensor_id", "city", "ts", "status", "prev_status", "missed_cycles")
    )


def raised(events: DataFrame) -> DataFrame:
    """Alarm raise events: transitions into FAILED."""
    return events.filter(
        (F.col("status") == STATUS_FAILED) & (F.col("prev_status") != STATUS_FAILED)
    )


def detection_latency(
    events: DataFrame, injected: pd.DataFrame
) -> pd.DataFrame:
    """Latency from each injected death to its first FAILED alarm.

    ``injected``: pandas with sensor_id, start (the fault time).
    Returns sensor_id, injected_at, detected_at, latency_min,
    latency_cycles (latency ÷ the node's 5-min base interval); NaT/NaN
    when undetected.
    """
    all_raises = raised(events).select("sensor_id", "ts").toPandas()
    out = injected.rename(columns={"start": "injected_at"}).copy()
    detected = []
    for _, row in out.iterrows():
        mine = all_raises[
            (all_raises["sensor_id"] == row["sensor_id"])
            & (all_raises["ts"] >= row["injected_at"])
        ]
        detected.append(mine["ts"].min() if not mine.empty else pd.NaT)
    out["detected_at"] = detected
    lat = (out["detected_at"] - out["injected_at"]).dt.total_seconds() / 60.0
    out["latency_min"] = lat
    out["latency_cycles"] = lat / 5.0
    return out
