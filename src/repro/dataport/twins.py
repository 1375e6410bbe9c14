"""Digital-twin state for sensors and gateways.

A twin "keeps track of its state in real-time, monitors all
communication and triggers alarms if data is not received as expected"
(§2.3). Twin state at an evaluation instant is a pure function of the
uplink history up to that instant: last packet, the node's
*self-reported* transmission interval (nodes adapt frequency to battery
level, so the expectation must come from the payload, not a constant),
and the count of missed cycles since.
"""
from __future__ import annotations

from pyspark.sql import DataFrame
from pyspark.sql import functions as F

#: Missed-cycle thresholds: "a single missing measurement is expected
#: occasionally ... it takes some cycles to determine a failure with
#: certainty" (§2.3).
MISS_WARN = 2
MISS_FAIL = 4

#: A gateway twin flags silence after this many minutes without any
#: reception while its city's sensors are due to transmit.
GATEWAY_SILENCE_MIN = 30

STATUS_OK, STATUS_WARN, STATUS_FAILED = "OK", "WARN", "FAILED"


def status_for(missed_cycles):
    """Column expression mapping missed cycles → twin status."""
    return (
        F.when(missed_cycles < MISS_WARN, STATUS_OK)
        .when(missed_cycles < MISS_FAIL, STATUS_WARN)
        .otherwise(STATUS_FAILED)
    )


def missed_cycles(now, last_seen, interval_min):
    """Column expression: whole declared intervals elapsed from
    ``last_seen`` to ``now`` (timestamp columns; ``interval_min`` in
    minutes), floor(elapsed / interval)."""
    elapsed_us = F.unix_micros(now) - F.unix_micros(last_seen)
    return F.floor(elapsed_us / (interval_min * 6e7))


def sensor_twins(uplinks: DataFrame, at) -> DataFrame:
    """Sensor twin states at instant ``at`` (a timestamp).

    Returns one row per sensor seen before ``at``: sensor_id, city,
    last_seen, battery, interval_min, primary_gateway (modal best
    gateway over history — used by the failure hierarchy),
    missed_cycles, status.
    """
    hist = uplinks.filter(F.col("ts") <= F.lit(at))
    last = hist.groupBy("sensor_id", "city").agg(
        F.max("ts").alias("last_seen"),
        F.max_by("battery", "ts").alias("battery"),
        F.max_by("interval_min", "ts").alias("interval_min"),
        F.mode("best_gateway").alias("primary_gateway"),
    )
    missed = missed_cycles(
        F.lit(at), F.col("last_seen"), F.col("interval_min")
    ).alias("missed_cycles")
    return last.select(
        "sensor_id", "city", "last_seen", "battery", "interval_min",
        "primary_gateway", missed,
    ).withColumn("status", status_for(F.col("missed_cycles")))


def gateway_twins(uplinks: DataFrame, at) -> DataFrame:
    """Gateway twin states at instant ``at``.

    A gateway's twin observes every uplink that lists it in the
    reception metadata ("the digital twin for a gateway can detect if a
    gateway operates as expected", §2.3). Returns gateway_id, city,
    last_seen, n_heard (distinct sensors heard in history),
    silent_min, status (FAILED when silent ≥ GATEWAY_SILENCE_MIN).
    """
    hist = (
        uplinks.filter(F.col("ts") <= F.lit(at))
        .select("city", "ts", "sensor_id", F.explode("gateways").alias("g"))
        .select("city", "ts", "sensor_id", F.col("g.gtw_id").alias("gateway_id"))
    )
    agg = hist.groupBy("gateway_id", "city").agg(
        F.max("ts").alias("last_seen"),
        F.countDistinct("sensor_id").alias("n_heard"),
    )
    silent = (
        (F.unix_timestamp(F.lit(at)) - F.unix_timestamp("last_seen")) / 60.0
    ).alias("silent_min")
    return agg.select("gateway_id", "city", "last_seen", "n_heard", silent).withColumn(
        "status",
        F.when(F.col("silent_min") >= GATEWAY_SILENCE_MIN, STATUS_FAILED).otherwise(
            STATUS_OK
        ),
    )


def packet_gaps(uplinks: DataFrame) -> DataFrame:
    """Historical per-packet gap analysis ("missing data patterns").

    For each uplink: gap to the previous one from the same sensor, the
    previous packet's self-declared interval, and the number of
    *missed* cycles in between (round(gap/interval) − 1 ≥ 0). Also
    surfaces counter discontinuities (``lost_frames``) from the LoRaWAN
    frame counter — packets lost in the air leave counter holes even
    when the time gap is within tolerance.
    """
    from pyspark.sql import Window

    w = Window.partitionBy("sensor_id").orderBy("ts")
    gap_s = F.unix_timestamp("ts") - F.unix_timestamp(F.lag("ts").over(w))
    prev_int = F.lag("interval_min").over(w)
    prev_cnt = F.lag("f_cnt").over(w)
    return (
        uplinks.select("sensor_id", "city", "ts", "f_cnt", "interval_min")
        .withColumn("gap_min", gap_s / 60.0)
        .withColumn("prev_interval_min", prev_int)
        .withColumn(
            "missed_cycles",
            F.greatest(
                F.round(F.col("gap_min") / F.col("prev_interval_min")) - 1, F.lit(0)
            ).cast("long"),
        )
        .withColumn("lost_frames", (F.col("f_cnt") - prev_cnt - 1).cast("long"))
    )
