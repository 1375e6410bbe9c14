"""Parse + validate transformations shared by the streaming and batch
ingestion paths.

An MQTT message (see :mod:`repro.lorawan.mqtt`) is exploded into *long*
data points — one row per (sensor, timestamp, metric) — validated
against physical plausibility ranges, and split into accepted points
(written to the TSDB) and quarantined points (kept for the quality
analyses; §2.2 "a complex set of related uncertainties and inaccuracies
in the data").

All functions are DataFrame→DataFrame so the exact same Catalyst plan
runs inside ``foreachBatch`` in streaming mode and directly in batch
backfill mode.
"""
from __future__ import annotations

from pyspark.sql import DataFrame, SparkSession
from pyspark.sql import functions as F

from repro.lorawan.mqtt import MESSAGE_SCHEMA, TIME_FORMAT
from repro.lorawan.network import PAYLOAD_COLS

#: payload field → TSDB metric name.
METRIC_NAME = {
    "co2": "air.co2",
    "no2": "air.no2",
    "pm10": "air.pm10",
    "pm25": "air.pm25",
    "temperature": "weather.temperature",
    "pressure": "weather.pressure",
    "humidity": "weather.humidity",
    "battery": "node.battery",
    "interval_min": "node.interval_min",
}

#: Physical plausibility ranges per payload field (inclusive bounds).
VALID_RANGE = {
    "co2": (300.0, 5000.0),
    "no2": (0.0, 600.0),
    "pm10": (0.0, 1200.0),
    "pm25": (0.0, 800.0),
    "temperature": (-45.0, 50.0),
    "pressure": (900.0, 1100.0),
    "humidity": (0.0, 100.0),
    "battery": (0.0, 100.0),
    "interval_min": (1.0, 60.0),
}


def parse_uplinks(raw: DataFrame) -> DataFrame:
    """TTN/MQTT envelope → one row per uplink.

    Input rows follow :data:`repro.lorawan.mqtt.MESSAGE_SCHEMA`. Output:
    sensor_id, city, ts, f_cnt, gateways, n_gateways, best_gateway,
    best_rssi, payload_fields. An unparseable time gives a null ``ts``
    and an empty gateway list a null ``best_gateway``, rather than an
    error that would abort the whole batch under ANSI mode.
    """
    gateways = F.col("metadata.gateways")
    best = F.get(gateways, 0)
    return raw.select(
        F.col("dev_id").alias("sensor_id"),
        F.col("city"),
        F.try_to_timestamp("metadata.time", F.lit(TIME_FORMAT)).alias("ts"),
        F.col("counter").alias("f_cnt"),
        gateways.alias("gateways"),
        F.size(gateways).alias("n_gateways"),
        best["gtw_id"].alias("best_gateway"),
        best["rssi"].alias("best_rssi"),
        F.col("payload_fields"),
    )


def parse_messages(raw: DataFrame) -> DataFrame:
    """TTN/MQTT envelope → long data points.

    Output: sensor_id, city, ts, f_cnt, n_gateways, best_gateway,
    best_rssi, metric field name (``field``), TSDB ``metric`` name,
    ``value``.
    """
    stack_expr = ", ".join(f"'{c}', payload_fields.{c}" for c in PAYLOAD_COLS)
    flat = parse_uplinks(raw).select(
        "sensor_id", "city", "ts", "f_cnt", "n_gateways", "best_gateway", "best_rssi",
        F.expr(f"stack({len(PAYLOAD_COLS)}, {stack_expr}) as (field, value)"),
    )
    metric_map = F.create_map(
        *[x for k, v in METRIC_NAME.items() for x in (F.lit(k), F.lit(v))]
    )
    return flat.withColumn("metric", metric_map[F.col("field")])


def validate(points: DataFrame) -> DataFrame:
    """Flag each data point ``valid`` against :data:`VALID_RANGE`.

    Null values, out-of-range values and points without a ``ts`` or
    ``sensor_id`` are invalid; the row is kept so quarantine accounting
    sees it.
    """
    lo_map = F.create_map(
        *[x for k, (lo, _) in VALID_RANGE.items() for x in (F.lit(k), F.lit(lo))]
    )
    hi_map = F.create_map(
        *[x for k, (_, hi) in VALID_RANGE.items() for x in (F.lit(k), F.lit(hi))]
    )
    return points.withColumn(
        "valid",
        F.col("ts").isNotNull()
        & F.col("sensor_id").isNotNull()
        & F.col("value").isNotNull()
        & (F.col("value") >= lo_map[F.col("field")])
        & (F.col("value") <= hi_map[F.col("field")]),
    )


def accepted_points(validated: DataFrame) -> DataFrame:
    """Valid points in TSDB shape (metric, ts, value, sensor_id, city)."""
    return validated.filter(F.col("valid")).select(
        "metric", "ts", "value", "sensor_id", "city"
    )


def quarantined_points(validated: DataFrame) -> DataFrame:
    """Invalid points, kept with full provenance for quality analysis."""
    return validated.filter(~F.col("valid"))


def read_landing_batch(spark: SparkSession, landing_dir: str) -> DataFrame:
    """Batch-read the MQTT landing zone with the canonical schema."""
    return spark.read.schema(MESSAGE_SCHEMA).json(landing_dir)


def uplinks_batch(spark: SparkSession, landing_dir: str) -> DataFrame:
    """One row per uplink message (pre-explosion) — dataport input shape."""
    return parse_uplinks(read_landing_batch(spark, landing_dir)).select(
        "sensor_id", "city", "ts", "f_cnt", "gateways", "best_gateway", "n_gateways",
        F.col("payload_fields.battery").alias("battery"),
        F.col("payload_fields.interval_min").alias("interval_min"),
    )


def ingest_batch(spark: SparkSession, landing_dir: str, tsdb_root: str) -> dict:
    """Batch backfill: landing zone → TSDB. Returns accounting counts."""
    from repro.tsdb import store

    validated = validate(parse_messages(read_landing_batch(spark, landing_dir)))
    validated = validated.cache()
    try:
        ok = accepted_points(validated)
        store.write(ok, tsdb_root)
        n_ok = ok.count()
        n_bad = quarantined_points(validated).count()
    finally:
        validated.unpersist()
    return {"accepted": n_ok, "quarantined": n_bad}
