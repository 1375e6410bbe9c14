"""MQTT landing zone — the bridge between TTN and cloud ingestion.

The real system forwards deduplicated uplinks from the TTN cloud
backend over MQTT (§2.1 "Data forwarding and cloud sensor management
was built through the event-driven MQTT communication protocol"). In
this offline reproduction the MQTT topic is a *landing directory* of
JSON-lines files — one file per simulated hour, mimicking a broker
bridge that rolls files — which Spark Structured Streaming consumes as
a file source (:mod:`repro.ingest.stream`).

Message envelope (TTN uplink format, trimmed):

.. code-block:: json

    {"app_id": "ctt", "dev_id": "T-01", "counter": 12,
     "city": "trondheim",
     "metadata": {"time": "2017-01-01T00:05:00Z",
                  "gateways": [{"gtw_id": "gw-tr-0", "rssi": -101.5}]},
     "payload_fields": {"co2": 431.2, "no2": 24.0, "pm10": 14.1,
                        "pm25": 7.7, "temperature": -3.1,
                        "pressure": 1013.2, "humidity": 81.0,
                        "battery": 89.9, "interval_min": 5.0}}

Spark serialises the envelope (:func:`land_messages`) and reads it back
with :data:`MESSAGE_SCHEMA`; :func:`repro.ingest.etl.parse_uplinks` is
the one parse of it, for batch and streaming alike.
"""
from __future__ import annotations

import os

from pyspark.sql import DataFrame
from pyspark.sql import functions as F
from pyspark.sql.types import (
    ArrayType, DoubleType, IntegerType, StringType, StructField, StructType,
)

from repro.lorawan.network import PAYLOAD_COLS

#: Spark datetime pattern of ``metadata.time`` (ISO 8601, UTC).
TIME_FORMAT = "yyyy-MM-dd'T'HH:mm:ss'Z'"

#: Spark schema of a landed MQTT message (for the streaming reader).
MESSAGE_SCHEMA = StructType(
    [
        StructField("app_id", StringType()),
        StructField("dev_id", StringType()),
        StructField("counter", IntegerType()),
        StructField("city", StringType()),
        StructField(
            "metadata",
            StructType(
                [
                    StructField("time", StringType()),
                    StructField(
                        "gateways",
                        ArrayType(
                            StructType(
                                [
                                    StructField("gtw_id", StringType()),
                                    StructField("rssi", DoubleType()),
                                ]
                            )
                        ),
                    ),
                ]
            ),
        ),
        StructField(
            "payload_fields",
            StructType([StructField(c, DoubleType()) for c in PAYLOAD_COLS]),
        ),
    ]
)


def land_messages(uplinks: DataFrame, out_dir: str) -> int:
    """Write TTN-deduplicated uplinks as hourly JSON-lines files.

    ``uplinks`` is the output of :func:`repro.lorawan.network.ttn_dedup`.
    Spark serialises each message with ``to_json``; the driver only
    sorts the lines and writes them. Returns the number of messages
    written. Files are named ``msgs-YYYYMMDDHH.jsonl`` and lines are in
    (time, sensor) order, so arrival order matches event time, as a
    bridge would produce.
    """
    message = F.struct(
        F.lit("ctt").alias("app_id"),
        F.col("sensor_id").alias("dev_id"),
        F.col("f_cnt").alias("counter"),
        F.col("city"),
        F.struct(
            F.date_format("ts", TIME_FORMAT).alias("time"),
            F.col("gateways"),
        ).alias("metadata"),
        F.struct(*[F.col(c).cast("double").alias(c) for c in PAYLOAD_COLS]).alias(
            "payload_fields"
        ),
    )
    pdf = uplinks.select(
        "ts", "sensor_id",
        F.date_format("ts", "yyyyMMddHH").alias("hour"),
        F.to_json(message).alias("line"),
    ).toPandas().sort_values(["ts", "sensor_id"])
    os.makedirs(out_dir, exist_ok=True)
    for hour, lines in pdf.groupby("hour", sort=True)["line"]:
        with open(os.path.join(out_dir, f"msgs-{hour}.jsonl"), "w") as f:
            f.writelines(line + "\n" for line in lines)
    return len(pdf)
