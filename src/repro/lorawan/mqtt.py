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

The driver serialises the envelope with Arrow compute kernels
(:func:`land_messages`), byte for byte as Spark's ``to_json`` would, and
Spark reads it back with :data:`MESSAGE_SCHEMA`;
:func:`repro.ingest.etl.parse_uplinks` is the one parse of it, for batch
and streaming alike.
"""
from __future__ import annotations

import os
from itertools import groupby

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from repro.lorawan.network import PAYLOAD_COLS

#: Spark datetime pattern of ``metadata.time`` (ISO 8601, UTC).
TIME_FORMAT = "yyyy-MM-dd'T'HH:mm:ss'Z'"

#: Spark schema (DDL) of a landed MQTT message, for the readers.
MESSAGE_SCHEMA = (
    "app_id STRING, dev_id STRING, counter INT, city STRING, metadata STRUCT<"
    "time: STRING, gateways: ARRAY<STRUCT<gtw_id: STRING, rssi: DOUBLE>>>, "
    f"payload_fields STRUCT<{', '.join(f'{c}: DOUBLE' for c in PAYLOAD_COLS)}>"
)


def _per_value(text, col: pa.Array) -> pa.Array:
    """``text(col)``, computed once per distinct value of ``col``."""
    d = pc.dictionary_encode(col, null_encoding="encode")
    return text(d.dictionary).take(d.indices)


def json_number(col: pa.Array, name: str) -> pa.Array:
    """JSON text of a numeric column as a double, as Spark's ``to_json``
    writes it (Java ``Double.toString``).

    Arrow's shortest round-trip text equals Java's, once ``".0"`` is
    appended to integral values, only for zero and finite
    ``1e-3 <= |x| < 1e7``; Java switches to ``1.0E-4`` / ``1.0E7``
    outside it. Any other value, or a null, raises ``ValueError`` naming
    the column. The simulator's values all lie inside.
    """
    def text(values: pa.Array) -> pa.Array:
        x = pc.cast(values, pa.float64())
        a = pc.abs(x)
        inside = pc.or_(pc.equal(a, 0), pc.and_(pc.greater_equal(a, 1e-3), pc.less(a, 1e7)))
        if not pc.all(inside, skip_nulls=False, min_count=0).as_py():
            raise ValueError(f"{name}: only 0 and 1e-3 <= |x| < 1e7 print as in Spark")
        s = pc.cast(x, pa.string())
        return pc.if_else(pc.match_substring(s, "."), s, pc.binary_join_element_wise(s, ".0", ""))
    return _per_value(text, col)


def _quoted(col: pa.Array) -> pa.Array:
    return _per_value(
        lambda v: pc.binary_join_element_wise('"', pc.cast(v, pa.string()), '"', ""), col)


def _object(fields: dict) -> list:
    """The parts of one JSON object per row, to be joined row-wise. A
    field's text is an array, a literal or an object's parts. Adjacent
    literals are merged: every part costs the join a pass over the rows."""
    flat = []
    for i, (key, text) in enumerate(fields.items()):
        flat += [f'{"," if i else "{"}"{key}":', *(text if isinstance(text, list) else [text])]
    return [p for literal, run in groupby([*flat, "}"], lambda p: isinstance(p, str))
            for p in (["".join(run)] if literal else run)]


def land_messages(uplinks: pa.Table, out_dir: str) -> int:
    """Write TTN-deduplicated uplinks as hourly JSON-lines files.

    ``uplinks`` is the output of :func:`repro.lorawan.network.ttn_dedup`.
    Every line is joined at once from column texts, each distinct value
    formatted once, with no Python object per message; each hour's lines
    are written as one buffer. Returns the number of messages written.
    Files are named ``msgs-YYYYMMDDHH.jsonl`` and lines are in (time,
    sensor) order, so arrival order matches event time, as a bridge
    would produce. Device, city and gateway ids are written as they are,
    unescaped.
    """
    table = uplinks.sort_by([("ts", "ascending"), ("sensor_id", "ascending")]).combine_chunks()
    t = {name: table[name].chunk(0) for name in table.column_names}  # one chunk each
    ts = pc.cast(t["ts"], pa.timestamp("s"))
    gw = pc.list_flatten(t["gateways"])
    gw_text = pc.binary_join_element_wise(*_object({
        "gtw_id": _quoted(gw.field("gtw_id")),
        "rssi": json_number(gw.field("rssi"), "rssi"),
    }), "")
    gw_lists = pa.ListArray.from_arrays(t["gateways"].offsets, gw_text)
    lines = pc.binary_join_element_wise(*_object({
        "app_id": '"ctt"',
        "dev_id": _quoted(t["sensor_id"]),
        "counter": pc.cast(t["f_cnt"], pa.string()),
        "city": _quoted(t["city"]),
        "metadata": _object({
            "time": _per_value(lambda v: _quoted(pc.strftime(v, "%Y-%m-%dT%H:%M:%SZ")), ts),
            "gateways": ["[", pc.binary_join(gw_lists, ","), "]"],
        }),
        "payload_fields": _object({c: json_number(t[c], c) for c in PAYLOAD_COLS}),
    }), "\n", "")
    # Lines are in time order, so each hour is one contiguous run of the
    # lines' data buffer.
    hour = ts.to_numpy().astype("datetime64[h]").astype(np.int64)
    cut = np.append(np.flatnonzero(np.diff(hour, prepend=hour[:1] - 1)), len(hour))
    _, offsets, data = lines.buffers()
    offsets = np.frombuffer(offsets, np.int32)[lines.offset:]
    os.makedirs(out_dir, exist_ok=True)
    for name, a, b in zip(pc.strftime(ts.take(cut[:-1]), "%Y%m%d%H").to_pylist(),
                          cut[:-1], cut[1:]):
        with open(os.path.join(out_dir, f"msgs-{name}.jsonl"), "wb") as f:
            f.write(data[offsets[a]:offsets[b]])
    return len(ts)
