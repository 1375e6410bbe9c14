"""Packet transport: sensor uplinks → per-gateway receptions → TTN dedup.

Every transmitted reading becomes a LoRaWAN uplink that each same-city
gateway independently attempts to receive (:mod:`repro.lorawan.radio`).
A packet heard by zero gateways is *lost* — the "usual issues of
missing data" (§2.2). The Things Network backend deduplicates
multi-gateway receptions into one uplink message carrying the list of
receiving gateways as metadata (§2.3: "Incoming data contains meta-data
that identifies the originating sensor and the gateway from which it
was received").

Gateway outages (:class:`repro.iot.faults.GatewayOutage`) suppress all
receptions at that gateway inside the outage window.
"""
from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa

from repro.iot import deployment
from repro.iot.faults import GatewayOutage
from repro.iot.sensor import stable_seed
from repro.lorawan import radio

#: Payload columns carried inside an uplink (everything the node sends).
PAYLOAD_COLS = [
    "co2", "no2", "pm10", "pm25",
    "temperature", "pressure", "humidity",
    "battery", "interval_min",
]


def receptions_pdf(
    readings: pd.DataFrame,
    *,
    outages: list[GatewayOutage] | None = None,
    seed: int = 0,
) -> pd.DataFrame:
    """One row per (uplink, receiving gateway).

    Columns = reading columns + gateway_id + rssi. Packets heard by no
    gateway are absent (lost). Deterministic in ``seed``.
    """
    pos = deployment.sensors_pdf().set_index("sensor_id")
    xy = pos.loc[readings["sensor_id"], ["x_m", "y_m"]].to_numpy()
    city, ts = readings["city"].to_numpy(), readings["ts"].to_numpy().astype("datetime64[s]")
    parts = []
    for _, gw in deployment.gateways_pdf().iterrows():
        in_city = np.flatnonzero(city == gw["city"])
        d = np.sqrt((xy[in_city, 0] - gw["x_m"]) ** 2 + (xy[in_city, 1] - gw["y_m"]) ** 2)
        g = np.random.default_rng(stable_seed("radio", gw["city"], gw["gateway_id"], seed))
        ok, rssi = radio.reception_mask(d, g)
        t = ts[in_city]
        for o in outages or []:
            if o.gateway_id == gw["gateway_id"]:
                ok &= (t < np.datetime64(o.start, "s")) | (t >= np.datetime64(o.end, "s"))
        parts.append(readings.iloc[in_city[ok]].assign(gateway_id=gw["gateway_id"], rssi=rssi[ok]))
    out = pd.concat(parts, ignore_index=True)
    return out.sort_values(["ts", "sensor_id", "gateway_id"]).reset_index(drop=True)


def ttn_dedup(receptions: pd.DataFrame) -> pa.Table:
    """TTN-backend deduplication, vectorised on the driver.

    Collapses per-gateway receptions of the same uplink — keyed by
    (sensor_id, f_cnt) — into one message: the payload (every reading
    column) of the best-RSSI reception, ``n_gateways``, and ``gateways``
    (list of structs gtw_id/rssi, strongest first). Equal RSSIs are
    ordered by gateway id, for the payload and the list alike. One
    ``lexsort`` over integer codes puts each uplink's receptions in a run,
    best first; a run's first row is the payload and its bounds are the
    gateway list's offsets. Rows come in (sensor_id, f_cnt) order.
    """
    f_cnt = receptions["f_cnt"].to_numpy()
    sensor = pd.factorize(receptions["sensor_id"], sort=True)[0]
    uplink = sensor * (f_cnt.max(initial=0) + 1) + f_cnt  # (sensor_id, f_cnt); FCnt is unsigned
    gw_code, gw_ids = pd.factorize(receptions["gateway_id"], sort=True)
    rssi = receptions["rssi"].to_numpy()
    order = np.lexsort((gw_code, -rssi, uplink))
    offsets = np.append(np.flatnonzero(np.diff(uplink[order], prepend=-1)), len(order))
    payload = receptions.columns.drop(["sensor_id", "f_cnt", "gateway_id", "rssi"])
    best = receptions.iloc[order[offsets[:-1]]][["sensor_id", "f_cnt", *payload]]
    heard = pa.StructArray.from_arrays(
        [pa.array(gw_ids).take(gw_code[order]), rssi[order]], names=["gtw_id", "rssi"])
    return (
        pa.Table.from_pandas(best, preserve_index=False)
        .append_column("n_gateways", pa.array(np.diff(offsets)))
        .append_column("gateways", pa.ListArray.from_arrays(offsets.astype(np.int32), heard))
    )


def loss_accounting(
    readings: pd.DataFrame, receptions: pd.DataFrame
) -> pd.DataFrame:
    """Per-city packet accounting: sent, delivered, lost, dup factor.

    ``delivered`` counts distinct uplinks heard by ≥1 gateway;
    ``gw_receptions`` counts per-gateway rows (the duplication TTN
    removes).
    """
    sent = readings.groupby("city").size().rename("sent")
    delivered = (
        receptions.drop_duplicates(["sensor_id", "f_cnt"])
        .groupby("city")
        .size()
        .rename("delivered")
    )
    raw = receptions.groupby("city").size().rename("gw_receptions")
    out = pd.concat([sent, delivered, raw], axis=1).fillna(0).astype("int64")
    out["lost"] = out["sent"] - out["delivered"]
    out["loss_rate"] = (out["lost"] / out["sent"]).round(4)
    out["dup_factor"] = (out["gw_receptions"] / out["delivered"].clip(lower=1)).round(3)
    return out.reset_index()
