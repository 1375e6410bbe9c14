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
from pyspark.sql import DataFrame
from pyspark.sql import functions as F

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
    outages = outages or []
    pos = deployment.sensors_pdf().set_index("sensor_id")[["x_m", "y_m", "city"]]
    parts = []
    for city, city_gw in deployment.gateways_pdf().groupby("city"):
        city_rd = readings[readings["city"] == city]
        if city_rd.empty:
            continue
        sx = pos.loc[city_rd["sensor_id"], "x_m"].to_numpy()
        sy = pos.loc[city_rd["sensor_id"], "y_m"].to_numpy()
        ts = city_rd["ts"].to_numpy().astype("datetime64[s]")
        for _, gw in city_gw.iterrows():
            d = np.sqrt((sx - gw["x_m"]) ** 2 + (sy - gw["y_m"]) ** 2)
            g = np.random.default_rng(
                stable_seed("radio", city, gw["gateway_id"], seed)
            )
            ok, rssi = radio.reception_mask(d, g)
            for o in outages:
                if o.gateway_id == gw["gateway_id"]:
                    in_window = (ts >= np.datetime64(o.start, "s")) & (
                        ts < np.datetime64(o.end, "s")
                    )
                    ok = ok & ~in_window
            got = city_rd.loc[ok].copy()
            got["gateway_id"] = gw["gateway_id"]
            got["rssi"] = rssi[ok]
            parts.append(got)
    if not parts:
        return readings.iloc[0:0].assign(gateway_id=pd.Series(dtype="object"),
                                         rssi=pd.Series(dtype="float64"))
    out = pd.concat(parts, ignore_index=True)
    return out.sort_values(["ts", "sensor_id", "gateway_id"]).reset_index(drop=True)


def ttn_dedup(receptions_df: DataFrame) -> DataFrame:
    """TTN-backend deduplication as a Spark transformation.

    Collapses per-gateway receptions of the same uplink — keyed by
    (sensor_id, f_cnt) — into one message in one aggregate: the payload
    (every reading column) of the best-RSSI reception, ``n_gateways``,
    and ``gateways`` (array of structs gtw_id/rssi, strongest first).
    Equal RSSIs are ordered by gateway id, for the payload and the list
    alike.
    """
    rank = F.struct((-F.col("rssi")).alias("neg_rssi"), F.col("gateway_id"))
    payload = [c for c in receptions_df.columns
               if c not in ("sensor_id", "f_cnt", "gateway_id", "rssi")]
    heard = F.struct(
        rank.alias("k"), F.col("gateway_id").alias("gtw_id"), F.col("rssi")
    )
    return (
        receptions_df.groupBy("sensor_id", "f_cnt")
        .agg(
            F.min_by(F.struct(*payload), rank).alias("best"),
            F.count(F.lit(1)).alias("n_gateways"),
            F.transform(
                F.sort_array(F.collect_list(heard)), lambda g: g.dropFields("k")
            ).alias("gateways"),
        )
        .select("sensor_id", "f_cnt", "best.*", "n_gateways", "gateways")
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
