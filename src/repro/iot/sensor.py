"""Low-cost sensor node simulator.

Each node samples the ground-truth field (:mod:`repro.iot.field`) every
5 minutes (§3) through a low-cost error model — per-node gain error,
additive bias, white noise — and runs a solar-charged battery state
machine:

* the battery charges proportionally to solar irradiance (daytime only,
  cloud-attenuated; §2.4 "Charg[ing] occurs during daytime, and is
  affected by weather conditions"),
* every wake-up costs a baseline current and every transmission an
  extra LoRa TX cost,
* nodes **adapt their measurement frequency to the battery level**
  (§2.3 "sensor nodes can adapt their frequency based on battery
  levels"): ≥30 % → 5 min, ≥15 % → 10 min, below → 20 min.

The simulator emits one row per *transmitted* measurement with the full
metric vector, battery level and a monotone LoRaWAN frame counter.
Faults (:mod:`repro.iot.faults`) modify behaviour: ``death`` stops
transmissions, ``drift`` decays a metric's gain over time, ``flatline``
freezes a metric's output.
"""
from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np
import pandas as pd

from repro.iot import deployment, field
from repro.iot.faults import Fault

#: Battery thresholds (%) → transmission interval in base (5-min) ticks.
INTERVAL_TICKS = ((30.0, 1), (15.0, 2), (-1.0, 4))
BASE_INTERVAL_MIN = 5

#: Battery model constants, in % of capacity per 5-min tick.
CHARGE_PER_TICK_FULL_SUN = 3.0  # scaled by relative irradiance in [0,1]
IDLE_COST_PER_TICK = 0.004
TX_COST = 0.012
BATTERY_START = 90.0

#: Per-metric low-cost error model: (gain_sigma, bias_sigma, noise_sigma).
#: Pollutant channels are markedly worse than the weather channels —
#: that inaccuracy is what E5 calibrates away and E7 trades against
#: density.
ERROR_MODEL = {
    "co2": (0.06, 12.0, 6.0),
    "no2": (0.08, 4.0, 3.0),
    "pm10": (0.08, 2.5, 2.0),
    "pm25": (0.08, 1.5, 1.2),
    "temperature": (0.005, 0.3, 0.2),
    "pressure": (0.0005, 0.5, 0.15),
    "humidity": (0.01, 2.0, 1.0),
}


@dataclass(frozen=True)
class NodeCalib:
    """True (hidden) per-node, per-metric gain and bias."""

    gain: dict
    bias: dict


def stable_seed(*parts) -> int:
    """Process-independent 32-bit seed from arbitrary parts.

    ``hash()`` is salted per interpreter (PYTHONHASHSEED), which would
    make executors disagree with the driver — hence blake2s.
    """
    h = hashlib.blake2s("|".join(map(str, parts)).encode(), digest_size=4)
    return int.from_bytes(h.digest(), "big")


def node_calibration(sensor_id: str, *, seed: int = 0) -> NodeCalib:
    """Deterministic hidden gain/bias for a node, keyed by its id."""
    g = np.random.default_rng(stable_seed("calib", sensor_id, seed))
    gain, bias = {}, {}
    for m, (gs, bs, _) in ERROR_MODEL.items():
        gain[m] = float(1.0 + g.normal(0.0, gs))
        bias[m] = float(g.normal(0.0, bs))
    return NodeCalib(gain=gain, bias=bias)


def interval_ticks_for(battery: float) -> int:
    """Transmission interval (in 5-min ticks) for a battery level (%)."""
    for thresh, ticks in INTERVAL_TICKS:
        if battery >= thresh:
            return ticks
    return INTERVAL_TICKS[-1][1]


def _simulate_node(
    row: pd.Series,
    grid: pd.DatetimeIndex,
    irradiance: np.ndarray,
    truth_by_metric: dict,
    faults: list[Fault],
    seed: int,
) -> pd.DataFrame:
    """Walk one node through the tick grid; return its transmitted rows."""
    sensor_id = row["sensor_id"]
    calib = node_calibration(sensor_id, seed=seed)
    g = np.random.default_rng(stable_seed("noise", sensor_id, seed))
    n = len(grid)
    grid64 = grid.values.astype("datetime64[s]")

    my_faults = [f for f in faults if f.sensor_id == sensor_id]
    death_at = min(
        (f.start for f in my_faults if f.kind == "death"), default=None
    )
    drift = {f.metric: f for f in my_faults if f.kind == "drift"}
    flat = {f.metric: f for f in my_faults if f.kind == "flatline"}

    # Pre-draw noise for all ticks/metrics (only transmitted ticks used).
    noise = {
        m: g.normal(0.0, ERROR_MODEL[m][2], n) for m in field.ALL_METRICS
    }

    battery = BATTERY_START
    next_tx = 0
    f_cnt = 0
    out: list[dict] = []
    flat_value: dict = {}
    for i in range(n):
        battery = min(
            100.0,
            battery + CHARGE_PER_TICK_FULL_SUN * irradiance[i] - IDLE_COST_PER_TICK,
        )
        battery = max(0.0, battery)
        if i < next_tx or battery <= 1.0:
            continue
        ts = grid64[i]
        dead = death_at is not None and ts >= np.datetime64(death_at, "s")
        if not dead:
            rec = {
                "sensor_id": sensor_id,
                "city": row["city"],
                "ts": grid[i],
                "battery": round(battery, 3),
                "interval_min": interval_ticks_for(battery) * BASE_INTERVAL_MIN,
                "f_cnt": f_cnt,
            }
            for m in field.ALL_METRICS:
                gain = calib.gain[m]
                if m in drift and ts >= np.datetime64(drift[m].start, "s"):
                    hrs = (ts - np.datetime64(drift[m].start, "s")) / np.timedelta64(
                        3600, "s"
                    )
                    gain *= 1.0 + drift[m].rate_per_hour * float(hrs)
                val = gain * truth_by_metric[m][i] + calib.bias[m] + noise[m][i]
                if m in flat and ts >= np.datetime64(flat[m].start, "s"):
                    if m not in flat_value:
                        flat_value[m] = val
                    val = flat_value[m]
                rec[m] = round(float(val), 3)
            out.append(rec)
            battery = max(0.0, battery - TX_COST)
            f_cnt += 1
        next_tx = i + interval_ticks_for(battery)
    cols = [
        "sensor_id",
        "city",
        "ts",
        *field.ALL_METRICS,
        "battery",
        "interval_min",
        "f_cnt",
    ]
    return pd.DataFrame(out, columns=cols)


def simulate_readings_pdf(
    *,
    sf: float = 0.01,
    seed: int = 0,
    sensors: pd.DataFrame | None = None,
    faults: list[Fault] | None = None,
) -> pd.DataFrame:
    """All transmitted measurements for a deployment at scale ``sf``.

    Columns: sensor_id, city, ts, co2, no2, pm10, pm25, temperature,
    pressure, humidity, battery (%), interval_min, f_cnt.
    """
    sensors = deployment.sensors_pdf() if sensors is None else sensors
    grid = deployment.time_grid(sf)
    faults = faults or []
    parts = []
    irr = {
        city: field.solar_irradiance(city, grid.values, seed=seed)
        for city in sensors["city"].unique()
    }
    for _, srow in sensors.iterrows():
        truths = {
            m: field.truth(
                m, srow["city"], srow["x_m"], srow["y_m"], grid.values, seed=seed
            )
            for m in field.ALL_METRICS
        }
        parts.append(
            _simulate_node(srow, grid, irr[srow["city"]], truths, faults, seed)
        )
    pdf = pd.concat(parts, ignore_index=True)
    return pdf.sort_values(["ts", "sensor_id"]).reset_index(drop=True)

