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

Only the battery recurrence is sequential, so it is the one scalar loop
(:func:`_transmissions`): it yields the transmitted ticks and the
battery level at each. Everything else is array arithmetic over those
ticks — one ground-truth call per city for all the city's nodes and
metrics, then gain, drift, bias, noise, flatline and rounding per metric.
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


def _transmissions(irradiance: np.ndarray, n_ticks: int) -> tuple[np.ndarray, np.ndarray]:
    """The battery recurrence over the first ``n_ticks`` ticks.

    Returns the index of every transmitted tick and the battery level
    (%) the node measured there, before paying the TX cost. This is the
    simulator's only sequential step: whether a tick transmits depends
    on the level the previous transmissions left.
    """
    charge = (CHARGE_PER_TICK_FULL_SUN * irradiance[:n_ticks]).tolist()
    battery = BATTERY_START
    next_tx = 0
    idx, level = [], []
    for i, c in enumerate(charge):
        battery = max(0.0, min(100.0, battery + c - IDLE_COST_PER_TICK))
        if i < next_tx or battery <= 1.0:
            continue
        idx.append(i)
        level.append(battery)
        battery = max(0.0, battery - TX_COST)
        next_tx = i + interval_ticks_for(battery)
    return np.array(idx, dtype="int64"), np.array(level, dtype="float64")


def _simulate_node(
    row: pd.Series,
    grid: pd.DatetimeIndex,
    irradiance: np.ndarray,
    truth_by_metric: dict,
    faults: list[Fault],
    seed: int,
) -> pd.DataFrame:
    """One node's transmitted rows over the tick grid.

    ``truth_by_metric`` maps each metric to its ground truth on ``grid``.
    The node stops at its (earliest) death; a metric's drift scales its
    gain from the fault's start, and a flatline holds the value of the
    first transmission at or after its start, drift included.
    """
    sensor_id = row["sensor_id"]
    calib = node_calibration(sensor_id, seed=seed)
    g = np.random.default_rng(stable_seed("noise", sensor_id, seed))
    # Noise is drawn for every tick, metric by metric, so a node's noise
    # at a tick does not depend on which ticks it transmitted.
    noise = {m: g.normal(0.0, ERROR_MODEL[m][2], len(grid)) for m in field.ALL_METRICS}

    mine = [f for f in faults if f.sensor_id == sensor_id]
    death = min((f.start for f in mine if f.kind == "death"), default=None)
    drift = {f.metric: f for f in mine if f.kind == "drift"}
    flat = {f.metric: f for f in mine if f.kind == "flatline"}

    alive = len(grid) if death is None else grid.searchsorted(death)
    idx, battery = _transmissions(irradiance, alive)
    ts = grid.values[idx].astype("datetime64[s]")
    out = {"sensor_id": sensor_id, "city": row["city"], "ts": grid[idx]}
    for m in field.ALL_METRICS:
        gain = np.full(len(idx), calib.gain[m])
        if m in drift:
            start = np.datetime64(drift[m].start, "s")
            on = ts >= start
            hrs = (ts[on] - start) / np.timedelta64(3600, "s")
            gain[on] *= 1.0 + drift[m].rate_per_hour * hrs
        val = gain * truth_by_metric[m][idx] + calib.bias[m] + noise[m][idx]
        if m in flat:
            stuck = ts >= np.datetime64(flat[m].start, "s")
            val[stuck] = val[stuck][:1]
        out[m] = np.round(val, 3)
    out["battery"] = np.round(battery, 3)
    out["interval_min"] = BASE_INTERVAL_MIN * np.select(
        [battery >= t for t, _ in INTERVAL_TICKS], [k for _, k in INTERVAL_TICKS]
    )
    out["f_cnt"] = np.arange(len(idx))
    return pd.DataFrame(out)


def simulate_readings_pdf(
    *,
    sf: float = 0.01,
    seed: int = 0,
    faults: list[Fault] | None = None,
) -> pd.DataFrame:
    """All transmitted measurements for the deployment at scale ``sf``.

    Columns: sensor_id, city, ts, co2, no2, pm10, pm25, temperature,
    pressure, humidity, battery (%), interval_min, f_cnt.
    """
    grid = deployment.time_grid(sf)
    faults = faults or []
    parts = []
    for city, nodes in deployment.sensors_pdf().groupby("city"):
        irr = field.solar_irradiance(city, grid.values, seed=seed)
        # One (node, tick) truth array per metric for the city's nodes.
        xy = nodes[["x_m", "y_m"]].to_numpy()
        truths = field.truth(city, xy[:, :1], xy[:, 1:], grid.values, seed=seed)
        for j, (_, srow) in enumerate(nodes.iterrows()):
            node_truth = {m: t[j] for m, t in truths.items()}
            parts.append(_simulate_node(srow, grid, irr, node_truth, faults, seed))
    pdf = pd.concat(parts, ignore_index=True)
    return pdf.sort_values(["ts", "sensor_id"]).reset_index(drop=True)
