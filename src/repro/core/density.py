"""Density vs accuracy trade-off (paper §1).

"Our low-cost approach could provide a very dense coverage of a city
with 250 additional sensors for the price of one additional station by
using sensor units of around $2,000 each. ... This enables a trade-off
of high number and high granularity of low-cost sensors that can
compensate for their relatively lower accuracy."

The experiment (E7): reconstruct the city-wide NO2 field on the
analysis grid from (a) a single reference-grade station and (b)
equal-budget fleets of noisy low-cost sensors, and compare
reconstruction error against the known ground truth.

* Observations: each deployed unit reports hourly values = truth at its
  location + its error model (reference: σ≈0.5, unbiased; low-cost:
  gain/bias/noise from :data:`repro.iot.sensor.ERROR_MODEL`).
* Reconstruction: inverse-distance weighting over the nearest units —
  the station extrapolates its single point city-wide; the fleet
  interpolates locally.
* Metric: RMSE over (cell, hour) against ground truth, and the spatial
  RMSE of the time-averaged field (granularity is about *space*).
"""
from __future__ import annotations

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame, SparkSession
from pyspark.sql import functions as F

from repro.external import citygml
from repro.iot import deployment, field
from repro.iot.sensor import ERROR_MODEL, stable_seed

STATION_COST_USD = 500_000
SENSOR_COST_USD = 2_000
#: Fleet sizes swept (250 = the paper's equal-budget fleet).
FLEET_SIZES = (1, 5, 12, 25, 50, 100, 250)
#: IDW exponent and minimum distance (m).
IDW_POWER = 2.0
IDW_EPS_M = 50.0


def eval_times(*, day: int = 1, hours: int = 24) -> pd.DatetimeIndex:
    """Hourly evaluation instants on simulation day ``day``."""
    start = deployment.SIM_START + pd.Timedelta(days=day)
    return pd.date_range(start, periods=hours, freq="1h")


def truth_grid_pdf(
    city: str, times: pd.DatetimeIndex, *, metric: str = "no2", seed: int = 0
) -> pd.DataFrame:
    """Ground truth at every grid cell centre × evaluation instant."""
    grid = citygml.grid_pdf()
    grid = grid[grid["city"] == city]
    # One truth call over every (hour, cell), hour-major.
    tile = lambda c: np.tile(grid[c].to_numpy(), len(times))
    xs, ys, ts = tile("x_c"), tile("y_c"), times.repeat(len(grid))
    return pd.DataFrame(
        {
            "cell_id": tile("cell_id"),
            "x_c": xs,
            "y_c": ys,
            "ts": ts,
            "truth": field.truth(city, xs, ys, ts.to_numpy(), seed=seed)[metric],
        }
    )


def _scenario_name(
    n_units: int, *, reference_grade: bool = False, at_station: bool = False
) -> str:
    """The E7 row label of a deployment."""
    if reference_grade:
        return "official_station"
    if at_station:
        return "lowcost_1_at_station"
    return f"lowcost_{n_units}"


def fleet_observations_pdf(
    city: str,
    n_units: int,
    times: pd.DatetimeIndex,
    *,
    metric: str = "no2",
    reference_grade: bool = False,
    at_station: bool = False,
    seed: int = 0,
) -> pd.DataFrame:
    """Hourly observations from a deployed fleet.

    Low-cost units are scattered with the deployment's seeded layout
    (quasi-uniform over the ±2.5 km extent); ``at_station`` pins a
    single unit to the official station site instead (the equal-siting
    control that separates instrument error from siting error).
    Columns: scenario, unit_id, x_m, y_m, ts, obs; ``scenario`` names
    the deployment (:func:`_scenario_name`).
    """
    scenario = _scenario_name(
        n_units, reference_grade=reference_grade, at_station=at_station
    )
    g = np.random.default_rng(stable_seed("fleet", city, n_units, reference_grade, seed))
    if reference_grade or at_station:
        st = deployment.station_pdf()
        st = st[st["city"] == city].iloc[0]
        xs, ys = np.array([st["x_m"]]), np.array([st["y_m"]])
        n_units = 1
    else:
        # Halton-like stratified scatter: grid-stratified uniform, so
        # big fleets genuinely cover the footprint.
        k = int(np.ceil(np.sqrt(n_units)))
        cells = g.permutation(k * k)[:n_units]
        cx, cy = cells % k, cells // k
        xs = -2500 + (cx + g.random(n_units)) * (5000 / k)
        ys = -2500 + (cy + g.random(n_units)) * (5000 / k)
    gain_s, bias_s, noise_s = ERROR_MODEL[metric]
    if reference_grade:
        gains, biases, noise_sd = np.ones(1), np.zeros(1), 0.5
    else:
        gains = 1.0 + g.normal(0, gain_s, n_units)
        biases = g.normal(0, bias_s, n_units)
        noise_sd = noise_s
    # One truth call over every (hour, unit), hour-major; the noise is
    # drawn in the same order, so the stream matches a per-hour loop.
    xs_t, ys_t = np.tile(xs, len(times)), np.tile(ys, len(times))
    ts = times.repeat(n_units)
    truth = field.truth(city, xs_t, ys_t, ts.to_numpy(), seed=seed)[metric]
    noise = g.normal(0, noise_sd, (len(times), n_units))
    obs = gains * truth.reshape(len(times), n_units) + biases + noise
    return pd.DataFrame(
        {
            "scenario": scenario,
            "unit_id": np.tile(np.arange(n_units), len(times)),
            "x_m": xs_t,
            "y_m": ys_t,
            "ts": ts,
            "obs": obs.ravel(),
        }
    )


def idw_reconstruction(
    spark: SparkSession,
    observations: pd.DataFrame,
    truth_grid: pd.DataFrame,
) -> DataFrame:
    """IDW-reconstruct the field on the grid and score against truth.

    Spark does the heavy (cell × unit × hour) join: weights
    w = 1/(d+ε)^p over all units of a scenario at each instant, so any
    number of scenarios reconstruct in one plan. The observations are
    broadcast: they are bounded by construction (at most every swept
    unit × 24 hours, ~10 k rows), and a shuffle on ``ts`` would put the
    whole join in as few tasks as there are hours. Returns per
    (scenario, cell_id, ts): estimate, truth, error.
    """
    obs = spark.createDataFrame(observations)
    cells = spark.createDataFrame(truth_grid)
    j = cells.join(F.broadcast(obs), "ts").withColumn(
        "d",
        F.sqrt(
            (F.col("x_c") - F.col("x_m")) ** 2 + (F.col("y_c") - F.col("y_m")) ** 2
        ),
    )
    j = j.withColumn("w", 1.0 / F.pow(F.col("d") + IDW_EPS_M, IDW_POWER))
    est = j.groupBy("scenario", "cell_id", "ts", "truth").agg(
        (F.sum(F.col("w") * F.col("obs")) / F.sum("w")).alias("estimate")
    )
    return est.withColumn("error", F.col("estimate") - F.col("truth"))


def score(recon: DataFrame) -> dict:
    """Per scenario: RMSE over (cell, hour), bias, and the spatial RMSE
    of the time-mean field, as ``{scenario: {rmse, bias, spatial_rmse}}``.

    All three come from one per-(scenario, cell) partial aggregate, so
    the reconstruction is computed once."""
    cell = recon.groupBy("scenario", "cell_id").agg(
        F.count("*").alias("n"),
        F.sum(F.col("error") ** 2).alias("sse"),
        F.sum("error").alias("se"),
        (F.avg("estimate") - F.avg("truth")).alias("cell_err"),
    )
    scores = cell.groupBy("scenario").agg(
        F.sqrt(F.sum("sse") / F.sum("n")).alias("rmse"),
        (F.sum("se") / F.sum("n")).alias("bias"),
        F.sqrt(F.avg(F.col("cell_err") ** 2)).alias("spatial_rmse"),
    )
    return {
        r["scenario"]: {k: float(r[k]) for k in ("rmse", "bias", "spatial_rmse")}
        for r in scores.collect()
    }


def sweep(
    spark: SparkSession,
    *,
    city: str = "trondheim",
    metric: str = "no2",
    day: int = 1,
    seed: int = 0,
    fleet_sizes: tuple = FLEET_SIZES,
) -> pd.DataFrame:
    """The E7 table: one row per scenario (station + each fleet size).

    Every scenario's observations go into one DataFrame, reconstructed
    and scored in one plan. Columns: scenario, n_units, cost_usd, rmse,
    bias, spatial_rmse.
    """
    times = eval_times(day=day)
    tg = truth_grid_pdf(city, times, metric=metric, seed=seed)
    # The station, then the equal-siting control: one low-cost unit at
    # the station site, so the table separates instrument error (station
    # vs this row) from spatial-sampling error (this row vs the
    # scattered fleets).
    deployments = [
        (1, {"reference_grade": True}, STATION_COST_USD),
        (1, {"at_station": True}, SENSOR_COST_USD),
        *((n, {}, n * SENSOR_COST_USD) for n in fleet_sizes),
    ]
    obs = pd.concat(
        [
            fleet_observations_pdf(city, n, times, metric=metric, seed=seed, **kw)
            for n, kw, _ in deployments
        ],
        ignore_index=True,
    )
    scores = score(idw_reconstruction(spark, obs, tg))
    rows = []
    for n, kw, cost in deployments:
        name = _scenario_name(n, **kw)
        rows.append({"scenario": name, "n_units": n, "cost_usd": cost, **scores[name]})
    out = pd.DataFrame(rows)
    for c in ("rmse", "bias", "spatial_rmse"):
        out[c] = out[c].round(3)
    return out
