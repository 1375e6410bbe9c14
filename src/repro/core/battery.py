"""Battery-level analysis (paper Fig 4).

"Battery levels depend on the charging of the autonomous sensor units
through their solar panels. Charg[ing] occurs during daytime, and is
affected by weather conditions. ... Fig. 4 shows the battery level as a
function of time (left), and the difference in battery-level from
previous sent package versus time of day, and where red indicates
whether the nodes could have been charged by sunlight since the
previous package (right). This allows to estimate battery depletion."
(§2.4)

Reproduced as three artefacts:

* :func:`battery_deltas` — per packet: Δbattery vs the previous packet,
  the packet's local hour, and ``charged`` = was there sunlight between
  the two packets (from the solar irradiance table, via an exploded
  tick-sequence equi-join — intervals are ≤ 20 min so the explosion is
  bounded);
* :func:`hourly_delta_profile` — the Fig 4 right panel as numbers:
  mean Δ per (hour, charged);
* :func:`depletion_estimate` — net %/day per node and days-to-empty.
"""
from __future__ import annotations

import pandas as pd
from pyspark.sql import DataFrame, SparkSession, Window
from pyspark.sql import functions as F

from repro.core.harmonize import bucketed
from repro.iot import deployment, field

#: Relative irradiance above which a panel can out-charge the node's
#: draw: break-even is (idle + tx cost)/charge-rate = (0.004+0.012)/3.0
#: ≈ 0.0053 per 5-min tick, so below 0.005 a positive Δbattery is
#: physically impossible and the packet counts as "not charged".
SUN_THRESHOLD = 0.005


def irradiance_table(
    spark: SparkSession, *, sf: float = 0.01, seed: int = 0
) -> DataFrame:
    """Per (city, 5-min tick) relative solar irradiance in [0, 1]."""
    grid = deployment.time_grid(sf)
    frames = []
    for city in deployment.CITY_CENTER:
        frames.append(
            pd.DataFrame(
                {
                    "city": city,
                    "tick": grid,
                    "irradiance": field.solar_irradiance(city, grid.values, seed=seed),
                }
            )
        )
    return spark.createDataFrame(pd.concat(frames, ignore_index=True))


def battery_deltas(uplinks: DataFrame, irradiance: DataFrame) -> DataFrame:
    """Δbattery between consecutive packets with a sunlight flag.

    Returns sensor_id, city, ts, prev_ts, hour (local hour-of-day of
    the packet), battery, delta_battery, sun_max (max irradiance in
    (prev_ts, ts]), charged (sun_max > threshold). The first packet of
    each sensor is dropped (no predecessor).
    """
    w = Window.partitionBy("sensor_id").orderBy("ts")
    base = (
        uplinks.select("sensor_id", "city", "ts", "battery")
        .withColumn("prev_ts", F.lag("ts").over(w))
        .withColumn("delta_battery", F.col("battery") - F.lag("battery").over(w))
        .filter(F.col("prev_ts").isNotNull())
    )
    # Explode the (bounded) list of 5-min ticks in (prev_ts, ts],
    # equi-join the irradiance table — no range join needed — and fold
    # the ticks back into their packet in one aggregate.
    ticks = base.withColumn(
        "tick",
        F.explode(
            F.sequence(
                F.col("prev_ts") + F.expr("INTERVAL 5 MINUTES"),
                F.col("ts"),
                F.expr("INTERVAL 5 MINUTES"),
            )
        ),
    )
    return (
        ticks.join(irradiance, ["city", "tick"], "left")
        .groupBy(*base.columns)
        .agg(F.max(F.coalesce("irradiance", F.lit(0.0))).alias("sun_max"))
        .withColumn("charged", F.col("sun_max") > SUN_THRESHOLD)
        .withColumn("hour", F.hour("ts"))
    )


def hourly_delta_profile(deltas: DataFrame) -> DataFrame:
    """Fig 4 (right) as numbers: mean Δbattery per (hour, charged).

    A correct reproduction shows charged=true deltas concentrated in
    daylight hours with positive means, and charged=false deltas ≤ 0.
    """
    return (
        deltas.groupBy("hour", "charged")
        .agg(
            F.avg("delta_battery").alias("delta_avg"),
            F.min("delta_battery").alias("delta_min"),
            F.max("delta_battery").alias("delta_max"),
            F.count(F.lit(1)).alias("n"),
        )
        .orderBy("hour", "charged")
    )


def battery_series(uplinks: DataFrame) -> DataFrame:
    """Fig 4 (left) as numbers: hourly mean battery level per sensor."""
    return (
        bucketed(uplinks)
        .groupBy("sensor_id", "city", "bucket")
        .agg(F.avg("battery").alias("battery"))
        .orderBy("sensor_id", "bucket")
    )


def depletion_estimate(uplinks: DataFrame) -> DataFrame:
    """Net battery trend per node and projected days to empty.

    Per sensor: first/last level, net %/day (OLS slope over time), and
    ``days_to_empty`` extrapolated from the last level (null when the
    node is net-charging).
    """
    tsec = F.unix_timestamp("ts").cast("double")
    per_day = 86400.0
    fitted = uplinks.groupBy("sensor_id", "city").agg(
        F.min("ts").alias("first_ts"),
        F.max("ts").alias("last_ts"),
        F.min_by("battery", "ts").alias("battery_first"),
        F.max_by("battery", "ts").alias("battery_last"),
        (
            F.covar_pop(tsec, F.col("battery")) / (F.var_pop(tsec) + 1e-12) * per_day
        ).alias("slope_pct_per_day"),
    )
    return fitted.withColumn(
        "days_to_empty",
        F.when(
            F.col("slope_pct_per_day") < -1e-6,
            -F.col("battery_last") / F.col("slope_pct_per_day"),
        ),
    )
