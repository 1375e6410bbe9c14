"""3D city model integration (paper Fig 7, demo scenario §3).

"This was further integrated into a 3D CityGML model" (§2.4); in the
demo, "we can inject synthetic data showing different pollution levels"
and discuss siting of new monitors "according to the road network and
building density" (§3).

Reproduced as spatial joins over the synthetic CityGML stock:

* :func:`assign_sensors_to_buildings` — each sensor is attached to its
  nearest building (the 3D point the model colours);
* :func:`cell_pollution` — per-grid-cell pollution level + colour band
  from the sensors inside/near each cell (IDW within a radius);
* :func:`inject_scenario` — scale pollution inside a region and report
  which cells change colour band (the interactive what-if);
* :func:`siting_candidates` — rank uncovered cells by road proximity ×
  building density, the siting-consultation heuristic.
"""
from __future__ import annotations

from pyspark.sql import DataFrame, Window
from pyspark.sql import functions as F

from repro.core.dashboard import band_col

#: The pollutant whose AQI bands colour the city model (E9 maps NO2).
FIELD = "no2"
#: IDW radius (m) within which sensors inform a grid cell.
IDW_RADIUS_M = 900.0
#: Max sensor→building attachment distance (m).
ATTACH_MAX_M = 400.0


def _dist2(x1, y1, x2, y2):
    return (x1 - x2) * (x1 - x2) + (y1 - y2) * (y1 - y2)


def assign_sensors_to_buildings(
    sensors: DataFrame, buildings: DataFrame
) -> DataFrame:
    """Nearest building per sensor (within ATTACH_MAX_M).

    Returns sensor_id, city, building_id, distance_m, height_m. The
    shuffle-side city equi-join keeps the cross product per-city.
    """
    s = sensors.select("sensor_id", "city", F.col("x_m").alias("sx"), F.col("y_m").alias("sy"))
    b = buildings.select(
        "building_id", "city", F.col("x_m").alias("bx"), F.col("y_m").alias("by"),
        "height_m",
    )
    joined = s.join(b, "city").withColumn(
        "distance_m", F.sqrt(_dist2(F.col("sx"), F.col("sy"), F.col("bx"), F.col("by")))
    )
    w = Window.partitionBy("sensor_id").orderBy("distance_m", "building_id")
    return (
        joined.withColumn("rk", F.row_number().over(w))
        .filter((F.col("rk") == 1) & (F.col("distance_m") <= ATTACH_MAX_M))
        .select("sensor_id", "city", "building_id", F.round("distance_m", 1).alias("distance_m"), "height_m")
    )


def cell_pollution(
    sensor_values: DataFrame,
    sensors: DataFrame,
    grid: DataFrame,
) -> DataFrame:
    """Per-grid-cell pollution via inverse-distance weighting.

    ``sensor_values``: one row per sensor with a ``value`` column (e.g.
    the dashboard's latest or a window mean) and sensor_id/city.
    Returns cell_id, city, x_c, y_c, n_sensors, value, band. Cells with
    no sensor within IDW_RADIUS_M are absent (uncovered — honest, and
    the input to :func:`siting_candidates`).
    """
    sv = sensor_values.join(
        sensors.select("sensor_id", F.col("x_m").alias("sx"), F.col("y_m").alias("sy")),
        "sensor_id",
    )
    g = grid.select("cell_id", "city", "x_c", "y_c")
    joined = g.join(sv, "city").withColumn(
        "d", F.sqrt(_dist2(F.col("x_c"), F.col("y_c"), F.col("sx"), F.col("sy")))
    )
    near = joined.filter(F.col("d") <= IDW_RADIUS_M).withColumn(
        "w", 1.0 / (F.col("d") + 50.0)
    )
    agg = near.groupBy("cell_id", "city", "x_c", "y_c").agg(
        F.count(F.lit(1)).alias("n_sensors"),
        (F.sum(F.col("w") * F.col("value")) / F.sum("w")).alias("value"),
    )
    return agg.withColumn("band", band_col(F.lit(FIELD), F.col("value")))


def inject_scenario(
    cells: DataFrame,
    *,
    factor: float = 2.0,
    x_c: float = 0.0,
    y_c: float = 0.0,
    radius_m: float = 800.0,
) -> DataFrame:
    """The demo's synthetic-pollution what-if: scale cell values inside
    a circular region (a construction site / factory scenario, §3).

    Returns the cells frame with value_injected and band_injected plus
    ``changed`` (did the colour band change?).
    """
    in_region = (
        _dist2(F.col("x_c"), F.col("y_c"), F.lit(x_c), F.lit(y_c))
        <= F.lit(radius_m**2)
    )
    injected = cells.withColumn(
        "value_injected",
        F.when(in_region, F.col("value") * factor).otherwise(F.col("value")),
    )
    injected = injected.withColumn(
        "band_injected", band_col(F.lit(FIELD), F.col("value_injected"))
    )
    return injected.withColumn(
        "changed", F.col("band_injected") != F.col("band")
    )


def siting_candidates(
    grid: DataFrame,
    covered_cells: DataFrame,
    buildings: DataFrame,
    road_links: DataFrame,
    *,
    top_n: int = 10,
) -> DataFrame:
    """Rank uncovered cells for new monitor placement (§3: "choosing the
    sites of air quality monitoring ... according to the road network
    and building density").

    Score = road proximity (exp(−d/300)) × (1 + building volume share).
    Returns the top-N uncovered cells per city by score.
    """
    uncovered = grid.join(
        covered_cells.select("cell_id"), "cell_id", "left_anti"
    )
    roads = road_links.select(
        "city", F.col("x_m").alias("rx"), F.col("y_m").alias("ry")
    )
    road_d = (
        uncovered.join(roads, "city")
        .withColumn("d", F.sqrt(_dist2(F.col("x_c"), F.col("y_c"), F.col("rx"), F.col("ry"))))
        .groupBy("cell_id", "city", "x_c", "y_c", "x_min", "x_max", "y_min", "y_max")
        .agg(F.min("d").alias("road_dist_m"))
    )
    b = buildings.select("city", "x_m", "y_m", "volume_m3")
    vol = (
        road_d.join(b, "city")
        .filter(
            (F.col("x_m") >= F.col("x_min")) & (F.col("x_m") < F.col("x_max"))
            & (F.col("y_m") >= F.col("y_min")) & (F.col("y_m") < F.col("y_max"))
        )
        .groupBy("cell_id")
        .agg(F.sum("volume_m3").alias("volume_m3"))
    )
    city_vol = buildings.groupBy("city").agg(F.sum("volume_m3").alias("city_volume"))
    scored = (
        road_d.join(vol, "cell_id", "left")
        .join(city_vol, "city")
        .withColumn(
            "score",
            F.exp(-F.col("road_dist_m") / 300.0)
            * (1.0 + F.coalesce(F.col("volume_m3"), F.lit(0.0)) / F.col("city_volume") * 20.0),
        )
    )
    w = Window.partitionBy("city").orderBy(F.desc("score"), "cell_id")
    return (
        scored.withColumn("rk", F.row_number().over(w))
        .filter(F.col("rk") <= top_n)
        .select("city", "rk", "cell_id", "x_c", "y_c", F.round("road_dist_m", 1).alias("road_dist_m"), F.round("score", 4).alias("score"))
        .orderBy("city", "rk")
    )
