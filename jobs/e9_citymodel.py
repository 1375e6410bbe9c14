"""E9 — Fig 7 + demo scenario: 3D city model integration.

Assigns sensors to buildings, colours grid cells by IDW NO2 level,
injects a synthetic pollution scenario (factor 3 around the centre) and
reports band changes, then ranks siting candidates for new monitors.
Run: spark-submit jobs/e9_citymodel.py [sf].
"""
import sys

from pyspark.sql import functions as F

from repro.core import citymodel, dashboard
from repro.external import citygml
from repro.iot import deployment
from repro.runner import build_world, get_spark, print_table


def run(spark, *, sf: float = 0.05, seed: int = 0) -> dict:
    w = build_world(spark, sf=sf, seed=seed, with_faults=False)
    sensors = deployment.sensors(spark)
    bld = citygml.buildings(spark, seed=seed)
    grid = citygml.grid(spark)
    latest = dashboard.latest_per_sensor(w.points.filter("metric = 'air.no2'"))
    asg = citymodel.assign_sensors_to_buildings(sensors, bld).orderBy("sensor_id")
    cells = citymodel.cell_pollution(latest, sensors, grid).cache()
    bands = (
        cells.groupBy("city", "band").count().orderBy("city", "band").toPandas()
    )
    inj = citymodel.inject_scenario(cells, factor=3.0)
    changed = (
        inj.filter("changed")
        .groupBy("city", "band", "band_injected")
        .count()
        .orderBy("city", "band")
        .toPandas()
    )
    siting = citymodel.siting_candidates(
        grid, cells, bld, deployment.road_links(spark), top_n=5
    ).toPandas()
    return {
        "assignment": asg.toPandas(),
        "bands": bands,
        "injection": changed,
        "siting": siting,
        "coverage": cells.count(),
    }


def main():
    sf = float(sys.argv[1]) if len(sys.argv) > 1 else 0.05
    spark = get_spark("e9_citymodel")
    r = run(spark, sf=sf)
    print_table("E9 sensor→building assignment (Fig 7)", r["assignment"])
    print_table("E9 grid cells per AQI band", r["bands"])
    print_table("E9 synthetic injection: band transitions", r["injection"])
    print_table("E9 siting candidates", r["siting"])
    print(f"covered cells: {r['coverage']}")


if __name__ == "__main__":
    main()
