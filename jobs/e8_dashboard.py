"""E8 — Figs 6 & 8: dashboard aggregations from the streamed TSDB.

Produces the numbers behind the air-quality map pins (latest + AQI
band), the traffic tiles, and the wall display. Reads the TSDB written
by the Structured Streaming pipeline, as the Zeppelin dashboards read
OpenTSDB. Run: spark-submit jobs/e8_dashboard.py [sf].
"""
import sys

from repro.core import dashboard
from repro.external import herecom
from repro.runner import build_world, get_spark, print_table


def run(spark, *, sf: float = 0.05, seed: int = 0) -> dict:
    w = build_world(spark, sf=sf, seed=seed, with_faults=False)
    feed = herecom.feed(spark, sf=sf, seed=seed)
    aqi = dashboard.air_quality_index(w.points).orderBy("sensor_id").toPandas()
    tiles = dashboard.traffic_tiles(feed).orderBy("link_id").toPandas().round(2)
    wall = dashboard.wall_summary(w.uplinks, w.points).orderBy("city").toPandas()
    wall["gw_per_uplink"] = wall["gw_per_uplink"].round(3)
    return {"aqi": aqi, "tiles": tiles, "wall": wall}


def main():
    sf = float(sys.argv[1]) if len(sys.argv) > 1 else 0.05
    spark = get_spark("e8_dashboard")
    r = run(spark, sf=sf)
    print_table("E8 per-sensor air quality (Fig 6 pins)", r["aqi"])
    print_table("E8 traffic tiles (Fig 6 right)", r["tiles"])
    print_table("E8 wall display (Fig 8)", r["wall"])


if __name__ == "__main__":
    main()
