"""T1 — paper Table 1: integration of external data sources.

For each source the paper lists, ingest the synthetic equivalent,
profile its heterogeneity (rows, spatial units, cadence, span) and
measure how much of the sensor network's hourly (city, bucket) grid it
covers after harmonization. Run: spark-submit jobs/t1_integration.py [sf].
"""
import sys

import pandas as pd
from pyspark.sql import functions as F

from repro.core import harmonize
from repro.external import citygml, herecom, municipal, nilu, oco2, statistics
from repro.runner import build_world, get_spark, print_table


def run(spark, *, sf: float = 0.05, seed: int = 0) -> pd.DataFrame:
    w = build_world(spark, sf=sf, seed=seed, with_faults=False)
    tr = herecom.feed(spark, sf=sf, seed=seed)
    mu = municipal.counts(spark, sf=sf, seed=seed)
    # (source, paper_example, role, frame, unit columns); the sensor
    # network's frame is the world's points.
    sources = [
        ("sensor_network", "CTT low-cost units (12+2)", "primary measurements",
         w.points, ("sensor_id",)),
        ("official_air_quality", "NILU reference stations", "ground truth / calibration (E5)",
         nilu.observations(spark, sf=sf, seed=seed), ("station_id",)),
        ("traffic_density", "here.com jam factor", "traffic-emission correlation (E3)",
         tr, ("link_id",)),
        ("municipal_traffic_counts", "tube counters, short campaign",
         "validate traffic estimates", mu, ("link_id",)),
        ("remote_sensing", "NASA OCO-2 XCO2", "top-down grounding, low spatial res",
         oco2.overpasses(spark, sf=sf, seed=seed), ("city", "footprint_id")),
        ("city_3d_model", "Vejle CityGML", "visualization + geometry (E9)",
         citygml.buildings(spark, seed=seed), ("building_id",)),
        ("national_statistics", "GHG sector totals, downscaled", "context, high uncertainty",
         statistics.downscaled_grid(spark, seed=seed), ("cell_id",)),
    ]
    matrix = harmonize.source_matrix(
        w.points, {name: (df, units) for name, _, _, df, units in sources[1:]}
    ).toPandas()
    # The inventory is annual: its cadence and span are facts, not data.
    ghg = matrix["source"] == "national_statistics"
    matrix.loc[ghg, ["cadence_min", "span_days"]] = [525_600.0, 365.0]
    meta = pd.DataFrame([s[:3] for s in sources], columns=["source", "paper_example", "role"])
    out = meta.merge(matrix, on="source")[
        ["source", "paper_example", "rows", "units", "cadence_min", "span_days",
         "hourly_coverage", "role"]
    ]
    # Validate the traffic counts against the here.com estimate (the
    # paper's stated use of municipal counts).
    jf = harmonize.bucketed(tr).groupBy("city", "link_id", "bucket").agg(
        F.avg("jam_factor").alias("jam")
    )
    cnt = harmonize.bucketed(mu).groupBy("city", "link_id", "bucket").agg(
        F.avg("vehicles").alias("vehicles")
    )
    r = (
        jf.join(cnt, ["city", "link_id", "bucket"])
        .agg(F.corr("jam", "vehicles").alias("r"))
        .collect()[0]["r"]
    )
    out.attrs["municipal_vs_here_corr"] = round(float(r), 3)
    return out


def main():
    sf = float(sys.argv[1]) if len(sys.argv) > 1 else 0.05
    spark = get_spark("t1_integration")
    t = run(spark, sf=sf)
    print_table(f"T1 integration matrix (sf={sf})", t)
    print(f"municipal counts vs here.com jam corr: {t.attrs['municipal_vs_here_corr']}")


if __name__ == "__main__":
    main()
