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
from repro.iot import deployment
from repro.runner import build_world, get_spark, print_table


def run(spark, *, sf: float = 0.05, seed: int = 0) -> pd.DataFrame:
    w = build_world(spark, sf=sf, seed=seed, with_faults=False)
    base = harmonize.sensor_city_series(w.points).select("city", "bucket").distinct().cache()

    ni = nilu.observations(spark, sf=sf, seed=seed)
    tr = herecom.feed(spark, sf=sf, seed=seed)
    mu = municipal.counts(spark, sf=sf, seed=seed)
    ov = oco2.overpasses(spark, sf=sf, seed=seed)
    bld = citygml.buildings(spark, seed=seed)
    ghg = statistics.downscaled_grid(spark, seed=seed)

    def cov(df):
        return harmonize.join_coverage(base, harmonize.bucketed(df))

    rows = [
        {
            "source": "sensor_network",
            "paper_example": "CTT low-cost units (12+2)",
            **harmonize.source_profile(w.points, unit_cols=("sensor_id",)),
            "hourly_coverage": 1.0,
            "role": "primary measurements",
        },
        {
            "source": "official_air_quality",
            "paper_example": "NILU reference stations",
            **harmonize.source_profile(ni, unit_cols=("station_id",)),
            "hourly_coverage": cov(ni),
            "role": "ground truth / calibration (E5)",
        },
        {
            "source": "traffic_density",
            "paper_example": "here.com jam factor",
            **harmonize.source_profile(tr, unit_cols=("link_id",)),
            "hourly_coverage": cov(tr),
            "role": "traffic-emission correlation (E3)",
        },
        {
            "source": "municipal_traffic_counts",
            "paper_example": "tube counters, short campaign",
            **harmonize.source_profile(mu, unit_cols=("link_id",)),
            "hourly_coverage": cov(mu),
            "role": "validate traffic estimates",
        },
        {
            "source": "remote_sensing",
            "paper_example": "NASA OCO-2 XCO2",
            **harmonize.source_profile(ov, unit_cols=("city", "footprint_id")),
            "hourly_coverage": cov(ov),
            "role": "top-down grounding, low spatial res",
        },
        {
            "source": "city_3d_model",
            "paper_example": "Vejle CityGML",
            "rows": bld.count(),
            "units": bld.count(),
            "cadence_min": None,
            "span_days": None,
            "hourly_coverage": None,
            "role": "visualization + geometry (E9)",
        },
        {
            "source": "national_statistics",
            "paper_example": "GHG sector totals, downscaled",
            "rows": ghg.count(),
            "units": ghg.select("cell_id").distinct().count(),
            "cadence_min": 525_600.0,  # annual
            "span_days": 365.0,
            "hourly_coverage": None,
            "role": "context, high uncertainty",
        },
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
    out = pd.DataFrame(rows)
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
