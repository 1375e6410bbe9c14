"""E3 — Fig 5: CO2 dynamics vs traffic jam factor.

Reports, for the road-side sensor T-01 against its link: Pearson corr,
best |cross-correlation| over ±6 h lags, and diurnal peak hours — for
CO2 (paper: "no apparent correlation") and NO2 (positive control).
Run: spark-submit jobs/e3_co2_traffic.py [sf].
"""
import sys

import pandas as pd

from repro.core import co2_traffic
from repro.external import herecom
from repro.runner import build_world, get_spark, print_table

SENSOR, LINK = "T-01", "T-elgeseter"


def run(spark, *, sf: float = 0.05, seed: int = 0) -> pd.DataFrame:
    w = build_world(spark, sf=sf, seed=seed, with_faults=False)
    feed = herecom.feed(spark, sf=sf, seed=seed)
    rows = []
    for metric in ("air.co2", "air.no2"):
        al = co2_traffic.aligned_series(
            w.points, feed, sensor_id=SENSOR, link_id=LINK, metric=metric
        ).cache()
        r = co2_traffic.correlation(al)
        cc = co2_traffic.cross_correlation(al).toPandas()
        best = cc.loc[cc["corr"].abs().idxmax()]
        peaks = co2_traffic.peak_hours(co2_traffic.diurnal_profiles(al))
        rows.append(
            {
                "metric": metric,
                "pearson_r": round(r, 3),
                "best_lag_h": int(best["lag_hours"]),
                "best_lag_r": round(float(best["corr"]), 3),
                "pollutant_peak_h": peaks["pollutant_peak_hour"],
                "traffic_peak_h": peaks["traffic_peak_hour"],
                "verdict": (
                    "no apparent correlation" if abs(r) < 0.35 else "correlated"
                ),
            }
        )
    return pd.DataFrame(rows)


def main():
    sf = float(sys.argv[1]) if len(sys.argv) > 1 else 0.05
    spark = get_spark("e3_co2_traffic")
    print_table(f"E3 CO2/NO2 vs jam factor at {SENSOR}×{LINK}", run(spark, sf=sf))


if __name__ == "__main__":
    main()
