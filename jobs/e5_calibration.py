"""E5 — §2.4 grounding & calibration against the official station.

Fits ref ≈ a·raw + b at the co-located unit per pollutant, reports
absolute (bias/RMSE) and relative (MAPE/corr) accuracy before vs after,
then transfers the coefficients network-wide and scores against the
ground-truth field — quantifying the paper's "but with lower
certainty". Run: spark-submit jobs/e5_calibration.py [sf].
"""
import sys

import pandas as pd
from pyspark.sql import functions as F

from repro.core import calibrate
from repro.external import nilu
from repro.runner import build_world, get_spark, print_table

CO_LOCATED = {"trondheim": "T-00", "vejle": "V-00"}


def run(spark, *, sf: float = 0.05, seed: int = 0) -> dict:
    w = build_world(spark, sf=sf, seed=seed, with_faults=False)
    ni = nilu.observations(spark, sf=sf, seed=seed)
    pairs = calibrate.co_location_pairs(w.points, ni, co_located=CO_LOCATED).cache()
    coefs = calibrate.fit_linear(pairs).cache()

    cal_pairs = pairs.join(
        coefs.select("city", "field", "slope", "intercept"), ["city", "field"]
    ).withColumn("raw_cal", F.col("slope") * F.col("raw") + F.col("intercept"))
    before = calibrate.accuracy(cal_pairs, pred="raw", truth="ref").toPandas()
    after = calibrate.accuracy(cal_pairs, pred="raw_cal", truth="ref").toPandas()
    colo = before.merge(after, on=["city", "field"], suffixes=("_raw", "_cal"))

    net = calibrate.network_pairs_against_truth(w.points, w.sensors_pdf).join(
        coefs.select("city", "field", "slope", "intercept"), ["city", "field"]
    ).withColumn("cal", F.col("slope") * F.col("raw") + F.col("intercept"))
    net = net.withColumn(
        "group",
        F.when(F.col("sensor_id").isin(list(CO_LOCATED.values())), "co_located")
        .otherwise("network"),
    )
    net_before = calibrate.accuracy(net, pred="raw", truth="truth", by=("group", "field")).toPandas()
    net_after = calibrate.accuracy(net, pred="cal", truth="truth", by=("group", "field")).toPandas()
    transfer = net_before.merge(net_after, on=["group", "field"], suffixes=("_raw", "_cal"))

    def num(df, by):
        """Rows sorted by ``by``, floats rounded to 3 places; ``+ 0.0``
        prints a rounded negative zero as 0.0."""
        df = df.sort_values(by, ignore_index=True)
        f = [c for c in df.columns if df[c].dtype.kind == "f"]
        df[f] = df[f].round(3) + 0.0
        return df

    return {
        "coefs": num(coefs.toPandas(), ["city", "field"]),
        "co_located": num(colo, ["city", "field"]),
        "transfer": num(transfer, ["group", "field"]),
    }


def main():
    sf = float(sys.argv[1]) if len(sys.argv) > 1 else 0.05
    spark = get_spark("e5_calibration")
    r = run(spark, sf=sf)
    print_table("E5 fitted coefficients (ref ≈ a·raw + b)", r["coefs"])
    print_table("E5 co-located accuracy before/after", r["co_located"])
    print_table("E5 network transfer vs ground truth (lower certainty)", r["transfer"])


if __name__ == "__main__":
    main()
