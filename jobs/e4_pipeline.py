"""E4 — §3 deployment facts: the end-to-end streaming ETL.

12+2 sensors at a 5-minute interval through LoRaWAN → TTN → MQTT →
Structured Streaming → TSDB. Reports per-city packet accounting (sent /
delivered / lost / duplication), ingest acceptance/quarantine, and
where the time goes: landing (receptions → TTN dedup → hourly MQTT
files) beside the streaming ingest's wall-clock time and throughput.
Run: spark-submit jobs/e4_pipeline.py [sf].
"""
import sys
import time

import pandas as pd

from repro.ingest import stream
from repro.lorawan import network
from repro.lorawan.network import PAYLOAD_COLS
from repro.runner import build_world, get_spark, print_table


def run(spark, *, sf: float = 0.05, seed: int = 0) -> dict:
    w = build_world(spark, sf=sf, seed=seed, with_faults=True, run_streaming=False)
    import os

    t0 = time.perf_counter()
    res = stream.run_pipeline(spark, w.landing_dir, os.path.join(w.work_dir, "stream"))
    elapsed = time.perf_counter() - t0
    pts = spark.read.parquet(res["tsdb_root"])
    n_pts = pts.count()
    n_quar = spark.read.parquet(res["quarantine_dir"]).count()

    acc = network.loss_accounting(w.readings_pdf, w.receptions_pdf)
    summary = pd.DataFrame(
        [
            {
                "sensors": 14,
                "interval_min": 5,
                "sim_days": len(pd.date_range(
                    w.readings_pdf["ts"].min(), w.readings_pdf["ts"].max(), freq="1D"
                )),
                "messages_landed": w.n_landed,
                "points_accepted": n_pts,
                "points_quarantined": n_quar,
                "quarantine_rate": round(n_quar / (n_pts + n_quar), 4),
                "land_s": round(w.land_s, 1),
                "ingest_wall_s": round(elapsed, 1),
                "points_per_s": int((n_pts + n_quar) / elapsed),
            }
        ]
    )
    assert n_pts + n_quar == w.n_landed * len(PAYLOAD_COLS)
    return {"accounting": acc, "summary": summary}


def main():
    sf = float(sys.argv[1]) if len(sys.argv) > 1 else 0.05
    spark = get_spark("e4_pipeline")
    r = run(spark, sf=sf)
    print_table("E4 LoRaWAN packet accounting per city", r["accounting"])
    print_table("E4 streaming ETL summary", r["summary"])


if __name__ == "__main__":
    main()
