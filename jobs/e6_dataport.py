"""E6 — §2.3 dataport monitoring: twins, alarms, hierarchy, watchdog.

Injects the standard fault scenario (2 sensor deaths, 1 drift,
1 flatline, 1 redundant-gateway outage, 1 city-wide gateway outage) and
reports: detection latency per death, the sensor-vs-gateway failure
classification at probe instants, and quality-detector hits.
Run: spark-submit jobs/e6_dataport.py [sf].
"""
import sys

import pandas as pd

from repro.core import quality
from repro.dataport import alarms, hierarchy, twins
from repro.iot import deployment
from repro.runner import build_world, get_spark, print_table


def run(spark, *, sf: float = 0.05, seed: int = 0) -> dict:
    w = build_world(spark, sf=sf, seed=seed, with_faults=True)
    end = w.readings_pdf["ts"].max()
    events = alarms.alarm_events(
        w.uplinks, start=deployment.SIM_START, end=end
    ).cache()
    inj = pd.DataFrame(
        [
            {"sensor_id": f.sensor_id, "start": f.start}
            for f in w.faults
            if f.kind == "death"
        ]
    )
    latency = alarms.detection_latency(events, inj)

    probes = {
        "during_trondheim_gw_outage(h29)": deployment.SIM_START + pd.Timedelta(hours=29),
        "after_deaths(h45)": deployment.SIM_START + pd.Timedelta(hours=45),
        "during_vejle_outage(h53)": deployment.SIM_START + pd.Timedelta(hours=53),
    }
    cls_rows = []
    for name, at in probes.items():
        for r in hierarchy.classify(w.uplinks, at).collect():
            cls_rows.append(
                {"probe": name, "sensor_id": r["sensor_id"],
                 "failure_kind": r["failure_kind"],
                 "gateway": r["primary_gateway"],
                 "gateway_status": r["gateway_status"]}
            )
    cls = pd.DataFrame(cls_rows, columns=["probe", "sensor_id", "failure_kind",
                                          "gateway", "gateway_status"])

    drift = quality.drift_scores(w.points.filter("metric = 'air.co2'"))
    flat = quality.flatline_sensors(w.points.filter("metric = 'air.no2'"))
    detectors = pd.DataFrame(
        [
            {
                "detector": "drift(co2)",
                "flagged": sorted(
                    r["sensor_id"] for r in drift.filter("drifting").collect()
                ),
                "injected": ["T-05"],
            },
            {
                "detector": "flatline(no2)",
                "flagged": sorted(
                    {r["sensor_id"] for r in flat.filter("flatline").collect()}
                ),
                "injected": ["T-09"],
            },
        ]
    )
    gaps = quality.missing_data_summary(twins.packet_gaps(w.uplinks)).toPandas()
    return {
        "latency": latency,
        "classification": cls,
        "detectors": detectors,
        "missing": gaps.sort_values("sensor_id").round(4),
    }


def main():
    sf = float(sys.argv[1]) if len(sys.argv) > 1 else 0.05
    spark = get_spark("e6_dataport")
    r = run(spark, sf=sf)
    print_table("E6 death-detection latency", r["latency"])
    print_table("E6 hierarchical failure classification", r["classification"])
    print_table("E6 quality detectors vs injected faults", r["detectors"])
    print_table("E6 missing-data patterns per sensor", r["missing"])


if __name__ == "__main__":
    main()
