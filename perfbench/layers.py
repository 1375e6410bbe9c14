"""Per-layer metrics of a traced run.

``install`` wraps the public functions of every ``repro`` layer module
(iot, lorawan, ingest, tsdb, core, dataport) in spans; ``metrics`` folds
the spans, the streaming queries' progress and the workload's per-hop
counts into the ``per_layer`` metrics of ``BENCHMARK.json``. Every run
reports every metric; a layer a workload does not touch reports a count
of 0, and the only times reported are of layers both workloads run.
Every figure is the program's: spans of the benchmark's output checks
(phase ``check-<i>``) and of the ingest warm-up (phase ``warmup``) are
left out.
"""
from __future__ import annotations

import importlib
import statistics

from spans import Tracer, covered, self_times

MODULES = [
    "repro.iot.deployment", "repro.iot.faults", "repro.iot.field", "repro.iot.sensor",
    "repro.lorawan.network", "repro.lorawan.radio", "repro.lorawan.mqtt",
    "repro.ingest.etl", "repro.ingest.stream",
    "repro.tsdb.store", "repro.tsdb.query",
    "repro.core.battery", "repro.core.calibrate", "repro.core.citymodel",
    "repro.core.co2_traffic", "repro.core.dashboard", "repro.core.density",
    "repro.core.harmonize", "repro.core.quality",
    "repro.dataport.alarms", "repro.dataport.hierarchy", "repro.dataport.twins",
    "repro.dataport.watchdog",
]

#: per-layer time metric → wrapped function whose spans it sums.
TIMED = {
    "iot.simulate_s": "iot.sensor.simulate_readings_pdf",
    "lorawan.receptions_s": "lorawan.network.receptions_pdf",
    "mqtt.land_s": "lorawan.mqtt.land_messages",
    "tsdb.write_s": "tsdb.store.write",
}
#: per-hop counts, from the workload's ``info["hops"]``.
HOPS = {
    "iot.readings": "readings",
    "lorawan.receptions": "receptions",
    "mqtt.messages": "landed",
    "mqtt.files": "landed_files",
    "mqtt.bytes": "landed_bytes",
    "etl.accepted": "accepted",
    "etl.quarantined": "quarantined",
    "tsdb.files": "tsdb_files",
    "tsdb.bytes": "tsdb_bytes",
}
#: streaming counts, from the progress of the two queries the pass's
#: build_world starts.
STREAMS = {
    "stream.ingest": ("ingest.stream.start_ingest",
                      ("batches", "input_rows", "spark_jobs", "spark_tasks")),
    "stream.agg": ("ingest.stream.start_live_aggregate",
                   ("batches", "state_rows", "dropped_by_watermark", "spark_jobs",
                    "spark_tasks")),
}
#: benchmark spans whose Spark jobs and tasks are counted.
STEPS = [
    "core.harmonize", "core.battery", "core.co2_traffic", "core.calibrate",
    "core.density", "core.dashboard", "core.citymodel",
    "dataport.alarm_sweep", "dataport.classify", "dataport.packet_gaps",
    "tsdb.query.sparkline", "tsdb.query.metric_1h", "tsdb.query.aqi", "tsdb.query.wall",
]

UNITS = {
    **{k: "s" for k in TIMED},
    "pass.uncovered_s": "s",
    "trace.pass_s": "s",
    **{k: "count" for k in HOPS},
    "lorawan.dup_factor": "ratio",
    **{f"{p}.{f}": "count" for p, (_, fs) in STREAMS.items() for f in fs},
    **{f"{s}.{k}": "count" for s in STEPS for k in ("spark_jobs", "spark_tasks")},
    "spark_jobs": "count",
    "spark_tasks": "count",
}


def install(spark) -> Tracer:
    tracer = Tracer(spark.sparkContext)
    for name in MODULES:
        tracer.wrap_module(importlib.import_module(name))
    return tracer


def inclusive_work(spans: list[dict]) -> list[tuple[int, int]]:
    """(jobs, tasks) per span, its descendants' included."""
    out = [[s["spark_jobs"], s["spark_tasks"]] for s in spans]
    for i in range(len(spans) - 1, -1, -1):  # children come after parents
        p = spans[i]["parent"]
        if p is not None:
            out[p][0] += out[i][0]
            out[p][1] += out[i][1]
    return [tuple(x) for x in out]


def metrics(tracer: Tracer, wl, passes: list[float]) -> tuple[dict, dict]:
    """The per-layer metrics, and the streaming progress and per-phase
    layer breakdown they were drawn from (for the run's record)."""
    spans = tracer.spans
    streams = tracer.stream_progress()
    selfs = self_times(spans)
    work = inclusive_work(spans)
    m: dict = {}
    program = [s for s in spans if s["pass"] == "setup" or s["pass"].startswith("pass-")]
    for k, fn in TIMED.items():
        m[k] = sum(s["end"] - s["start"] for s in program if s["name"] == fn)
    pass_idx = [i for i, s in enumerate(spans) if s["name"] == "pass"]
    m["pass.uncovered_s"] = statistics.median(selfs[i] for i in pass_idx)
    m["trace.pass_s"] = statistics.median(passes)
    hops = wl.info["hops"]
    for k, h in HOPS.items():
        m[k] = hops[h]
    m["lorawan.dup_factor"] = hops["receptions"] / max(1, hops["landed"])
    pass_streams = [p for p in streams if p["pass"] == "pass-0"]
    for prefix, (fn, fields) in STREAMS.items():
        prog = next((p for p in pass_streams if p["name"] == fn), {})
        for f in fields:
            m[f"{prefix}.{f}"] = prog.get(f, 0)
    for step in STEPS:
        idx = [i for i, s in enumerate(spans) if s["name"] == step and s["pass"] == "pass-0"]
        m[f"{step}.spark_jobs"] = sum(work[i][0] for i in idx)
        m[f"{step}.spark_tasks"] = sum(work[i][1] for i in idx)
    first = pass_idx[0]
    m["spark_jobs"] = work[first][0] + sum(p["spark_jobs"] for p in pass_streams)
    m["spark_tasks"] = work[first][1] + sum(p["spark_tasks"] for p in pass_streams)
    return m, {"streams": streams, "layers": layer_breakdown(spans)}


def layer_breakdown(spans: list[dict]) -> dict:
    """Per top-level span (set-up, each pass, each check): its wall time,
    the self time of its descendants summed per layer (first component
    of the span name), the time its children cover, and the remainder
    no child covers."""
    selfs = self_times(spans)
    out: dict = {}
    for i, s in enumerate(spans):
        if s["parent"] is not None:
            continue
        phase = {"wall_s": s["end"] - s["start"], "layers": {}}
        for j, t in enumerate(spans):
            if j == i or not _descends(spans, j, i):
                continue
            layer = t["name"].split(".")[0]
            phase["layers"][layer] = phase["layers"].get(layer, 0.0) + selfs[j]
        phase["remainder_s"] = selfs[i]
        kids = [(t["start"], t["end"]) for t in spans if t["parent"] == i]
        phase["covered_s"] = covered(kids, s["start"], s["end"])
        out[f"{s['pass']}:{s['name']}"] = phase
    return out


def _descends(spans: list[dict], j: int, root: int) -> bool:
    p = spans[j]["parent"]
    while p is not None:
        if p == root:
            return True
        p = spans[p]["parent"]
    return False
