"""Benchmark entry point.

    python3 perfbench/run.py --workload ingest --seed 1 --seconds 1 --trace 0

Runs one workload (see ``perfbench/README.md`` for what each measures
and why) from the root of a checkout, against the ``repro`` sources in
``src/``. A run sets up, times passes until they add up to ``--seconds``
(at least one), checks every pass's output outside the timed window,
stops Spark and waits for the JVM, and prints as its last stdout line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones of
``BENCHMARK.json``; with ``--trace 1`` the run wraps the ``repro`` layer
modules in spans and reports the per-layer ones instead. The full
result (environment, per-hop counts, checks, spans) is written to
``.bench_out/``. Exits 1 if any check fails, 2 if the sources are
missing.
"""
from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import sys
import time
import traceback

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
#: Scale factor: 4 simulated days, 14 sensors, ~14 k uplinks (see README).
SF = 0.01


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--sf", type=float, default=SF)
    return p.parse_args(argv)


def main(argv=None) -> int:
    t_start = time.perf_counter()
    args = parse_args(argv)
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print(f"perfbench: no repro sources under {ROOT}/src", file=sys.stderr)
        return 2
    src = os.path.join(ROOT, "src")
    sys.path.insert(0, src)
    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    import layers
    import session
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    scratch = os.path.join(ROOT, ".bench_work", f"{args.workload}-{os.getpid()}")
    shutil.rmtree(scratch, ignore_errors=True)
    session.configure(scratch, src)
    spark = session.start()
    tracer, passes, checks, infos, error = None, [], [], [], None
    try:
        tracer = layers.install(spark) if args.trace else None
        wl = WORKLOADS[args.workload](
            spark, tracer, sf=args.sf, seed=args.seed, work=os.path.join(scratch, "work")
        )
        with wl.span("setup"):
            wl.setup()
        setup_s = time.perf_counter() - t_start
        while sum(passes) < args.seconds or not passes:
            i = len(passes)
            if tracer:
                tracer.pass_id = f"pass-{i}"
            t0 = time.perf_counter()
            with wl.span("pass"):
                wl.run_pass(i)
            passes.append(time.perf_counter() - t0)
            if tracer:
                tracer.pass_id = f"check-{i}"
            with wl.span("check"):
                checks += wl.check(i)
            infos.append(wl.info)
            wl.cleanup(i)
        env = session.environment(spark, ROOT)
        if tracer:
            per_layer, trace_detail = layers.metrics(tracer, wl, passes)
    except Exception:
        error = traceback.format_exc()
        print(error, file=sys.stderr)
    finally:
        if tracer:
            tracer.unwrap()
        session.stop(spark)
        shutil.rmtree(scratch, ignore_errors=True)
    if error:
        return 1

    failed = sum(1 for _, ok, _ in checks if not ok)
    attempted = len(passes) + len(checks)
    if tracer:
        metrics = per_layer
        units = layers.UNITS
    else:
        metrics = {
            "setup_s": setup_s,
            "pass_s": statistics.median(passes),
            "driver_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        units = {"setup_s": "s", "pass_s": "s", "driver_rss_mb": "MB"}
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    record = {
        "workload": args.workload, "seed": args.seed, "sf": args.sf,
        "seconds": args.seconds, "trace": args.trace, "env": env,
        "passes_s": passes, "setup_s": setup_s, "info": infos,
        "checks": [{"name": n, "ok": ok, "detail": d} for n, ok, d in checks],
        "result": result,
    }
    if tracer:
        record["spans"] = tracer.spans
        record.update(trace_detail)
    out_dir = os.path.join(ROOT, ".bench_out")
    os.makedirs(out_dir, exist_ok=True)
    out = os.path.join(out_dir, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(out, "w") as f:
        json.dump(record, f, indent=1, default=str)

    for n, ok, d in checks:
        print(f"check {'ok  ' if ok else 'FAIL'} {n}" + (f" ({d})" if d else ""))
    for k, v in metrics.items():
        print(f"{k} = {v:.6g} {units[k]}")
    if args.workload == "ingest" and not tracer:
        hops = infos[0]["hops"]
        pts = hops["accepted"] + hops["quarantined"]
        print(f"ingest_points_per_s = {pts / passes[0]:.6g} 1/s (first pass)")
    print(f"record: {os.path.relpath(out, ROOT)}")
    print(json.dumps(result), flush=True)
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
