"""Smoke self-test of the benchmark.

    python3 perfbench/selftest.py

Runs every workload of ``BENCHMARK.json`` once untraced and once traced
at the small scale factor ``SF``, and asserts that each run exits 0, that
all its output checks pass, and that the metrics it prints are exactly the
``end_to_end`` (untraced) or ``per_layer`` (traced) names and units of
``BENCHMARK.json``. Last, it copies ``BENCHMARK.json`` and the benchmark
directory alone into a scratch directory and asserts that the benchmark
fails there without printing a result. Exits 1 on the first failure.
"""
from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
#: Scale factor of the smoke runs: small, so the self-test takes minutes.
SF = 0.005


def run(cwd: str, workload: str, trace: int) -> tuple[int, list[str]]:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", "0", "--seconds", "1", "--trace", str(trace), "--sf", str(SF)]
    p = subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=600)
    return p.returncode, p.stdout.strip().splitlines()


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    expected = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    for w in spec["workloads"]:
        for trace in (0, 1):
            code, out = run(ROOT, w["name"], trace)
            label = f"{w['name']} trace={trace} sf={SF}"
            if not out:
                print(f"FAIL {label}: no output (exit {code})")
                return 1
            result = json.loads(out[-1])
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            problems = [line for line in out if line.startswith("check FAIL")]
            if code != 0 or not result["correct"] or result["failed"]:
                problems.append(f"exit {code}, result {out[-1]}")
            if got != expected[trace]:
                missing = sorted(set(expected[trace]) - set(got))
                extra = sorted(set(got) - set(expected[trace]))
                units = sorted(k for k in got if k in expected[trace] and got[k] != expected[trace][k])
                problems.append(f"metrics differ: missing {missing}, extra {extra}, units {units}")
            if problems:
                print(f"FAIL {label}:\n  " + "\n  ".join(problems))
                return 1
            print(f"ok   {label}: {len(got)} metrics, {result['attempted']} attempted")

    bare = os.path.join(ROOT, ".bench_work", "selftest-bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    try:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        for p in spec["paths"]:
            shutil.copytree(os.path.join(ROOT, p), os.path.join(bare, p),
                            ignore=shutil.ignore_patterns("__pycache__"))
        code, out = run(bare, spec["workloads"][0]["name"], 0)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    printed = any(line.startswith("{") for line in out)
    if code == 0 or printed:
        print(f"FAIL without sources: exit {code}, printed a result: {printed}")
        return 1
    print(f"ok   without sources: exit {code}, no result")
    return 0


if __name__ == "__main__":
    sys.exit(main())
