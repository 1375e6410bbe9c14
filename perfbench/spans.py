"""In-memory span recorder for the benchmark's traced runs.

A span is (name, start, end, parent, pass id). Spans are opened by the
benchmark's own code (one per workload phase and analysis step) and by
wrappers that :meth:`Tracer.wrap_module` installs around the public
functions of the ``repro`` layer modules, so nothing under ``src/`` is
edited. Spans are kept in a list and written out once, when the run ends.

A wrapped function called from inside a wrapped function of the same
layer (``iot.sensor`` calling ``iot.field``) opens no span: spans mark
the calls that cross a layer boundary, and a span per inner helper call
would cost more than the helper.

Spark work is attributed per span: a span opened on the driver's main
thread outside any wrapped call sets its own Spark job group, and on
close reads the group's jobs and their stages' task counts from
``SparkContext.statusTracker()``; work of spans nested in a wrapped call
is counted in that call's span.
Spans opened on other threads (``foreachBatch`` callbacks run on py4j
callback threads) set no group: their jobs run under the streaming
query's own group, its ``runId``, which :meth:`Tracer.stream_progress`
reads instead.
"""
from __future__ import annotations

import contextlib
import functools
import inspect
import threading
import time


class Tracer:
    """Records spans; one instance per benchmark run."""

    def __init__(self, sc):
        self.sc = sc
        self.t0 = time.perf_counter()
        self.spans: list[dict] = []
        self.pass_id = "setup"
        self.queries: list = []
        self._local = threading.local()
        self._main = threading.main_thread()
        self._main_stack: list[int] = []
        self._lock = threading.Lock()
        self._originals: list[tuple] = []

    def _stack(self) -> list[int]:
        if threading.current_thread() is self._main:
            return self._main_stack
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    @contextlib.contextmanager
    def span(self, name: str, *, wrapped: bool = False):
        stack = self._stack()
        attribute = stack is self._main_stack and not any(
            self.spans[i]["wrapped"] for i in stack
        )
        # A span on a callback thread hangs under whatever the main thread
        # is blocked in (e.g. run_pipeline's awaitTermination).
        parent = stack[-1] if stack else (self._main_stack[-1] if self._main_stack else None)
        with self._lock:
            idx = len(self.spans)
            self.spans.append(
                {"name": name, "start": time.perf_counter() - self.t0, "end": None,
                 "parent": parent, "pass": self.pass_id,
                 "thread": threading.current_thread().name, "wrapped": wrapped,
                 "spark_jobs": 0, "spark_tasks": 0}
            )
        if attribute:
            self.sc.setJobGroup(f"pb-{idx}", name)
        stack.append(idx)
        try:
            yield self.spans[idx]
        finally:
            stack.pop()
            self.spans[idx]["end"] = time.perf_counter() - self.t0
            if attribute:
                jobs, tasks = self.spark_work(f"pb-{idx}")
                self.spans[idx]["spark_jobs"] = jobs
                self.spans[idx]["spark_tasks"] = tasks
                if stack:
                    self.sc.setJobGroup(f"pb-{stack[-1]}", self.spans[stack[-1]]["name"])
                else:
                    self.sc.setLocalProperty("spark.jobGroup.id", None)
                    self.sc.setLocalProperty("spark.job.description", None)

    def spark_work(self, group: str) -> tuple[int, int]:
        """(jobs, tasks) Spark ran under job group ``group``."""
        st = self.sc.statusTracker()
        jobs = st.getJobIdsForGroup(group)
        tasks = 0
        for j in jobs:
            info = st.getJobInfo(j)
            for s in info.stageIds if info else ():
                stage = st.getStageInfo(s)
                tasks += stage.numTasks if stage else 0
        return len(jobs), tasks

    def wrap_module(self, module) -> None:
        """Replace each public function of ``module`` by a spanned one,
        named after the module path below ``repro`` (``ingest.stream.
        run_pipeline``).

        Callers that look the function up on the module at call time
        (``stream.run_pipeline(...)``) see the wrapper; the originals are
        put back by :meth:`unwrap`.
        """
        prefix = module.__name__.removeprefix("repro.")
        for attr, fn in list(vars(module).items()):
            if attr.startswith("_") or not inspect.isfunction(fn):
                continue
            if fn.__module__ != module.__name__:
                continue
            self._originals.append((module, attr, fn))
            setattr(module, attr, self._wrapped(f"{prefix}.{attr}", fn))

    def _wrapped(self, name: str, fn):
        layer = name.split(".")[0]

        @functools.wraps(fn)
        def call(*args, **kwargs):
            stack = self._stack()
            top = self.spans[stack[-1]] if stack else None
            if top and top["wrapped"] and top["name"].split(".")[0] == layer:
                out = fn(*args, **kwargs)
            else:
                with self.span(name, wrapped=True):
                    out = fn(*args, **kwargs)
            if type(out).__name__ == "StreamingQuery":
                with self._lock:
                    self.queries.append((name, self.pass_id, out))
            return out

        return call

    def unwrap(self) -> None:
        for module, attr, fn in reversed(self._originals):
            setattr(module, attr, fn)
        self._originals.clear()

    def stream_progress(self) -> list[dict]:
        """Per started streaming query: the function that started it, the
        phase it started in, batches, trigger/addBatch time, input rows,
        state rows and watermark drops, from its ``recentProgress``, plus
        the Spark work of its ``runId`` group."""
        out: list[dict] = []
        for name, phase, q in self.queries:
            prog = q.recentProgress
            jobs, tasks = self.spark_work(str(q.runId))
            state = [op for p in prog for op in p.stateOperators]
            out.append({
                "name": name,
                "pass": phase,
                "batches": sum(1 for p in prog if p.numInputRows > 0),
                "input_rows": sum(p.numInputRows for p in prog),
                "trigger_ms": sum(p.durationMs.get("triggerExecution", 0) for p in prog),
                "add_batch_ms": sum(p.durationMs.get("addBatch", 0) for p in prog),
                "state_rows": max((op.numRowsTotal for op in state), default=0),
                "dropped_by_watermark": sum(op.numRowsDroppedByWatermark for op in state),
                "spark_jobs": jobs,
                "spark_tasks": tasks,
            })
        return out


def self_times(spans: list[dict]) -> list[float]:
    """Each span's duration minus the part of it its children cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s["parent"] is not None:
            children.setdefault(s["parent"], []).append((s["start"], s["end"]))
    return [
        (s["end"] - s["start"]) - covered(children.get(i, []), s["start"], s["end"])
        for i, s in enumerate(spans)
    ]


def covered(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to [lo, hi]."""
    total, cur_lo, cur_hi = 0.0, None, None
    for a, b in sorted((max(a, lo), min(b, hi)) for a, b in intervals):
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total
