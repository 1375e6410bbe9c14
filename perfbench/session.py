"""The benchmark's Spark session: the same settings the Tier-1 command and
``repro.runner.get_spark`` use, with every file Spark writes kept inside
the checkout."""
from __future__ import annotations

import os
import platform
import shlex
import subprocess
import sys


def driver_memory() -> str:
    """``SPARK_DRIVER_MEM`` if set, else half of MemTotal clamped to 2–8 g."""
    if m := os.environ.get("SPARK_DRIVER_MEM"):
        return m
    try:
        with open("/proc/meminfo") as f:
            kib = next(int(line.split()[1]) for line in f if line.startswith("MemTotal:"))
        g = kib // 2097152
    except (OSError, StopIteration, ValueError):
        return "2g"
    return f"{min(8, max(2, g))}g"


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def configure(scratch: str, src: str) -> None:
    """Set the environment PySpark reads when it launches the JVM.

    Must run before the first SparkSession is created: master and driver
    memory are fixed at JVM launch, and Python workers (``applyInPandas``)
    inherit ``PYTHONPATH`` from it to import ``repro``.
    """
    tmp = os.path.join(scratch, "tmp")
    local = os.path.join(scratch, "spark-local")
    for d in (tmp, local):
        os.makedirs(d, exist_ok=True)
    # No JVM writes /tmp/hsperfdata_<user>, and Java temp files stay here.
    jvm_opts = f"-XX:-UsePerfData -Djava.io.tmpdir={tmp}"
    os.environ["TMPDIR"] = tmp
    os.environ["SPARK_LAUNCHER_OPTS"] = jvm_opts
    os.environ["SPARK_LOCAL_DIRS"] = local
    os.environ["PYSPARK_PYTHON"] = sys.executable
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p
    )
    os.environ["PYSPARK_SUBMIT_ARGS"] = shlex.join(
        [
            "--master", f"local[{nproc()}]",
            "--driver-memory", driver_memory(),
            "--conf", "spark.driver.host=127.0.0.1",
            "--conf", "spark.ui.enabled=false",
            "--conf", "spark.ui.showConsoleProgress=false",
            "--conf", f"spark.local.dir={local}",
            "--conf", f"spark.sql.warehouse.dir={os.path.join(scratch, 'warehouse')}",
            "--conf", f"spark.driver.extraJavaOptions={jvm_opts}",
            "pyspark-shell",
        ]
    )
    import tempfile

    tempfile.tempdir = tmp


def start():
    """``runner.get_spark``'s session (64 shuffle partitions, Arrow,
    broadcast joins off, UTC)."""
    from repro.runner import get_spark

    return get_spark("perfbench")


def stop(spark) -> None:
    """Stop Spark and wait for the JVM process to end."""
    from pyspark import SparkContext

    gateway = SparkContext._gateway
    proc = getattr(gateway, "proc", None)
    spark.stop()
    if gateway is not None:
        gateway.shutdown()
    if proc is not None:
        proc.stdin.close()
        try:
            proc.wait(timeout=60)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
    SparkContext._gateway = None
    SparkContext._jvm = None


def git_commit(root: str) -> str | None:
    """HEAD's commit id, read from ``.git`` without running git."""
    head = os.path.join(root, ".git", "HEAD")
    try:
        ref = open(head).read().strip()
        if ref.startswith("ref: "):
            path = os.path.join(root, ".git", ref[5:])
            if os.path.exists(path):
                return open(path).read().strip()
            for line in open(os.path.join(root, ".git", "packed-refs")):
                if line.rstrip().endswith(ref[5:]):
                    return line.split()[0]
            return None
        return ref
    except OSError:
        return None


def environment(spark, root: str) -> dict:
    """Effective conf and versions, recorded in every result."""
    sc = spark.sparkContext
    conf = dict(sc.getConf().getAll())
    for k in (
        "spark.sql.shuffle.partitions",
        "spark.sql.execution.arrow.pyspark.enabled",
        "spark.sql.autoBroadcastJoinThreshold",
        "spark.sql.session.timeZone",
    ):
        conf[k] = spark.conf.get(k)
    for k in list(conf):
        if "secret" in k.lower() or k in ("spark.app.id", "spark.app.startTime", "spark.driver.port"):
            conf.pop(k)
    return {
        "nproc": nproc(),
        "master": sc.master,
        "default_parallelism": sc.defaultParallelism,
        "driver_memory": driver_memory(),
        "spark": spark.version,
        "java": sc._jvm.System.getProperty("java.version"),
        "python": platform.python_version(),
        "git_commit": git_commit(root),
        "conf": dict(sorted(conf.items())),
    }
