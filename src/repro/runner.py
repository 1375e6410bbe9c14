"""Shared plumbing for jobs, tests and the perfbench benchmark.

``build_world`` materialises the full §2.1 data flow at a scale factor:
simulate the deployment, transport packets over the LoRaWAN model, land
TTN/MQTT messages, run the Structured Streaming ingestion into the
TSDB, and return handles to every stage. Jobs (spark-submit
entrypoints), test fixtures and ``perfbench/`` share this code so the
numbers in EXPERIMENTS.md come from exactly the pipeline the tests
verify.
"""
from __future__ import annotations

import atexit
import os
import shutil
import tempfile
import time

import pandas as pd
from pyspark.sql import SparkSession

from repro.ingest import etl, stream
from repro.iot import deployment, faults, sensor
from repro.lorawan import mqtt, network
from repro.tsdb import store


def driver_memory() -> str:
    """``SPARK_DRIVER_MEM`` if set, else half of MemTotal clamped to 2–8 g."""
    if m := os.environ.get("SPARK_DRIVER_MEM"):
        return m
    try:
        with open("/proc/meminfo") as f:
            kib = next(int(line.split()[1]) for line in f if line.startswith("MemTotal:"))
    except OSError:  # no /proc, as on macOS
        return "2g"
    return f"{min(8, max(2, kib // 2097152))}g"


def get_spark(app: str) -> SparkSession:
    """The one SparkSession config, for jobs, tests and ``perfbench/``.

    PySpark hands the builder's configs to the JVM it launches, so a job
    run with plain ``python`` gets :func:`driver_memory` as its heap. A
    ``--driver-memory`` submit argument wins over it, and under
    spark-submit the JVM already exists, so pass ``--driver-memory``
    there. The master is PySpark's default, ``local[*]``; the driver
    binds to loopback and runs no web UI.

    Automatic broadcast joins are disabled so joins take the shuffle path
    they take at scale (the one explicit hint is the bounded E7 fleet
    side, :func:`repro.core.density.idw_reconstruction`); AQE may
    coalesce the shuffle partitions of a cached plan, so stages over a
    small cached frame do not run one task per shuffle partition; UTC
    pins window/bucket semantics to DuckDB's naive timestamps in oracle
    checks; the console progress bar is off so stderr carries warnings,
    not ``[Stage n:>`` bars.

    Files are listed on the driver: above
    ``parallelPartitionDiscovery.threshold`` paths (32 by default) Spark
    lists them in a job with one task per path. Every streaming
    micro-batch indexes each landed file it reads (96 at SF 0.01, one
    per hour), and at SF 0.1 each TSDB metric directory holds 36 date
    directories, so the default launched a listing job per batch and per
    metric read. These are local files, where a driver-side ``stat`` is
    cheap; the threshold sits above any path count the pipeline makes
    (SF 1.0 lands 8,760 hourly files).
    """
    s = (
        SparkSession.builder.appName(app)
        .config("spark.driver.memory", driver_memory())
        .config("spark.driver.host", "127.0.0.1")
        .config("spark.ui.enabled", "false")
        .config("spark.sql.shuffle.partitions", 64)
        .config("spark.sql.execution.arrow.pyspark.enabled", "true")
        .config("spark.sql.autoBroadcastJoinThreshold", -1)
        .config("spark.sql.optimizer.canChangeCachedPlanOutputPartitioning", "true")
        .config("spark.sql.session.timeZone", "UTC")
        .config("spark.ui.showConsoleProgress", "false")
        .config("spark.sql.sources.parallelPartitionDiscovery.threshold", 100_000)
        .getOrCreate()
    )
    s.sparkContext.setLogLevel("ERROR")
    return s


class World(dict):
    """Dict with attribute access: world.points etc."""

    def __getattr__(self, name: str):
        try:
            return self[name]
        except KeyError:
            raise AttributeError(name) from None


def build_world(
    spark: SparkSession,
    *,
    sf: float = 0.01,
    seed: int = 0,
    with_faults: bool = True,
    work_dir: str | None = None,
    run_streaming: bool = True,
) -> World:
    """Simulate + transport + land + ingest one deployment at ``sf``.

    The TTN dedup and the MQTT landing run on the driver, with no Spark
    job. Returns a :class:`World` with: readings_pdf, receptions_pdf,
    fault/outage lists, landing_dir, n_landed, land_s (seconds from
    receptions to landed files) and uplinks (DataFrame).
    ``run_streaming`` runs the Structured Streaming ingest into
    tsdb_root and quarantine_dir (also returned), and adds points
    (DataFrame, :data:`repro.tsdb.store.POINT_COLUMNS`) and quarantined
    (DataFrame), read from what it wrote. Without it the world stops at
    the landing zone and has neither. Without a ``work_dir`` the world
    is written to a fresh temporary directory, removed when the
    interpreter exits; a given ``work_dir`` is kept.
    """
    if work_dir is None:
        work_dir = tempfile.mkdtemp(prefix=f"ctt_sf{sf}_")
        atexit.register(shutil.rmtree, work_dir, ignore_errors=True)
    if with_faults:
        flist, outages = faults.standard_scenario(deployment.SIM_START)
    else:
        flist, outages = [], []
    readings = sensor.simulate_readings_pdf(sf=sf, seed=seed, faults=flist)
    receptions = network.receptions_pdf(readings, outages=outages, seed=seed)
    landing = os.path.join(work_dir, "landing")
    t0 = time.perf_counter()
    n_landed = mqtt.land_messages(network.ttn_dedup(receptions), landing)
    land_s = time.perf_counter() - t0
    w = World(
        sf=sf,
        seed=seed,
        faults=flist,
        outages=outages,
        work_dir=work_dir,
        sensors_pdf=deployment.sensors_pdf(),
        readings_pdf=readings,
        receptions_pdf=receptions,
        landing_dir=landing,
        n_landed=n_landed,
        land_s=land_s,
    )
    w["uplinks"] = etl.uplinks_batch(spark, landing)
    if run_streaming:
        w.update(stream.run_pipeline(spark, landing, os.path.join(work_dir, "stream")))
        w["points"] = store.read(spark, w.tsdb_root)
        w["quarantined"] = spark.read.parquet(w.quarantine_dir)
    return w


def print_table(title: str, pdf: pd.DataFrame) -> None:
    """Uniform job output: a titled, index-free table."""
    print(f"\n== {title} ==")
    print(pdf.to_string(index=False))
