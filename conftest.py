import sys

import pytest


@pytest.fixture(scope="session")
def spark():
    """One local-mode SparkSession for the whole test session:
    ``runner.get_spark``'s, so tests, jobs and ``perfbench/`` share one
    config, driver memory included."""
    from repro.runner import get_spark

    s = get_spark("repro")
    sc = s.sparkContext
    # A --driver-memory submit argument overrides the conf; the heap shows
    # what the JVM got.
    heap = sc._jvm.java.lang.Runtime.getRuntime().maxMemory() / 2**30
    print(
        f"[conftest] spark.driver.memory={sc.getConf().get('spark.driver.memory')} "
        f"(heap {heap:.1f} GiB) master={sc.master} "
        f"defaultParallelism={sc.defaultParallelism}",
        file=sys.stderr,
    )
    yield s
    s.stop()
