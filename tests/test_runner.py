"""runner.World: attribute access over the dict build_world returns,
the world build_world stops at without the streaming ingest, the
removal of the temporary directory it makes itself, and the
driver-memory rule ``get_spark`` launches the JVM with."""
import atexit
import copy
import os
import tempfile

import pytest

from repro.runner import World, build_world, driver_memory
from tests.conftest import SEED, TEST_SF


class TestWorld:
    def test_attribute_access(self):
        assert World(sf=0.01).sf == 0.01

    def test_missing_key_is_attribute_error(self):
        w = World(sf=0.01)
        assert getattr(w, "points", None) is None
        assert not hasattr(w, "points")
        with pytest.raises(AttributeError, match="points"):
            w.points

    def test_deepcopy(self):
        w = World(sf=0.01, faults=["T-03"])
        c = copy.deepcopy(w)
        assert isinstance(c, World) and c == w
        assert c.faults is not w.faults


class TestBuildWorld:
    def test_without_streaming_stops_at_the_landing_zone(self, spark, tmp_path):
        """``run_streaming=False`` lands the messages and parses their
        uplinks, but ingests nothing: no points, no quarantine, no
        ``stream/`` directory."""
        w = build_world(
            spark, sf=TEST_SF, seed=SEED, work_dir=str(tmp_path), run_streaming=False,
        )
        assert os.path.isdir(w.landing_dir) and w.n_landed > 0
        assert w.uplinks.count() == w.n_landed
        assert not hasattr(w, "points") and not hasattr(w, "quarantined")
        assert not os.path.exists(tmp_path / "stream")


class TestWorkDir:
    @pytest.fixture
    def registered(self, monkeypatch):
        calls = []
        monkeypatch.setattr(atexit, "register", lambda *a, **k: calls.append((a, k)))
        return calls

    def test_own_temp_dir_removed_at_exit(self, spark, registered):
        w = build_world(spark, sf=TEST_SF, seed=SEED, run_streaming=False)
        [((remove, path), kwargs)] = registered
        assert path == w.work_dir and os.path.isdir(os.path.join(path, "landing"))
        assert os.path.dirname(path) == tempfile.gettempdir()
        assert kwargs == {"ignore_errors": True}
        remove(path, **kwargs)  # what the interpreter runs at exit
        assert not os.path.exists(path)

    def test_given_work_dir_kept(self, spark, tmp_path, registered):
        build_world(spark, sf=TEST_SF, seed=SEED, work_dir=str(tmp_path), run_streaming=False)
        assert registered == []


def _gib(mem: str) -> float:
    """A JVM memory string (``7g``, ``512m``) in GiB."""
    return float(mem[:-1]) * {"m": 1 / 1024, "g": 1, "t": 1024}[mem[-1].lower()]


class TestDriverMemory:
    def test_env_overrides_the_rule(self, monkeypatch):
        monkeypatch.setenv("SPARK_DRIVER_MEM", "3g")
        assert driver_memory() == "3g"

    def test_half_of_memtotal_clamped(self, monkeypatch):
        monkeypatch.delenv("SPARK_DRIVER_MEM", raising=False)
        with open("/proc/meminfo") as f:
            kib = int(next(line for line in f if line.startswith("MemTotal:")).split()[1])
        assert driver_memory() == f"{min(8, max(2, int(kib / 2**21)))}g"

    def test_session_heap_is_the_rule(self, spark):
        """The test session's JVM was launched with :func:`driver_memory`
        as its maximum heap."""
        runtime = spark.sparkContext._jvm.java.lang.Runtime.getRuntime()
        assert runtime.maxMemory() / 2**30 == pytest.approx(_gib(driver_memory()), rel=0.02)
