"""runner.World: attribute access over the dict build_world returns, and
the one shape of build_world's points."""
import copy

import pytest

from repro.runner import World, build_world
from repro.tsdb import store
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
    def test_streamed_points_have_the_batch_shape_and_rows(self, spark_utc, world, tmp_path):
        """With or without the streaming ingest, points are
        :data:`store.POINT_COLUMNS` and hold the same rows."""
        w = build_world(spark_utc, sf=TEST_SF, seed=SEED, work_dir=str(tmp_path))
        assert w.points.columns == store.POINT_COLUMNS == world.points.columns
        assert w.points.count() == world.points.count()
        assert w.points.exceptAll(world.points).count() == 0
