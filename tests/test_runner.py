"""runner.World: attribute access over the dict build_world returns."""
import copy

import pytest

from repro.runner import World


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
