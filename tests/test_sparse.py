"""Lazy per-node storage."""

import pytest

from flygraph import InternalConsistencyError
from flygraph.sparse import ChildSets, LazyMap


class TestLazyMap:
    def test_get_set_len(self):
        m = LazyMap(5, "t")
        assert m.get(3) is None
        assert len(m) == 0
        m.set(3, 42)
        m.set(6, "x")
        assert m.get(3) == 42
        assert m.get(6) == "x"
        assert len(m) == 2
        assert 3 in m and 6 in m and 2 not in m

    def test_domain_includes_sentinel_slot_only(self):
        m = LazyMap(5, "t")
        for bad in (0, -2, 7):
            with pytest.raises(ValueError):
                m.get(bad)
            with pytest.raises(ValueError):
                m.set(bad, 1)

    def test_pop_written_and_unwritten(self):
        m = LazyMap(5, "t")
        m.set(2, 9)
        assert m.pop(2) == 9
        assert m.get(2) is None
        with pytest.raises(InternalConsistencyError):
            m.pop(2)

    def test_items(self):
        m = LazyMap(4, "t")
        m.set(1, "a")
        m.set(4, "b")
        assert dict(m.items()) == {1: "a", 4: "b"}


class TestChildSets:
    def test_successor_on_untouched_node(self):
        cs = ChildSets(6)
        assert cs.successor(3, 3) == 7
        assert cs.members(3) == ()

    def test_insert_and_successor(self):
        cs = ChildSets(9)
        cs.insert(2, 5)
        cs.insert(2, 3)
        cs.insert(2, 8)
        assert cs.members(2) == (3, 5, 8)
        assert cs.successor(2, 2) == 3
        assert cs.successor(2, 3) == 5
        assert cs.successor(2, 5) == 8
        assert cs.successor(2, 8) == 10
        assert cs.successor(2, 9) == 10

    def test_duplicate_insert_is_a_bug(self):
        cs = ChildSets(9)
        cs.insert(2, 5)
        with pytest.raises(InternalConsistencyError):
            cs.insert(2, 5)

    def test_cells_and_touched(self):
        cs = ChildSets(9)
        assert cs.total_cells() == 0
        cs.insert(1, 2)
        assert cs.total_cells() == 1
        cs.insert(1, 4)
        cs.successor(5, 5)
        assert sorted(cs.touched()) == [1]
        assert cs.total_cells() == 3
