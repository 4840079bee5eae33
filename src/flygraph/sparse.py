"""Lazily allocated per-node state.

Nothing in this module allocates storage proportional to n up front; maps and
child sets grow only with the keys actually written.  That is what keeps a
handful of queries on a million-node instance cheap.
"""

from __future__ import annotations

from bisect import bisect_right

from .errors import InternalConsistencyError


class LazyMap:
    """Mapping on the key domain [1, n+1] that stores only written keys."""

    __slots__ = ("n", "name", "_d")

    def __init__(self, n: int, name: str = "map"):
        self.n = n
        self.name = name
        self._d = {}

    def _check(self, key: int) -> None:
        if not 1 <= key <= self.n + 1:
            raise ValueError(f"{self.name}: key {key} outside [1, {self.n + 1}]")

    def get(self, key: int):
        self._check(key)
        return self._d.get(key)

    def set(self, key: int, value) -> None:
        self._check(key)
        self._d[key] = value

    def pop(self, key: int):
        """Remove and return the stored value; the key must be present."""
        self._check(key)
        if key not in self._d:
            raise InternalConsistencyError(f"{self.name}: pop of unwritten key {key}")
        return self._d.pop(key)

    @property
    def raw(self) -> dict:
        """The backing dict, for hot paths that guarantee keys by construction."""
        return self._d

    def __contains__(self, key: int) -> bool:
        self._check(key)
        return key in self._d

    def __len__(self) -> int:
        return len(self._d)

    def items(self):
        return self._d.items()


class ChildSets:
    """Per-node ordered sets of discovered children.

    A node's set is created by its first insert, so nodes with no known child
    store nothing; ``successor`` answers n+1 past the end of a set.  A lone
    child is stored as a bare int, since most nodes that have a known child
    have exactly one; larger sets are plain sorted lists.  Link-tree
    in-degrees are logarithmic with high probability, so insertion by bisect
    stays cheap even on huge instances.
    """

    __slots__ = ("n", "_sets")

    def __init__(self, n: int):
        self.n = n
        self._sets = {}

    def insert(self, j: int, i: int) -> None:
        """Record i as a child of j, for 1 <= j < i <= n.  A duplicate signals a bug."""
        sets = self._sets
        s = sets.get(j)
        if s is None:
            sets[j] = i
            return
        if type(s) is int:
            s = sets[j] = [s]
        pos = bisect_right(s, i)
        if pos and s[pos - 1] == i:
            raise InternalConsistencyError(f"child {i} of {j} inserted twice")
        s.insert(pos, i)

    def successor(self, j: int, k: int) -> int:
        """Least recorded child of j above k, or n+1; unchecked, for validated keys.

        >>> cs = ChildSets(9)
        >>> cs.successor(2, 2)
        10
        >>> cs.insert(2, 5); cs.successor(2, 2), cs.successor(2, 5)
        (5, 10)
        """
        s = self._sets.get(j)
        if s is None:
            return self.n + 1
        if type(s) is int:
            return s if s > k else self.n + 1
        pos = bisect_right(s, k)
        return s[pos] if pos < len(s) else self.n + 1

    def above(self, j: int, k: int):
        """Recorded children of j above k, in order; unchecked, for validated keys."""
        s = self._sets.get(j, ())
        if type(s) is int:
            return (s,) if s > k else ()
        return s[bisect_right(s, k):]

    def members(self, j: int) -> tuple:
        """Children recorded for j so far."""
        s = self._sets.get(j, ())
        return (s,) if type(s) is int else tuple(s)

    def touched(self) -> tuple:
        """Nodes with at least one recorded child."""
        return tuple(self._sets.keys())

    def total_cells(self) -> int:
        """One cell per node with a child, plus one per list slot."""
        return len(self._sets) + sum(len(s) for s in self._sets.values() if type(s) is list)
