"""Order-statistic bookkeeping behind candidate enumeration.

Child scans need two counting queries in logarithmic time over a sparse
state.  First, the open parent count of a position a: how many nodes below a
could still be a's parent, that is, nodes whose scan front is unset or below
a.  Second, rank and select over the positions a scan may stop at, which
excludes the skip set: nodes that carry a front while nobody's front rests
on them.

Fronts form disjoint increasing chains i -> front(i) -> ...  Each starts at a
skip member and ends at the sentinel n+1 or at a pending node (owned, not yet
fronted).  A chain blocks position a, through exactly one link, when its head
lies below a and its end does not, so

    open_parent_count(a) = (a-1) - |skip < a| + |pending < a|.

Only a scan creates a pending node, and ``next_child`` fronts it by the next
scan in its chain, so at most one exists, and none at rest.  The index owns
the fronts and keeps all three in step from
:meth:`CandidateIndex.on_front_advance`.
"""

from __future__ import annotations

from bisect import bisect_left, insort

from sortedcontainers import SortedList

from .errors import InternalConsistencyError


class CandidateIndex:
    """Sparse counting structures over scan fronts.

    Storage grows with the number of fronted nodes, never with n.  ``fronts``
    maps each fronted node to its front; ``skip`` and ``pending`` are sorted.
    """

    __slots__ = ("n", "fronts", "skip", "pending")

    def __init__(self, n: int):
        if n < 1:
            raise ValueError("n must be positive")
        self.n = n
        self.fronts = {}
        self.skip = SortedList()   # fronted nodes with no current owner
        self.pending = []          # owned nodes whose first front is not set yet

    # -- counting queries --------------------------------------------------

    def open_parent_count(self, a: int) -> int:
        """Number of i < a with front(i) unset or front(i) < a."""
        if not 2 <= a <= self.n + 1:
            raise ValueError(f"position {a} outside [2, {self.n + 1}]")
        return (a - 1) - self.skip.bisect_left(a) + bisect_left(self.pending, a)

    def unskipped_count(self, a: int, b: int) -> int:
        """Size of [a, b) with skip-set members removed."""
        if a > b:
            raise ValueError(f"empty-range bounds reversed: [{a}, {b})")
        skip = self.skip
        return (b - a) - (skip.bisect_left(b) - skip.bisect_left(a))

    def unskipped_rank(self, a: int) -> int:
        """Number of positions in [1, a) outside the skip set."""
        if not 1 <= a <= self.n + 1:
            raise ValueError(f"position {a} outside [1, {self.n + 1}]")
        return (a - 1) - self.skip.bisect_left(a)

    def unskipped_select(self, s: int) -> int:
        """The (s+1)-th smallest position in [1, n+1] outside the skip set.

        The answer is the least fixpoint of c = s + 1 + |skip <= c|, reached
        by iterating upward from c = s + 1; each round accounts for the skip
        members the previous candidate jumped over, so the loop runs once
        plus once per skip member between the start and the answer.
        """
        skip = self.skip
        total = (self.n + 1) - len(skip)
        if not 0 <= s < total:
            raise IndexError(f"select rank {s} outside [0, {total})")
        bisect = skip.bisect_right
        c = s + 1
        while True:
            c2 = s + 1 + bisect(c)
            if c2 == c:
                return c
            c = c2

    def unskipped_after(self, a: int, h: int) -> int:
        """The (h+1)-th unskipped position at or after a."""
        if h < 0:
            raise IndexError("rank offset must be nonnegative")
        return self.unskipped_select(self.unskipped_rank(a) + h)

    # -- maintenance ---------------------------------------------------------

    def on_front_advance(self, i: int, old, new: int, has_owner: bool) -> None:
        """Record front(i) moving from ``old`` (possibly None) to ``new``.

        ``has_owner`` says whether something fronts to i; it matters only at
        i's first front, when i leaves the pending set if owned and joins the
        skip set otherwise.  The old target (a real node) loses its owner and
        joins the skip set; the new one gains an owner and leaves it, or turns
        pending while it has no front of its own.
        """
        fronts = self.fronts
        if new is None or (old is not None and new <= old) or fronts.get(i) != old:
            raise InternalConsistencyError(f"front of {i} may not move {old} -> {new}")
        fronts[i] = new
        n = self.n
        if old is None:
            if has_owner != (i in self.pending):
                raise InternalConsistencyError(f"owner of {i} out of sync with pending set")
            if has_owner:
                self.pending.remove(i)
            else:
                self.skip.add(i)
        elif old <= n:
            if old in fronts:
                self.skip.add(old)
            else:
                self.pending.remove(old)
        if new <= n:
            if new in fronts:
                self.skip.remove(new)
            else:
                insort(self.pending, new)

    # -- introspection (tests, resource accounting) ---------------------------

    @property
    def fronted_nodes(self) -> tuple:
        return tuple(sorted(self.fronts))

    @property
    def front_values(self) -> tuple:
        return tuple(sorted(self.fronts.values()))

    @property
    def skip_members(self) -> tuple:
        return tuple(self.skip)

    def in_skip_set(self, i: int) -> bool:
        return i in self.skip

    def total_cells(self) -> int:
        return len(self.fronts) + len(self.skip) + len(self.pending)
