"""Lazy parent-link tree, sampled one adjacency query at a time.

The random object is a tree on nodes 1..n: node 1 links to itself with a
direct flag, and every node j >= 2 links to an independent uniform node of
[1, j-1] and carries an independent unbiased flag (direct or copy).  Chasing
copy flags turns the link tree into a preferential-attachment graph; reading
links alone gives a random recursive tree.  This module handles the links,
committing exactly as much of the random object as each answer pins down, so
that the joint law of all answers equals sampling the whole tree up front.

Two query families are exposed:

* ``parent(j)`` reveals j's link and flag.
* ``next_child(j)`` reveals j's children in increasing order, one call at a
  time, ending with the sentinel n+1.

Every node keeps a front, the largest child answer returned for it so far,
in its one record beside its link.  Territory at or below a front is settled
and never re-randomized, which keeps interleaved and repeated queries
consistent.  One scan step samples where the region between the current
front and the next known child ends, in a single draw over candidate
positions (skip-set members, see :mod:`flygraph.ranks`, are stepped over;
positions already linked elsewhere are rejected and the scan resumes above).
"""

from __future__ import annotations

from .errors import InternalConsistencyError
from .randomness import COPY, DIRECT, BitSource
from .ranks import CandidateIndex
from .sparse import ChildSets


def sample_candidate_rank(source: BitSource, open_count: int, t: int,
                          first_bits: int | None = None) -> int:
    """Pick which of ``t`` slots ends one scan step, exactly.

    Slot y < t-1 stops the scan at the y-th open candidate of the region;
    slot t-1 runs it off the end.  With m = open_count - 1 the cumulative law
    is C(y) = y / (m + y) for y < t and C(t) = 1, and the answer is the y with
    C(y) <= H < C(y+1) for a uniform real H, realized lazily: a dyadic
    interval [num, num+1) / 2**width around H is refined only while it
    straddles a cell boundary, and the slot of its lower end is
    num m // (2**width - num) in closed form.  Widths follow the arguments:
    (m+t).bit_length() + 2 bits first (``first_bits`` overrides that), then
    enough to resolve cell lo, of size m / ((m+lo)(m+lo+1)), in one more draw.
    Integer arithmetic, and reading the slot only once the interval lies in
    one cell, keep the law exact for every width schedule.
    """
    if open_count < 1:
        raise ValueError("open candidate count must be positive")
    if t < 1:
        raise ValueError("slot count must be positive")
    if t == 1 or open_count == 1:
        return 0
    m = open_count - 1
    width = (m + t).bit_length() + 2 if first_bits is None else first_bits
    num = source.bits(width)
    while True:
        lo = num * m // ((1 << width) - num)
        if lo >= t - 1:
            return t - 1
        if (num + 1) * (open_count + lo) <= (lo + 1) << width:
            return lo
        k = max(1, ((m + lo + 1) ** 2 // m).bit_length() + 2 - width)
        num = (num << k) | source.bits(k)
        width += k


class LinkTree:
    """On-demand sampler of the parent-link tree on nodes 1..n."""

    __slots__ = ("n", "source", "index", "children", "links", "shift", "low",
                 "scan_loop_max", "max_recursion_depth")

    def __init__(self, n: int, seed: int = 0):
        if n < 1:
            raise ValueError("n must be positive")
        self.n = n
        self.source = BitSource(seed)
        self.index = CandidateIndex(n)
        self.children = ChildSets(n)
        self.links, self.shift, self.low = self.index.links, self.index.shift, self.index.low
        self.scan_loop_max = 0
        self.max_recursion_depth = 0

    # -- basic queries -------------------------------------------------------

    def parent(self, j: int) -> tuple[int, int]:
        """Link and flag of j, drawing them if still open.

        The draw is uniform over j's open parents: the nodes below j whose
        front has not passed j.  Up to three draws from [1, j-1] are tried;
        if all land on closed nodes, an exact draw takes the r-th position y
        below j outside the skip set and answers y, or y's parent if y has a
        front.  At rest that map is a bijection onto the open parents: an
        unfronted y is open, a fronted y outside the skip set is the front of
        a parent below j, and fronts are distinct.  Every draw is uniform over
        the open parents, so the mixture is exact, and a call costs at most
        four draws of about log2 n bits and a flag.
        """
        if not (isinstance(j, int) and 1 <= j <= self.n):
            raise ValueError(f"node {j!r} outside [1, {self.n}]")
        return self._parent(j)

    def _parent(self, j: int) -> tuple[int, int]:
        if j == 1:
            return 1, DIRECT
        links = self.links
        link = links.get(j)
        if link is not None:
            return (link & self.low) >> 1, link & 1
        closed, rejections = j << self.shift, 0   # record < closed: front < j
        while True:
            cand = 1 + self.source.uniform_int(j - 1)
            if links.get(cand, 0) < closed:
                break
            rejections += 1
            # Three draws, the select's draw and the flag: about 4 log2 n bits at most.
            if rejections == 3:
                count = self.index.open_parent_count(j)
                if count < 1:
                    raise InternalConsistencyError(f"no open parent left for {j}")
                cand = self._open_parent(j, self.source.uniform_int(count))
                break
        flag = self.source.uniform_flag()
        links[j] = cand << 1 | flag
        self.children.insert(cand, j)
        return cand, flag

    def _open_parent(self, j: int, r: int) -> int:
        """The open parent of j that position r (from 0) outside the skip set maps to."""
        y = self.index.unskipped_select(r)
        link = self.links.get(y, 0)
        p = (link & self.low) >> 1 if link > self.low else y
        if not 1 <= p < j or self.links.get(p, 0) >> self.shift >= j:
            raise InternalConsistencyError(f"select for {j} gave {p}: skip set out of step")
        return p

    def next_child(self, j: int) -> int:
        """Least undiscovered child of j; n+1 once none remain.

        Commits the scan: front(j) advances to the answer, settling the
        stretch below it for good.  An answer with no front yet is a fresh
        target, owned by j but not fronted, so the loop scans it next, and so
        on down the chain until a scan answers n+1 or a fronted node.
        ``owned`` is False for the chain's head and True for each fresh
        target, whose chain head the skip set counts as blocking though the
        chain ends at the target: the open count adds that one back.  Owners
        are derived: a front target's owner is its parent, whenever that
        parent's front is the target, and a first front checks ``owned``
        against it.
        """
        n, links, shift, low = self.n, self.links, self.shift, self.low
        if not (isinstance(j, int) and 1 <= j <= n):
            raise ValueError(f"node {j!r} outside [1, {n}]")
        if j > 1 and j not in links:
            self._parent(j)
        front = links.get(j, 0) >> shift
        if front > n:
            return n + 1
        skip, children, advance = self.index.skip, self.children, self.index.on_front_advance
        owned, chain = False, 0
        while True:
            base = front or j
            a = base + 1
            b = children.successor(j, base)
            # One bisection at a gives both counts of a step; the one at b serves all.
            kb = len(skip) if b > n else skip.bisect_left(b)
            # Each rejected step passes a distinct linked node: <= len(links)+1 steps.
            limit = len(links) + 1
            steps = 0
            while True:
                steps += 1
                if steps > limit:
                    raise InternalConsistencyError(f"scan of {j} passed {limit} steps")
                ka = skip.bisect_left(a)
                s = (b - a) - (kb - ka)
                if s == 0:
                    h = 0
                else:
                    open_count = (a - 1) - ka + owned
                    h = sample_candidate_rank(self.source, open_count, s + 1)
                if h == s:
                    x = b
                    break
                # The (h+1)-th unskipped position at or after a: the least x with
                # x - |skip <= x| = a + h - ka, and a + h lies at or below it.
                x = skip.select_outside(a + h - ka, a + h)
                if not a <= x < b:
                    raise InternalConsistencyError(f"scan of {j} selected {x} outside [{a}, {b})")
                if x not in links:
                    links[x] = j << 1 | self.source.uniform_flag()
                    children.insert(j, x)
                    break
                a = x + 1
            if steps > self.scan_loop_max:
                self.scan_loop_max = steps
            for target in (front, x):
                if target and target <= n and (links.get(target, 0) & low) >> 1 != j:
                    raise InternalConsistencyError(
                        f"front target {target} of {j} is not its child")
            if not front and owned != (
                    links.get((links.get(j, 0) & low) >> 1, 0) >> shift == j):
                raise InternalConsistencyError(f"owner of {j} out of sync with the chain")
            advance(j, front, x, owned)
            if not owned:
                answer = x
            if x > n or links[x] > low:
                break
            j, front, owned = x, 0, True
            chain += 1
        if chain > self.max_recursion_depth:
            self.max_recursion_depth = chain
        return answer

    def next_child_from(self, j: int, k: int) -> int:
        """Least child of j strictly above k, whatever its flag."""
        return self.next_child_typed(j, k, None)

    def next_child_typed(self, j: int, k: int, flag: int | None) -> int:
        """Least child of j above k whose flag matches (any, for None), or n+1.

        Known children up to the front are read in one pass over j's child
        set; only past the front does it scan, so nothing below k is redrawn.
        Probes may not run ahead: k <= front(j), taking front(j) = j before
        any scan, unless k >= n.  A probe at or past n, a front at or past n
        and a scan that answers n all end the stream: one more scan would
        move front(j) to n+1.  Any flag but None, DIRECT or COPY raises.
        """
        if not (isinstance(j, int) and 1 <= j <= self.n):
            raise ValueError(f"node {j!r} outside [1, {self.n}]")
        if not (isinstance(k, int) and j <= k <= self.n + 1):
            raise ValueError(f"probe {k!r} outside [{j}, {self.n + 1}]")
        if flag not in (None, DIRECT, COPY):
            raise ValueError(f"flag {flag!r} is not None, DIRECT or COPY")
        return self._typed(j, k, flag)

    def _typed(self, j: int, k: int, flag: int | None) -> int:
        n, links = self.n, self.links
        front = links.get(j, 0) >> self.shift or j
        if front > j:
            for x in self.children.above(j, k):
                if x > front:
                    break
                if flag is None or links[x] & 1 == flag:
                    return x
        if front < k < n:
            raise ValueError(f"probe {k} ahead of the committed front of {j}")
        while k <= front < n:
            x = self.next_child(j)
            if x > n or flag is None or links[x] & 1 == flag:
                return x
            front = x
        return n + 1

    # -- recursive-tree facade -------------------------------------------------

    def rrt_parent(self, j: int) -> int:
        """Parent link of j in the random recursive tree (flag dropped)."""
        return self.parent(j)[0]

    def rrt_next_child(self, j: int, k: int) -> int:
        """Children of j in the random recursive tree, flags ignored."""
        return self.next_child_from(j, k)

    # -- resource accounting ---------------------------------------------------

    def stored_cells(self) -> int:
        return self.children.total_cells() + self.index.total_cells()

    def check_invariants(self) -> None:
        """Raise :class:`InternalConsistencyError` where the state contradicts the links."""
        from .invariants import check_invariants
        check_invariants(self)


class RRTGenerator:
    """Neighbor-stream adapter for random recursive trees.

    ``next_neighbor(j)`` answers j's parent first, then j's children in
    increasing order, then n+1 forever.  Flags are drawn underneath but never
    consulted, so the produced tree is exactly the plain link tree.
    """

    def __init__(self, n: int, seed: int = 0):
        self.tree = LinkTree(n, seed)
        self.n = n
        self._cursor = {}

    def parent(self, j: int) -> int:
        if not (isinstance(j, int) and 1 <= j <= self.n):
            raise ValueError(f"node {j!r} outside [1, {self.n}]")
        return self.tree._parent(j)[0]

    def next_child(self, j: int, k: int) -> int:
        return self.tree.next_child_from(j, k)

    def next_neighbor(self, j: int) -> int:
        cur = self._cursor.get(j)
        if cur is None:
            answer = self.tree.parent(j)[0]
            self._cursor[j] = j
            return answer
        r = self.tree.next_child_from(j, cur)
        self._cursor[j] = r
        return r

    @property
    def bits_consumed(self) -> int:
        return self.tree.source.bits_consumed

    def stored_cells(self) -> int:
        return self.tree.stored_cells() + len(self._cursor)
