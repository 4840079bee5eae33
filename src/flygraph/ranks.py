"""Order-statistic bookkeeping behind candidate enumeration.

Child scans need two counting queries in logarithmic time over a sparse
state.  First, the open parent count of a position a: how many nodes below a
could still be a's parent, that is, nodes whose scan front is unset or below
a.  Second, rank and select over the positions a scan may stop at, which
excludes the skip set: nodes that carry a front while nobody's front rests
on them.

Fronts form disjoint increasing chains i -> front(i) -> ...  At rest each
starts at a skip member and ends at the sentinel n+1, so a chain blocks
position a, through exactly one link, when its head lies below a:

    open_parent_count(a) = (a-1) - |skip < a|.

A scan that answers a fresh node leaves one owned node without a front at a
chain's end; ``LinkTree.next_child`` scans that node next and tells the scan
it is owned, which counts the chain end back as open.  The index holds each
node's front in the one record per node it shares with the link tree, and
keeps the skip set in step from :meth:`CandidateIndex.on_front_advance`.

The skip set is a :class:`SortedBlocks`, sorted blocks under a Fenwick tree
of their sizes, whose methods give the cost of each rank, select and edit.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right, insort
from itertools import chain

from .errors import InternalConsistencyError

# Members per block after a split; a block splits once it holds twice this.
BLOCK_LOAD = 1000


class SortedBlocks:
    """Sorted multiset with rank queries by bisection and a Fenwick prefix sum.

    Members sit in sorted blocks of at most ``2 * BLOCK_LOAD``; ``_maxes``
    holds each block's largest member, and ``_tree`` is a Fenwick tree over
    the block sizes, so the members in blocks before block k sum in
    O(log B) for B blocks.  ``add`` and ``remove`` update one Fenwick path;
    the tree is rebuilt only when a block splits or empties.  The rank
    and edit methods keep ``sortedcontainers.SortedList``'s names and
    answers; ``select_outside``, which it lacks, searches the members
    below an answer by bisection and one Fenwick descent.
    """

    __slots__ = ("_lists", "_maxes", "_tree", "_len")

    def __init__(self, iterable=()):
        values = sorted(iterable)
        self._lists = [values[k:k + BLOCK_LOAD] for k in range(0, len(values), BLOCK_LOAD)]
        self._maxes = [block[-1] for block in self._lists]
        self._len = len(values)
        self._rebuild()

    def _rebuild(self) -> None:
        tree = [0]
        tree += map(len, self._lists)
        size = len(tree)
        for i in range(1, size):
            up = i + (i & -i)
            if up < size:
                tree[up] += tree[i]
        self._tree = tree

    def _update(self, k: int, delta: int) -> None:
        """Add ``delta`` to the size of block k."""
        tree = self._tree
        size = len(tree)
        k += 1
        while k < size:
            tree[k] += delta
            k += k & -k

    def bisect_left(self, value) -> int:
        """Number of members below ``value``."""
        maxes = self._maxes
        k = bisect_left(maxes, value)
        if k == len(maxes):
            return self._len
        rank = bisect_left(self._lists[k], value)
        tree = self._tree
        while k:
            rank += tree[k]
            k &= k - 1
        return rank

    def select_outside(self, rank: int, start: int) -> int:
        """Least y with y - |members <= y| == rank: the rank-th position outside.

        Needs distinct integer members and ``start`` at or below the answer,
        which places the search in start's block.  Member i (global sorted
        index) lies below the answer iff ``member_i - i <= rank``, a test
        that is monotone in i, so the members below are counted by search.
        Cost: at most three C bisections and O(log B + log BLOCK_LOAD) Python
        steps, however dense the members are around the answer.
        """
        maxes = self._maxes
        k = bisect_left(maxes, start)
        if k == len(maxes):
            return rank + self._len
        tree = self._tree
        base = rank
        i = k
        while i:
            base += tree[i]
            i &= i - 1
        block = self._lists[k]
        # Sparse case: two fixpoint steps of y = base + |block <= y| from
        # start.  The block holds every member <= y while y is within it, or
        # when no block follows.
        y = base + bisect_right(block, start)
        if y == start:
            return y
        c = bisect_right(block, y)
        last = len(block) - 1
        if base + c == y and (y <= block[last] or k == len(maxes) - 1):
            return y
        if block[last] - last <= base:
            # Every member of the start's block lies below the answer: find
            # the answer's block by Fenwick descent over the block sizes.
            size = len(maxes)
            k = base = 0
            step = 1 << (size.bit_length() - 1)
            while step:
                nxt = k + step
                if nxt <= size and maxes[nxt - 1] - (base + tree[nxt]) < rank:
                    k = nxt
                    base += tree[nxt]
                step >>= 1
            if k == size:
                return rank + self._len
            block = self._lists[k]
            base += rank
            c = 0
            last = len(block) - 1
        # Members before index c lie below the answer and block[last] above
        # it: bisect for the first one above.
        while c < last:
            mid = (c + last) >> 1
            if block[mid] - mid <= base:
                c = mid + 1
            else:
                last = mid
        return base + c

    def add(self, value) -> None:
        lists, maxes = self._lists, self._maxes
        self._len += 1
        if not maxes:
            lists.append([value])
            maxes.append(value)
            self._rebuild()
            return
        k = bisect_right(maxes, value)
        if k == len(maxes):
            k -= 1
            lists[k].append(value)
            maxes[k] = value
        else:
            insort(lists[k], value)
        block = lists[k]
        if len(block) > 2 * BLOCK_LOAD:
            lists.insert(k + 1, block[BLOCK_LOAD:])
            del block[BLOCK_LOAD:]
            maxes.insert(k, block[-1])
            self._rebuild()
        else:
            self._update(k, 1)

    def remove(self, value) -> None:
        """Remove one copy of ``value``, which must be a member."""
        lists, maxes = self._lists, self._maxes
        k = bisect_left(maxes, value)
        if k < len(maxes):
            block = lists[k]
            pos = bisect_left(block, value)
            if block[pos] == value:
                del block[pos]
                self._len -= 1
                if not block:
                    del lists[k], maxes[k]
                    self._rebuild()
                    return
                if pos == len(block):
                    maxes[k] = block[-1]
                self._update(k, -1)
                return
        raise InternalConsistencyError(f"{value} is not in the index")

    def __iter__(self):
        return chain.from_iterable(self._lists)

    def __len__(self) -> int:
        return self._len

    def cells(self) -> int:
        """Members plus bookkeeping: block slots, maxima and Fenwick entries."""
        return self._len + len(self._lists) + len(self._maxes) + len(self._tree)


class CandidateIndex:
    """Sparse counting structures over scan fronts, never growing with n.

    ``links`` maps a node to ``front << shift | parent << 1 | flag``, front 0
    before its first scan; its one owner, :class:`~flygraph.linktree.LinkTree`,
    shares the dict and has checked n and every position.
    """

    __slots__ = ("n", "links", "shift", "low", "skip")

    def __init__(self, n: int):
        self.n = n
        self.links = {}
        self.shift = (n + 1).bit_length() + 1   # parent << 1 | flag lies below 2**shift
        self.low = (1 << self.shift) - 1
        self.skip = SortedBlocks()  # fronted nodes with no current owner

    # -- counting queries --------------------------------------------------

    def open_parent_count(self, a: int) -> int:
        """Number of i < a with front(i) unset or front(i) < a; a in [2, n+1]."""
        return (a - 1) - self.skip.bisect_left(a)

    def unskipped_count(self, a: int, b: int) -> int:
        """Size of [a, b) with skip-set members removed; 1 <= a <= b <= n+1."""
        return self.unskipped_rank(b) - self.unskipped_rank(a)

    def unskipped_rank(self, a: int) -> int:
        """Number of positions in [1, a) outside the skip set; a in [1, n+1]."""
        return (a - 1) - self.skip.bisect_left(a)

    def unskipped_select(self, s: int) -> int:
        """The (s+1)-th smallest position in [1, n+1] outside the skip set.

        One :meth:`SortedBlocks.select_outside` from s + 1, which lies at or
        below the answer since every skip member is at least 1.
        """
        skip = self.skip
        total = (self.n + 1) - len(skip)
        if not 0 <= s < total:
            raise IndexError(f"select rank {s} outside [0, {total})")
        return skip.select_outside(s + 1, s + 1)

    def unskipped_after(self, a: int, h: int) -> int:
        """The (h+1)-th unskipped position at or after a, for h >= 0."""
        return self.unskipped_select(self.unskipped_rank(a) + h)

    # -- maintenance ---------------------------------------------------------

    def on_front_advance(self, i: int, old, new: int, has_owner: bool) -> None:
        """Record front(i) moving from ``old`` (0 or None for none) to ``new``.

        The caller read ``old`` from i's record and chose ``new`` above it.
        ``has_owner`` says whether something fronts to i; it matters only at
        i's first front, when i joins the skip set unless owned.  The old
        target (a real node) loses its owner and joins the skip set; the new
        one gains an owner and leaves it, unless it has no front yet.
        """
        links, low = self.links, self.low
        # Only node 1 is fronted before it is linked: its record is parent 1, DIRECT.
        links[i] = new << self.shift | links.get(i, 2) & low
        if not old:
            if not has_owner:
                self.skip.add(i)
        elif old <= self.n:
            if links.get(old, 0) <= low:
                raise InternalConsistencyError(f"old front target {old} of {i} has no front")
            self.skip.add(old)
        if new <= self.n and links.get(new, 0) > low:
            self.skip.remove(new)

    # -- introspection (tests, resource accounting) ---------------------------

    @property
    def fronted_nodes(self) -> tuple:
        return tuple(sorted(i for i, record in self.links.items() if record >> self.shift))

    @property
    def skip_members(self) -> tuple:
        return tuple(self.skip)

    def total_cells(self) -> int:
        return len(self.links) + self.skip.cells()
