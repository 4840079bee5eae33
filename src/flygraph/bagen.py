"""Preferential-attachment adjacency, one neighbor per call.

Built on the lazy link tree: chasing copy flags upward turns node j's link
into the head of the j-th attachment edge, so the graph obtained is exactly
linear preferential attachment with one edge per arriving node (node 1 gets
a self-loop).  ``next_neighbor(j)`` answers j's attachment target first and
then the nodes that attached to j, in increasing order, ending with n+1
repeated forever.

A node's attachment children split into streams the link tree can enumerate
directly: its own direct-flagged children, plus each answered child's
copy-flagged children (copying a node's edge lands on the same head).  Node
1 is its own attachment child: its self-loop is answered like any child.
The streams are strictly increasing and disjoint, so a heap merges them.

A scan waits for the call whose answer needs it.  The first call answers
the target alone and the second opens the streams.  An answer stays at the
heap's top until the node's next call pops it, reads the next head of its
stream and opens its copy stream.  So a node asked once costs its copy
chain and one marker, and every later call pays for its own answer only.
The answers are read off the one lazily sampled link tree, so deferring
the scans changes which bits feed which link, not the law.
"""

from __future__ import annotations

import heapq

from .linktree import LinkTree
from .randomness import COPY, DIRECT

# Heap of a node whose target is answered but whose streams are not open yet.
_UNOPENED = frozenset()
# Heap of every ended stream: the key stays, so the target is answered once.
_ENDED = ()


class BAGenerator:
    """Neighbor-stream sampler for preferential attachment on n nodes."""

    def __init__(self, n: int, seed: int = 0):
        self.tree = LinkTree(n, seed)
        self.n = n
        self._heaps = {}

    def ba_parent(self, j: int) -> int:
        """Head of j's attachment edge: follow copy flags until a direct link."""
        node, flag = self.tree.parent(j)   # checks j
        while flag == COPY:
            node, flag = self.tree._parent(node)
        return node

    def next_neighbor(self, j: int) -> int:
        """Next neighbor of j: attachment target first, then children, then n+1.

        The first call answers ``ba_parent(j)``, the second opens j's streams;
        an answered child (node 1's self-loop too) stays atop j's heap until
        the next call pops it, reads its stream's next head and opens its copy
        stream.  j is checked here, once: the reads go to unchecked internals.
        """
        n, tree, heaps = self.n, self.tree, self._heaps
        if not (isinstance(j, int) and 1 <= j <= n):
            raise ValueError(f"node {j!r} outside [1, {n}]")
        heap = heaps.get(j)
        if heap is None:
            node, flag = tree._parent(j)
            while flag == COPY:
                node, flag = tree._parent(node)
            heaps[j] = [1] if node == j else _UNOPENED   # node 1's self-loop
            return node
        if heap is _UNOPENED:
            head = tree._typed(j, j, DIRECT)
            heap = [head] if head <= n else []
        elif heap:
            last = heapq.heappop(heap)
            # An answer's stream is its parent's: j's if direct, else the copied child's.
            link = tree.links[last]
            head = tree._typed((link & tree.low) >> 1, last, link & 1)
            for x in (head, tree._typed(last, last, COPY)):
                if x <= n:
                    heapq.heappush(heap, x)
        heaps[j] = heap or _ENDED
        return heap[0] if heap else n + 1

    @property
    def bits_consumed(self) -> int:
        return self.tree.source.bits_consumed

    def stored_cells(self) -> int:
        return (self.tree.stored_cells() + len(self._heaps)
                + sum(len(h) for h in self._heaps.values()))
