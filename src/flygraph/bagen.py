"""Preferential-attachment adjacency, one neighbor per call.

Built on the lazy link tree: chasing copy flags upward turns node j's link
into the head of the j-th attachment edge, so the graph obtained is exactly
linear preferential attachment with one edge per arriving node (node 1 gets
a self-loop).  ``next_neighbor(j)`` answers j's attachment target first and
then the nodes that attached to j, in increasing order, ending with n+1
repeated forever.

A node's attachment children split into streams the link tree can enumerate
directly: its own direct-flagged children, plus, for every attachment child
already discovered, that child's copy-flagged children (copying a node's
edge lands on the same head).  The streams are strictly increasing and
pairwise disjoint, so a binary heap merges them without duplicates; each
emitted child opens its own copy stream.  Node 1 additionally owns its
copy-flagged children outright, because copying the self-loop stays at 1.

The first call answers the target alone and opens no stream: the streams
open on the second call, so a node asked once costs its copy chain and one
marker, never a scan for a child nobody asked for.  Every answer is read
off the one lazily sampled link tree, so deferring the scans changes which
bits feed which link, not the law.
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
        node, flag = self.tree.parent(j)
        while flag == COPY:
            node, flag = self.tree.parent(node)
        return node

    def next_neighbor(self, j: int) -> int:
        """Next neighbor of j: attachment target first, then children, then n+1.

        The first call answers ``ba_parent(j)`` and leaves j's streams closed;
        the second opens them and answers the least child.
        """
        heaps = self._heaps
        heap = heaps.get(j)
        if heap is None:
            # ba_parent validates j, so a node outside [1, n] never gets a key.
            answer = self.ba_parent(j)
            heaps[j] = _UNOPENED
            return answer
        n, tree = self.n, self.tree
        if heap is _UNOPENED:
            head = tree.next_child_typed(j, j, DIRECT)
            heap = [head] if head <= n else []
            if j == 1:
                head = tree.next_child_typed(1, 1, COPY)
                if head <= n:
                    heapq.heappush(heap, head)
            heaps[j] = heap or _ENDED
        if not heap:
            return n + 1
        answer = heapq.heappop(heap)
        link = tree.links[answer]
        if link & 1 == DIRECT:
            head = tree.next_child_typed(j, answer, DIRECT)
        else:
            head = tree.next_child_typed(link >> 1, answer, COPY)
        for x in (head, tree.next_child_typed(answer, answer, COPY)):
            if x <= n:
                heapq.heappush(heap, x)
        if not heap:
            heaps[j] = _ENDED
        return answer

    @property
    def bits_consumed(self) -> int:
        return self.tree.source.bits_consumed

    def stored_cells(self) -> int:
        return (self.tree.stored_cells() + len(self._heaps)
                + sum(len(h) for h in self._heaps.values()))
