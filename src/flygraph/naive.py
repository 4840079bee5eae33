"""Brute-force twin of the lazy link tree, kept as a distribution oracle.

Nothing on the query path imports this module; ``flygraph.NaiveLinkTree``
loads it on first use.
"""

from __future__ import annotations

from .randomness import BitSource, DIRECT


class NaiveLinkTree:
    """Reference twin with the same query semantics, by linear scan.

    Keeps only links, flags, and fronts; every probability is recomputed by
    brute force over them, one coin per undecided position.  Quadratic per
    query and meant purely as a distribution oracle for small n.
    """

    def __init__(self, n: int, seed: int = 0):
        if not (isinstance(n, int) and n >= 1):
            raise ValueError("n must be a positive int")
        self.n = n
        self.source = BitSource(seed)
        self.links = {1: 1}   # node 1, the root, links to itself
        self.flags = {1: DIRECT}
        self.fronts = {}

    def open_parent_count(self, x: int) -> int:
        return sum(1 for i in range(1, x) if self.fronts.get(i, 0) < x)

    def parent(self, j: int) -> tuple[int, int]:
        if not (isinstance(j, int) and 1 <= j <= self.n):
            raise ValueError(f"node {j!r} outside [1, {self.n}]")
        link = self.links.get(j)
        if link is not None:
            return link, self.flags[j]
        fronts = self.fronts
        pool = [i for i in range(1, j)
                if fronts.get(i) is None or fronts[i] < j]
        link = pool[self.source.uniform_int(len(pool))]
        flag = self.source.uniform_flag()
        self.links[j] = link
        self.flags[j] = flag
        return link, flag

    def next_child(self, j: int, k: int) -> int:
        """Least child of j above k: scan positions, one exact coin each."""
        if not (isinstance(j, int) and 1 <= j <= self.n):
            raise ValueError(f"node {j!r} outside [1, {self.n}]")
        if not (isinstance(k, int) and j <= k <= self.n + 1):
            raise ValueError(f"probe {k!r} outside [{j}, {self.n + 1}]")
        links = self.links
        start_front = self.fronts.get(j, 0)
        result = self.n + 1
        for x in range(k + 1, self.n + 1):
            px = links.get(x)
            if px == j:
                result = x
                break
            if px is None and x > start_front:
                if self.source.uniform_int(self.open_parent_count(x)) == 0:
                    links[x] = j
                    self.flags[x] = self.source.uniform_flag()
                    result = x
                    break
        if result > start_front:
            self.fronts[j] = result
        return result

    def next_child_typed(self, j: int, k: int, flag: int) -> int:
        x = k
        while True:
            x = self.next_child(j, x)
            if x > self.n or self.flags[x] == flag:
                return x
