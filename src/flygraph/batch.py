"""Whole-graph reference samplers and exact small-n enumeration.

Everything here materializes a complete sample up front, the way the lazy
generators must behave jointly.  The batch samplers serve as statistical
oracles at large n; the enumerators produce the exact outcome law as
fractions for small n and anchor the distribution tests.

Outcomes are parent vectors: entry j-2 of the tuple is the parent of node j
(the attachment target for the graph models, the tree parent for recursive
trees).  Node 1 is omitted; its edge is the self-loop or the root.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass
from fractions import Fraction
from math import prod

from .randomness import BitSource, DIRECT

_MODELS = ("ba", "z", "rrt")


@dataclass(frozen=True)
class GraphSample:
    """One fully sampled graph: ``parents[j]`` is the parent of node j.

    ``parents`` has length n+1 with slot 0 unused (kept 0) and
    ``parents[1] == 1``: the self-loop for the attachment models, a root
    marker for recursive trees.
    """

    model: str
    n: int
    parents: tuple

    def outcome(self) -> tuple:
        return self.parents[2:]

    def edge_lines(self):
        """Edge list, one ``child parent`` line per edge."""
        start = 2 if self.model == "rrt" else 1
        return [f"{j} {self.parents[j]}" for j in range(start, self.n + 1)]

    def to_json(self) -> str:
        return json.dumps({"model": self.model, "n": self.n,
                           "parents": list(self.parents[1:])})


def _check_n(n: int) -> None:
    if n < 1:
        raise ValueError("n must be positive")


def batch_ba(n: int, seed: int = 0) -> GraphSample:
    """Sample preferential attachment directly, degree-proportional per step.

    Keeps the flat list of edge endpoints; a uniform pick from it is a
    degree-biased pick of a node, so each step is one exact draw.
    """
    _check_n(n)
    src = BitSource(seed)
    parents = [0, 1] + [0] * (n - 1)
    endpoints = [1, 1]
    for j in range(2, n + 1):
        head = endpoints[src.uniform_int(len(endpoints))]
        parents[j] = head
        endpoints.append(j)
        endpoints.append(head)
    return GraphSample("ba", n, tuple(parents))


def batch_z(n: int, seed: int = 0) -> GraphSample:
    """Sample the uniform-copying model and resolve each copy to its head.

    Per node: one uniform pick of an earlier node and one unbiased flag;
    a copy flag reuses the picked node's own attachment target.  The
    resulting parent vector is distributed exactly as ``batch_ba``.
    """
    _check_n(n)
    src = BitSource(seed)
    parents = [0, 1] + [0] * (n - 1)
    for j in range(2, n + 1):
        u = 1 + src.uniform_int(j - 1)
        flag = src.uniform_flag()
        parents[j] = u if flag == DIRECT else parents[u]
    return GraphSample("z", n, tuple(parents))


def batch_rrt(n: int, seed: int = 0) -> GraphSample:
    """Sample a random recursive tree: each node picks a uniform earlier parent."""
    _check_n(n)
    src = BitSource(seed)
    parents = [0, 1] + [0] * (n - 1)
    for j in range(2, n + 1):
        parents[j] = 1 + src.uniform_int(j - 1)
    return GraphSample("rrt", n, tuple(parents))


BATCH_SAMPLERS = {"ba": batch_ba, "z": batch_z, "rrt": batch_rrt}


def enumerate_exact(model: str, n: int) -> dict:
    """Exact outcome law as ``{parent tuple: Fraction}``; supports n <= 8.

    The attachment law is walked sequentially with running degrees; the
    copying law is summed over every (pick, flag) tape; recursive trees are
    uniform.  Probabilities sum to 1 exactly.
    """
    if model not in _MODELS:
        raise ValueError(f"unknown model {model!r}")
    if not 1 <= n <= 8:
        raise ValueError("exact enumeration supports 1 <= n <= 8")
    if n == 1:
        return {(): Fraction(1)}

    if model == "rrt":
        total = prod(j - 1 for j in range(2, n + 1))
        ranges = [range(1, j) for j in range(2, n + 1)]
        return {tup: Fraction(1, total) for tup in itertools.product(*ranges)}

    if model == "ba":
        law = {}

        def extend(j, degrees, prefix, probability):
            if j > n:
                law[prefix] = law.get(prefix, 0) + probability
                return
            total = 2 * (j - 1)
            for p in range(1, j):
                if degrees[p]:
                    nxt = list(degrees)
                    nxt[p] += 1
                    nxt.append(1)
                    extend(j + 1, nxt, prefix + (p,),
                           probability * Fraction(degrees[p], total))

        extend(2, [0, 2], (), Fraction(1))
        return law

    tapes = prod(2 * (j - 1) for j in range(2, n + 1))
    law = {}
    pick_ranges = [range(1, j) for j in range(2, n + 1)]
    flag_ranges = [range(2)] * (n - 1)
    for picks in itertools.product(*pick_ranges):
        for flags in itertools.product(*flag_ranges):
            heads = [0, 1]
            for u, flag in zip(picks, flags):
                heads.append(u if flag == 0 else heads[u])
            outcome = tuple(heads[2:])
            law[outcome] = law.get(outcome, 0) + Fraction(1, tapes)
    return law
