"""Whole-graph reference samplers and exact small-n enumeration.

Everything here materializes a complete sample up front, the way the lazy
generators must behave jointly.  The batch samplers serve as statistical
oracles at large n; the enumerator produces the exact outcome law as
fractions for small n and anchors the distribution tests.

Outcomes are parent vectors: entry j-2 of the tuple is the parent of node j
(the attachment target for the graph models, the tree parent for recursive
trees).  Node 1 is omitted; its edge is the self-loop or the root.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction

from .randomness import BitSource, DIRECT


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
    if not (isinstance(n, int) and n >= 1):
        raise ValueError("n must be a positive int")


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

    One forward pass over outcome prefixes.  With ``heads = (0, 1) + prefix``,
    each arriving node j extends every prefix by each of its equally likely
    choices, read off its own model: any earlier node for ``rrt``; an endpoint
    of an edge so far for ``ba``, node 1's self-loop counted twice; one entry
    per (pick u, flag) pair for ``z``, where a copy takes ``heads[u]``.
    Repeated choices add up, and probabilities sum to 1 exactly.
    """
    if model not in BATCH_SAMPLERS:
        raise ValueError(f"unknown model {model!r}")
    if not (isinstance(n, int) and 1 <= n <= 8):
        raise ValueError("exact enumeration supports int n with 1 <= n <= 8")
    law = {(): Fraction(1)}
    for j in range(2, n + 1):
        extended = {}
        for prefix, probability in law.items():
            heads = (0, 1) + prefix
            if model == "rrt":
                choices = range(1, j)
            elif model == "ba":
                choices = [1, 1] + [v for i in range(2, j) for v in (i, heads[i])]
            else:
                choices = [v for u in range(1, j) for v in (u, heads[u])]
            share = probability / len(choices)
            for choice in choices:
                outcome = prefix + (choice,)
                extended[outcome] = extended.get(outcome, 0) + share
        law = extended
    return law
