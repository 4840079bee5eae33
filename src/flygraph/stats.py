"""Distribution checks and graph summaries used by the tests and the CLI.

Includes exact total-variation distance over outcome laws, chi-square
goodness-of-fit with small-cell merging, a two-sample chi-square for
comparing two samplers without an exact law, per-node degree summaries, tree
height and fan-out, and a reconstruction driver that replays a neighbor
stream into a whole graph while checking the stream's contract.
"""

from __future__ import annotations

from fractions import Fraction

from .batch import GraphSample
from .errors import InternalConsistencyError


def tv_distance(law_a: dict, law_b: dict):
    """Total variation distance between two outcome laws.

    Exact when both laws map to :class:`fractions.Fraction`.
    """
    keys = set(law_a) | set(law_b)
    total = sum(abs(law_a.get(k, 0) - law_b.get(k, 0)) for k in keys)
    return total / 2


def empirical_law(counts: dict, trials: int) -> dict:
    if trials <= 0:
        raise ValueError("trials must be positive")
    return {k: Fraction(c, trials) for k, c in counts.items()}


def _merge_cells(items, weight, minimum):
    """Group cells so each group's weight reaches ``minimum``.

    Cells are taken in decreasing weight; the light tail is pooled into the
    last group.  Returns a list of cell-key lists.
    """
    ordered = sorted(items, key=weight, reverse=True)
    groups = []
    bucket, bucket_weight = [], 0
    for key in ordered:
        bucket.append(key)
        bucket_weight += weight(key)
        if bucket_weight >= minimum:
            groups.append(bucket)
            bucket, bucket_weight = [], 0
    if bucket:
        if groups:
            groups[-1].extend(bucket)
        else:
            groups.append(bucket)
    return groups


def chi_square_gof(counts: dict, expected_law: dict, trials: int) -> float:
    """P-value of Pearson's goodness-of-fit test against an exact law.

    Cells are merged until every expected count reaches 5.  An observed
    outcome of probability zero is a contract violation, reported as p = 0.
    """
    if trials <= 0:
        raise ValueError("trials must be positive")
    for key, count in counts.items():
        if count and expected_law.get(key, 0) == 0:
            return 0.0
    groups = _merge_cells(expected_law, lambda k: float(expected_law[k]) * trials, 5.0)
    if len(groups) < 2:
        raise ValueError("not enough mass for more than one cell")
    stat = 0.0
    for group in groups:
        expected = float(sum(expected_law[k] for k in group)) * trials
        observed = sum(counts.get(k, 0) for k in group)
        stat += (observed - expected) ** 2 / expected
    from scipy.stats import chi2  # deferred: scipy dominates import time
    return float(chi2.sf(stat, len(groups) - 1))


def chi_square_two_sample(counts_a: dict, counts_b: dict) -> float:
    """P-value for whether two count vectors come from one distribution.

    Builds the 2 x K contingency table over merged outcome cells (merged so
    each cell holds at least 10 combined observations) and runs Pearson's
    test without continuity correction.
    """
    total_a = sum(counts_a.values())
    total_b = sum(counts_b.values())
    if total_a <= 0 or total_b <= 0:
        raise ValueError("both samples must be non-empty")
    keys = set(counts_a) | set(counts_b)
    combined = {k: counts_a.get(k, 0) + counts_b.get(k, 0) for k in keys}
    groups = _merge_cells(keys, lambda k: combined[k], 10)
    if len(groups) < 2:
        raise ValueError("not enough mass for more than one cell")
    row_a = [sum(counts_a.get(k, 0) for k in g) for g in groups]
    row_b = [sum(counts_b.get(k, 0) for k in g) for g in groups]
    from scipy.stats import chi2_contingency
    result = chi2_contingency([row_a, row_b], correction=False)
    return float(result.pvalue)


def degree_stats(sample: GraphSample) -> dict:
    """Per-node degrees of one sampled graph, under ``"degree"``.

    For the attachment models the node-1 self-loop adds two to its degree.
    Recursive trees have no self-loop.
    """
    degree = [0] * (sample.n + 1)
    if sample.model in ("ba", "z"):
        degree[1] += 2
    for j in range(2, sample.n + 1):
        degree[j] += 1
        degree[sample.parents[j]] += 1
    return {"degree": degree}


def tree_metrics(sample: GraphSample) -> dict:
    """Height and maximum fan-out of the parent structure.

    Depth of node 1 is zero; every parent points to a smaller index, so one
    ascending pass fills all depths.  Fan-out counts proper children only,
    never the node-1 self-loop.
    """
    n = sample.n
    depth = [0] * (n + 1)
    fan_out = [0] * (n + 1)
    for j in range(2, n + 1):
        p = sample.parents[j]
        if not 1 <= p < j:
            raise InternalConsistencyError(f"parent {p} of {j} is not earlier")
        depth[j] = depth[p] + 1
        fan_out[p] += 1
    return {"height": max(depth), "max_fan_out": max(fan_out)}


def schedule_queries(gen, schedule: str = "sweep"):
    """Yield (node, answer) for next_neighbor queries until every stream ends.

    ``sweep`` reads one node's stream to its end marker n+1 before the next;
    ``roundrobin`` cycles one query per still-active node, in node order.
    """
    if schedule not in ("sweep", "roundrobin"):
        raise ValueError(f"unknown schedule {schedule!r}")
    end = gen.n + 1
    active = range(1, end)
    while active:
        still = []
        for j in active:
            r = gen.next_neighbor(j)
            yield j, r
            while schedule == "sweep" and r != end:
                r = gen.next_neighbor(j)
                yield j, r
            if r != end:
                still.append(j)
        active = still


def reconstruct_via_sweep(gen, model: str, schedule: str = "sweep") -> GraphSample:
    """Replay a neighbor stream into a full graph, enforcing its contract.

    Each node must answer its parent first, then children in strictly
    increasing order, then n+1.  The recovered child sets must agree with
    the recovered parents exactly.  ``schedule`` picks the query order:
    ``sweep`` exhausts one node before the next, ``roundrobin`` cycles one
    query per still-active node.
    """
    n = gen.n
    parents = [0] * (n + 1)
    children = {j: [] for j in range(1, n + 1)}
    answered = [0] * (n + 1)
    for j, value in schedule_queries(gen, schedule):
        answered[j] += 1
        if answered[j] > n + 1:
            raise InternalConsistencyError(f"node {j} never exhausted")
        if answered[j] == 1:
            if j == 1 and value != 1:
                raise InternalConsistencyError(f"node 1 parent answer {value}")
            if j > 1 and not 1 <= value < j:
                raise InternalConsistencyError(f"parent {value} of {j} not earlier")
            parents[j] = value
        elif value != n + 1:
            prev = children[j][-1] if children[j] else j
            if not prev < value <= n:
                raise InternalConsistencyError(
                    f"child answer {value} for {j} after {prev}")
            children[j].append(value)

    expected = {j: [] for j in range(1, n + 1)}
    for c in range(2, n + 1):
        expected[parents[c]].append(c)
    for j in range(1, n + 1):
        if children[j] != expected[j]:
            raise InternalConsistencyError(
                f"children of {j}: stream {children[j]}, parents say {expected[j]}")
    parents[1] = 1
    return GraphSample(model, n, tuple(parents))
