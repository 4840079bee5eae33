"""Preferential-attachment neighbor streams."""

import random
from collections import Counter

import pytest
from scipy.stats import chi2

from flygraph import (BAGenerator, chi_square_gof, enumerate_exact,
                      reconstruct_via_sweep)
from flygraph.randomness import COPY, DIRECT


def drain(gen, j):
    """All answers for node j: parent first, then children, up to n+1."""
    out = [gen.next_neighbor(j)]
    while out[-1] != gen.n + 1:
        out.append(gen.next_neighbor(j))
    return out


def test_single_node_graph_is_deterministic():
    g = BAGenerator(1, seed=123)
    assert [g.next_neighbor(1) for _ in range(4)] == [1, 2, 2, 2]
    assert g.bits_consumed == 0


def test_two_node_graph_streams():
    for seed in range(25):
        g = BAGenerator(2, seed=seed)
        assert drain(g, 1) == [1, 2, 3]
        assert drain(g, 2) == [1, 3]


def test_absorbing_tail_consumes_nothing():
    g = BAGenerator(6, seed=8)
    drain(g, 3)
    spent = g.bits_consumed
    for _ in range(4):
        assert g.next_neighbor(3) == 7
    assert g.bits_consumed == spent


def test_ba_parent_idempotent_and_in_range():
    g = BAGenerator(40, seed=5)
    for j in (1, 2, 17, 40, 17, 2):
        p = g.ba_parent(j)
        assert p == g.ba_parent(j)
        if j == 1:
            assert p == 1
        else:
            assert 1 <= p < j


def test_ba_parent_third_node_law():
    draws = 40_000
    counts = Counter(BAGenerator(3, seed=s).ba_parent(3) for s in range(draws))
    # Attachment after the self-loop and one edge: degrees 3 and 1 of 4.
    stat = ((counts[1] - draws * 0.75) ** 2 / (draws * 0.75)
            + (counts[2] - draws * 0.25) ** 2 / (draws * 0.25))
    assert chi2.sf(stat, 1) > 1e-6, dict(counts)


def test_children_strictly_increasing_and_later():
    for seed in range(40):
        g = BAGenerator(12, seed=seed)
        answers = drain(g, 4)
        parent, kids = answers[0], answers[1:-1]
        assert 1 <= parent < 4
        assert kids == sorted(kids)
        assert all(c > 4 for c in kids)
        assert len(set(kids)) == len(kids)


@pytest.mark.parametrize("n,draws", [(4, 40_000), (5, 40_000)])
def test_sweep_law_matches_exact(n, draws):
    law = enumerate_exact("ba", n)
    counts = Counter()
    for s in range(draws):
        sample = reconstruct_via_sweep(BAGenerator(n, seed=s), "ba")
        counts[sample.outcome()] += 1
    assert chi_square_gof(counts, law, draws) > 1e-6


def decreasing_outcome(gen, calls=1):
    """Every node's first ``calls`` answers in decreasing node order, then
    every stream read to n+1 in decreasing order; the parents, checked
    against the streams."""
    n = gen.n
    parents, later = [0] * (n + 1), [()] * (n + 1)
    for j in range(n, 0, -1):
        parents[j] = gen.next_neighbor(j)
        later[j] = [gen.next_neighbor(j) for _ in range(calls - 1)]
    assert parents[1] == 1 and all(1 <= parents[j] < j for j in range(2, n + 1))
    if calls == 1:
        assert not gen.tree.fronts, "a first answer scanned for a child"
    for j in range(n, 0, -1):
        kids = [x for x in later[j] if x <= n]
        while (x := gen.next_neighbor(j)) <= n:
            kids.append(x)
        assert kids == [c for c in range(2, n + 1) if parents[c] == j]
    return tuple(parents[2:])


@pytest.mark.parametrize("n,draws", [(4, 40_000), (5, 40_000)])
def test_decreasing_first_answers_law_matches_exact(n, draws):
    # Every target is answered before any stream opens, the schedule that
    # leaves the most streams closed behind a first call.
    law = enumerate_exact("ba", n)
    counts = Counter(decreasing_outcome(BAGenerator(n, seed=s))
                     for s in range(draws))
    assert chi_square_gof(counts, law, draws) > 1e-6


@pytest.mark.parametrize("n,draws", [(4, 40_000), (5, 40_000)])
def test_decreasing_second_answers_law_matches_exact(n, draws):
    # Every node's second answer is left on its heap, its two streams unread,
    # while the other nodes open theirs: the expansions stay outstanding
    # across nodes until each stream is read to its end.
    law = enumerate_exact("ba", n)
    counts = Counter(decreasing_outcome(BAGenerator(n, seed=s), calls=2)
                     for s in range(draws))
    assert chi_square_gof(counts, law, draws) > 1e-6


@pytest.mark.parametrize("j", [1, 2, random.Random(11).randrange(3, 10**6 + 1)])
def test_first_call_answers_target_without_scanning(j):
    n = 10**6
    lazy, twin = BAGenerator(n, seed=j), BAGenerator(n, seed=j)
    assert lazy.next_neighbor(j) == twin.ba_parent(j)
    assert lazy.bits_consumed == twin.bits_consumed
    assert lazy.tree.links == twin.tree.links
    assert j not in lazy.tree.fronts


@pytest.mark.parametrize("j", [1, 2, random.Random(11).randrange(3, 10**6 + 1)])
def test_second_call_answers_least_head_with_one_walk_per_stream(j):
    # The second answer reads j's own streams once each and does not read
    # the streams that answer feeds: those wait for the third call.
    n = 10**6
    lazy, twin = BAGenerator(n, seed=j), BAGenerator(n, seed=j)
    answers = (lazy.next_neighbor(j), lazy.next_neighbor(j))
    target = twin.ba_parent(j)
    head = twin.tree.next_child_typed(j, j, DIRECT)
    if j == 1:
        head = min(head, twin.tree.next_child_typed(1, 1, COPY))
    assert answers == (target, head)
    assert lazy.bits_consumed == twin.bits_consumed
    assert lazy.tree.links == twin.tree.links


def test_roundrobin_law_matches_exact():
    n = 4
    draws = 40_000
    law = enumerate_exact("ba", n)
    counts = Counter()
    for s in range(draws):
        sample = reconstruct_via_sweep(BAGenerator(n, seed=s), "ba", "roundrobin")
        counts[sample.outcome()] += 1
    assert chi_square_gof(counts, law, draws) > 1e-6


def test_parent_then_sweep_consistency():
    # Asking every attachment target up front must cohere with the child
    # streams afterwards; the reconstruction cross-validates them.
    for seed in range(300):
        g = BAGenerator(9, seed=seed)
        targets = {j: g.ba_parent(j) for j in range(2, 10)}
        sample = reconstruct_via_sweep(g, "ba")
        for j, p in targets.items():
            assert sample.parents[j] == p


def test_node_validation():
    # A rejected call stores nothing, not even the key of a stream.
    g = BAGenerator(5, seed=0)
    g.next_neighbor(3)
    cells = g.stored_cells()
    for call, j in ((g.next_neighbor, 0), (g.next_neighbor, 6),
                    (g.ba_parent, 0), (g.ba_parent, 6)):
        with pytest.raises(ValueError, match="outside"):
            call(j)
        assert g.stored_cells() == cells


def test_determinism():
    a = BAGenerator(20, seed=77)
    b = BAGenerator(20, seed=77)
    seq_a = [a.next_neighbor(j) for j in (3, 3, 1, 7, 3, 20, 1)]
    seq_b = [b.next_neighbor(j) for j in (3, 3, 1, 7, 3, 20, 1)]
    assert seq_a == seq_b
    assert a.bits_consumed == b.bits_consumed
