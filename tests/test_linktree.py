"""Lazy link tree: exact stopping law, invariants, agreement with the naive twin."""

import math
import os
import random
import signal
import subprocess
import sys
from collections import Counter
from contextlib import contextmanager
from fractions import Fraction
from pathlib import Path

import pytest
from scipy.stats import chi2

from flygraph import (COPY, DIRECT, BAGenerator, BitSource, InternalConsistencyError,
                      LinkTree, NaiveLinkTree, RRTGenerator, batch_ba, batch_rrt,
                      chi_square_gof, chi_square_two_sample, enumerate_exact,
                      sample_candidate_rank)
from flygraph.ranks import SortedBlocks


def stop_law(open_count: int, t: int) -> list:
    """Exact slot law from the cumulative form C(y) = y / (open_count + y - 1)."""
    cum = [Fraction(0)]
    for y in range(1, t):
        cum.append(Fraction(y, open_count + y - 1))
    cum.append(Fraction(1))
    return [cum[y + 1] - cum[y] for y in range(t)]


class TestSampleCandidateRank:
    def test_pinned_small_law(self):
        assert stop_law(2, 3) == [Fraction(1, 2), Fraction(1, 6), Fraction(1, 3)]

    def test_validation(self):
        src = BitSource(0)
        with pytest.raises(ValueError):
            sample_candidate_rank(src, 0, 3)
        with pytest.raises(ValueError):
            sample_candidate_rank(src, 2, 0)

    def test_shortcuts_consume_nothing(self):
        src = BitSource(0)
        assert sample_candidate_rank(src, 5, 1) == 0
        assert sample_candidate_rank(src, 1, 7) == 0
        assert src.bits_consumed == 0

    @pytest.mark.parametrize("open_count,t", [(2, 3), (2, 2), (3, 4), (5, 7),
                                              (9, 2), (4, 10)])
    @pytest.mark.parametrize("lattice_bits", [4, 16])
    def test_empirical_law(self, open_count, t, lattice_bits):
        src = BitSource(1000 * open_count + 10 * t + lattice_bits)
        draws = 40_000
        counts = Counter(sample_candidate_rank(src, open_count, t, lattice_bits)
                         for _ in range(draws))
        law = stop_law(open_count, t)
        assert sum(law) == 1
        stat = 0.0
        for y in range(t):
            expected = float(law[y]) * draws
            stat += (counts[y] - expected) ** 2 / expected
        assert chi2.sf(stat, t - 1) > 1e-6, (open_count, t, dict(counts))

    def test_tiny_lattice_still_exact(self):
        # Four-bit slabs force many refinement rounds; the law must not drift.
        src = BitSource(77)
        draws = 60_000
        counts = Counter(sample_candidate_rank(src, 2, 3, 4) for _ in range(draws))
        for y, p in enumerate(stop_law(2, 3)):
            expected = float(p) * draws
            sigma = (expected * (1 - float(p))) ** 0.5
            assert abs(counts[y] - expected) < 4.5 * sigma


def binary_search_candidate_rank(source, open_count, t, first_bits=None):
    """The stop slot found by binary search over the slots.

    Reference for the closed form in :func:`sample_candidate_rank`, which must
    return the same slot after consuming the same bits; the widths of its
    draws follow the same schedule.
    """
    if t == 1 or open_count == 1:
        return 0
    m = open_count - 1
    width = (m + t).bit_length() + 2 if first_bits is None else first_bits
    num = source.bits(width)
    while True:
        lo, hi = 0, t - 1
        while lo < hi:
            mid = (lo + hi + 1) >> 1
            if (mid << width) <= num * (open_count + mid - 1):
                lo = mid
            else:
                hi = mid - 1
        if lo == t - 1:
            return lo
        if (num + 1) * (open_count + lo) <= (lo + 1) << width:
            return lo
        k = max(1, ((m + lo + 1) ** 2 // m).bit_length() + 2 - width)
        num = (num << k) | source.bits(k)
        width += k


class ScriptedSource(BitSource):
    """Bit source whose first draw returns a chosen value."""

    def __init__(self, first, seed):
        super().__init__(seed)
        self.first = first

    def bits(self, k):
        if self.first is None:
            return super().bits(k)
        out, self.first = self.first, None
        self.bits_consumed += k
        return out


class TestClosedFormSlot:
    @pytest.mark.parametrize("lattice_bits", [4, 5, 6, 7, 8])
    def test_every_first_draw_matches_binary_search(self, lattice_bits):
        for open_count in range(1, 13):
            for t in range(1, 13):
                for first in range(1 << lattice_bits):
                    seed = (open_count * 13 + t) * 257 + first
                    fast = ScriptedSource(first, seed)
                    slow = ScriptedSource(first, seed)
                    got = sample_candidate_rank(fast, open_count, t, lattice_bits)
                    want = binary_search_candidate_rank(slow, open_count, t, lattice_bits)
                    assert (got, fast.bits_consumed) == (want, slow.bits_consumed), \
                        (open_count, t, first)

    def test_random_wide_draws_match_binary_search(self):
        rng = random.Random(90)
        for case in range(3_000):
            open_count = rng.randrange(1, 1 << rng.choice((4, 20, 30)))
            t = rng.randrange(1, 1 << rng.choice((4, 12, 20)))
            fast, slow = BitSource(case), BitSource(case)
            got = sample_candidate_rank(fast, open_count, t, 90)
            want = binary_search_candidate_rank(slow, open_count, t, 90)
            assert (got, fast.bits_consumed) == (want, slow.bits_consumed), \
                (open_count, t, case)

    def test_random_default_widths_match_binary_search(self):
        rng = random.Random(91)
        for case in range(3_000):
            open_count = rng.randrange(1, 1 << rng.choice((4, 20, 30)))
            t = rng.randrange(1, 1 << rng.choice((4, 12, 20)))
            fast, slow = BitSource(case), BitSource(case)
            got = sample_candidate_rank(fast, open_count, t)
            want = binary_search_candidate_rank(slow, open_count, t)
            assert (got, fast.bits_consumed) == (want, slow.bits_consumed), \
                (open_count, t, case)


class OutOfBits(Exception):
    """Raised by :class:`ReplaySource` once its scripted draws run out."""


class ReplaySource(BitSource):
    """Bit source that replays scripted draws, then asks for the next width."""

    def __init__(self, draws):
        super().__init__(0)
        self.draws = iter(draws)

    def bits(self, k):
        value = next(self.draws, None)
        if value is None:
            raise OutOfBits(k)
        self.bits_consumed += k
        return value


class TestExactLaw:
    """The default width schedule, walked over every outcome of every draw."""

    CAP = 96   # paths still straddling a boundary after this many bits stay open

    def walk(self, open_count, t):
        """Resolved mass per slot, open mass, and expected bits, as Fractions.

        Expected bits count each open path at the bits it has spent so far.
        """
        resolved = [Fraction(0)] * t
        unresolved = Fraction(0)
        expected_bits = Fraction(0)
        stack = [()]
        while stack:
            draws = stack.pop()
            src = ReplaySource(draws)
            try:
                slot = sample_candidate_rank(src, open_count, t)
            except OutOfBits as need:
                k = need.args[0]
                assert k <= 12, f"a {k}-bit draw is too wide to walk"
                spent = src.bits_consumed
                if spent + k > self.CAP:
                    mass = Fraction(1, 1 << spent)
                    unresolved += mass
                    expected_bits += mass * spent
                else:
                    stack.extend(draws + (v,) for v in range(1 << k))
                continue
            mass = Fraction(1, 1 << src.bits_consumed)
            resolved[slot] += mass
            expected_bits += mass * src.bits_consumed
        return resolved, unresolved, expected_bits

    def test_law_and_bit_cost_for_small_arguments(self):
        violations = []
        worst_excess = 0.0
        for open_count in range(1, 9):
            for t in range(1, 9):
                law = stop_law(open_count, t)
                resolved, unresolved, expected_bits = self.walk(open_count, t)
                assert unresolved < Fraction(1, 1 << 64), (open_count, t)
                for y in range(t):
                    if not resolved[y] <= law[y] <= resolved[y] + unresolved:
                        violations.append((open_count, t, y))
                entropy = -sum(float(p) * math.log2(p) for p in law if p)
                worst_excess = max(worst_excess, float(expected_bits) - entropy)
        assert violations == []
        assert worst_excess <= 6, worst_excess


class TestConstruction:
    def test_validation(self):
        with pytest.raises(ValueError):
            LinkTree(0)
        with pytest.raises(ValueError):
            NaiveLinkTree(0)

    @pytest.mark.parametrize("make,args", [
        (BAGenerator, (10.0,)), (RRTGenerator, (1e3,)), (LinkTree, ("5",)),
        (BAGenerator, (10, 1.5)), (BAGenerator, (10, None)), (batch_ba, (10.0,)),
        (batch_rrt, (5.5,)), (enumerate_exact, ("ba", 3.0)), (NaiveLinkTree, (4.0,))])
    def test_non_int_size_or_seed_rejected(self, make, args):
        with pytest.raises(ValueError, match="int"):
            make(*args)

    def test_node_range_checks(self):
        t = LinkTree(5)
        for bad in (0, 6, -1):
            with pytest.raises(ValueError):
                t.parent(bad)
        with pytest.raises(ValueError):
            t.next_child(0)
        with pytest.raises(ValueError):
            t.next_child_from(2, 1)
        with pytest.raises(ValueError):
            t.next_child_from(2, 7)

    def test_non_int_node_rejected_without_state_change(self):
        t = LinkTree(10, seed=1)
        t.next_child(2)
        state = (dict(t.links), t.source.bits_consumed)
        for call, args in ((t.parent, (2.0,)), (t.next_child, (3.0,)),
                           (t.next_child, ("3",)), (t.next_child_typed, (2.0, 2, None)),
                           (t.next_child_typed, (2, 2.0, None))):
            with pytest.raises(ValueError, match="outside"):
                call(*args)
            assert (t.links, t.source.bits_consumed) == state
        for gen, call in ((RRTGenerator(10, seed=1), "parent"),
                          (RRTGenerator(10, seed=1), "next_neighbor"),
                          (BAGenerator(10, seed=1), "next_neighbor")):
            with pytest.raises(ValueError, match="outside"):
                getattr(gen, call)(2.5)
            assert gen.bits_consumed == 0 and gen.tree.links == {1: 1 << 1 | DIRECT}

    @pytest.mark.parametrize("call,args", [
        ("next_child", (2.0, 2)), ("parent", (2.0,)), ("next_child", (2, 2.5))])
    def test_naive_twin_rejects_non_int_node_without_state_change(self, call, args):
        t = NaiveLinkTree(4, seed=1)
        t.next_child(1, 1)
        state = (dict(t.links), dict(t.fronts), t.source.bits_consumed)
        with pytest.raises(ValueError, match="outside"):
            getattr(t, call)(*args)
        assert (t.links, t.fronts, t.source.bits_consumed) == state

    def test_probe_ahead_of_front_rejected(self):
        t = LinkTree(8, seed=3)
        with pytest.raises(ValueError):
            t.next_child_from(2, 4)


class TestParent:
    def test_root_costs_nothing(self):
        t = LinkTree(5, seed=1)
        assert t.parent(1) == (1, 0)
        assert t.source.bits_consumed == 0

    def test_committed_parent_is_stable_and_free(self):
        t = LinkTree(9, seed=4)
        first = t.parent(7)
        spent = t.source.bits_consumed
        for _ in range(5):
            assert t.parent(7) == first
        assert t.source.bits_consumed == spent

    @pytest.mark.parametrize("j", [2, 3, 5, 6])
    def test_fresh_marginal_uniform(self, j):
        n = 6
        draws = 12_000
        counts = Counter(LinkTree(n, seed=s * 31 + j).parent(j)[0]
                         for s in range(draws))
        expected = draws / (j - 1)
        stat = sum((counts[v] - expected) ** 2 / expected for v in range(1, j))
        assert chi2.sf(stat, j - 2) > 1e-6 if j > 2 else counts[1] == draws

    def test_marginal_uniform_after_other_activity(self):
        # Child scans elsewhere bias the conditional law of an uncommitted
        # link, never its marginal; the eligibility-aware draw must keep the
        # unconditional answer uniform.
        n = 6
        draws = 20_000
        counts = Counter()
        for s in range(draws):
            t = LinkTree(n, seed=s)
            t.next_child(1)
            t.next_child(1)
            counts[t.parent(5)[0]] += 1
        expected = draws / 4
        stat = sum((counts[v] - expected) ** 2 / expected for v in range(1, 5))
        assert chi2.sf(stat, 3) > 1e-6, dict(counts)

    def test_select_maps_ranks_onto_open_parents(self):
        # At rest, the ranks below open_parent_count(j) of the positions
        # outside the skip set map onto j's open parents one to one.
        rng = random.Random(7)
        through_parent = 0
        for seed in range(300):
            n = rng.randrange(5, 40)
            tree = LinkTree(n, seed=seed)
            for j in rng.sample(range(1, n + 1), rng.randrange(n)):
                for _ in range(rng.choice((1, 2, n))):
                    if tree.next_child(j) > n:
                        break
            for j in range(2, n + 1):
                count = tree.index.open_parent_count(j)
                hits = [tree._open_parent(j, r) for r in range(count)]
                assert sorted(hits) == open_parents(tree, j), (seed, j)
                through_parent += sum(tree.index.unskipped_select(r) != p
                                      for r, p in enumerate(hits))
        assert through_parent > 1000

    def test_select_law_is_uniform_over_open_parents(self):
        # Node 1's stream is read out, so a draw of 1 is rejected: three of
        # them force the select.  Given the state, the parent it answers is
        # uniform over j's open parents, so its rank among them is too.
        n = j = 8
        ranks = {}
        for s in range(12_000):
            tree = LinkTree(n, seed=s)
            while tree.next_child(1) <= n:
                pass
            if j in tree.links:
                continue
            opened = open_parents(tree, j)
            tree.source = RejectingSource(3, seed=-1 - s)
            p, _ = tree.parent(j)
            assert tree.source.forced == 0
            ranks.setdefault(len(opened), Counter())[opened.index(p)] += 1
        stat, dof = 0.0, 0
        for size, counts in ranks.items():
            expected = sum(counts.values()) / size
            if size > 1 and expected >= 5:
                stat += sum((counts[r] - expected) ** 2 / expected for r in range(size))
                dof += size - 1
        assert dof >= 10
        assert chi2.sf(stat, dof) > 1e-6, ranks

    def test_parent_bits_bounded_after_closing_a_prefix(self):
        # Reading out the streams of nodes 1..1000 closes them as parents of
        # every later node, so most draws from [1, j-1] are rejected.  Three
        # draws, the select and the flag keep every call within 4 log2 n.
        gen = RRTGenerator(10**9, seed=1)
        n = gen.n
        for j in range(1, 1_001):
            while gen.next_neighbor(j) <= n:
                pass
        worst = 0
        for x in range(1_001, 3_001):
            spent = gen.bits_consumed
            gen.parent(x)
            worst = max(worst, gen.bits_consumed - spent)
        assert worst <= 4 * math.ceil(math.log2(n)) == 120


class RejectingSource(BitSource):
    """Bit source whose first ``forced`` uniform_int draws answer 0."""

    def __init__(self, forced, seed):
        super().__init__(seed)
        self.forced = forced

    def uniform_int(self, m):
        if self.forced:
            self.forced -= 1
            return 0
        return super().uniform_int(m)


def front_of(tree, x):
    """Front stored in x's record, 0 before x's first scan."""
    return tree.links.get(x, 0) >> tree.shift


def parent_field(tree, x):
    """Parent stored in x's record, 0 when x has none; nothing is drawn."""
    return (tree.links.get(x, 0) & tree.low) >> 1


def open_parents(tree, j):
    """Nodes below j whose front has not passed j, by brute force."""
    return [i for i in range(1, j) if front_of(tree, i) < j]


class TestNextChild:
    def test_fresh_three_point_law(self):
        # First child scan of node 2 with n = 4: stops at 3 with probability
        # 1/2, at 4 with 1/6, and runs off the end with 1/3.
        draws = 30_000
        counts = Counter()
        for s in range(draws):
            counts[LinkTree(4, seed=s).next_child(2)] += 1
        law = {3: Fraction(1, 2), 4: Fraction(1, 6), 5: Fraction(1, 3)}
        stat = sum((counts[v] - float(p) * draws) ** 2 / (float(p) * draws)
                   for v, p in law.items())
        assert chi2.sf(stat, 2) > 1e-6, dict(counts)

    def test_child_stream_monotone_and_absorbing(self):
        t = LinkTree(12, seed=9)
        answers = []
        r = t.next_child(4)
        answers.append(r)
        while r != 13:
            r = t.next_child(4)
            answers.append(r)
        assert answers == sorted(answers)
        assert len(set(answers)) == len(answers)
        spent = t.source.bits_consumed
        assert t.next_child(4) == 13
        assert t.next_child_from(4, 13) == 13
        assert t.source.bits_consumed == spent

    def test_revisit_known_children_is_free(self):
        t = LinkTree(10, seed=2)
        kids = []
        r = t.next_child(1)
        while r != 11:
            kids.append(r)
            r = t.next_child(1)
        spent = t.source.bits_consumed
        cursor = 1
        replay = []
        while True:
            nxt = t.next_child_from(1, cursor)
            if nxt == 11:
                break
            replay.append(nxt)
            cursor = nxt
        assert replay == kids
        assert t.source.bits_consumed == spent

    def test_front_advances_monotonically(self):
        t = LinkTree(15, seed=6)
        last = 0
        for _ in range(6):
            t.next_child(3)
            front = front_of(t, 3)
            assert front
            assert front > last or front == last == 16
            last = front

    def test_typed_rejects_unknown_flag_before_any_draw(self):
        t = LinkTree(2000, seed=1)
        with pytest.raises(ValueError, match="flag"):
            t.next_child_typed(1, 1, 2)
        assert (t.links, t.children.touched()) == ({1: 2}, ())
        assert len(t.index.skip) == 0 and t.source.bits_consumed == 0
        # The two ends of a stream that need no scan: a probe at n, and a
        # stream already read out.
        t = LinkTree(5, seed=0)
        with pytest.raises(ValueError, match="flag"):
            t.next_child_typed(1, 5, 2)
        assert t.source.bits_consumed == 0
        while t.next_child(1) <= 5:
            pass
        with pytest.raises(ValueError, match="flag"):
            t.next_child_typed(1, 1, 2)

    def test_typed_filters_by_flag(self):
        for seed in range(30):
            t = LinkTree(9, seed=seed)
            x = t.next_child_typed(2, 2, 1)
            while x <= 9:
                assert t.links[x] & 1 == 1
                x = t.next_child_typed(2, x, 1)


def brute_open_parent_count(tree, a):
    count = 0
    for i in range(1, a):
        if front_of(tree, i) < a:
            count += 1
    return count


def check_invariants(tree):
    tree.check_invariants()
    n = tree.n
    fronted = {j for j in range(1, n + 1) if front_of(tree, j)}
    assert set(tree.index.fronted_nodes) == fronted
    assert tree.links is tree.index.links
    owned = set()
    for j in fronted:
        f = front_of(tree, j)
        assert f > j
        if f <= n:
            assert parent_field(tree, f) == j
            assert front_of(tree, f)
            assert f not in owned
            owned.add(f)
        assert tree.links.get(j) is not None
    expected_skip = fronted - owned
    assert set(tree.index.skip_members) == expected_skip
    for a in range(2, n + 2):
        assert tree.index.open_parent_count(a) == brute_open_parent_count(tree, a)
    for j in range(1, n + 1):
        committed = tuple(x for x in range(2, n + 1) if parent_field(tree, x) == j)
        assert tree.children.members(j) == committed
    assert all(2 <= x <= n and 1 <= parent_field(tree, x) < x for x in tree.links if x != 1)
    assert tree.links[1] & tree.low == 1 << 1 | DIRECT


@pytest.mark.parametrize("n,seed,steps", [(8, 0, 60), (20, 1, 120), (50, 2, 200)])
def test_invariant_fuzz(n, seed, steps):
    rng = random.Random(seed)
    tree = LinkTree(n, seed=seed + 100)
    cursor = {}
    fields = {}   # node -> parent << 1 | flag, as first seen in its record
    for step in range(steps):
        j = rng.randrange(1, n + 1)
        op = rng.randrange(3)
        if op == 0:
            p, flag = tree.parent(j)
            assert (p, flag) == tree.parent(j)
            if j > 1:
                assert 1 <= p < j
        elif op == 1:
            k = cursor.get(j, j)
            r = tree.next_child_from(j, k)
            assert (k < r <= n + 1) or k == r == n + 1
            cursor[j] = min(r, n + 1)
        else:
            flag = rng.randrange(2)
            k = cursor.get(j, j)
            r = tree.next_child_typed(j, k, flag)
            assert (k < r <= n + 1) or k == r == n + 1
            if r <= n:
                assert tree.links[r] & 1 == flag
            cursor[j] = min(r, n + 1)
        # A later query moves fronts only: no record's parent or flag changes.
        for x, record in tree.links.items():
            assert fields.setdefault(x, record & tree.low) == record & tree.low, x
        if step % 7 == 0 or step == steps - 1:
            check_invariants(tree)


def full_tree_sweep(tree_like, n):
    """Commit everything: all parents, then each child stream to exhaustion."""
    links = {}
    flags = {}
    for j in range(2, n + 1):
        links[j], flags[j] = tree_like.parent(j)
    children = {}
    for j in range(1, n + 1):
        kids = []
        k = j
        while True:
            if isinstance(tree_like, NaiveLinkTree):
                k = tree_like.next_child(j, k)
            else:
                k = tree_like.next_child_from(j, k)
            if k == n + 1:
                break
            kids.append(k)
        children[j] = kids
    for j in range(1, n + 1):
        assert children[j] == [x for x in range(2, n + 1) if links.get(x) == j]
    return links, flags


@pytest.mark.parametrize("n,draws", [(4, 30_000)])
def test_full_joint_law_of_links_and_flags(n, draws):
    # The committed pairs must be independent uniform links and fair flags,
    # jointly, which pins the whole finite-dimensional law at this n.
    law = {}
    space = 1
    for j in range(2, n + 1):
        space *= 2 * (j - 1)
    counts = Counter()
    for s in range(draws):
        links, flags = full_tree_sweep(LinkTree(n, seed=s), n)
        key = tuple(links[j] for j in range(2, n + 1)) + \
              tuple(flags[j] for j in range(2, n + 1))
        counts[key] += 1
    import itertools
    for link_tup in itertools.product(*[range(1, j) for j in range(2, n + 1)]):
        for flag_tup in itertools.product((0, 1), repeat=n - 1):
            law[link_tup + flag_tup] = Fraction(1, space)
    p = chi_square_gof(counts, law, draws)
    assert p > 1e-6, p


def transcript(tree_like, n, schedule):
    out = []
    cursor = {}
    for op, j, *rest in schedule:
        if op == "p":
            out.append(tree_like.parent(j))
        elif op == "c":
            k = cursor.get(j, j)
            if isinstance(tree_like, NaiveLinkTree):
                r = tree_like.next_child(j, k)
            else:
                r = tree_like.next_child_from(j, k)
            cursor[j] = min(r, n + 1)
            out.append(r)
        else:
            k = cursor.get(j, j)
            r = tree_like.next_child_typed(j, k, rest[0])
            cursor[j] = min(r, n + 1)
            out.append(r)
    return tuple(out)


INTERLEAVED_SCHEDULES = [
    [("c", 1), ("p", 4), ("c", 2), ("c", 1), ("p", 5), ("c", 2), ("c", 3),
     ("c", 1), ("p", 2)],
    [("p", 5), ("c", 4), ("c", 1), ("c", 1), ("c", 1), ("t", 2, 0), ("c", 3),
     ("p", 3), ("c", 4)],
    [("t", 1, 1), ("t", 1, 0), ("c", 2), ("p", 4), ("t", 2, 1), ("c", 1),
     ("c", 5), ("c", 5), ("c", 5)],
]


@pytest.mark.parametrize("schedule", INTERLEAVED_SCHEDULES)
def test_efficient_matches_naive_on_interleavings(schedule):
    n = 5
    draws = 25_000
    eff = Counter(transcript(LinkTree(n, seed=s), n, schedule)
                  for s in range(draws))
    nai = Counter(transcript(NaiveLinkTree(n, seed=s + 7_000_000), n, schedule)
                  for s in range(draws))
    p = chi_square_two_sample(eff, nai)
    assert p > 1e-5, p


def test_naive_twin_matches_exact_laws():
    # Validates the oracle itself: a full naive sweep must produce uniform
    # independent links (recursive-tree law) whose copy-resolution follows
    # the attachment law.
    n = 4
    draws = 30_000
    link_counts = Counter()
    head_counts = Counter()
    for s in range(draws):
        links, flags = full_tree_sweep(NaiveLinkTree(n, seed=s), n)
        link_counts[tuple(links[j] for j in range(2, n + 1))] += 1
        heads = {1: 1}
        for j in range(2, n + 1):
            heads[j] = links[j] if flags[j] == 0 else heads[links[j]]
        head_counts[tuple(heads[j] for j in range(2, n + 1))] += 1
    assert chi_square_gof(link_counts, enumerate_exact("rrt", n), draws) > 1e-6
    assert chi_square_gof(head_counts, enumerate_exact("ba", n), draws) > 1e-6


@contextmanager
def hang_fails(seconds=10):
    """Turn a query that never returns into a test failure."""
    def expire(signum, frame):
        raise TimeoutError(f"no answer or error within {seconds} s")
    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


class MiscountingSkip(SortedBlocks):
    """Skip set whose select is off by ``shift`` ranks.

    A count of members at or below y that is ``shift`` too high would solve
    y - |members <= y| = rank for rank + ``shift``; the scan reads that
    count only through ``select_outside``.
    """

    shift = 0

    def select_outside(self, rank, start):
        return super().select_outside(rank + self.shift, start)


class TestBrokenState:
    """A contradiction inside the tree raises instead of spinning or answering."""

    @pytest.mark.parametrize("shift", [-1, 1])
    def test_scan_over_miscounting_skip_set_raises(self, shift):
        # One short, the select lands below the scan start, where a scan
        # would relink a node it has passed; one over, it lands at or past
        # the next child.  Both leave the scan's range [a, b).
        tree = LinkTree(30, seed=0)
        for j in range(1, 10):
            tree.next_child(j)
        skip = MiscountingSkip(tree.index.skip)
        skip.shift = shift
        tree.index.skip = skip
        with hang_fails(), pytest.raises(InternalConsistencyError, match="outside"):
            for j in range(1, 31):
                while tree.next_child(j) <= 30:
                    pass

    def test_parent_over_stale_skip_set_raises(self):
        # A front written into node 1's record behind the index's back
        # leaves the skip set short of a fronted node: the index still counts
        # node 1 as an open parent of 2, while its front says otherwise, so
        # all three draws are rejected and the select's answer is not an
        # open parent.
        tree = LinkTree(3, seed=0)
        tree.links[1] = 4 << tree.shift | 1 << 1 | DIRECT
        with hang_fails(), pytest.raises(InternalConsistencyError, match="skip set"):
            tree.parent(2)

    def test_scan_onto_front_the_index_never_saw_raises(self):
        # A front written into node 5's record behind the index's back makes
        # 5 look fronted but leaves it out of the skip set: the scan that
        # reaches 5 as its parent's next child must take 5 out of a skip set
        # it never joined.
        tree = LinkTree(30, seed=0)
        tree.parent(5)
        tree.links[5] |= 31 << tree.shift
        with hang_fails(), pytest.raises(InternalConsistencyError, match="not in the index"):
            for j in range(1, 31):
                while tree.next_child(j) <= 30:
                    pass

    def test_owned_node_without_front_raises(self):
        # Deleting an owned node's front makes it look like a chain's head,
        # while its parent's front still names it: the invariant check sees
        # an owned node without a front, and a scan of it finds the chain's
        # ownership flag disagreeing with the links.
        tree = LinkTree(30, seed=0)
        for j in range(1, 10):
            tree.next_child(j)
        owned = min(f for f in (front_of(tree, j) for j in tree.index.fronted_nodes) if f <= 30)
        tree.links[owned] &= tree.low
        with pytest.raises(InternalConsistencyError, match="without a front"):
            tree.check_invariants()
        with hang_fails(), pytest.raises(InternalConsistencyError, match="out of sync"):
            tree.next_child(owned)

    def test_node_one_record_not_a_root_raises(self):
        # Node 1's record, made with the tree, holds parent 1 and DIRECT,
        # and it is no child; a COPY flag written into it is caught.
        tree = LinkTree(30, seed=0)
        tree.next_child(1)
        tree.check_invariants()
        tree.links[1] |= COPY
        with pytest.raises(InternalConsistencyError, match="node 1"):
            tree.check_invariants()

    def test_child_dropped_from_its_list_raises(self):
        # The dropped child's link still names its parent, so the lists now
        # hold one child fewer than there are links.
        tree = LinkTree(30, seed=0)
        for j in range(1, 10):
            tree.next_child(j)
        j = next(j for j in tree.children.touched() if len(tree.children.members(j)) > 1)
        tree.children._sets[j].remove(tree.children.members(j)[-1])
        with pytest.raises(InternalConsistencyError, match="children for"):
            tree.check_invariants()


def test_broken_state_raises_without_asserts():
    # ``python -O`` strips assert statements; every scenario above must still
    # end in InternalConsistencyError.
    here = Path(__file__).resolve()
    src = str(here.parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH")))))
    proc = subprocess.run(
        [sys.executable, "-O", "-m", "pytest", "-q", "-p", "no:cacheprovider",
         f"{here}::TestBrokenState"],
        cwd=here.parents[1], env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr


def test_front_chain_needs_no_stack():
    # Exhausting the streams of a prefix of a huge tree fronts chains of
    # fresh targets 27 long; each scan must not take a stack frame per link.
    code = """if True:
        import sys
        from flygraph import RRTGenerator
        g = RRTGenerator(10**9, seed=1)
        sys.setrecursionlimit(45)
        for j in range(1, 201):
            while g.next_neighbor(j) <= g.n:
                pass
        print(g.tree.max_recursion_depth)
    """
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH")))))
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert int(proc.stdout) >= 20


@pytest.mark.parametrize("n", [6, 15, 40])
def test_typed_walk_matches_probe_by_probe(n):
    # The one-pass typed walk must commit exactly what a walk of one-child
    # probes does (a known child up to the front, else one scan, stopping at
    # n): same answers, bits, links and fronts.
    def probe_by_probe(tree, j, k, flag):
        x = k
        while x < n:
            front, q = front_of(tree, j), tree.children.successor(j, x)
            x = q if front and q <= front else tree.next_child(j)
            if x > n or flag is None or tree.links[x] & 1 == flag:
                return x
        return n + 1

    for seed in range(40):
        rng = random.Random(seed)
        one, ref = LinkTree(n, seed=seed), LinkTree(n, seed=seed)
        cursor = {}
        for _ in range(4 * n):
            j, flag = rng.randrange(1, n + 1), rng.choice((0, 1, None))
            if rng.random() < 0.2:
                assert one.parent(j) == ref.parent(j)
                continue
            k = cursor.get((j, flag), j)
            r = one.next_child_typed(j, k, flag)
            assert r == probe_by_probe(ref, j, k, flag)
            cursor[j, flag] = min(r, n + 1)
        assert one.source.bits_consumed == ref.source.bits_consumed
        assert one.links == ref.links


def test_determinism_bit_for_bit():
    n = 30
    ops = [("c", 3), ("p", 17), ("c", 3), ("t", 5, 1), ("c", 9), ("p", 30)]
    a = LinkTree(n, seed=12)
    b = LinkTree(n, seed=12)
    assert transcript(a, n, ops) == transcript(b, n, ops)
    assert a.source.bits_consumed == b.source.bits_consumed
    assert a.stored_cells() == b.stored_cells()


def test_sparse_cost_on_large_instance():
    n = 1_000_000
    t = LinkTree(n, seed=5)
    for j in (2, 500_000, 999_999, 123_456):
        t.parent(j)
        t.next_child(j)
    assert t.stored_cells() < 2_000
    assert t.source.bits_consumed < 40_000
    assert t.scan_loop_max <= 64
    assert t.max_recursion_depth <= 64


@pytest.mark.parametrize("seed", range(4))
def test_rrt_names_read_the_link_tree(seed):
    facade, twin = LinkTree(30, seed), LinkTree(30, seed)
    assert facade.parent(1) == (1, DIRECT) and facade.source.bits_consumed == 0
    facade.check_invariants()
    for j in range(1, 31):
        assert facade.rrt_parent(j) == twin.parent(j)[0]
        k = j
        while k <= 30:
            x = facade.rrt_next_child(j, k)
            assert x == twin.next_child_from(j, k)
            k = x
    assert facade.source.bits_consumed == twin.source.bits_consumed
    assert facade.links == twin.links
    facade.check_invariants()


class TestRRTGenerator:
    def test_stream_contract(self):
        g = RRTGenerator(10, seed=3)
        first = g.next_neighbor(4)
        assert 1 <= first < 4
        answers = []
        r = 0
        while r != 11:
            r = g.next_neighbor(4)
            answers.append(r)
        assert answers == sorted(answers)
        assert all(a > 4 for a in answers)
        spent = g.bits_consumed
        assert g.next_neighbor(4) == 11
        assert g.bits_consumed == spent

    def test_small_law(self):
        draws = 25_000
        counts = Counter()
        for s in range(draws):
            g = RRTGenerator(4, seed=s)
            counts[tuple(g.parent(j) for j in (2, 3, 4))] += 1
        assert chi_square_gof(counts, enumerate_exact("rrt", 4), draws) > 1e-6

    def test_validation(self):
        # A rejected call stores nothing, not even a cursor.
        g = RRTGenerator(5, seed=0)
        g.next_neighbor(3)
        cells, bits = g.stored_cells(), g.bits_consumed
        for j in (0, 6, 3.0, "3"):
            with pytest.raises(ValueError, match="outside"):
                g.next_neighbor(j)
            assert (g.stored_cells(), g.bits_consumed) == (cells, bits)
