"""Candidate index against a brute-force recomputing oracle."""

import random
from bisect import bisect_left, bisect_right, insort

import pytest

from flygraph import InternalConsistencyError
from flygraph import ranks
from flygraph.ranks import CandidateIndex, SortedBlocks


class FrontOracle:
    """Recomputes every index query from plain front and owner dicts.

    The index counts right only at rest, when every owned node has a front,
    so queries are compared only after ``advance_cascading`` or a script
    that fronts each fresh target in turn.
    """

    def __init__(self, n):
        self.n = n
        self.fronts = {}
        self.owner = {}

    def advance(self, index, j, new):
        old = self.fronts.get(j)
        has_owner = j in self.owner
        if old is not None and old <= self.n:
            assert self.owner.pop(old) == j
        if new <= self.n:
            assert new not in self.owner
            self.owner[new] = j
        self.fronts[j] = new
        index.on_front_advance(j, old, new, has_owner)

    def open_parent_count(self, a):
        return sum(1 for i in range(1, a)
                   if self.fronts.get(i) is None or self.fronts[i] < a)

    def skip(self):
        return {i for i in self.fronts if i not in self.owner}

    def unskipped(self):
        s = self.skip()
        return [x for x in range(1, self.n + 2) if x not in s]

    def legal_moves(self, j=None):
        moves = []
        nodes = range(1, self.n + 1) if j is None else (j,)
        for i in nodes:
            low = max(i, self.fronts.get(i, 0))
            for new in range(low + 1, self.n + 2):
                if new > self.n or new not in self.owner:
                    moves.append((i, new))
        return moves

    def at_rest(self):
        return all(x in self.fronts for x in self.owner)

    def advance_cascading(self, index, j, new, rng):
        """Advance and restore the invariant that owned targets are fronted,
        the way the real sampler's chain loop does."""
        self.advance(index, j, new)
        if new <= self.n and new not in self.fronts:
            self.advance_cascading(index, new, rng.choice(self.legal_moves(new))[1], rng)


def check_all_queries(index, oracle):
    assert oracle.at_rest()
    n = oracle.n
    for a in range(2, n + 2):
        assert index.open_parent_count(a) == oracle.open_parent_count(a), a
    un = oracle.unskipped()
    for s in range(len(un)):
        assert index.unskipped_select(s) == un[s], s
    with pytest.raises(IndexError):
        index.unskipped_select(len(un))
    with pytest.raises(IndexError):
        index.unskipped_select(-1)
    for a in range(1, n + 2):
        rank = sum(1 for x in un if x < a)
        assert index.unskipped_rank(a) == rank, a
        tail = [x for x in un if x >= a]
        for h in range(len(tail)):
            assert index.unskipped_after(a, h) == tail[h], (a, h)
    for a in range(1, n + 2):
        for b in range(a, n + 2):
            assert index.unskipped_count(a, b) == sum(1 for x in un if a <= x < b)
    assert set(index.skip_members) == oracle.skip()
    assert set(index.fronted_nodes) == set(oracle.fronts)
    assert index.fronts == oracle.fronts


def test_fresh_index_counts():
    n = 9
    index = CandidateIndex(n)
    oracle = FrontOracle(n)
    check_all_queries(index, oracle)
    assert index.open_parent_count(5) == 4
    assert index.unskipped_select(0) == 1
    assert index.unskipped_after(3, 2) == 5


def test_worked_blocking_examples():
    # The chain 2 -> 7 -> 10 blocks 5 through its link 2 -> 7 ...
    index = CandidateIndex(9)
    oracle = FrontOracle(9)
    oracle.advance(index, 2, 7)
    oracle.advance(index, 7, 10)
    assert index.open_parent_count(5) == 3
    assert index.open_parent_count(8) == 6
    check_all_queries(index, oracle)

    # ... and 2 -> 3 -> 10 through 3 -> 10, which also blocks 4 but not 3.
    index = CandidateIndex(9)
    oracle = FrontOracle(9)
    oracle.advance(index, 2, 3)
    oracle.advance(index, 3, 10)
    assert index.open_parent_count(5) == 3
    assert index.open_parent_count(4) == 2
    assert index.open_parent_count(3) == 1
    check_all_queries(index, oracle)


def test_skip_set_membership_tracks_owners():
    n = 9
    index = CandidateIndex(n)
    oracle = FrontOracle(n)
    oracle.advance(index, 3, 10)
    assert 3 in index.skip_members
    oracle.advance(index, 1, 3)
    assert 1 in index.skip_members
    assert 3 not in index.skip_members
    oracle.advance(index, 1, 10)
    assert 3 in index.skip_members
    check_all_queries(index, oracle)


def test_skip_neighbors_differ_by_membership():
    n = 9
    index = CandidateIndex(n)
    oracle = FrontOracle(n)
    oracle.advance(index, 3, 10)
    oracle.advance(index, 5, 10)
    assert oracle.skip() == {3, 5}
    assert index.unskipped_select(2) == 4
    assert index.unskipped_select(0) == 1
    assert index.unskipped_select(3) == 6
    check_all_queries(index, oracle)


def test_old_target_without_front_raises():
    # 4 is owned but not fronted yet; moving past it breaks the chain.
    index = CandidateIndex(5)
    index.on_front_advance(2, None, 4, False)
    with pytest.raises(InternalConsistencyError, match="has no front"):
        index.on_front_advance(2, 4, 5, False)


def test_consecutive_rank_gap_matches_skip_membership():
    n = 8
    index = CandidateIndex(n)
    oracle = FrontOracle(n)
    rng = random.Random(4)
    for _ in range(12):
        moves = oracle.legal_moves()
        if not moves:
            break
        j, new = rng.choice(moves)
        oracle.advance_cascading(index, j, new, rng)
    for x in range(1, n + 1):
        gap = index.unskipped_rank(x + 1) - index.unskipped_rank(x)
        assert gap == (0 if x in oracle.skip() else 1)


@pytest.mark.parametrize("n,seed,steps", [(6, 1, 40), (9, 2, 80), (13, 3, 160),
                                          (20, 4, 300), (7, 5, 60)])
def test_randomized_advance_sequences(n, seed, steps):
    rng = random.Random(seed)
    index = CandidateIndex(n)
    oracle = FrontOracle(n)
    check_all_queries(index, oracle)
    for _ in range(steps):
        moves = oracle.legal_moves()
        if not moves:
            break
        j, new = rng.choice(moves)
        oracle.advance_cascading(index, j, new, rng)
        check_all_queries(index, oracle)


def select_outside_brute(plain, rank):
    """Least y with y - |plain <= y| == rank, by trying each count k of
    members at or below it in turn."""
    for k in range(len(plain) + 1):
        if bisect_right(plain, rank + k) == k:
            return rank + k


def check_blocks(blocks, plain, probes, select_ranks=None, starts=None):
    """Compare every query with the plain sorted list.

    The select is checked at each rank in ``select_ranks`` (by default every
    rank from 1 whose answer lies within the probes) from each start that
    ``starts(answer)`` gives (by default every start from 1 to the answer).
    """
    assert list(blocks) == plain and len(blocks) == len(plain)
    for v in probes:
        assert blocks.bisect_left(v) == bisect_left(plain, v), v
    if select_ranks is None:
        select_ranks = range(1, max(probes) - bisect_right(plain, max(probes)) + 1)
    for r in select_ranks:
        answer = select_outside_brute(plain, r)
        for x in (range(1, answer + 1) if starts is None else starts(answer)):
            assert blocks.select_outside(r, x) == answer, (r, x)


def block_edge_starts(blocks):
    """Starts at 1, around each block's ends and just below the answer."""
    edges = [1]
    for block in blocks._lists:
        edges += (block[0] - 1, block[0], block[-1], block[-1] + 1)
    return lambda answer: [x for x in edges if 1 <= x <= answer] + [answer - 1, answer]


@pytest.mark.parametrize("seed", range(6))
def test_sorted_blocks_match_a_sorted_list(monkeypatch, seed):
    # Blocks of 4 split after 9 members, so a few dozen adds split often,
    # and removals drain whole blocks; every probe from below the least
    # member to above the greatest is checked after each edit.
    monkeypatch.setattr(ranks, "BLOCK_LOAD", 4)
    rng = random.Random(seed)
    plain = sorted(rng.sample(range(60), 10))
    blocks = SortedBlocks(plain)
    probes = range(-2, 63)
    check_blocks(blocks, plain, probes)
    splits = empties = 0
    for step in range(600):
        before = len(blocks._lists)
        grow = step % 200 < 120
        if plain and (not grow or rng.random() < 0.3):
            v = rng.choice(plain)
            plain.remove(v)
            blocks.remove(v)
        else:
            v = rng.randrange(60)
            if v in plain:
                continue
            insort(plain, v)
            blocks.add(v)
        splits += len(blocks._lists) > before
        empties += len(blocks._lists) < before
        check_blocks(blocks, plain, probes)
    assert splits >= 3 and empties >= 1
    with pytest.raises(InternalConsistencyError):
        blocks.remove(60)


def test_sorted_blocks_at_full_load():
    rng = random.Random(7)
    values = rng.sample(range(10**6), 5 * ranks.BLOCK_LOAD)
    blocks, plain = SortedBlocks(), []
    for v in values:
        blocks.add(v)
        insort(plain, v)
    assert len(blocks._lists) > 3
    probes = [-1, 10**6] + rng.sample(range(10**6), 200) + plain[::97]
    sample = [v - bisect_right(plain, v) for v in probes if v >= 1]
    check_blocks(blocks, plain, probes, sample, block_edge_starts(blocks))
    for v in values[: 4 * ranks.BLOCK_LOAD]:
        blocks.remove(v)
        plain.remove(v)
    check_blocks(blocks, plain, probes, sample, block_edge_starts(blocks))


def test_select_outside_crosses_block_boundaries(monkeypatch):
    # The answer 40 lies past the start's block [10, 20, 30, 36] and past
    # the whole next block [38, 39]: stopping at the end of the start's
    # block gives the member 38.
    monkeypatch.setattr(ranks, "BLOCK_LOAD", 4)
    blocks = SortedBlocks([10, 20, 30, 36, 38, 39])
    assert blocks._lists == [[10, 20, 30, 36], [38, 39]]
    assert [blocks.select_outside(34, x) for x in (1, 31, 36, 37, 40)] == [40] * 5
    # Every member of a run of 100,000 lies below the answer; a search
    # that ends at the first block's end gives 1,002.
    monkeypatch.setattr(ranks, "BLOCK_LOAD", 1000)
    blocks = SortedBlocks(range(1, 100_001))
    assert [blocks.select_outside(2, x) for x in (1, 2, 1000, 99_999)] == [100_002] * 4
    assert blocks.select_outside(1, 100_001) == 100_001


def test_select_past_a_long_run_makes_few_bisections(monkeypatch):
    # 100,000 consecutive skip members: a fixpoint select steps past them
    # one member at a time, 200,000 bisections; this one makes a few.
    n = 200_000
    index = CandidateIndex(n)
    for i in range(1, 100_001):
        index.on_front_advance(i, None, n + 1, False)
    calls = []

    def counted(bisect):
        def wrapper(*args):
            calls.append(bisect)
            return bisect(*args)
        return wrapper

    monkeypatch.setattr(ranks, "bisect_left", counted(bisect_left))
    monkeypatch.setattr(ranks, "bisect_right", counted(bisect_right))
    assert index.unskipped_select(0) == 100_001
    assert index.unskipped_select(5) == 100_006
    assert len(calls) <= 64
