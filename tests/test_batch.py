"""Batch samplers and exact enumeration."""

import hashlib
import json
from collections import Counter
from fractions import Fraction

import pytest

from flygraph import (BATCH_SAMPLERS, GraphSample, batch_ba, batch_rrt,
                      batch_z, chi_square_gof, enumerate_exact)


def test_attachment_and_copying_laws_coincide_exactly():
    for n in range(2, 9):
        assert enumerate_exact("ba", n) == enumerate_exact("z", n)


@pytest.mark.parametrize("model, digest", [
    ("ba", "ddd764c28d86e86b97eee4da092354cc"),
    ("z", "ddd764c28d86e86b97eee4da092354cc"),
    ("rrt", "cbf8f109e035c1ff5d9c0d135cf8aa87"),
])
def test_eight_node_law_digest(model, digest):
    h = hashlib.blake2b(digest_size=16)
    for outcome, p in sorted(enumerate_exact(model, 8).items()):
        h.update(f"{outcome} {p.numerator}/{p.denominator};".encode())
    assert h.hexdigest() == digest


def test_laws_sum_to_one():
    for model in ("ba", "z", "rrt"):
        for n in (1, 2, 4, 6):
            assert sum(enumerate_exact(model, n).values()) == Fraction(1)


def test_known_three_node_law():
    law = enumerate_exact("ba", 3)
    assert law == {(1, 1): Fraction(3, 4), (1, 2): Fraction(1, 4)}
    assert enumerate_exact("rrt", 3) == {
        (1, 1): Fraction(1, 2), (1, 2): Fraction(1, 2)}


def test_enumeration_bounds():
    with pytest.raises(ValueError):
        enumerate_exact("ba", 9)
    with pytest.raises(ValueError):
        enumerate_exact("ba", 0)
    with pytest.raises(ValueError):
        enumerate_exact("nope", 3)


@pytest.mark.parametrize("model", ["ba", "z", "rrt"])
def test_batch_sampler_matches_exact_law(model):
    n, draws = 5, 40_000
    law = enumerate_exact(model, n)
    counts = Counter(BATCH_SAMPLERS[model](n, seed=s).outcome()
                     for s in range(draws))
    assert chi_square_gof(counts, law, draws) > 1e-6


@pytest.mark.parametrize("sampler", [batch_ba, batch_z, batch_rrt])
def test_sample_shape_and_determinism(sampler):
    s1 = sampler(12, seed=3)
    s2 = sampler(12, seed=3)
    s3 = sampler(12, seed=4)
    assert s1 == s2
    assert s1 != s3
    assert len(s1.parents) == 13
    assert s1.parents[0] == 0
    assert s1.parents[1] == 1
    for j in range(2, 13):
        assert 1 <= s1.parents[j] < j


def test_batch_rejects_nonpositive_n():
    for sampler in (batch_ba, batch_z, batch_rrt):
        with pytest.raises(ValueError):
            sampler(0)


def test_edge_lines_and_json():
    sample = GraphSample("ba", 3, (0, 1, 1, 2))
    assert sample.edge_lines() == ["1 1", "2 1", "3 2"]
    assert sample.outcome() == (1, 2)
    blob = json.loads(sample.to_json())
    assert blob == {"model": "ba", "n": 3, "parents": [1, 1, 2]}
    rrt = GraphSample("rrt", 3, (0, 1, 1, 2))
    assert rrt.edge_lines() == ["2 1", "3 2"]


def test_single_node_batches():
    for sampler in (batch_ba, batch_z, batch_rrt):
        s = sampler(1, seed=9)
        assert s.parents == (0, 1)
        assert s.outcome() == ()
