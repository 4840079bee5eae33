"""Distribution checks, degree summaries, and stream reconstruction."""

from fractions import Fraction

import pytest

from flygraph import (GraphSample, InternalConsistencyError, chi_square_gof,
                      chi_square_two_sample, degree_stats, empirical_law,
                      reconstruct_via_sweep, tree_metrics, tv_distance)


class TestTvDistance:
    def test_exact_fraction_arithmetic(self):
        a = {"x": Fraction(1, 2), "y": Fraction(1, 2)}
        b = {"x": Fraction(1, 3), "z": Fraction(2, 3)}
        assert tv_distance(a, b) == Fraction(2, 3)
        assert tv_distance(a, a) == 0
        assert tv_distance(a, b) == tv_distance(b, a)

    def test_disjoint_supports(self):
        assert tv_distance({"x": Fraction(1)}, {"y": Fraction(1)}) == 1


def test_empirical_law():
    law = empirical_law({"a": 3, "b": 1}, 4)
    assert law == {"a": Fraction(3, 4), "b": Fraction(1, 4)}
    with pytest.raises(ValueError):
        empirical_law({}, 0)


class TestChiSquareGof:
    def test_impossible_outcome_is_hard_fail(self):
        law = {"a": Fraction(1, 2), "b": Fraction(1, 2)}
        assert chi_square_gof({"a": 5, "c": 1}, law, 6) == 0.0

    def test_single_cell_rejected(self):
        with pytest.raises(ValueError):
            chi_square_gof({"a": 4}, {"a": Fraction(1)}, 4)

    def test_balanced_counts_score_well(self):
        law = {i: Fraction(1, 4) for i in range(4)}
        counts = {0: 250, 1: 248, 2: 255, 3: 247}
        assert chi_square_gof(counts, law, 1000) > 0.5

    def test_skewed_counts_score_poorly(self):
        law = {i: Fraction(1, 4) for i in range(4)}
        counts = {0: 700, 1: 100, 2: 100, 3: 100}
        assert chi_square_gof(counts, law, 1000) < 1e-10

    def test_small_cells_are_merged(self):
        law = {0: Fraction(99, 100)}
        law.update({i: Fraction(1, 900) for i in range(1, 10)})
        counts = {0: 990, 1: 2, 2: 1, 3: 1, 5: 3, 7: 2, 9: 1}
        p = chi_square_gof(counts, law, 1000)
        assert 0 < p <= 1


class TestChiSquareTwoSample:
    def test_identical_counts(self):
        a = {0: 500, 1: 300, 2: 200}
        assert chi_square_two_sample(a, dict(a)) > 0.99

    def test_disparate_counts(self):
        a = {0: 900, 1: 100}
        b = {0: 100, 1: 900}
        assert chi_square_two_sample(a, b) < 1e-10

    def test_empty_sample_rejected(self):
        with pytest.raises(ValueError):
            chi_square_two_sample({}, {0: 5})


class TestDegreeStats:
    def test_two_node_attachment(self):
        stats = degree_stats(GraphSample("ba", 2, (0, 1, 1)))
        assert stats["degree"][1:] == [3, 1]

    def test_recursive_tree_has_no_self_loop(self):
        stats = degree_stats(GraphSample("rrt", 3, (0, 1, 1, 2)))
        assert stats["degree"][1:] == [1, 2, 1]


class TestTreeMetrics:
    def test_star(self):
        m = tree_metrics(GraphSample("rrt", 5, (0, 1, 1, 1, 1, 1)))
        assert m["height"] == 1
        assert m["max_fan_out"] == 4

    def test_path(self):
        m = tree_metrics(GraphSample("rrt", 5, (0, 1, 1, 2, 3, 4)))
        assert m["height"] == 4
        assert m["max_fan_out"] == 1

    def test_single_node(self):
        m = tree_metrics(GraphSample("rrt", 1, (0, 1)))
        assert m["height"] == 0
        assert m["max_fan_out"] == 0

    def test_forward_parent_rejected(self):
        with pytest.raises(InternalConsistencyError):
            tree_metrics(GraphSample("ba", 3, (0, 1, 1, 3)))


class Scripted:
    """Plays back a fixed answer list per node."""

    def __init__(self, n, answers):
        self.n = n
        self._answers = {j: list(v) for j, v in answers.items()}

    def next_neighbor(self, j):
        return self._answers[j].pop(0)


class TestReconstruct:
    GOOD = {1: [1, 2, 4], 2: [1, 3, 4], 3: [2, 4]}

    def test_valid_stream_reconstructs(self):
        sample = reconstruct_via_sweep(Scripted(3, self.GOOD), "ba")
        assert sample.parents == (0, 1, 1, 2)

    def test_roundrobin_schedule(self):
        sample = reconstruct_via_sweep(Scripted(3, self.GOOD), "ba",
                                       "roundrobin")
        assert sample.parents == (0, 1, 1, 2)

    def test_unknown_schedule(self):
        with pytest.raises(ValueError):
            reconstruct_via_sweep(Scripted(3, self.GOOD), "ba", "zigzag")

    def test_parent_not_earlier(self):
        bad = {1: [1, 4], 2: [2, 4], 3: [1, 4]}
        with pytest.raises(InternalConsistencyError):
            reconstruct_via_sweep(Scripted(3, bad), "ba")

    def test_wrong_root_answer(self):
        bad = {1: [2, 4], 2: [1, 4], 3: [1, 4]}
        with pytest.raises(InternalConsistencyError):
            reconstruct_via_sweep(Scripted(3, bad), "ba")

    def test_children_must_increase(self):
        bad = {1: [1, 3, 2, 4], 2: [1, 4], 3: [1, 4]}
        with pytest.raises(InternalConsistencyError):
            reconstruct_via_sweep(Scripted(3, bad), "ba")

    def test_streams_must_match_parents(self):
        bad = {1: [1, 4], 2: [1, 3, 4], 3: [1, 4]}
        with pytest.raises(InternalConsistencyError):
            reconstruct_via_sweep(Scripted(3, bad), "ba")

    def test_runaway_stream_caught(self):
        class Stuck:
            n = 3

            def next_neighbor(self, j):
                return min(j + 1, 3)

        with pytest.raises(InternalConsistencyError):
            reconstruct_via_sweep(Stuck(), "ba")
