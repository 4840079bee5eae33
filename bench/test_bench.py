"""Self-checks of the benchmark at small sizes.

Run from the repository root with ``python3 -m pytest bench -q``.
"""

import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import run  # noqa: E402
from layertrace import TARGETS, Tracer  # noqa: E402
from workloads import WORKLOADS, Recorder, check_instance  # noqa: E402

SMALL = {
    "ba-random": {"queries": 300},
    "ba-full": {"graphs": 1},
    "rrt-adaptive": {"prefix": 5, "tail": 300},
}


@pytest.mark.parametrize("name", sorted(SMALL))
def test_same_seed_repeats_counts_exactly(name):
    workload = WORKLOADS[name]
    first = run.play_round(workload, workload.inputs(7, **SMALL[name]))
    second = run.play_round(workload, workload.inputs(7, **SMALL[name]))
    other = run.play_round(workload, workload.inputs(8, **SMALL[name]))
    assert first.failed == second.failed == 0
    assert first.counts == second.counts
    assert first.counts.digest != other.counts.digest


@pytest.mark.parametrize("name", sorted(SMALL))
def test_tracing_changes_no_answer_and_fills_every_layer_metric(name):
    workload = WORKLOADS[name]
    inputs = workload.inputs(3, **SMALL[name])
    plain = run.play_round(workload, inputs)
    traced = run.play_round(workload, inputs, Tracer())
    assert traced.counts == plain.counts and traced.failed == 0
    metrics = run.per_layer([plain], [traced])
    assert set(run.PER_LAYER_UNITS) <= set(metrics)
    assert metrics["sampler.calls_per_query"] > 0
    assert (metrics["bagen.next_neighbor.self_share"] > 0) == (workload.model == "ba")
    for _, owner, attr in TARGETS:
        assert not getattr(getattr(owner, attr), "__name__", "") == "traced"


def test_check_flags_a_wrong_answer():
    workload = WORKLOADS["ba-full"]
    rec = Recorder()
    instances = workload.play(workload.inputs(5, graphs=1), rec)
    assert check_instance(instances[0], rec) == set()
    node, ans = rec.node, rec.ans
    # A child answer moved into the gap before the stream's next child.
    child = next(i for i in range(len(ans) - 1)
                 if node[i] == node[i + 1] and node[i] < ans[i]
                 and ans[i] + 1 < ans[i + 1] <= workload.n)
    ans[child] += 1
    assert child in check_instance(instances[0], rec)


def test_missing_program_exits_without_result(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(run, "SRC", tmp_path / "src")
    assert run.main(["--workload", "ba-full", "--seed", "1", "--seconds", "1"]) == 2
    assert capsys.readouterr().out == ""
