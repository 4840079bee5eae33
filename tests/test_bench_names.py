"""The package names the benchmark under ``bench/`` wraps and reads.

``bench/layertrace.py`` wraps query-path methods by name, and
``bench/run.py`` reads index and generator state after every round.  A
rename in the package breaks both only when the benchmark runs; these tests
break at once.  They need numpy, as the benchmark does.
"""

import importlib
from pathlib import Path

import pytest

from flygraph import BAGenerator, RRTGenerator

pytest.importorskip("numpy")

BENCH = str(Path(__file__).resolve().parents[1] / "bench")


@pytest.fixture
def layertrace(monkeypatch):
    monkeypatch.syspath_prepend(BENCH)
    return importlib.import_module("layertrace")


def test_tracer_wraps_every_target(layertrace):
    gen = BAGenerator(1000, seed=1)
    tracer = layertrace.Tracer()
    tracer.source = gen.tree.source
    originals = [vars(owner)[attr] for _, owner, attr in layertrace.TARGETS]
    with tracer.installed():
        for j in (3, 3, 7, 7, 7):
            gen.next_neighbor(j)
    assert len(tracer.names) > 0
    assert [vars(owner)[attr] for _, owner, attr in layertrace.TARGETS] == originals


@pytest.mark.parametrize("make", [BAGenerator, RRTGenerator])
def test_round_state_fields(make):
    gen = make(1000, seed=1)
    for j in (3, 3, 7, 7, 7, 1, 1):
        gen.next_neighbor(j)
    tree = gen.tree
    assert len(tree.index.fronted_nodes) >= 1
    assert len(tree.index.skip_members) <= len(tree.index.fronted_nodes)
    assert gen.stored_cells() >= tree.stored_cells() > 0
    assert tree.source.bits_consumed == gen.bits_consumed
