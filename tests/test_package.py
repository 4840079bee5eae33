"""The package surface: what ``import flygraph`` loads, and what it exports."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import flygraph

SRC = str(Path(__file__).resolve().parents[1] / "src")


def run_python(code: str) -> str:
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (SRC, os.environ.get("PYTHONPATH")))))
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_import_loads_only_the_query_path():
    out = run_python(
        "import sys, flygraph\n"
        "flygraph.BAGenerator(1000, seed=1).next_neighbor(1)\n"
        "print(sorted(m for m in sys.modules\n"
        "             if m.startswith(('flygraph', 'sortedcontainers'))))\n"
        "print(sorted(m for m, mod in list(sys.modules.items())\n"
        "             if m.startswith('flygraph') and 'NaiveLinkTree' in vars(mod)))\n")
    loaded, oracle_holders = map(eval, out.splitlines())
    assert "flygraph.batch" not in loaded and "flygraph.stats" not in loaded
    assert "flygraph.invariants" not in loaded
    assert "flygraph.bagen" in loaded and "flygraph.linktree" in loaded
    assert not any(m.startswith("sortedcontainers") for m in loaded)
    # The test oracle NaiveLinkTree is defined in no module loaded so far.
    assert oracle_holders == []


def test_star_import_binds_every_export():
    out = run_python(
        "import flygraph\n"
        "from flygraph import *\n"
        "from flygraph import batch, stats\n"
        "names = flygraph.__all__\n"
        "missing = [n for n in names if n not in globals()]\n"
        "same = all(globals()[n] is getattr(flygraph, n) for n in names)\n"
        "print(missing, same, batch_ba is batch.batch_ba, tv_distance is stats.tv_distance)\n")
    assert out.split() == ["[]", "True", "True", "True"]


def test_internal_structures_stay_in_their_modules():
    from flygraph import ranks, sparse
    for name, module in (("CandidateIndex", ranks), ("ChildSets", sparse),
                         ("LazyMap", sparse)):
        assert name not in flygraph.__all__
        assert not hasattr(flygraph, name)
        assert hasattr(module, name)


def test_lazy_names_resolve_once_and_unknown_names_fail():
    from flygraph import batch
    assert flygraph.enumerate_exact is batch.enumerate_exact
    assert "enumerate_exact" in vars(flygraph)
    with pytest.raises(AttributeError, match="no_such_name"):
        flygraph.no_such_name
    with pytest.raises(ImportError):
        from flygraph import no_such_name  # noqa: F401
