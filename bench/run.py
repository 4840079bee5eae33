"""Benchmark of flygraph's lazy samplers: the cost of one adjacency query.

Run from the repository root:

    python3 bench/run.py --workload ba-random --seed 1 --seconds 30 --trace 0

The program is imported from ``src/`` beside this directory; without it the
benchmark exits with code 2 and prints no result.  One client drives
``BAGenerator`` or ``RRTGenerator`` through the public API in a closed loop,
timing each query with ``perf_counter_ns``, and plays rounds of fixed work
(see ``workloads.py``) until ``--seconds`` are spent.  Every answer is
checked after its round, outside the timed region, and every round must
repeat the first one's transcript digest and counts exactly.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` spends half the
time untraced and half with every public function on the query path wrapped
(see ``layertrace.py``), and reports per-layer metrics plus the tracing
overhead.  Human-readable lines come first; the last line of standard output
is one JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter
from typing import NamedTuple

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# Import plus generator construction, timed in a fresh interpreter.
SETUP_PROBE = """\
import sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import flygraph
getattr(flygraph, sys.argv[2])(int(sys.argv[3]), seed=int(sys.argv[4]))
print(time.perf_counter() - t0)
"""
SETUP_REPEATS = 5

END_TO_END_UNITS = {
    "query_us_p50": "us", "query_us_p99": "us", "queries_per_s": "1/s",
    "bits_per_query": "bits", "bits_per_query_p999": "bits",
    "cells_per_query": "cells", "peak_rss_mb": "MB", "setup_s": "s",
}
PER_LAYER_UNITS = {
    "ranks.self_ms": "ms", "ranks.open_parent_count.self_ms": "ms",
    "ranks.unskipped_after.self_ms": "ms", "ranks.on_front_advance.self_ms": "ms",
    "ranks.calls_per_query": "calls/query", "ranks.fronted": "count",
    "ranks.skip": "count",
    "sampler.self_ms": "ms", "sampler.calls_per_query": "calls/query",
    "sampler.bits_per_call": "bits/call", "sampler.refills_per_call": "refills/call",
    "randomness.self_ms": "ms", "randomness.calls_per_query": "calls/query",
    "randomness.bits_parent_per_query": "bits/query",
    "randomness.bits_rank_per_query": "bits/query",
    "randomness.bits_flag_per_query": "bits/query",
    "linktree.parent.self_ms": "ms", "linktree.parent.draws_per_commit": "draws/commit",
    "linktree.parent.draws_max": "draws",
    "linktree.scan.self_ms": "ms", "linktree.scan.steps_per_answer": "steps/answer",
    "linktree.scan.depth_max": "count",
    "linktree.typed.probes_per_call": "probes/call", "linktree.replay_share": "ratio",
    "sparse.self_ms": "ms", "sparse.calls_per_query": "calls/query",
    "bagen.next_neighbor.self_share": "ratio", "bagen.ba_parent.chain_len": "links/call",
    "bagen.heap_cells": "cells",
    "gc.pause_ms": "ms", "gc.pause_max_ms": "ms", "gc.gen2_collections": "count",
    "trace.overhead": "ratio",
}


class Counts(NamedTuple):
    """A round's exact counts; every round of a run must repeat them."""
    digest: str        # transcript: nodes, query kinds, answers, bits per query
    bits: int
    bits_max: int      # the worst single query
    bits_p999: float
    cells: int


@dataclass
class Round:
    """What one round of a workload measured, counted and found wrong."""
    wall_s: float
    lat_ns: object
    queries: int
    failed: int
    first_error: str | None
    counts: Counts
    state: dict        # end-of-round sizes of per-layer state
    layers: dict | None


def import_program() -> bool:
    """Put ``src/`` first on the path and import flygraph from there only."""
    if not (SRC / "flygraph" / "__init__.py").is_file():
        return False
    sys.path.insert(0, str(SRC))
    import flygraph
    return Path(flygraph.__file__).resolve().parent == SRC / "flygraph"


def environment() -> dict:
    import sortedcontainers
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((line.split(":", 1)[1].strip() for line in f
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "usable_cpus": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "sortedcontainers": sortedcontainers.__version__, "cpu": cpu}


def measure_setup(workload, seed: int) -> float:
    """Median over fresh interpreters of import plus generator construction."""
    cls = "BAGenerator" if workload.model == "ba" else "RRTGenerator"
    times = []
    for _ in range(SETUP_REPEATS):
        done = subprocess.run(
            [sys.executable, "-c", SETUP_PROBE, str(SRC), cls, str(workload.n), str(seed)],
            capture_output=True, text=True, timeout=120, check=True)
        times.append(float(done.stdout.split()[-1]))
    return statistics.median(times)


def play_round(workload, inputs: dict, tracer=None) -> Round:
    from workloads import Recorder, check_instance

    rec = Recorder(tracer)
    start = perf_counter()
    if tracer is None:
        instances = workload.play(inputs, rec)
    else:
        with tracer.installed():
            instances = workload.play(inputs, rec)
    wall = perf_counter() - start
    queries = len(rec.ans)
    layers = tracer.summary(queries) if tracer is not None else None

    gens = [inst.gen for inst in instances]
    cells = sum(g.stored_cells() for g in gens)
    state = {
        "ranks.fronted": sum(len(g.tree.index.fronted_nodes) for g in gens),
        "ranks.skip": sum(len(g.tree.index.skip_members) for g in gens),
        "bagen.heap_cells": sum(g.stored_cells() - g.tree.stored_cells()
                                for g in gens if workload.model == "ba"),
    }
    digest = hashlib.blake2b(digest_size=16)
    for column in (rec.node, rec.op, rec.ans, rec.bits):
        digest.update(column.tobytes())
    bits = np.frombuffer(rec.bits, dtype=np.int64)
    counts = Counts(digest.hexdigest(), int(bits.sum()), int(bits.max()),
                    float(np.percentile(bits, 99.9)), cells)

    bad = set()
    for inst in instances:
        bad |= check_instance(inst, rec)
    return Round(wall, rec.lat_ns, queries, len(bad), rec.first_error,
                 counts, state, layers)


def play_for(workload, inputs: dict, seconds: float, tracer=None) -> list:
    """Play whole rounds while the next one is expected to end in time."""
    rounds = []
    start = perf_counter()
    while True:
        rounds.append(play_round(workload, inputs, tracer))
        spent = perf_counter() - start
        if spent + spent / len(rounds) > seconds:
            return rounds


def end_to_end(rounds: list, setup_s: float, peak_rss_mb: float) -> dict:
    lat_us = np.concatenate([np.frombuffer(r.lat_ns, dtype=np.int64) for r in rounds]) / 1e3
    p50, p99 = np.percentile(lat_us, [50, 99])
    counts, queries = rounds[0].counts, rounds[0].queries
    return {
        "query_us_p50": float(p50),
        "query_us_p99": float(p99),
        "queries_per_s": statistics.median(r.queries / r.wall_s for r in rounds),
        "bits_per_query": counts.bits / queries,
        "bits_per_query_p999": counts.bits_p999,
        "cells_per_query": counts.cells / queries,
        "peak_rss_mb": peak_rss_mb,
        "setup_s": setup_s,
    }


def per_layer(plain: list, traced: list) -> dict:
    """Per-round figures of the traced rounds: means, and maxima for ``*_max*``."""
    out = {}
    for key in traced[0].layers:
        values = [r.layers[key] for r in traced]
        out[key] = max(values) if "_max" in key else statistics.fmean(values)
    out.update(traced[0].state)
    query_s = [sum(r.lat_ns) for r in plain]
    traced_s = [sum(r.lat_ns) for r in traced]
    out["trace.overhead"] = statistics.median(traced_s) / statistics.median(query_s)
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not import_program():
        print(f"flygraph sources not found under {SRC}", file=sys.stderr)
        return 2
    from layertrace import Tracer
    from workloads import WORKLOADS

    workload = WORKLOADS.get(args.workload)
    if workload is None:
        print(f"unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    env = environment()
    load_start = os.getloadavg()
    inputs = workload.inputs(args.seed)

    if args.trace:
        plain = play_for(workload, inputs, args.seconds / 2)
        traced = play_for(workload, inputs, args.seconds / 2, Tracer())
        rounds = plain + traced
        metrics, units = per_layer(plain, traced), PER_LAYER_UNITS
    else:
        setup_s = measure_setup(workload, args.seed)
        rounds = play_for(workload, inputs, args.seconds)
        # Read before the summary below allocates anything of its own.
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        metrics, units = end_to_end(rounds, setup_s, peak_rss_mb), END_TO_END_UNITS

    attempted = sum(r.queries for r in rounds)
    failed = sum(r.failed for r in rounds)
    repeatable = all(r.counts == rounds[0].counts for r in rounds)
    env["loadavg_start"] = load_start
    env["loadavg_end"] = os.getloadavg()

    mode = "traced" if args.trace else "untraced"
    print(f"workload {workload.name} ({workload.why})")
    print(f"seed {args.seed}, {mode}: {len(rounds)} rounds of {rounds[0].queries} queries, "
          f"{attempted} timed samples")
    print("environment " + json.dumps(env))
    counts = rounds[0].counts
    print(f"transcript {counts.digest}: bits {counts.bits}, worst query {counts.bits_max} "
          f"bits, p99.9 {counts.bits_p999}, cells {counts.cells}; "
          f"{'identical' if repeatable else 'DIFFERENT'} across rounds")
    if args.trace:
        print(f"spans per traced round {traced[0].layers['trace.spans']:.0f}")
    for key, unit in units.items():
        print(f"  {key:34s} {metrics[key]:14.4f} {unit}")
    print(f"  {'failed_ratio':34s} {failed / attempted:14.4f} ({failed} of {attempted})")
    for r in rounds:
        if r.first_error:
            print(r.first_error, file=sys.stderr)
            break
    print(json.dumps({
        "correct": failed == 0 and repeatable,
        "attempted": attempted,
        "failed": failed,
        "metrics": {key: {"value": metrics[key], "unit": unit} for key, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
