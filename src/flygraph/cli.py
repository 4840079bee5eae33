"""Command-line front end.

Subcommands:

* ``sample``   drive the on-the-fly sampler and print each query and answer.
* ``batch``    sample one whole graph up front and print it.
* ``compare``  empirical law of full sweeps against the exact law (small n).
* ``stats``    summary statistics over many batch samples.

Output is deterministic for fixed arguments; per-query timing lives in
``bench/run.py``.  Exit codes: 0 success, 1 usage or input errors (each
with a message on stderr), 2 distribution check failed.
"""

from __future__ import annotations

import argparse
import json
import sys

from .bagen import BAGenerator
from .batch import BATCH_SAMPLERS, enumerate_exact
from .linktree import RRTGenerator
from .stats import (chi_square_gof, degree_stats, empirical_law,
                    reconstruct_via_sweep, schedule_queries, tree_metrics,
                    tv_distance)

GENERATORS = {"ba": BAGenerator, "z": BAGenerator, "rrt": RRTGenerator}
TV_THRESHOLD = 0.015
P_THRESHOLD = 0.001


def _read_queries_file(path: str, n: int):
    queries = []
    try:
        with open(path, "r", encoding="utf-8") as handle:
            lines = handle.readlines()
    except OSError as exc:
        raise ValueError(f"cannot read queries file: {exc}") from None
    for lineno, line in enumerate(lines, start=1):
        text = line.strip()
        if not text:
            continue
        try:
            j = int(text, 10)
        except ValueError:
            raise ValueError(f"queries file line {lineno}: not an integer: {text!r}") from None
        if not 1 <= j <= n:
            raise ValueError(f"queries file line {lineno}: node {j} outside [1, {n}]")
        queries.append(j)
    return queries


def _fit(counts: dict, exact: dict, trials: int):
    """Total variation and chi-square p-value of ``counts`` against ``exact``.

    The p-value is None when too few cells remain after merging.
    """
    tv = float(tv_distance(empirical_law(counts, trials), exact))
    try:
        return tv, chi_square_gof(counts, exact, trials)
    except ValueError:
        return tv, None


def _cmd_sample(args) -> int:
    gen = GENERATORS[args.model](args.n, args.seed)
    if args.queries_file is not None:
        schedule = "file"
        pairs = [(j, gen.next_neighbor(j))
                 for j in _read_queries_file(args.queries_file, args.n)]
    else:
        schedule = args.schedule or "sweep"
        pairs = list(schedule_queries(gen, schedule))
    if args.output == "json":
        print(json.dumps({
            "model": args.model, "n": args.n, "seed": args.seed,
            "schedule": schedule,
            "queries": [[j, r] for j, r in pairs],
            "bits_consumed": gen.bits_consumed,
            "stored_cells": gen.stored_cells(),
        }))
    else:
        for j, r in pairs:
            print(f"q {j} -> {r}")
    return 0


def _cmd_batch(args) -> int:
    sample = BATCH_SAMPLERS[args.model](args.n, args.seed)
    if args.output == "json":
        print(sample.to_json())
    else:
        for line in sample.edge_lines():
            print(line)
    return 0


def _cmd_compare(args) -> int:
    exact = enumerate_exact(args.model, args.n)
    counts = {}
    for i in range(args.trials):
        gen = GENERATORS[args.model](args.n, args.seed + i)
        outcome = reconstruct_via_sweep(gen, args.model, args.schedule).outcome()
        counts[outcome] = counts.get(outcome, 0) + 1
    tv, p_value = _fit(counts, exact, args.trials)
    passed = tv < TV_THRESHOLD and (p_value is None or p_value > P_THRESHOLD)
    if args.output == "json":
        print(json.dumps({
            "model": args.model, "n": args.n, "trials": args.trials,
            "seed": args.seed, "schedule": args.schedule,
            "tv": tv, "chi2_p": p_value, "pass": passed,
        }))
    else:
        chi_text = "n/a" if p_value is None else f"{p_value:.6f}"
        print(f"model={args.model} n={args.n} trials={args.trials}")
        print(f"tv={tv:.6f} chi2_p={chi_text}")
        print("PASS" if passed else "FAIL")
    return 0 if passed else 2


def _cmd_stats(args) -> int:
    sampler = BATCH_SAMPLERS[args.model]
    heights = []
    max_fan_out = 0
    degree_hist = {}
    outcome_counts = {}
    for i in range(args.seeds):
        sample = sampler(args.n, args.seed + i)
        metrics = tree_metrics(sample)
        heights.append(metrics["height"])
        max_fan_out = max(max_fan_out, metrics["max_fan_out"])
        for d in degree_stats(sample)["degree"][1:]:
            degree_hist[d] = degree_hist.get(d, 0) + 1
        if args.n <= 8:
            key = sample.outcome()
            outcome_counts[key] = outcome_counts.get(key, 0) + 1
    tv = chi2_p = None
    if args.n <= 8:
        exact = enumerate_exact(args.model, args.n)
        tv, chi2_p = _fit(outcome_counts, exact, args.seeds)

    height_mean = sum(heights) / len(heights)
    if args.output == "json":
        print(json.dumps({
            "model": args.model, "n": args.n, "seeds": args.seeds,
            "tv": tv, "chi2_p": chi2_p,
            "degree_hist": {str(k): degree_hist[k] for k in sorted(degree_hist)},
            "height": height_mean, "max_fan_out": max_fan_out,
        }))
    else:
        print(f"model={args.model} n={args.n} seeds={args.seeds}")
        print(f"height_mean={height_mean:.3f} max_fan_out={max_fan_out}")
        hist = " ".join(f"{k}:{degree_hist[k]}" for k in sorted(degree_hist))
        print(f"degree_hist {hist}")
        if tv is not None:
            chi_text = "n/a" if chi2_p is None else f"{chi2_p:.6f}"
            print(f"tv={tv:.6f} chi2_p={chi_text}")
    return 0


def _add_common(sub):
    sub.add_argument("--model", choices=tuple(GENERATORS), default="ba")
    sub.add_argument("--n", type=int, required=True)
    sub.add_argument("--seed", type=int, default=0)
    sub.add_argument("--output", choices=("text", "json"), default="text")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="flygraph",
                                     description="On-the-fly random graph sampler.")
    subs = parser.add_subparsers(dest="command", required=True)

    p_sample = subs.add_parser("sample", help="drive the lazy sampler")
    _add_common(p_sample)
    # No default: the group sees a spelled-out value only when it differs from it.
    order = p_sample.add_mutually_exclusive_group()
    order.add_argument("--schedule", choices=("sweep", "roundrobin"))
    order.add_argument("--queries-file")
    p_sample.set_defaults(func=_cmd_sample)

    p_batch = subs.add_parser("batch", help="sample one whole graph up front")
    _add_common(p_batch)
    p_batch.set_defaults(func=_cmd_batch)

    p_compare = subs.add_parser("compare",
                                help="empirical sweep law vs exact law")
    _add_common(p_compare)
    p_compare.add_argument("--trials", type=int, default=20000)
    p_compare.add_argument("--schedule", choices=("sweep", "roundrobin"),
                           default="sweep")
    p_compare.set_defaults(func=_cmd_compare)

    p_stats = subs.add_parser("stats", help="summary statistics")
    _add_common(p_stats)
    p_stats.add_argument("--seeds", type=int, default=20)
    p_stats.set_defaults(func=_cmd_stats)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code == 0 else 1
    try:
        for name in ("n", "trials", "seeds"):
            if getattr(args, name, 1) < 1:
                raise ValueError(f"--{name} must be positive")
        return args.func(args)
    except ValueError as exc:
        sys.stderr.write(f"{exc}\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
