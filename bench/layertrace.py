"""Outside-in layer trace of the flygraph query path.

The tracer wraps the public functions of each module on the query path from
the benchmark's side; nothing inside the package changes.  Every wrapped call
records one span: its name, start, end, the span it was called from, and the
random bits drawn while it ran.  Python's garbage collector is observed
through ``gc.callbacks`` and recorded as spans of its own, so collector
pauses are taken out of the self time of whatever layer they interrupted.
Collection stays enabled and untuned: switching it off would measure a
different program.

Spans live in flat typed arrays (26 bytes a span, against well over
100 for a tuple), and are summarised into per-layer figures after each round
of queries; a traced round of ``ba-random`` makes about 70 spans a query.

A span's self time is its duration minus the durations of its direct
children.  A layer's self time is the sum over its spans.  Hot paths in the
link tree read ``LazyMap.raw`` and then work on the plain dict, so those dict
operations count toward the caller's layer, not toward ``sparse``.

Which end-to-end metric each layer figure should move, and where:

* ``ranks.*``: query_us_p50 and queries_per_s on ba-random (heavy); idle in
  the parent phase of rrt-adaptive.
* ``sampler.*`` and ``randomness.*``: bits_per_query and query_us_p50 on
  ba-random and rrt-adaptive (90-bit lattice draws).
* ``linktree.parent.*``: bits_per_query_p999 and query_us_p99 on
  rrt-adaptive; no change expected on ba-random.
* ``linktree.scan.*``: query_us_p99 on ba-random.
* ``linktree.typed.*``, ``linktree.replay_share`` and ``sparse.*``:
  query_us_p50 (and cells_per_query for sparse) on ba-full; rrt-adaptive has
  no typed path.
* ``bagen.*``: query_us_p50 on ba-full and ba-random; idle on rrt-adaptive.
* ``gc.*``: query_us_p99 on ba-random, where state grows largest.
"""

from __future__ import annotations

import gc
from array import array
from contextlib import contextmanager
from time import perf_counter_ns

import numpy as np

from flygraph import bagen, linktree, randomness, ranks, sparse

# Every public function on the query path, as (layer, owner, attribute).
TARGETS = (
    ("randomness", randomness.BitSource, "bits"),
    ("randomness", randomness.BitSource, "uniform_flag"),
    ("randomness", randomness.BitSource, "uniform_int"),
    ("sampler", linktree, "sample_candidate_rank"),
    ("ranks", ranks.CandidateIndex, "open_parent_count"),
    ("ranks", ranks.CandidateIndex, "unskipped_count"),
    ("ranks", ranks.CandidateIndex, "unskipped_rank"),
    ("ranks", ranks.CandidateIndex, "unskipped_select"),
    ("ranks", ranks.CandidateIndex, "unskipped_after"),
    ("ranks", ranks.CandidateIndex, "on_front_advance"),
    ("sparse", sparse.LazyMap, "get"),
    ("sparse", sparse.LazyMap, "set"),
    ("sparse", sparse.LazyMap, "pop"),
    ("sparse", sparse.LazyMap, "__contains__"),
    ("sparse", sparse.LazyMap, "raw"),
    ("sparse", sparse.ChildSets, "insert"),
    ("sparse", sparse.ChildSets, "successor"),
    ("sparse", sparse.ChildSets, "members"),
    ("linktree", linktree.LinkTree, "parent"),
    ("linktree", linktree.LinkTree, "next_child"),
    ("linktree", linktree.LinkTree, "next_child_from"),
    ("linktree", linktree.LinkTree, "next_child_typed"),
    ("linktree", linktree.LinkTree, "rrt_parent"),
    ("linktree", linktree.LinkTree, "rrt_next_child"),
    ("linktree", linktree.RRTGenerator, "parent"),
    ("linktree", linktree.RRTGenerator, "next_child"),
    ("linktree", linktree.RRTGenerator, "next_neighbor"),
    ("bagen", bagen.BAGenerator, "ba_parent"),
    ("bagen", bagen.BAGenerator, "next_neighbor"),
)


def _span_name(owner, attr: str) -> str:
    return f"{getattr(owner, '__name__', '').rsplit('.', 1)[-1]}.{attr}"


NAMES = tuple(_span_name(owner, attr) for _, owner, attr in TARGETS) + ("gc",)
LAYERS = tuple(layer for layer, _, _ in TARGETS) + ("gc",)
GC = len(NAMES) - 1
_ID = {name: i for i, name in enumerate(NAMES)}
_LAYER_NAMES = tuple(dict.fromkeys(LAYERS))
_LAYER_OF = np.array([_LAYER_NAMES.index(layer) for layer in LAYERS], dtype=np.uint8)


class Tracer:
    """Span recorder for the functions in :data:`TARGETS`.

    Install it around the queries to trace with :meth:`installed`; set
    :attr:`source` to the generator's bit source so spans can count bits.
    """

    def __init__(self):
        self.source = None
        self._clear()

    def _clear(self) -> None:
        self.names = array("H")
        self.parents = array("i")
        self.starts = array("q")
        self.ends = array("q")
        self.bits = array("i")   # bits drawn inside the span; gc: generation
        self._stack = [-1]

    def _wrap(self, fn, nid: int):
        names, parents, starts = self.names, self.parents, self.starts
        ends, bits, stack = self.ends, self.bits, self._stack
        clock = perf_counter_ns
        tracer = self

        # Nothing between the appends and the call allocates an object the
        # collector tracks, so a collection can only start inside ``fn``.
        def traced(*args, **kwargs):
            i = len(names)
            names.append(nid)
            parents.append(stack[-1])
            bits.append(tracer.source.bits_consumed)
            ends.append(0)
            stack.append(i)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                stack.pop()
                bits[i] = tracer.source.bits_consumed - bits[i]
        return traced

    def _on_gc(self, phase: str, info: dict) -> None:
        if phase == "start":
            i = len(self.names)
            self.names.append(GC)
            self.parents.append(self._stack[-1])
            self.bits.append(info["generation"])
            self.ends.append(0)
            self._stack.append(i)
            self.starts.append(perf_counter_ns())
        else:
            self.ends[self._stack.pop()] = perf_counter_ns()

    @contextmanager
    def installed(self):
        """Wrap every target and watch the collector; undo both on exit."""
        self._clear()
        saved = []
        try:
            for nid, (_, owner, attr) in enumerate(TARGETS):
                original = vars(owner)[attr]
                if isinstance(original, property):
                    wrapped = property(self._wrap(original.fget, nid))
                else:
                    wrapped = self._wrap(original, nid)
                saved.append((owner, attr, original))
                setattr(owner, attr, wrapped)
            gc.callbacks.append(self._on_gc)
            yield self
        finally:
            if self._on_gc in gc.callbacks:
                gc.callbacks.remove(self._on_gc)
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def summary(self, queries: int) -> dict:
        """Per-layer figures for the spans recorded since :meth:`installed`.

        Times are in milliseconds summed over all recorded spans; a share
        divides by the time of the outermost spans, which are the queries;
        ``*_per_query`` figures divide by ``queries``.
        """
        names = np.frombuffer(self.names, dtype=np.uint16)
        parents = np.frombuffer(self.parents, dtype=np.int32)
        bits = np.frombuffer(self.bits, dtype=np.int32)
        dur = np.frombuffer(self.ends, dtype=np.int64) - np.frombuffer(self.starts, dtype=np.int64)
        count = len(names)
        nested = parents >= 0
        self_ns = dur - np.bincount(parents[nested], weights=dur[nested], minlength=count)
        parent_name = np.where(nested, names[parents], len(NAMES))
        layer = _LAYER_OF[names]
        entry = ~nested | (layer != layer[parents])

        def is_(name):
            return names == _ID[name]

        def called_from(name):
            return parent_name == _ID[name]

        def under(child, parent):
            return is_(child) & called_from(parent)

        def children_per(child_mask, span_mask):
            per_span = np.bincount(parents[child_mask], minlength=count)
            return per_span[span_mask]

        def ms(mask):
            return float(self_ns[mask].sum()) / 1e6

        def ratio(a, b):
            return float(a) / b if b else 0.0

        def layer_is(name):
            return layer == _LAYER_NAMES.index(name)

        # Ranks self time, credited to the method through which it was entered.
        ranks_span = layer_is("ranks")
        root = np.where(ranks_span & ~entry, parents, np.arange(count))
        while (deeper := ranks_span & ~entry[root]).any():
            root[deeper] = parents[root[deeper]]
        ranks_entry_name = names[root]

        sampler = is_("linktree.sample_candidate_rank")
        sampler_calls = int(sampler.sum())
        refill_draws = under("BitSource.bits", "linktree.sample_candidate_rank")
        sampler_with_bits = len(np.unique(parents[refill_draws]))

        rand_entry = layer_is("randomness") & entry
        flag = is_("BitSource.uniform_flag")
        rank_bits = int(bits[rand_entry & called_from("linktree.sample_candidate_rank")].sum())
        flag_bits = int(bits[rand_entry & flag].sum())
        parent_bits = int(bits[rand_entry & called_from("LinkTree.parent") & ~flag].sum())

        lt_parent = is_("LinkTree.parent")
        draws = children_per(under("BitSource.uniform_int", "LinkTree.parent"), lt_parent)
        commits = int((draws > 0).sum())

        scan = is_("LinkTree.next_child")
        steps = children_per(under("CandidateIndex.unskipped_count", "LinkTree.next_child"), scan)
        depth = {}   # scan span -> number of scan spans on its call path
        for i, p in zip(np.flatnonzero(scan).tolist(), parents[scan].tolist()):
            depth[i] = depth.get(p, 0) + 1

        typed = is_("LinkTree.next_child_typed")
        probes = children_per(under("LinkTree.next_child_from", "LinkTree.next_child_typed"), typed)
        from_ = is_("LinkTree.next_child_from")
        scanned = children_per(under("LinkTree.next_child", "LinkTree.next_child_from"), from_)

        ba_parent = is_("BAGenerator.ba_parent")
        chain = children_per(under("LinkTree.parent", "BAGenerator.ba_parent"), ba_parent)

        gc_span = is_("gc")
        query_ns = dur[~nested & ~gc_span].sum()
        return {
            "ranks.self_ms": ms(ranks_span),
            "ranks.open_parent_count.self_ms":
                ms(ranks_span & (ranks_entry_name == _ID["CandidateIndex.open_parent_count"])),
            "ranks.unskipped_after.self_ms":
                ms(ranks_span & (ranks_entry_name == _ID["CandidateIndex.unskipped_after"])),
            "ranks.on_front_advance.self_ms":
                ms(ranks_span & (ranks_entry_name == _ID["CandidateIndex.on_front_advance"])),
            "ranks.calls_per_query": ratio((ranks_span & entry).sum(), queries),
            "sampler.self_ms": ms(sampler),
            "sampler.calls_per_query": ratio(sampler_calls, queries),
            "sampler.bits_per_call": ratio(bits[sampler].sum(), sampler_calls),
            "sampler.refills_per_call":
                ratio(int(refill_draws.sum()) - sampler_with_bits, sampler_calls),
            "randomness.self_ms": ms(layer_is("randomness")),
            "randomness.calls_per_query": ratio(rand_entry.sum(), queries),
            "randomness.bits_parent_per_query": ratio(parent_bits, queries),
            "randomness.bits_rank_per_query": ratio(rank_bits, queries),
            "randomness.bits_flag_per_query": ratio(flag_bits, queries),
            "linktree.parent.self_ms": ms(lt_parent),
            "linktree.parent.draws_per_commit": ratio(draws.sum(), commits),
            "linktree.parent.draws_max": float(draws.max(initial=0)),
            "linktree.scan.self_ms": ms(scan),
            "linktree.scan.steps_per_answer": ratio(steps.sum(), len(steps)),
            "linktree.scan.depth_max": float(max(depth.values(), default=0)),
            "linktree.typed.probes_per_call": ratio(probes.sum(), len(probes)),
            "linktree.replay_share": ratio((scanned == 0).sum(), len(scanned)),
            "sparse.self_ms": ms(layer_is("sparse")),
            "sparse.calls_per_query": ratio((layer_is("sparse") & entry).sum(), queries),
            "bagen.next_neighbor.self_share":
                ratio(self_ns[is_("BAGenerator.next_neighbor")].sum(), query_ns),
            "bagen.ba_parent.chain_len": ratio(chain.sum(), len(chain)),
            "gc.pause_ms": float(dur[gc_span].sum()) / 1e6,
            "gc.pause_max_ms": float(dur[gc_span].max(initial=0)) / 1e6,
            "gc.gen2_collections": float((gc_span & (bits == 2)).sum()),
            "trace.spans": float(count),
        }
