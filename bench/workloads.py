"""The benchmark's workloads: inputs, closed query loops, and output checks.

Each workload turns the workload seed into fixed inputs, then plays one round
of queries against fresh generators through their public API.  One client
issues each query only after the previous one returned.  A round is the same
work every time it is played, so its transcript and its bit and cell counts
repeat exactly; the benchmark plays rounds until its time is up.

Why these three:

* ``ba-random``: ``ba`` at n = 10^6, next_neighbor on uniform random nodes.
  State stays sparse and almost every answer commits fresh randomness, so
  the candidate index, the stop-rank sampler and the scan do most of the work.
* ``ba-full``: ``ba`` at n = 10^3, every neighbor stream read to n+1, one
  fresh generator per graph seed.  State turns dense and most answers replay
  stored state without new bits: the same layers, used for reads.
* ``rrt-adaptive``: ``rrt`` at n = 10^9.  Exhaust the streams of nodes
  1..P, then ask parent() of every node in (P, P+K].  The nodes just above P
  have almost no open parent left, the adaptive worst case of the parent
  rejection loop; ``bagen`` is idle, and so are the index and the sampler in
  the second phase.  At this size the stop-rank draw uses 90 lattice bits.
"""

from __future__ import annotations

import random
import traceback
from array import array
from dataclasses import dataclass
from time import perf_counter_ns

from flygraph import BAGenerator, RRTGenerator

NEXT, PARENT = 0, 1
# Far above any neighbor stream these workloads read; stops a runaway stream.
STREAM_CAP = 100_000


class Recorder:
    """Times each query and records its node, kind, answer and bit cost."""

    def __init__(self, tracer=None):
        self.tracer = tracer
        self.source = None
        self.lat_ns = array("q")
        self.bits = array("q")
        self.node = array("q")
        self.op = array("b")
        self.ans = array("q")
        self.first_error = None

    def bind(self, gen) -> None:
        self.source = gen.tree.source
        if self.tracer is not None:
            self.tracer.source = self.source

    def call(self, fn, op: int, j: int) -> int:
        source = self.source
        b0 = source.bits_consumed
        t0 = perf_counter_ns()
        try:
            answer = fn(j)
            t1 = perf_counter_ns()
        except Exception:  # a failed query is counted; the run goes on
            t1 = perf_counter_ns()
            answer = -1
            if self.first_error is None:
                self.first_error = traceback.format_exc()
        self.lat_ns.append(t1 - t0)
        self.bits.append(source.bits_consumed - b0)
        self.node.append(j)
        self.op.append(op)
        self.ans.append(answer)
        return answer


@dataclass
class Instance:
    """One generator a round drove, and its slice of the transcript."""
    gen: object
    lo: int
    hi: int
    exhausted: range = range(0)   # nodes whose streams were read to the end


def _read_stream(rec: Recorder, gen, j: int, n: int) -> None:
    """Read j's neighbor stream up to its end marker n+1."""
    next_neighbor = gen.next_neighbor
    for _ in range(min(n + 2, STREAM_CAP)):
        if not 0 < rec.call(next_neighbor, NEXT, j) <= n:
            return


def check_instance(inst: Instance, rec: Recorder) -> set:
    """Indices of the queries whose answers break the stream contract.

    A neighbor stream of j starts with an earlier node (1 for node 1), then
    rises strictly within (j, n], then repeats n+1.  Every child c reported
    for j has parent j when asked again; a parent() answer agrees with the
    exhausted stream of the node it names; and where every stream was read
    to its end, every node above 1 was reported as a child.  A query that
    raised counts as broken.  Runs after the round's counts are read, since
    its own queries may touch state.
    """
    gen = inst.gen
    n = gen.n
    ask = gen.ba_parent if isinstance(gen, BAGenerator) else gen.parent

    def parent_of(c):
        try:
            return ask(c)
        except Exception:  # counted as a broken answer below
            if rec.first_error is None:
                rec.first_error = traceback.format_exc()
            return -1

    node, op, ans = rec.node, rec.op, rec.ans
    bad = set()
    cursor, first, last, owner, asked = {}, {}, {}, {}, {}
    for i in range(inst.lo, inst.hi):
        j, a = node[i], ans[i]
        if op[i] == PARENT:
            asked[j] = i
            if not (1 <= a < j or j == a == 1):
                bad.add(i)
            continue
        last[j] = i
        cur = cursor.get(j)
        if cur is None:
            first[j] = a
            if (1 <= a < j or j == a == 1) and parent_of(j) == a:
                cursor[j] = j
            else:
                bad.add(i)
        elif cur < a <= n + 1 or cur == a == n + 1:
            cursor[j] = a
            if a <= n:
                owner[a] = j
                if parent_of(a) != j:
                    bad.add(i)
        else:
            bad.add(i)
    for j in inst.exhausted:
        if cursor.get(j) != n + 1:
            bad.add(last.get(j, inst.lo))
    for x, i in asked.items():
        a = ans[i]
        if (a in inst.exhausted or x in owner) and owner.get(x) != a:
            bad.add(i)
    if len(inst.exhausted) == n:
        for c in range(2, n + 1):
            if c not in owner:
                bad.add(last.get(first.get(c), inst.lo))
    return bad


@dataclass(frozen=True)
class Workload:
    name: str
    model: str
    n: int
    why: str

    def generator(self, seed: int):
        return (BAGenerator if self.model == "ba" else RRTGenerator)(self.n, seed=seed)


class BARandom(Workload):
    queries = 25_000

    def inputs(self, seed: int, queries: int | None = None) -> dict:
        rng = random.Random(seed)
        graph_seed = rng.getrandbits(32)
        nodes = [rng.randrange(1, self.n + 1) for _ in range(queries or self.queries)]
        return {"graph_seeds": [graph_seed], "nodes": nodes}

    def play(self, inputs: dict, rec: Recorder) -> list:
        gen = self.generator(inputs["graph_seeds"][0])
        rec.bind(gen)
        next_neighbor = gen.next_neighbor
        lo = len(rec.ans)
        for j in inputs["nodes"]:
            rec.call(next_neighbor, NEXT, j)
        return [Instance(gen, lo, len(rec.ans))]


class BAFull(Workload):
    graphs = 20

    def inputs(self, seed: int, graphs: int | None = None) -> dict:
        rng = random.Random(seed)
        return {"graph_seeds": [rng.getrandbits(32) for _ in range(graphs or self.graphs)]}

    def play(self, inputs: dict, rec: Recorder) -> list:
        n = self.n
        out = []
        for graph_seed in inputs["graph_seeds"]:
            gen = self.generator(graph_seed)
            rec.bind(gen)
            lo = len(rec.ans)
            for j in range(1, n + 1):
                _read_stream(rec, gen, j, n)
            out.append(Instance(gen, lo, len(rec.ans), range(1, n + 1)))
        return out


class RRTAdaptive(Workload):
    prefix = 200
    tail = 40_000

    def inputs(self, seed: int, prefix: int | None = None, tail: int | None = None) -> dict:
        rng = random.Random(seed)
        return {"graph_seeds": [rng.getrandbits(32)],
                "prefix": prefix or self.prefix, "tail": tail or self.tail}

    def play(self, inputs: dict, rec: Recorder) -> list:
        n, prefix = self.n, inputs["prefix"]
        gen = self.generator(inputs["graph_seeds"][0])
        rec.bind(gen)
        lo = len(rec.ans)
        for j in range(1, prefix + 1):
            _read_stream(rec, gen, j, n)
        parent = gen.parent
        for x in range(prefix + 1, prefix + inputs["tail"] + 1):
            rec.call(parent, PARENT, x)
        return [Instance(gen, lo, len(rec.ans), range(1, prefix + 1))]


WORKLOADS = {w.name: w for w in (
    BARandom("ba-random", "ba", 10**6,
             "ba, n=10^6, next_neighbor on random nodes: sparse state, fresh bits "
             "per answer; index, sampler and scan write"),
    BAFull("ba-full", "ba", 10**3,
           "ba, n=10^3, every stream read to n+1 over many graph seeds: dense state, "
           "most answers replay stored state"),
    RRTAdaptive("rrt-adaptive", "rrt", 10**9,
                "rrt, n=10^9, exhaust nodes 1..P then parent() above P: adaptive "
                "rejection worst case, 90-bit draws, bagen idle"),
)}
