"""Pinned transcript digests: the same seeds keep giving the same answers.

Each digest hashes every query's node, answer and random-bit cost, so a
change to the query path that moves a single answer or a single bit shows
here, even when every law test still passes.  The digests were first
recorded before the candidate index kept only its skip set and before the
stop slot came in closed form; both changes left them as they were.

A change that keeps the laws but spends bits differently changes these
digests by design; it then records the new digests here and says so in
CHANGES.md.  Sizing each stop-rank draw from its own arguments, rather than
from n, did so for both ``ba`` pins.  The ``rrt`` pin kept its digest: its
first-call queries answer parent() only and never reach the stop-rank
sampler.

Opening a ``ba`` node's child streams on its second call, not its first,
moved both ``ba`` pins again.  The random schedule's first calls now draw
only the copy chain, and a sweep's bits move from each node's first answer
to its second.  The ``rrt`` pin did not move: ``RRTGenerator`` already
answered the parent alone on a first call, and this change runs none of
its code.

Deferring the two expansions after each answer moved both ``ba`` pins a
third time.  A popped child's stream head and copy stream are now read on
the node's next call rather than on the call that answers the child, so a
sweep's bits move one answer later and the random schedule's second calls
stop paying for a third.  The ``rrt`` pin did not move: it runs no
``bagen`` code.

The two ``hub`` pins read the first twenty streams of a 10^9-node graph a
hundred answers deep.  That is the deep-chain path: each fresh child is
fronted by a chain of scans, here up to 29 long (``ba``) and 28 (``rrt``),
and the ``ba`` run ends with 5,580 skip members spread over four blocks.
The other pins reach neither: their chains stay short, and the ``rrt``
random pin never scans.  The hub digests were recorded before the scan
and the front move became one loop in ``LinkTree.next_child``, which
left them as they were.

The ``adaptive`` pin closes the first thousand nodes of a 10^9-node tree,
reading their streams to the end, and then draws the parents of the next
two thousand.  Most of those are already linked; an open one's draws from
[1, j-1] mostly land on closed nodes, so 139 of its parent() calls reject
three draws and take the exact select over the open parents.  It is the
one pin that reaches that select: the others never reject three draws in
a row.  It was recorded when the select replaced unbounded rejection.
"""

import hashlib
import random

import pytest

from flygraph import BAGenerator, RRTGenerator


def digest(gen, schedule: str, seed: int) -> str:
    """Hash of a run: every stream read to its end marker n+1 node by node
    (``sweep``), next_neighbor on 2,000 uniform random nodes (``random``),
    100 next_neighbor calls on each of nodes 1..20 (``hub``), or the
    streams of nodes 1..1000 read to n+1 and then parent() of each of
    nodes 1001..3000 (``adaptive``, ``rrt`` only)."""
    n = gen.n
    h = hashlib.blake2b(digest_size=16)

    def ask(j, query=gen.next_neighbor):
        spent = gen.bits_consumed
        answer = query(j)
        h.update(f"{j} {answer} {gen.bits_consumed - spent};".encode())
        return answer

    if schedule == "sweep":
        for j in range(1, n + 1):
            while ask(j) != n + 1:
                pass
    elif schedule == "hub":
        for j in range(1, 21):
            for _ in range(100):
                ask(j)
    elif schedule == "adaptive":
        for j in range(1, 1_001):
            while ask(j) != n + 1:
                pass
        for x in range(1_001, 3_001):
            ask(x, gen.parent)
    else:
        rng = random.Random(seed)
        for _ in range(2_000):
            ask(rng.randrange(1, n + 1))
    return h.hexdigest()


PINNED = [
    ("ba", 300, 1, "sweep", "b85b86b79cc3de3791913e3b8e67ac52"),
    ("ba", 10**6, 2, "random", "a86be18b97b67587d7a343dfbff85f52"),
    ("rrt", 10**6, 3, "random", "122c94807740f687c54e3f42947729a5"),
    ("ba", 10**9, 4, "hub", "403bf006be38a098715a71aa8c4cbebf"),
    ("rrt", 10**9, 5, "hub", "2bd3a9c71be74c81ceefa46096ec2cfd"),
    ("rrt", 10**9, 1, "adaptive", "27a497e19dd95c8929711ea19479b07f"),
]


@pytest.mark.parametrize("model,n,seed,schedule,expected", PINNED)
def test_transcript_digest_pinned(model, n, seed, schedule, expected):
    gen = (BAGenerator if model == "ba" else RRTGenerator)(n, seed=seed)
    assert digest(gen, schedule, seed) == expected
