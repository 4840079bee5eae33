"""Interleaved ``BAGenerator`` queries, driven by a hypothesis state machine.

Each step asks ``ba_parent`` of any node, or ``next_neighbor`` of a node on
its first, second or a later call, so streams open, advance and end in
every order a caller can choose.  After each step the machine checks the
stream contract (target first, then strictly increasing children above j,
then n+1 forever), the target against ``ba_parent``, the parents the
streams imply, and the link tree's own invariants.
"""

import pytest

pytest.importorskip("hypothesis")
from hypothesis import settings, strategies as st  # noqa: E402
from hypothesis.stateful import (RuleBasedStateMachine, initialize,  # noqa: E402
                                 invariant, precondition, rule)

from flygraph import BAGenerator  # noqa: E402


class Streams(RuleBasedStateMachine):

    @initialize(n=st.integers(1, 12), seed=st.integers(0, 2**32))
    def build(self, n, seed):
        self.n = n
        self.gen = BAGenerator(n, seed=seed)
        self.answers = {j: [] for j in range(1, n + 1)}
        self.targets = {}

    def _nodes(self, calls):
        """Nodes whose stream has answered ``calls`` times (None: at least 2)."""
        return [j for j, a in self.answers.items()
                if (len(a) >= 2 if calls is None else len(a) == calls)]

    def _ask(self, j):
        answer = self.gen.next_neighbor(j)
        seen = self.answers[j]
        seen.append(answer)
        n = self.n
        if len(seen) == 1:
            assert (answer == 1) if j == 1 else (1 <= answer < j)
            assert answer == self.targets.setdefault(j, answer)
            assert self.gen.ba_parent(j) == answer
        elif len(seen) > 2 and seen[-2] == n + 1:
            assert answer == n + 1
        else:
            prev = j if len(seen) == 2 else seen[-2]
            assert prev < answer <= n + 1

    @rule(data=st.data())
    def ask_parent(self, data):
        j = data.draw(st.integers(1, self.n))
        p = self.gen.ba_parent(j)
        assert p == self.targets.setdefault(j, p)

    @precondition(lambda self: self._nodes(0))
    @rule(data=st.data())
    def ask_first(self, data):
        self._ask(data.draw(st.sampled_from(self._nodes(0))))

    @precondition(lambda self: self._nodes(1))
    @rule(data=st.data())
    def ask_second(self, data):
        self._ask(data.draw(st.sampled_from(self._nodes(1))))

    @precondition(lambda self: self._nodes(None))
    @rule(data=st.data())
    def ask_later(self, data):
        self._ask(data.draw(st.sampled_from(self._nodes(None))))

    @invariant()
    def children_agree_with_targets(self):
        # A child a stream has answered has that node as its target, and a
        # node with a known target appears in the target's stream once the
        # stream has passed it.
        n = self.n
        for j, seen in self.answers.items():
            kids = [x for x in seen[1:] if x <= n]
            for c in kids:
                assert self.targets.get(c, j) == j
            if len(seen) >= 2:
                last = seen[-1]
                for c, p in self.targets.items():
                    if p == j and c != 1 and c <= last:
                        assert c in kids

    @invariant()
    def tree_is_consistent(self):
        self.gen.tree.check_invariants()


Streams.TestCase.settings = settings(max_examples=40, stateful_step_count=30,
                                     deadline=None, database=None,
                                     derandomize=True)
test_interleaved_streams = Streams.TestCase
