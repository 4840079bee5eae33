"""Interleaved ``LinkTree`` queries, driven by a hypothesis state machine.

Each step asks ``parent`` of any node, ``next_child`` of any node, or
``next_child_typed`` of any node for either flag or none, probing at the
node's committed front or anywhere between the node and that front.  After
each step the machine checks the answer against what the tree has committed
(a child answer passes no matching child of the node, and a link never
changes once answered), checks that no record's parent or flag field ever
changes, and calls ``check_invariants()``.
"""

import pytest

pytest.importorskip("hypothesis")
from hypothesis import settings, strategies as st  # noqa: E402
from hypothesis.stateful import (RuleBasedStateMachine, initialize,  # noqa: E402
                                 invariant, rule)

from flygraph import LinkTree  # noqa: E402
from flygraph.randomness import DIRECT  # noqa: E402


class Queries(RuleBasedStateMachine):

    @initialize(n=st.integers(1, 12), seed=st.integers(0, 2**32))
    def build(self, n, seed):
        self.n = n
        self.tree = LinkTree(n, seed=seed)
        self.links = {1: (1, DIRECT)}
        self.fields = {}   # node -> parent << 1 | flag, as first seen in its record

    def front(self, j):
        """Front stored in j's record, 0 before j's first scan."""
        return self.tree.links.get(j, 0) >> self.tree.shift

    def _node(self, data):
        return data.draw(st.integers(1, self.n))

    def _check_child(self, j, k, x, flag):
        """x answers j's least child above k with ``flag`` (any, for None)."""
        n, links, low = self.n, self.tree.links, self.tree.low
        assert min(k, n) < x <= n + 1
        for y in range(k + 1, min(x, n + 1)):
            link = links.get(y, 0)
            assert (link & low) >> 1 != j or (flag is not None and link & 1 != flag), y
        if x <= n:
            link = links[x]
            assert (link & low) >> 1 == j and (flag is None or link & 1 == flag)
            assert self.links.setdefault(x, (j, link & 1)) == (j, link & 1)

    @rule(data=st.data())
    def ask_parent(self, data):
        j = self._node(data)
        p, flag = self.tree.parent(j)
        assert 1 <= p < j or p == j == 1
        assert self.links.setdefault(j, (p, flag)) == (p, flag)

    @rule(data=st.data())
    def ask_next_child(self, data):
        j = self._node(data)
        front = self.front(j) or j
        x = self.tree.next_child(j)
        self._check_child(j, front, x, None)
        assert self.front(j) == x

    @rule(data=st.data(), flag=st.sampled_from((0, 1, None)))
    def ask_typed(self, data, flag):
        j = self._node(data)
        front = self.front(j)
        k = j if not front else data.draw(st.just(front) | st.integers(j, front))
        x = self.tree.next_child_typed(j, k, flag)
        self._check_child(j, k, x, flag)

    @invariant()
    def links_never_change(self):
        for j, link in self.links.items():
            assert self.tree.parent(j) == link

    @invariant()
    def records_keep_parent_and_flag(self):
        low = self.tree.low
        for x, record in self.tree.links.items():
            assert self.fields.setdefault(x, record & low) == record & low, x

    @invariant()
    def tree_is_consistent(self):
        self.tree.check_invariants()


Queries.TestCase.settings = settings(max_examples=40, stateful_step_count=30,
                                     deadline=None, database=None,
                                     derandomize=True)
test_interleaved_queries = Queries.TestCase
