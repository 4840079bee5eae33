"""The on-demand check behind ``LinkTree.check_invariants``, off the query path."""

from .errors import InternalConsistencyError
from .randomness import DIRECT


def check_invariants(tree) -> None:
    """Recheck the records, child lists and candidate index against the links.

    Raises at the first contradiction; O(L + F log F) for L links, F fronts.
    """
    n, links, index, low = tree.n, tree.links, tree.index, tree.low
    fronts = {x: record >> tree.shift for x, record in links.items() if record >> tree.shift}
    listed = 0
    for j in tree.children.touched():
        kids = tree.children.members(j)
        if (not kids or any(x >= y for x, y in zip(kids, kids[1:]))
                or any(not j < x <= n or (links.get(x, 0) & low) >> 1 != j for x in kids)):
            raise InternalConsistencyError(f"child list of {j} disagrees with the links")
        listed += len(kids)
    # Node 1's record, made with the tree, is parent 1 and DIRECT and no child.
    if links.get(1, 0) & low != 1 << 1 | DIRECT:
        raise InternalConsistencyError("node 1's record is not parent 1, DIRECT")
    if listed != len(links) - 1:
        raise InternalConsistencyError(f"{listed} listed children for {len(links)} links")
    if any(not j < f <= n + 1 or (f <= n and (links.get(f, 0) & low) >> 1 != j)
           for j, f in fronts.items()):
        raise InternalConsistencyError("a front target is not a child of its node")
    owned = {f for f in fronts.values() if f <= n}
    if not owned <= fronts.keys():
        raise InternalConsistencyError(f"owned nodes without a front: {owned - fronts.keys()}")
    if list(index.skip) != sorted(j for j in fronts if j not in owned):
        raise InternalConsistencyError("skip set is not fronted minus owned")
    # Node i blocks (i, front(i)].  Both counts grow by one per position
    # between the points where a block starts or ends; check those.
    change = dict.fromkeys((2, n + 1), 0)
    for i, f in fronts.items():
        change[i + 1] = change.get(i + 1, 0) + 1
        change[f + 1] = change.get(f + 1, 0) - 1
    blocked = 0
    for a in sorted(change):
        blocked += change[a]
        if a <= n + 1 and index.open_parent_count(a) != (a - 1) - blocked:
            raise InternalConsistencyError(f"open parent count wrong at {a}")
