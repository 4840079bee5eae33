"""Cell accounting: ``stored_cells()`` counts every container a generator holds.

One cell is one dict entry or one list slot.  The reference count below
walks the generator's attributes instead of trusting its bookkeeping, so a
container the counter forgets, or one a change adds without a term, shows.
"""

import random

import pytest

from flygraph import BAGenerator, RRTGenerator


def held_cells(obj, seen: set) -> int:
    """len() summed over every dict and list reachable from obj.

    Descends through dict values, list items and the attributes of package
    objects; each container counts once, however many paths reach it.
    """
    if id(obj) in seen:
        return 0
    seen.add(id(obj))
    if isinstance(obj, dict):
        return len(obj) + sum(held_cells(v, seen) for v in obj.values())
    if isinstance(obj, list):
        return len(obj) + sum(held_cells(v, seen) for v in obj)
    if not type(obj).__module__.startswith("flygraph"):
        return 0
    names = set(vars(obj)) if hasattr(obj, "__dict__") else set()
    for cls in type(obj).__mro__:
        names.update(getattr(cls, "__slots__", ()))
    return sum(held_cells(getattr(obj, name), seen) for name in sorted(names))


@pytest.mark.parametrize("make", [BAGenerator, RRTGenerator])
@pytest.mark.parametrize("seed", [0, 1])
def test_stored_cells_match_held_containers(make, seed):
    n = 10_000
    gen = make(n, seed=seed)
    rng = random.Random(seed)
    for _ in range(2_000):
        gen.next_neighbor(rng.randrange(1, n + 1))
    assert gen.stored_cells() == held_cells(gen, set())
    for j in (1, 2, rng.randrange(3, n + 1)):
        while gen.next_neighbor(j) <= n:
            pass
    assert gen.stored_cells() == held_cells(gen, set())
