"""Lazy exact samplers for preferential attachment and recursive trees.

Adjacency queries are answered on demand in polylogarithmic time, space,
and random bits, with the joint answer law identical to sampling the whole
graph up front.  The batch samplers, the statistics helpers and the
brute-force ``NaiveLinkTree``, which no query touches, load on first use of
one of their names.
"""

import importlib

from .bagen import BAGenerator
from .errors import InternalConsistencyError
from .linktree import LinkTree, RRTGenerator, sample_candidate_rank
from .randomness import BitSource, COPY, DIRECT

__version__ = "0.1.0"

_LAZY = dict.fromkeys(("BATCH_SAMPLERS", "GraphSample", "batch_ba", "batch_rrt",
                       "batch_z", "enumerate_exact"), "batch")
_LAZY.update(dict.fromkeys(("chi_square_gof", "chi_square_two_sample", "degree_stats",
                            "empirical_law", "reconstruct_via_sweep", "tree_metrics",
                            "tv_distance"), "stats"))
_LAZY["NaiveLinkTree"] = "naive"


def __getattr__(name: str):
    """Load a name off the query path on first use and keep it (PEP 562)."""
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


__all__ = ["BAGenerator", "BitSource", "COPY", "DIRECT", "InternalConsistencyError",
           "LinkTree", "RRTGenerator", "sample_candidate_rank", *_LAZY]
