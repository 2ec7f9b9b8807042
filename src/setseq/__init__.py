"""Set-sequential labelings of trees over GF(2)^n.

A tree on 2^(n-1) vertices is set-sequential when distinct nonzero
n-bit labels can be placed on its vertices so that vertex labels and
edge labels (XORs of endpoints) together hit every nonzero vector
exactly once.  This package builds such labelings (constructive
pipelines plus randomized and exhaustive search), verifies candidates,
and solves the pair-partition subproblems the constructions reduce to.

The usual entry points are re-exported here; the submodules hold the
rest (setseq.gf2, setseq.trees, setseq.pairing, setseq.constructors,
setseq.search, setseq.cli).
"""

from __future__ import annotations

from .constructors import (
    BASE_CATERPILLARS,
    PendantPlan,
    add_pendants,
    fixtures_dir,
    four_copies,
    label_large_caterpillar,
    label_small_diameter,
    load_fixture,
    solve_w_prefixes,
)
from .errors import SetseqError
from .gf2 import echelon_basis
from .pairing import (
    PairingInstance,
    PairPartition,
    exact_pairing_solver,
    format_partition,
    partition_errors,
    solve_pairing,
)
from .search import SearchConfig, search_labeling
from .trees import (
    CaterpillarSpec,
    Labeling,
    Tree,
    build_caterpillar,
    diameter,
    even_degree_label_sum,
    tree_from_json,
    tree_to_dot,
    tree_to_json,
    verify_set_sequential,
)

__version__ = "0.1.0"

__all__ = [
    "BASE_CATERPILLARS",
    "CaterpillarSpec",
    "Labeling",
    "PairPartition",
    "PairingInstance",
    "PendantPlan",
    "SearchConfig",
    "SetseqError",
    "Tree",
    "add_pendants",
    "build_caterpillar",
    "diameter",
    "echelon_basis",
    "even_degree_label_sum",
    "exact_pairing_solver",
    "fixtures_dir",
    "format_partition",
    "four_copies",
    "label_large_caterpillar",
    "label_small_diameter",
    "load_fixture",
    "partition_errors",
    "search_labeling",
    "solve_pairing",
    "solve_w_prefixes",
    "tree_from_json",
    "tree_to_dot",
    "tree_to_json",
    "verify_set_sequential",
    "__version__",
]
