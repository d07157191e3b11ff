"""Maximum and maximal (k,l)-sparse subgraphs of multigraphs.

A graph is (k,l)-sparse when every node set X induces at most
max(k|X| - l, 0) edges (for l = 2k only |X| >= 3 is constrained), and
tight when it is sparse with exactly max(k|V| - l, 0) edges.  This
package extracts maximum-size and maximum-weight sparse subgraphs for
0 <= l < 2k by path augmentation over a bounded-indegree orientation,
finds the (k,l)-components of the accepted set in one offline pass over
its final orientation, and computes inclusion-wise maximal
(k,2k)-sparse subgraphs of simple graphs in one pass, at a cost per edge
of at most 2k zeroing searches plus one probe per saturated out-neighbour
of its endpoints, each O(n + kn).  A brute-force oracle, seeded benchmark
generators, and a CLI round it out.
"""

from __future__ import annotations

from .components import (
    ComponentSet,
    NotSparseInputError,
    components_of,
    detect_block,
    extract_with_components,
)
from .generators import (
    FAMILIES,
    GenSpec,
    gen_barabasi_albert,
    gen_erdos_renyi,
    gen_rigid,
    gen_tight,
    molecular_transform,
    random_labeled_tree,
)
from .heuristics import (
    STRATEGY_NAMES,
    PhaseOneResult,
    Strategy,
    build_phase_one,
    make_strategy,
    phase_one_sparsity_check,
)
from .multigraph import (
    EdgeCountMismatchError,
    GraphParseError,
    MalformedEdgeError,
    MalformedHeaderError,
    Multigraph,
    NegativeWeightError,
    NodeIdOutOfRangeError,
    parse_graph,
    serialize_graph,
)
from .oracle import (
    BudgetExceededError,
    is_maximal_2k,
    is_sparse_bruteforce,
    max_sparse_size_oracle,
    naive_l2k_check,
)
from .orientation import (
    IndegreeOverflowError,
    InnerDigraph,
    Instrumentation,
    InvariantError,
    ReversalBoundError,
    ReversalPath,
    StalePathError,
)
from .pebble import (
    ExtractionReport,
    PebbleEngine,
    Reason,
    SparsityParams,
    StrategyContractError,
    UnweightedInputError,
    Verdict,
    WrongRegimeError,
    decide,
    extract,
    extract_weighted,
)
from .sparse2k import (
    NotSimpleInputError,
    OrientationInfeasibleError,
    TwoKEngine,
    extract_maximal_2k,
    insertable,
    zero_pair_indegrees,
)

__version__ = "0.1.0"

__all__ = [
    "BudgetExceededError",
    "ComponentSet",
    "EdgeCountMismatchError",
    "ExtractionReport",
    "FAMILIES",
    "GenSpec",
    "GraphParseError",
    "IndegreeOverflowError",
    "InnerDigraph",
    "Instrumentation",
    "InvariantError",
    "MalformedEdgeError",
    "MalformedHeaderError",
    "Multigraph",
    "NegativeWeightError",
    "NodeIdOutOfRangeError",
    "NotSimpleInputError",
    "NotSparseInputError",
    "OrientationInfeasibleError",
    "PebbleEngine",
    "PhaseOneResult",
    "Reason",
    "ReversalBoundError",
    "ReversalPath",
    "STRATEGY_NAMES",
    "SparsityParams",
    "StalePathError",
    "Strategy",
    "StrategyContractError",
    "TwoKEngine",
    "UnweightedInputError",
    "Verdict",
    "WrongRegimeError",
    "build_phase_one",
    "components_of",
    "decide",
    "detect_block",
    "extract",
    "extract_maximal_2k",
    "extract_weighted",
    "extract_with_components",
    "gen_barabasi_albert",
    "gen_erdos_renyi",
    "gen_rigid",
    "gen_tight",
    "insertable",
    "is_maximal_2k",
    "is_sparse_bruteforce",
    "make_strategy",
    "max_sparse_size_oracle",
    "molecular_transform",
    "naive_l2k_check",
    "parse_graph",
    "phase_one_sparsity_check",
    "random_labeled_tree",
    "serialize_graph",
    "zero_pair_indegrees",
]
