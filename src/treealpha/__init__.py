"""Tree decompositions measured by independence number.

Exact desk-scale solvers for the tree-independence number, Max Weight
Independent Set over (refined) tree decompositions of bounded residual
independence number, and Max Weight Independent Packing of connected
subgraphs via the derived conflict graph.
"""

from .chordal import clique_tree
from .decomposition import (
    RefinedTreeDecomposition,
    ValidationReport,
    Violation,
    compose_clique_cutset,
    independence_number,
    make_decomposition,
    residual_independence_number,
    trivial_decomposition,
    validate,
    width,
)
from .errors import (
    CapExceededError,
    GraphError,
    InvalidDecompositionError,
    ParseError,
    ResidualBoundViolation,
)
from .exact import alpha_exact, alpha_of_subset
from .generators import (
    complete_bipartite,
    complete_graph,
    cycle_graph,
    double_join,
    generate,
    path_graph,
    sharpness_gadget,
)
from .graph import Graph, build_graph, is_independent
from .mwis import solve_mwis
from .nice import make_nice, node_kinds
from .oracle import tin_exact, treewidth_exact
from .packing import (
    PackingInstance,
    SubgraphFamily,
    derived_graph,
    enumerate_F_subgraphs,
    make_family,
    make_instance,
    pattern_by_name,
    solve_packing,
)
from .weights import WeightMap

__version__ = "0.1.0"

__all__ = [
    "CapExceededError",
    "Graph",
    "GraphError",
    "InvalidDecompositionError",
    "PackingInstance",
    "ParseError",
    "RefinedTreeDecomposition",
    "ResidualBoundViolation",
    "SubgraphFamily",
    "ValidationReport",
    "Violation",
    "WeightMap",
    "alpha_exact",
    "alpha_of_subset",
    "build_graph",
    "clique_tree",
    "complete_bipartite",
    "complete_graph",
    "compose_clique_cutset",
    "cycle_graph",
    "derived_graph",
    "double_join",
    "enumerate_F_subgraphs",
    "generate",
    "independence_number",
    "is_independent",
    "make_decomposition",
    "make_family",
    "make_instance",
    "make_nice",
    "node_kinds",
    "path_graph",
    "pattern_by_name",
    "residual_independence_number",
    "sharpness_gadget",
    "solve_mwis",
    "solve_packing",
    "tin_exact",
    "treewidth_exact",
    "trivial_decomposition",
    "validate",
    "width",
]
