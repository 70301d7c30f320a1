"""Flip-graph toolkit: k-angulation flip walks, class decompositions,
multicommodity-flow congestion machinery, and exact chain analysis."""

from .combinatorics import (
    binomial,
    catalan,
    fuss_catalan,
    fuss_catalan_bounds,
    fuss_catalan_bounds_log,
)
from .decomposition import (
    BoundaryMatching,
    ClassDescriptor,
    ClassPartition,
    boundary_matchings,
    boundary_projection,
    central_partition,
    oriented_partition,
    verify_matching_inequality,
)
from .flownet import (
    cartesian_flow_combine,
    hierarchical_pairing_flow,
    projection_restriction_combine,
    uniform_flow_recursive,
    verify_unit_demands,
)
from .flows import (
    ArcFlow,
    CongestionReport,
    congestion_report,
    expansion_lower_bound,
)
from .graph import Graph, product_graph
from .kangulation import (
    FlipGraph,
    build_flip_graph,
    count_kangulations,
    diameter,
    flip_graph_from_json_dict,
)
from .lattice import (
    LatticeFlipGraph,
    count_triangulations_recursive,
    enumerate_lattice,
    product_subgraph,
)
from .spectral import (
    ChainAnalysis,
    CutReport,
    brute_force_expansion,
    build_chain,
    cheeger_bounds,
    mixing_time,
    sample_walk,
    shortest_side_cut,
    tvd,
    tvd_curve,
)

__all__ = [
    "ArcFlow",
    "BoundaryMatching",
    "ChainAnalysis",
    "ClassDescriptor",
    "ClassPartition",
    "CongestionReport",
    "CutReport",
    "FlipGraph",
    "Graph",
    "LatticeFlipGraph",
    "binomial",
    "boundary_matchings",
    "boundary_projection",
    "brute_force_expansion",
    "build_chain",
    "build_flip_graph",
    "cartesian_flow_combine",
    "catalan",
    "central_partition",
    "cheeger_bounds",
    "congestion_report",
    "count_kangulations",
    "count_triangulations_recursive",
    "diameter",
    "enumerate_lattice",
    "expansion_lower_bound",
    "flip_graph_from_json_dict",
    "fuss_catalan",
    "fuss_catalan_bounds",
    "fuss_catalan_bounds_log",
    "hierarchical_pairing_flow",
    "mixing_time",
    "oriented_partition",
    "product_graph",
    "product_subgraph",
    "projection_restriction_combine",
    "sample_walk",
    "shortest_side_cut",
    "tvd",
    "tvd_curve",
    "uniform_flow_recursive",
    "verify_matching_inequality",
    "verify_unit_demands",
]

__version__ = "0.1.0"
