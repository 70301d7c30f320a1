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
    partition_to_json,
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
    KAngulation,
    build_flip_graph,
    enumerate_kangulations,
    flips,
)
from .lattice import (
    LatticeFlipGraph,
    LatticeTriangulation,
    count_triangulations_recursive,
    enumerate_lattice,
    flips_lattice,
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

__version__ = "0.1.0"
