"""Flip-graph toolkit: k-angulation flip walks, class decompositions,
multicommodity-flow congestion machinery, and exact chain analysis.

The public names are imported from their modules on first use (PEP 562),
so `import flipwalk` loads no layer, and a CLI call loads only the layers
its command runs."""

import sys
from importlib import import_module

# public name -> the module that defines it
_EXPORTS = {
    "binomial": "combinatorics",
    "catalan": "combinatorics",
    "fuss_catalan": "combinatorics",
    "boundary_matchings": "decomposition",
    "boundary_projection": "decomposition",
    "oriented_partition": "decomposition",
    "verify_matching_inequality": "decomposition",
    "BoundaryMatching": "decomposition",
    "ClassDescriptor": "decomposition",
    "ClassPartition": "decomposition",
    "hierarchical_pairing_flow": "flownet",
    "uniform_flow_recursive": "flownet",
    "verify_unit_demands": "flownet",
    "congestion_report": "flows",
    "ArcFlow": "flows",
    "CongestionReport": "flows",
    "product_graph": "graph",
    "Graph": "graph",
    "build_flip_graph": "kangulation",
    "count_kangulations": "kangulation",
    "flip_graph_from_json_dict": "kangulation",
    "FlipGraph": "kangulation",
    "count_triangulations_recursive": "lattice",
    "enumerate_lattice": "lattice",
    "product_subgraph": "lattice",
    "LatticeFlipGraph": "lattice",
    "build_chain": "spectral",
    "cheeger_bounds": "spectral",
    "mixing_time": "spectral",
    "sample_walk": "spectral",
    "shortest_side_cut": "spectral",
    "tvd_curve": "spectral",
    "ChainAnalysis": "spectral",
    "CutReport": "spectral",
}

__all__ = sorted(_EXPORTS)

__version__ = "0.1.0"


def _lazy_names(module: str, table: dict):
    """A PEP 562 module `__getattr__` for `module`: a name of `table` (name
    -> module of this package) is imported on first use and kept as a
    global of `module`, so later lookups, and rebindings, bypass it."""

    def __getattr__(name):
        if name not in table:
            raise AttributeError(f"module {module!r} has no attribute {name!r}")
        value = getattr(import_module(f"{__name__}.{table[name]}"), name)
        setattr(sys.modules[module], name, value)
        return value

    return __getattr__


__getattr__ = _lazy_names(__name__, _EXPORTS)


def __dir__():
    return sorted({*globals(), *_EXPORTS})
