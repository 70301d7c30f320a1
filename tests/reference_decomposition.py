"""The decomposition routines that only tests run: the central partition,
generated from its faces as the package generates the oriented one, and the
check that every class induces the Cartesian product of its factors'
flip graphs.  No command builds the central partition; the central cut
reads its faces alone (`decomposition._central_faces`)."""

from functools import reduce

import numpy as np

from flipwalk.decomposition import ClassPartition, _build_classes, _central_faces
from flipwalk.errors import StructureMismatchError
from flipwalk.graph import graph_from_arcs, product_graph
from flipwalk.kangulation import FlipGraph, build_flip_graph


def central_partition(graph: FlipGraph) -> ClassPartition:
    """Partition of a flip graph by the k-gon containing the polygon center."""
    return _build_classes(graph, _central_faces(graph.k, graph.m), "central")


def verify_class_product_structure(partition: ClassPartition) -> None:
    """Check each class induces exactly the Cartesian product of its factors.

    The members, taken in coordinate order, must induce the adjacency of the
    left-fold product of the factor flip graphs: factor states are in the
    canonical order the coordinates index, and the fold indexes coordinate
    tuples lexicographically.
    """
    src, dst = partition.graph.arcs()
    for ci, c in enumerate(partition.classes):
        pos = np.full(partition.graph.num_vertices, -1)
        pos[c.by_coord] = np.arange(c.size)
        inside = (pos[src] >= 0) & (pos[dst] >= 0)
        induced = graph_from_arcs(c.size, pos[src[inside]], pos[dst[inside]]).csr()
        factors = [build_flip_graph(k, max(ni, 1)) for k, ni in c.cartesian_factors]
        if not all(map(np.array_equal, induced, reduce(product_graph, factors).csr())):
            raise StructureMismatchError(
                f"class {ci} does not induce the product of its factor flip graphs"
            )
