"""The shared graph type: BFS tree rule, connectivity, CSR view."""

import numpy as np
import pytest
from reference_flips import eccentricities as reference_eccentricities

from flipwalk.graph import Graph
from flipwalk.lattice import enumerate_lattice

# a 6-cycle 0-4-2-3-1-5-0: BFS from 0 discovers 2 before 1 on level two
HEXAGON = Graph([[4, 5], [3, 5], [3, 4], [1, 2], [0, 2], [0, 1]])


def test_bfs_tree_processes_each_level_in_sorted_order():
    parent = HEXAGON.bfs_tree(0)
    assert parent == {0: None, 4: 0, 5: 0, 2: 4, 1: 5, 3: 1}
    assert HEXAGON.bfs_tree(0, allowed={0, 2, 3, 4}) == {0: None, 4: 0, 2: 4, 3: 2}


def _csgraph_connected(g) -> bool:
    return reference_eccentricities(g, [0])[0] is not None


def test_is_connected():
    assert Graph([]).is_connected()
    for g, want in [(HEXAGON, True), (Graph([[]]), True), (Graph([[1], [0], []]), False)]:
        assert g.is_connected() == _csgraph_connected(g) == want


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_is_connected_matches_csgraph_on_lattice_graphs(n):
    """Each lattice flip graph is connected, and cutting every edge at its
    last vertex leaves it disconnected (from n = 2 on)."""
    g = enumerate_lattice(n)
    assert g.is_connected() and _csgraph_connected(g)
    last = g.num_vertices - 1
    cut = Graph([[j for j in nbrs if j != last] for nbrs in g.adj[:-1]] + [[]])
    assert cut.is_connected() == _csgraph_connected(cut) == (n == 1)


def test_csr_matches_adjacency_and_is_cached():
    indptr, indices = HEXAGON.csr()
    assert indptr.dtype == indices.dtype == np.int32
    assert indptr.tolist() == [0, 2, 4, 6, 8, 10, 12]
    assert indices.tolist() == [j for nbrs in HEXAGON.adj for j in nbrs]
    assert HEXAGON.csr()[1] is indices


def test_graph_from_csr_matches_graph_from_lists():
    """A CSR-built graph derives the same lists, counts, edges and JSON."""
    g = Graph(csr=HEXAGON.csr())
    assert g._adj is None  # lists are built on first read
    assert g.num_vertices == 6 and g.degree == 2 and g.num_edges() == 6
    assert list(g.edges()) == list(HEXAGON.edges())
    assert g.to_json() == HEXAGON.to_json()
    assert g.adj == HEXAGON.adj
    assert g.bfs_tree(0) == HEXAGON.bfs_tree(0)


def test_is_connected_reads_the_csr_only():
    """Connectivity of a CSR-built graph never builds the adjacency lists."""
    g = Graph(csr=HEXAGON.csr())
    assert g.is_connected() and g._adj is None
    split = Graph(csr=Graph([[1], [0], [3], [2]]).csr())
    assert not split.is_connected() and split._adj is None
