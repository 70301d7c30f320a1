"""The shared graph type: BFS tree rule, connectivity, CSR arrays, and the
Kronecker-sum product against list references."""

from functools import reduce

import numpy as np
import pytest
from reference_flips import eccentricities as reference_eccentricities
from reference_graph import (adjacency_lists, bfs_tree, bfs_tree_lists, graph_from_lists,
                             product_lists)

from flipwalk.decomposition import oriented_partition
from flipwalk.graph import Graph, graph_from_arcs, product_graph, splitmix64
from flipwalk.kangulation import build_flip_graph
from flipwalk.lattice import enumerate_lattice

# a 6-cycle 0-4-2-3-1-5-0: BFS from 0 discovers 2 before 1 on level two
HEXAGON_LISTS = [[4, 5], [3, 5], [3, 4], [1, 2], [0, 2], [0, 1]]
HEXAGON = graph_from_lists(HEXAGON_LISTS)


def test_bfs_tree_processes_each_level_in_sorted_order():
    parent = bfs_tree(HEXAGON, 0)
    assert parent == {0: None, 4: 0, 5: 0, 2: 4, 1: 5, 3: 1}
    assert bfs_tree(HEXAGON, 0, allowed={0, 2, 3, 4}) == {0: None, 4: 0, 2: 4, 3: 2}


@pytest.mark.parametrize("n", range(1, 8))
def test_bfs_tree_matches_list_reference(n):
    """From every vertex of every oriented class at k = 3, inside the class
    and in the whole graph: the same parents, inserted in the same order."""
    g = build_flip_graph(3, n)
    adj = adjacency_lists(g)
    for c in oriented_partition(g).classes:
        allowed = set(c.member_indices)
        for z in c.member_indices:
            got = bfs_tree(g, z, allowed)
            assert list(got.items()) == list(bfs_tree_lists(adj, z, allowed).items())
            got = bfs_tree(g, z)
            assert list(got.items()) == list(bfs_tree_lists(adj, z).items())


def _csgraph_connected(g) -> bool:
    return reference_eccentricities(g, [0])[0] is not None


def test_is_connected():
    assert graph_from_lists([]).is_connected()
    for g, want in [(HEXAGON, True), (graph_from_lists([[]]), True),
                    (graph_from_lists([[1], [0], []]), False)]:
        assert g.is_connected() == _csgraph_connected(g) == want


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_is_connected_matches_csgraph_on_lattice_graphs(n):
    """Each lattice flip graph is connected, and cutting every edge at its
    last vertex leaves it disconnected (from n = 2 on)."""
    g = enumerate_lattice(n)
    assert g.is_connected() and _csgraph_connected(g)
    last = g.num_vertices - 1
    cut = graph_from_lists(
        [[j for j in nbrs if j != last] for nbrs in adjacency_lists(g)[:-1]] + [[]])
    assert cut.is_connected() == _csgraph_connected(cut) == (n == 1)


def test_csr_matches_adjacency_and_is_cached():
    indptr, indices = HEXAGON.csr()
    assert indptr.dtype == indices.dtype == np.int32
    assert not indptr.flags.writeable and not indices.flags.writeable
    assert indptr.tolist() == [0, 2, 4, 6, 8, 10, 12]
    assert indices.tolist() == [j for nbrs in HEXAGON_LISTS for j in nbrs]
    assert HEXAGON.csr()[1] is indices


def test_splitmix64_gives_the_published_seed_zero_words():
    """The lattice keys and the Lanczos start vector read these words; the
    first three are splitmix64's published outputs from seed 0."""
    words = splitmix64(3)
    assert words.dtype == np.uint64
    assert words.tolist() == [0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4, 0x06C45D188009454F]
    assert splitmix64(0).size == 0 and (splitmix64(64)[:3] == words).all()


def test_list_helpers_round_trip_through_csr():
    """Lists read back from a graph build the same arrays, counts, edges and
    JSON, and so does the graph of its arcs."""
    assert adjacency_lists(HEXAGON) == HEXAGON_LISTS
    for g in (graph_from_lists(adjacency_lists(HEXAGON)), Graph(*HEXAGON.csr()),
              graph_from_arcs(6, *HEXAGON.arcs()[::-1])):
        assert all(map(np.array_equal, g.csr(), HEXAGON.csr()))
        assert g.num_vertices == 6 and g.degree == 2 and g.num_edges() == 6
        assert list(g.edges()) == list(HEXAGON.edges())
        assert g.to_json() == HEXAGON.to_json()
    empty = graph_from_lists([])
    assert empty.num_vertices == empty.degree == empty.num_edges() == 0
    assert adjacency_lists(empty) == [] and list(empty.edges()) == []


_PRODUCTS = {
    "lattice(2)^16": lambda: [enumerate_lattice(2)] * 16,
    "lattice(3)^3": lambda: [enumerate_lattice(3)] * 3,
    "K(3,5)^3": lambda: [build_flip_graph(3, 5)] * 3,
    "K(3,5) x point": lambda: [build_flip_graph(3, 5), enumerate_lattice(1)],
    "point x K(3,4) x point": lambda: [enumerate_lattice(1), build_flip_graph(3, 4),
                                       enumerate_lattice(1)],
    "point x point": lambda: [enumerate_lattice(1)] * 2,
    "K(4,2) x K(3,3)": lambda: [build_flip_graph(4, 2), build_flip_graph(3, 3)],
}


@pytest.mark.parametrize("case", sorted(_PRODUCTS))
def test_product_graph_matches_list_reference(case):
    """The Kronecker-sum product, folded left, against the sorted-list
    product: identical CSR arrays."""
    factors = _PRODUCTS[case]()
    got = reduce(product_graph, factors)
    want = reduce(product_lists, map(adjacency_lists, factors))
    assert got.num_vertices == len(want)
    assert all(map(np.array_equal, got.csr(), graph_from_lists(want).csr()))
