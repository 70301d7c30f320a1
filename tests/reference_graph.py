"""Adjacency-list views of `Graph`, and list-based reference versions of the
Cartesian product and the BFS tree that the CSR code is compared against."""

import numpy as np

from flipwalk.graph import Graph


def graph_from_lists(adj) -> Graph:
    """The graph whose vertex v has the sorted neighbour list adj[v]."""
    indptr = np.zeros(len(adj) + 1, dtype=np.int64)
    np.cumsum([len(nbrs) for nbrs in adj], out=indptr[1:])
    return Graph(indptr, [j for nbrs in adj for j in nbrs])


def adjacency_lists(graph) -> list:
    """The sorted neighbour list of every vertex."""
    bounds, flat = (a.tolist() for a in graph.csr())
    return [flat[lo:hi] for lo, hi in zip(bounds, bounds[1:])]


def product_lists(adj_g, adj_h) -> list:
    """Adjacency lists of G box H; vertex (x, y) has index x * |V(H)| + y."""
    nh = len(adj_h)
    return [
        sorted([x * nh + y2 for y2 in adj_h[y]] + [x2 * nh + y for x2 in adj_g[x]])
        for x in range(len(adj_g))
        for y in range(nh)
    ]


def bfs_tree_lists(adj, root: int, allowed=None) -> dict:
    """BFS parent map from root, optionally inside `allowed`, each level
    processed in sorted order; keys in insertion order."""
    parent = {root: None}
    frontier = [root]
    while frontier:
        nxt = []
        for v in frontier:
            for w in adj[v]:
                if w not in parent and (allowed is None or w in allowed):
                    parent[w] = v
                    nxt.append(w)
        frontier = sorted(nxt)
    return parent
