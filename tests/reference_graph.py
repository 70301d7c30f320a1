"""Adjacency-list views of `Graph`, and list-based reference versions of the
Cartesian product, the BFS tree and the inter-class matchings that the
array code is compared against.

`bfs_tree` (the array BFS tree, behind the projection-restriction
combiner's canonical paths), `eccentricities` and `diameter` run on the
package's arrays; no command runs them.
"""

import numpy as np

from flipwalk.errors import InvalidParameterError, LemmaViolationError
from flipwalk.graph import Graph, sweep
from flipwalk.kangulation import orbit_representatives


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


def bfs_tree(graph, root: int, allowed=None) -> dict:
    """BFS parent map from root, optionally inside the vertex set
    `allowed`; keys are in BFS order.  Each level is processed in sorted
    order, so a vertex's parent is its smallest neighbour on the previous
    level, and a level's keys follow (parent, vertex) order."""
    seen = np.full(graph.num_vertices, allowed is not None)
    if allowed is not None:
        seen[list(allowed)] = False
    seen[root] = True
    parent = {root: None}
    frontier = np.array([root])
    while frontier.size:
        src, dst = graph.arcs(frontier)
        new = ~seen[dst]
        src, dst = src[new], dst[new]
        # a vertex's first arc comes from its smallest neighbour on this level
        frontier, first = np.unique(dst, return_index=True)
        first.sort()
        parent.update(zip(dst[first].tolist(), src[first].tolist()))
        seen[frontier] = True
    return parent


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


def boundary_matchings_lists(partition) -> list:
    """(class a, class b, sorted edge list) per class pair a < b, bucketed
    by a Python loop over every edge, with the checks and the errors of
    `decomposition.boundary_matchings`."""
    vc = partition.vertex_class.tolist()
    buckets = {}
    for i, j in partition.graph.edges():
        ci, cj = vc[i], vc[j]
        if ci == cj:
            continue
        if ci > cj:
            ci, cj, i, j = cj, ci, j, i
        buckets.setdefault((ci, cj), []).append((i, j))
    out = []
    ncls = len(partition.classes)
    for ca in range(ncls):
        for cb in range(ca + 1, ncls):
            edges = sorted(buckets.get((ca, cb), []))
            ba = set(u for u, _ in edges)
            bb = set(v for _, v in edges)
            if len(ba) != len(edges) or len(bb) != len(edges):
                raise LemmaViolationError(
                    f"edges between classes {ca},{cb} are not a matching",
                    witness=(ca, cb),
                )
            if partition.kind == "oriented" and not edges:
                raise LemmaViolationError(
                    f"oriented classes {ca},{cb} have no connecting edge",
                    witness=(ca, cb),
                )
            if edges or partition.kind == "central":
                out.append((ca, cb, edges))
    return out


def eccentricities(graph: Graph, starts: list) -> list:
    """BFS eccentricity of each start vertex (one `sweep`)."""
    ecc, full = sweep(graph, starts)
    if not full.all():
        raise InvalidParameterError("graph is disconnected")
    return ecc.tolist()


def diameter(graph) -> int:
    """Exact diameter of a flip graph via per-orbit eccentricities."""
    return max(eccentricities(graph, orbit_representatives(graph)))
