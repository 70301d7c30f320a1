"""The one undirected graph type behind flip graphs, lattice flip graphs and
Cartesian products: sorted adjacency lists, one BFS, a cached CSR view.

Python loops (walks, flows, class decompositions, JSON export) read `adj`
one vertex at a time, which is faster on lists than on CSR slices; the CSR
arrays are derived once, on demand, for the numpy/scipy consumers.
"""

from __future__ import annotations

import json

import numpy as np


class Graph:
    """Undirected graph on 0..N-1 as sorted adjacency lists.

    `coords` optionally holds a coordinate tuple per vertex (product graphs).
    """

    def __init__(self, adj: list, coords: list | None = None):
        self.adj = adj
        self.coords = coords
        self._csr = None

    @property
    def num_vertices(self) -> int:
        return len(self.adj)

    @property
    def degree(self) -> int:
        """Maximum degree."""
        return max(map(len, self.adj), default=0)

    def num_edges(self) -> int:
        return sum(map(len, self.adj)) // 2

    def edges(self):
        for i, nbrs in enumerate(self.adj):
            for j in nbrs:
                if i < j:
                    yield (i, j)

    def bfs_tree(self, root: int, allowed=None) -> dict:
        """BFS parent map from root, optionally inside the vertex set
        `allowed`; keys are in BFS order and each level is processed in
        sorted order, so a vertex's parent is its smallest neighbour on the
        previous level."""
        parent = {root: None}
        frontier = [root]
        while frontier:
            nxt = []
            for v in frontier:
                for w in self.adj[v]:
                    if w not in parent and (allowed is None or w in allowed):
                        parent[w] = v
                        nxt.append(w)
            frontier = sorted(nxt)
        return parent

    def is_connected(self) -> bool:
        return not self.adj or len(self.bfs_tree(0)) == self.num_vertices

    def csr(self) -> tuple:
        """(indptr, indices) as read-only int32 arrays, built on first use."""
        if self._csr is None:
            n = self.num_vertices
            indptr = np.zeros(n + 1, dtype=np.int32)
            np.cumsum(np.fromiter(map(len, self.adj), np.int64, count=n), out=indptr[1:])
            indices = np.fromiter(
                (j for nbrs in self.adj for j in nbrs), np.int32, count=int(indptr[-1])
            )
            indptr.flags.writeable = indices.flags.writeable = False
            self._csr = (indptr, indices)
        return self._csr

    def to_json_dict(self) -> dict:
        return {"edges": [[i, j] for i, j in self.edges()]}

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), sort_keys=True)

    def _dot(self, name: str, labels) -> str:
        """DOT text with one labelled node per vertex and one line per edge."""
        lines = [f"graph {name} {{"]
        lines += [f'  v{i} [label="{label}"];' for i, label in enumerate(labels)]
        lines += [f"  v{i} -- v{j};" for i, j in self.edges()]
        lines.append("}")
        return "\n".join(lines)


def product_graph(g, h) -> Graph:
    """Cartesian product G box H; vertex (x, y) has index x * |V(H)| + y."""
    nh = h.num_vertices
    adj = []
    coords = []
    for x in range(g.num_vertices):
        for y in range(nh):
            nbrs = [x * nh + y2 for y2 in h.adj[y]]
            nbrs += [x2 * nh + y for x2 in g.adj[x]]
            adj.append(sorted(nbrs))
            coords.append((x, y))
    return Graph(adj, coords)
