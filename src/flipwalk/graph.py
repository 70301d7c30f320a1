"""The one undirected graph type behind flip graphs, lattice flip graphs and
Cartesian products: sorted adjacency lists or CSR arrays.

A graph is built from either form and derives the other on first use.
Python loops (walks, flows, class decompositions, the BFS tree) read `adj`
one vertex at a time, which is faster on lists than on CSR slices; the
numpy/scipy consumers, connectivity, the edge list and the JSON export read
the CSR arrays.
"""

from __future__ import annotations

import json

import numpy as np


def _frozen_int32(a) -> np.ndarray:
    a = np.asarray(a, dtype=np.int32)
    a.flags.writeable = False
    return a


def _ranges(lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """The index ranges lo[i]..hi[i], concatenated."""
    sizes = hi - lo
    return np.arange(sizes.sum()) + np.repeat(lo - np.cumsum(sizes) + sizes, sizes)


class Graph:
    """Undirected graph on 0..N-1, from sorted adjacency lists `adj` or from
    CSR arrays `csr=(indptr, indices)` with each row sorted.

    `coords` optionally holds a coordinate tuple per vertex (product graphs).
    """

    def __init__(self, adj: list | None = None, coords: list | None = None,
                 *, csr: tuple | None = None):
        self._adj = adj
        self._csr = None if csr is None else tuple(map(_frozen_int32, csr))
        self.coords = coords

    @property
    def adj(self) -> list:
        """Sorted neighbour list per vertex, built from the CSR on first use."""
        if self._adj is None:
            indptr, indices = self._csr
            flat, bounds = indices.tolist(), indptr.tolist()
            self._adj = [flat[lo:hi] for lo, hi in zip(bounds, bounds[1:])]
        return self._adj

    @property
    def num_vertices(self) -> int:
        return len(self._adj) if self._csr is None else self._csr[0].size - 1

    @property
    def degree(self) -> int:
        """Maximum degree."""
        if self._csr is None:
            return max(map(len, self._adj), default=0)
        return int(np.diff(self._csr[0]).max(initial=0))

    def num_edges(self) -> int:
        if self._csr is None:
            return sum(map(len, self._adj)) // 2
        return int(self._csr[0][-1]) // 2

    def _edge_array(self) -> np.ndarray:
        """(E, 2) array of the edges (i, j), i < j, by i and then j."""
        indptr, indices = self.csr()
        src = np.repeat(np.arange(self.num_vertices, dtype=np.int32), np.diff(indptr))
        keep = src < indices
        return np.stack([src[keep], indices[keep]], axis=1)

    def edges(self):
        """The edges (i, j), i < j, by i and then j."""
        return zip(*self._edge_array().T.tolist())

    def bfs_tree(self, root: int, allowed=None) -> dict:
        """BFS parent map from root, optionally inside the vertex set
        `allowed`; keys are in BFS order and each level is processed in
        sorted order, so a vertex's parent is its smallest neighbour on the
        previous level."""
        adj = self.adj
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

    def is_connected(self) -> bool:
        """BFS from vertex 0 on the CSR arrays, one numpy step per level."""
        if not self.num_vertices:
            return True
        indptr, indices = self.csr()
        seen = np.zeros(self.num_vertices, dtype=bool)
        seen[0] = True
        frontier = np.zeros(1, dtype=np.int64)
        while frontier.size:
            nbrs = indices[_ranges(indptr[frontier], indptr[frontier + 1])]
            frontier = np.unique(nbrs[~seen[nbrs]])
            seen[frontier] = True
        return bool(seen.all())

    def csr(self) -> tuple:
        """(indptr, indices) as read-only int32 arrays, built on first use."""
        if self._csr is None:
            n = self.num_vertices
            indptr = np.zeros(n + 1, dtype=np.int32)
            np.cumsum(np.fromiter(map(len, self.adj), np.int64, count=n), out=indptr[1:])
            indices = np.fromiter(
                (j for nbrs in self.adj for j in nbrs), np.int32, count=int(indptr[-1])
            )
            self._csr = (_frozen_int32(indptr), _frozen_int32(indices))
        return self._csr

    def to_json_dict(self) -> dict:
        return {"edges": self._edge_array().tolist()}

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
