"""The one undirected graph type behind flip graphs, lattice flip graphs and
Cartesian products: sorted adjacency lists or CSR arrays.

A graph is built from either form and derives the other on first use.
Python loops (walks, flows, class decompositions, the BFS tree) read `adj`
one vertex at a time, which is faster on lists than on CSR slices; the
numpy/scipy consumers, the edge list, the JSON export and `sweep`, the one
array traversal (connectivity and eccentricities), read the CSR arrays.
The state modules' shared array helpers live here too.
"""

from __future__ import annotations

import json

import numpy as np


def _frozen_int32(a) -> np.ndarray:
    a = np.asarray(a, dtype=np.int32)
    a.flags.writeable = False
    return a


FLIP_CHUNK = 4096  # states per batch of the face walk and of either flip routine


def _ranges(lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """The index ranges lo[i]..hi[i], concatenated."""
    sizes = hi - lo
    return np.arange(sizes.sum()) + np.repeat(lo - np.cumsum(sizes) + sizes, sizes)


def _row_keys(rows: np.ndarray) -> np.ndarray:
    """One byte string per row of a nonempty-width array; with one byte per
    column, or big-endian columns, byte order is row order."""
    rows = np.ascontiguousarray(rows)
    return rows.view(f"S{rows.shape[1] * rows.itemsize}").ravel()


def _lookup(sorted_keys: np.ndarray, want: np.ndarray) -> tuple:
    """(position of each wanted key in the nonempty sorted_keys, whether it
    is there)."""
    at = np.searchsorted(sorted_keys, want)
    return at, sorted_keys[np.minimum(at, len(sorted_keys) - 1)] == want


def sweep(graph, starts) -> tuple:
    """Bit-parallel BFS from every start (Then et al., "The More the
    Merrier", PVLDB 2014): (eccentricity, reaches every vertex) per start,
    as arrays.

    Starts run 64 to a pass, one uint64 bit each.  A vertex's word holds the
    bits of the starts that have reached it; each level pushes the words
    newly set on the frontier to its neighbours' words, so a vertex joins
    the frontier once per distance at which some start of the pass first
    reaches it.  A start's eccentricity is the last level on which its bit
    is new somewhere."""
    indptr, indices = graph.csr()
    starts = np.asarray(starts, dtype=np.int64)
    ecc = np.zeros(len(starts), dtype=np.int64)
    full = np.zeros(len(starts), dtype=bool)
    for lo in range(0, len(starts), 64):
        part = starts[lo:lo + 64]
        bits = np.uint64(1) << np.arange(len(part), dtype=np.uint64)
        seen = np.zeros(graph.num_vertices, dtype=np.uint64)
        np.bitwise_or.at(seen, part, bits)
        new, level = seen, 0
        while (frontier := np.flatnonzero(new)).size:
            word = new[frontier]
            ecc[lo:lo + 64][(np.bitwise_or.reduce(word) & bits) != 0] = level
            a, b = indptr[frontier], indptr[frontier + 1]
            new = np.zeros_like(seen)
            np.bitwise_or.at(new, indices[_ranges(a, b)], np.repeat(word, b - a))
            new &= ~seen
            seen |= new
            level += 1
        full[lo:lo + 64] = (np.bitwise_and.reduce(seen) & bits) != 0
    return ecc, full


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
        """`sweep` from vertex 0 on the CSR arrays."""
        return not self.num_vertices or bool(sweep(self, [0])[1][0])

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
