"""The one undirected graph type behind flip graphs, lattice flip graphs and
Cartesian products, held as CSR arrays.

A graph is the pair (indptr, indices) of read-only int32 arrays, each row
sorted; nothing else is stored.  Every reader walks those arrays: the edge
list, the JSON export, `sweep` (the one array traversal: connectivity and
eccentricities) and the numpy Kronecker-sum product.  The
state modules' shared array helpers live here too, and `splitmix64`, the
fixed 64-bit words behind the lattice keys and the Lanczos start vector.
"""

from __future__ import annotations

import json

import numpy as np


def _frozen_int32(a) -> np.ndarray:
    a = np.asarray(a, dtype=np.int32)
    a.flags.writeable = False
    return a


FLIP_CHUNK = 4096  # states per batch of the lattice flip kernel and checks


def splitmix64(count: int) -> np.ndarray:
    """The first `count` outputs of splitmix64 from seed 0, in numpy's
    wrapping uint64 arithmetic: fixed words, with no generator state and no
    import of numpy's random module."""
    x = np.arange(1, count + 1, dtype=np.uint64) * np.uint64(0x9E3779B97F4A7C15)
    x = (x ^ (x >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    x = (x ^ (x >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return x ^ (x >> np.uint64(31))


def _ranges(lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """The index ranges lo[i]..hi[i], concatenated."""
    sizes = hi - lo
    return np.arange(sizes.sum()) + np.repeat(lo - np.cumsum(sizes) + sizes, sizes)


def _row_keys(rows: np.ndarray) -> np.ndarray:
    """One byte string per row, a view of the rows; with one byte per
    column, or big-endian columns, byte order is row order.  Rows with no
    column all get the empty key (a new array)."""
    rows = np.ascontiguousarray(rows)
    if not rows.shape[1]:
        return np.zeros(len(rows), dtype="S1")
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
    """Undirected graph on 0..N-1 from CSR arrays, each row sorted: vertex
    v's neighbours are indices[indptr[v]:indptr[v + 1]]."""

    def __init__(self, indptr, indices):
        self._csr = (_frozen_int32(indptr), _frozen_int32(indices))

    @property
    def num_vertices(self) -> int:
        return self._csr[0].size - 1

    @property
    def degree(self) -> int:
        """Maximum degree."""
        return int(np.diff(self._csr[0]).max(initial=0))

    def num_edges(self) -> int:
        return int(self._csr[0][-1]) // 2

    def csr(self) -> tuple:
        """(indptr, indices) as read-only int32 arrays."""
        return self._csr

    def arcs(self, vertices=None) -> tuple:
        """(source, target) of every arc out of `vertices`, an int array
        (every vertex by default), in its order and then by target."""
        indptr, indices = self._csr
        if vertices is None:
            return np.repeat(np.arange(self.num_vertices, dtype=np.int32), np.diff(indptr)), indices
        lo, hi = indptr[vertices], indptr[vertices + 1]
        return np.repeat(vertices, hi - lo), indices[_ranges(lo, hi)]

    def _edge_array(self) -> np.ndarray:
        """(E, 2) array of the edges (i, j), i < j, by i and then j."""
        src, dst = self.arcs()
        keep = src < dst
        return np.stack([src[keep], dst[keep]], axis=1)

    def edges(self):
        """The edges (i, j), i < j, by i and then j."""
        return zip(*self._edge_array().T.tolist())

    def is_connected(self) -> bool:
        """`sweep` from vertex 0."""
        return not self.num_vertices or bool(sweep(self, [0])[1][0])

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


def graph_from_arcs(n: int, src, dst) -> Graph:
    """The graph on 0..n-1 whose row v holds the target of every arc out of
    v, sorted; each undirected edge must be given as both of its arcs.  One
    sort of the int64 keys src * n + dst orders the arcs by row and target."""
    key = np.sort(np.asarray(src, dtype=np.int64) * n + dst)
    return Graph(np.searchsorted(key, np.arange(n + 1) * n), key % n)


def product_graph(g, h) -> Graph:
    """Cartesian product G box H, as a Kronecker sum: vertex (x, y) has
    index x * |V(H)| + y, and its row holds x' * |V(H)| + y for each
    neighbour x' of x and x * |V(H)| + y' for each neighbour y' of y."""
    nh = h.num_vertices
    (gx, gx2), (hy, hy2) = g.arcs(), h.arcs()
    xs, ys = np.arange(g.num_vertices)[:, None] * nh, np.arange(nh)
    src = np.concatenate([(gx[:, None] * nh + ys).ravel(), (xs + hy).ravel()])
    dst = np.concatenate([(gx2[:, None] * nh + ys).ravel(), (xs + hy2).ravel()])
    return graph_from_arcs(g.num_vertices * nh, src, dst)
