"""Convex-polygon k-angulations, their flips, and explicit flip graphs.

Polygon vertices are labeled 0..m-1 counterclockwise, m = (k-2)n + 2.
A k-angulation is stored as its sorted tuple of diagonals (a, b), a < b;
two equal k-angulations are bit-identical (canonical form).  Enumeration,
flips and the flip-graph build work on id rows instead: the m-gon's
diagonals are numbered in lexicographic order, a state is the row of its
n-1 diagonal ids in ascending order, and `KAngulation` is the public view
of a row.  The canonical vertex order is the lexicographic order of rows.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import chain, combinations
from typing import NamedTuple

import numpy as np

from .combinatorics import fuss_catalan
from .errors import EnumerationTooLargeError, InvalidParameterError
from .graph import Graph

DEFAULT_ENUMERATION_CAP = 5_000_000
ECC_CHUNK = 16  # BFS starts per csgraph call: 16 x 208012 float64 is 27 MB at n = 12
FLIP_CHUNK = 4096  # states per _flip_rows batch in build_flip_graph

Diagonal = tuple  # (a, b) with a < b


def polygon_size(k: int, n: int) -> int:
    return (k - 2) * n + 2


def diagonals_cross(d1: Diagonal, d2: Diagonal) -> bool:
    """Strict interior crossing on the circular order (a < c < b < d pattern)."""
    a, b = d1
    c, d = d2
    return (a < c < b < d) or (c < a < d < b)


@dataclass(frozen=True)
class KAngulation:
    """A maximal non-crossing set of diagonals cutting an m-gon into k-gons."""

    k: int
    m: int
    diagonals: tuple

    @property
    def n(self) -> int:
        return (self.m - 2) // (self.k - 2)

    def validate(self) -> None:
        k, m = self.k, self.m
        if k < 3:
            raise InvalidParameterError(f"k must be >= 3, got {k}")
        if (m - 2) % (k - 2) != 0 or m < k:
            raise InvalidParameterError(f"no k-angulation of an {m}-gon for k={k}")
        diags = self.diagonals
        if list(diags) != sorted(diags):
            raise InvalidParameterError("diagonals not in canonical sorted order")
        if len(diags) != self.n - 1:
            raise InvalidParameterError(f"expected {self.n - 1} diagonals, got {len(diags)}")
        _flip_rows(_rows_of([diags], m, len(diags)), k, m)  # raises unless a k-angulation


class _Polygon(NamedTuple):
    """The m-gon's diagonals in lexicographic order (so ascending ids give
    the canonical sorted tuple) and the tables the array routines use."""

    diags: list  # id -> (a, b)
    index: dict  # (a, b) -> id
    ends: np.ndarray  # (D, 2): id -> (a, b)
    pair_id: np.ndarray  # (m, m): id of the diagonal {a, b}, else -1
    cross: np.ndarray  # (D, D) bool: the two diagonals cross
    dtype: np.dtype  # of an id row: one byte per id when it fits, else big-endian


@lru_cache(maxsize=None)
def _polygon(m: int) -> _Polygon:
    diags = [(a, b) for a in range(m) for b in range(a + 2, m) if (a, b) != (0, m - 1)]
    ends = np.array(diags, dtype=np.int64).reshape(-1, 2)
    pair_id = np.full((m, m), -1, dtype=np.int64)
    pair_id[ends[:, 0], ends[:, 1]] = pair_id[ends[:, 1], ends[:, 0]] = np.arange(len(diags))
    (a, b), (c, d) = ends.T[:, :, None], ends.T[:, None, :]
    cross = ((a < c) & (c < b) & (b < d)) | ((c < a) & (a < d) & (d < b))
    dtype = np.dtype(np.uint8 if len(diags) <= 256 else ">u2")
    for table in (ends, pair_id, cross):
        table.flags.writeable = False
    return _Polygon(diags, {e: i for i, e in enumerate(diags)}, ends, pair_id, cross, dtype)


@lru_cache(maxsize=None)
def _local_pairs(k: int, n: int) -> np.ndarray:
    """All k-angulations of the (k-2)n+2-gon as an (N, n-1, 2) array of
    diagonal endpoints, in no particular order.

    Recursion: pick the k-gon containing polygon edge (m-1, 0); its other
    vertices split the polygon into k-1 sub-polygons handled recursively,
    and the states with that root face are the Cartesian product of theirs.
    """
    if n <= 1:
        return np.zeros((1, 0, 2), dtype=np.int16)
    blocks = []
    # compositions of n-1 into k-1 parts >= 0 (stars and bars: k-2 bars
    # among n+k-3 slots) determine the root face
    slots = n + k - 3
    for bars in combinations(range(slots), k - 2):
        parts = [b - a - 1 for a, b in zip((-1,) + bars, bars + (slots,))]
        # root face vertices: 0 = c_0 < c_1 < ... < c_{k-2} < c_{k-1} = m-1
        cs = [0]
        for p in parts:
            cs.append(cs[-1] + (k - 2) * p + 1)
        face = np.array(
            [(a, b) for a, b in zip(cs, cs[1:]) if b - a > 1], dtype=np.int16
        ).reshape(-1, 2)
        subs = [_local_pairs(k, p) + base for base, p in zip(cs, parts) if p >= 1]
        picks = np.indices([len(sub) for sub in subs]).reshape(len(subs), -1)
        blocks.append(np.concatenate(
            [np.broadcast_to(face, (picks.shape[1], *face.shape))]
            + [sub[pick] for sub, pick in zip(subs, picks)],
            axis=1,
        ))
    pairs = np.concatenate(blocks)
    pairs.flags.writeable = False
    return pairs


@lru_cache(maxsize=None)
def _enumerate_rows(k: int, n: int) -> np.ndarray:
    """All k-angulations of the (k-2)n+2-gon as read-only id rows, in
    canonical (lexicographic) order."""
    poly = _polygon(polygon_size(k, n))
    pairs = _local_pairs(k, n)
    rows = np.sort(poly.pair_id[pairs[..., 0], pairs[..., 1]], axis=1).astype(poly.dtype)
    if n > 1:
        rows = rows[np.lexsort(rows.T[::-1])]
    rows.flags.writeable = False
    return rows


@lru_cache(maxsize=None)
def _enumerate_local(k: int, n: int) -> tuple:
    """All k-angulations of the (k-2)n+2-gon as sorted diagonal tuples, in
    canonical order."""
    diags = _polygon(polygon_size(k, n)).diags
    return tuple(tuple(map(diags.__getitem__, r)) for r in _enumerate_rows(k, n).tolist())


def _check_size(k: int, n: int, cap: int) -> int:
    if k < 3:
        raise InvalidParameterError(f"k must be >= 3, got {k}")
    if n < 1:
        raise InvalidParameterError(f"n must be >= 1, got {n}")
    count = fuss_catalan(k, n)
    if count > cap:
        raise EnumerationTooLargeError(count, cap)
    return count


def enumerate_kangulations(
    k: int, n: int, cap: int = DEFAULT_ENUMERATION_CAP
) -> list:
    """All k-angulations of the (k-2)n+2-gon, each once, in canonical order."""
    _check_size(k, n, cap)
    m = polygon_size(k, n)
    return [KAngulation(k, m, d) for d in _enumerate_local(k, n)]


def _mask(diagonals, m: int) -> int:
    ids = _polygon(m).index
    mask = 0
    for d in diagonals:
        if d not in ids:
            raise InvalidParameterError(f"{d} is not a diagonal of the {m}-gon")
        mask |= 1 << ids[d]
    return mask


def _faces(mask: int, m: int):
    """Yield (face, rest) per face, the root face on edge (0, m-1) first: the
    face's vertices in increasing order, and the vertices that the face
    across its first-to-last chord adds, in circular order ([] for the root).

    nbr[v] is a bitmask of v's higher neighbours, edge (v, v+1) included.  A
    step goes to the highest neighbour not past the bounding chord (nor onto
    it on the first step); in convex position with non-crossing chords,
    nearer endpoints nest under farther ones, so this greedy walk traces
    the face."""
    diags = _polygon(m).diags
    nbr = [2 << v for v in range(m)]
    while mask:
        low = mask & -mask
        a, b = diags[low.bit_length() - 1]
        nbr[a] |= 1 << b
        mask ^= low
    stack = [(0, m - 1, [])]
    while stack:
        a, b, rest = stack.pop()
        face = [a]
        v = (nbr[a] & ((1 << b) - 1)).bit_length() - 1
        below = (2 << b) - 1
        while v != b:
            face.append(v)
            v = (nbr[v] & below).bit_length() - 1
        face.append(b)
        yield face, rest
        for i in range(len(face) - 1):
            if face[i + 1] - face[i] > 1:
                stack.append((face[i], face[i + 1], face[i + 2:] + face[:i]))


def faces_of(t: KAngulation) -> list:
    """All faces of the k-angulation, each as a tuple of polygon vertices.

    The face list has exactly n entries; each face is listed with its
    vertices in increasing label order.
    """
    return [tuple(face) for face, _ in _faces(_mask(t.diagonals, t.m), t.m)]


def _rows_of(states, m: int, width: int) -> np.ndarray:
    """Id rows of states given as sequences of `width` (a, b) diagonals.

    A pair that is not a diagonal (a < b) of the m-gon, or a repeated
    diagonal, raises InvalidParameterError; each row comes out ascending."""
    poly = _polygon(m)
    try:
        pairs = np.array(states, dtype=np.int64).reshape(len(states), width, 2)
    except (TypeError, ValueError) as exc:
        raise InvalidParameterError(f"states are not lists of {width} (a, b) pairs") from exc
    a, b = pairs[..., 0], pairs[..., 1]
    ok = (0 <= a) & (a < b) & (b < m)
    ids = np.full(a.shape, -1, dtype=np.int64)
    ids[ok] = poly.pair_id[a[ok], b[ok]]
    if (ids < 0).any():
        bad = tuple(pairs[ids < 0][0].tolist())
        raise InvalidParameterError(f"{bad} is not a diagonal of the {m}-gon")
    ids.sort(axis=1)
    if (np.diff(ids, axis=1) == 0).any():
        raise InvalidParameterError("a diagonal is repeated")
    return ids.astype(poly.dtype)


def _flip_rows(rows: np.ndarray, k: int, m: int) -> tuple:
    """All flips of a batch of states, one per row of `rows` (its diagonal
    ids, ascending): (nbrs, removed, inserted), where nbrs[s, f] is the row
    of state s's f-th neighbour, reached by replacing diagonal removed[s, f]
    with inserted[s, f].  Flips come by removed diagonal, ascending, and
    then by the inserted diagonal's end on the removed one's inner face.

    The two faces beside a diagonal (a, b) are walked as offsets around the
    polygon: far[s, v, r] is the largest offset d <= r at which v + d
    (mod m) is joined to v by a side or a diagonal.  From a, the inner
    face's next vertex is the farthest neighbour short of b, and each later
    step goes to the farthest neighbour not past b; in convex position with
    non-crossing diagonals, nearer endpoints nest under farther ones, so
    the walk traces the face.  The outer face is the same walk from b to a
    around the rest of the polygon.  Together the faces form a 2k-2-gon in
    which (a, b) joins an opposite pair, and each of the other k-2 opposite
    pairs is a flip.

    Raises InvalidParameterError if two diagonals of a state cross or a face
    beside a diagonal is not a k-gon (a state with no diagonal must be the
    k-gon itself), so a state that passes is a k-angulation, and so is each
    of its flips.
    """
    poly = _polygon(m)
    count, width = rows.shape
    if width == 0:
        if m != k:
            raise InvalidParameterError(f"the {m}-gon with no diagonal is not a {k}-gon")
        return rows[:, :0, None], rows[:, :0], rows[:, :0]
    crossed = poly.cross[rows[:, :, None], rows[:, None, :]].any(axis=(1, 2))
    if crossed.any():
        s = int(np.argmax(crossed))
        raise InvalidParameterError(
            f"two diagonals of {[poly.diags[i] for i in rows[s].tolist()]} cross"
        )
    ends = poly.ends[rows]
    a, b = ends[..., 0], ends[..., 1]
    state = np.arange(count)[:, None]
    near = np.zeros((count, m, m), dtype=bool)
    near[:, :, [0, 1, m - 1]] = True  # the vertex itself and its two sides
    near[state, a, b - a] = near[state, b, m - (b - a)] = True
    far = np.maximum.accumulate(near * np.arange(m, dtype=np.int16), axis=2)
    # walk the inner face from a and the outer face from b side by side
    at = np.stack([a, b], axis=2)
    left = np.stack([b - a, m - (b - a)], axis=2)  # offset still to go
    state = state[:, :, None]
    step = far[state, at, left - 1]
    path = []
    for _ in range(k - 2):
        at = (at + step) % m
        left = left - step
        path.append(at)
        step = far[state, at, left]
    short = (left == 0) | (step != left)  # the face closes early or late
    if short.any():
        s, j, _ = np.argwhere(short)[0]
        raise InvalidParameterError(
            f"a face beside {poly.diags[rows[s, j]]} is not a {k}-gon"
        )
    # the inner face's i-th vertex is opposite the outer face's i-th vertex
    path = np.stack(path, axis=2)
    inserted = poly.pair_id[path[..., 0], path[..., 1]].astype(rows.dtype)
    removed = np.broadcast_to(rows[:, :, None], inserted.shape)
    keep = np.arange(width - 1) + (np.arange(width - 1) >= np.arange(width)[:, None])
    others = np.broadcast_to(
        rows[:, keep][:, :, None, :], (*inserted.shape, width - 1)
    )
    nbrs = np.sort(np.concatenate([others, inserted[..., None]], axis=3), axis=3)
    flat = count, width * (k - 2)
    return nbrs.reshape(*flat, width), removed.reshape(flat), inserted.reshape(flat)


def flips(t: KAngulation) -> list:
    """All flips of t as (neighbor, removed_diagonal, inserted_diagonal),
    in the order of the removed diagonal in t.diagonals."""
    diags = _polygon(t.m).diags
    row = _rows_of([t.diagonals], t.m, len(t.diagonals))
    nbrs, removed, inserted = _flip_rows(row, t.k, t.m)
    return [
        (KAngulation(t.k, t.m, tuple(map(diags.__getitem__, r))), diags[d], diags[nd])
        for r, d, nd in zip(nbrs[0].tolist(), removed[0].tolist(), inserted[0].tolist())
    ]


def _row_keys(rows: np.ndarray) -> np.ndarray:
    """One byte string per row; big-endian ids make byte order row order."""
    rows = np.ascontiguousarray(rows)
    return rows.view(f"S{rows.shape[1] * rows.itemsize}").ravel()


class FlipGraph(Graph):
    """Explicit flip graph on all k-angulations in canonical vertex order.

    Vertex i is row i of `rows`.  A graph loaded from JSON keeps the vertex
    lists as they were read and decodes them on first use, since a walk
    never reads them.
    """

    def __init__(self, k: int, n: int, rows, indptr, indices):
        super().__init__(csr=(indptr, indices))
        self.k, self.n, self.m = k, n, polygon_size(k, n)
        self._rows = rows
        self._vertices = None

    @property
    def rows(self) -> np.ndarray:
        """(N, n-1) array: each vertex's diagonal ids, ascending."""
        if not isinstance(self._rows, np.ndarray):
            self._rows = _rows_of(self._rows, self.m, self.n - 1)
        return self._rows

    @property
    def vertices(self) -> list:
        """The KAngulation view of every vertex, built on first use."""
        if self._vertices is None:
            diags = _polygon(self.m).diags
            self._vertices = [
                KAngulation(self.k, self.m, tuple(map(diags.__getitem__, r)))
                for r in self.rows.tolist()
            ]
        return self._vertices

    def to_json_dict(self) -> dict:
        return {
            "k": self.k,
            "n": self.n,
            "vertices": _polygon(self.m).ends[self.rows].tolist(),
            **super().to_json_dict(),
        }

    def to_dot(self) -> str:
        names = [f"{a}-{b}" for a, b in _polygon(self.m).diags]
        return self._dot(
            "flipgraph", (";".join(map(names.__getitem__, r)) for r in self.rows.tolist())
        )


def flip_graph_from_json_dict(doc: dict) -> FlipGraph:
    """Rebuild a FlipGraph from its JSON export.

    Every edge must be a pair of integer vertex indices (not bools) in
    range, with no self-loop and no repeat, and every vertex must have the
    flip degree (n-1)(k-2); anything else raises InvalidParameterError.
    """
    k, n, vertices, edges = doc["k"], doc["n"], doc["vertices"], doc["edges"]
    count = len(vertices)
    if type(k) is not int or type(n) is not int or set(map(type, chain.from_iterable(edges))) - {int}:
        raise InvalidParameterError("k, n and the edges' vertex indices must be integers")
    try:
        ends = np.array(edges, dtype=np.int64).reshape(-1, 2)
    except (OverflowError, ValueError) as exc:
        raise InvalidParameterError("the edges are not pairs of vertex indices") from exc
    if len(ends) != len(edges):
        raise InvalidParameterError("the edges are not pairs of vertex indices")
    if ((ends < 0) | (ends >= count)).any():
        raise InvalidParameterError("an edge holds a vertex index out of range")
    if (ends[:, 0] == ends[:, 1]).any():
        raise InvalidParameterError("an edge is a self-loop")
    arcs = np.sort(np.concatenate([ends @ [count, 1], ends @ [1, count]]))
    if (arcs[1:] == arcs[:-1]).any():
        raise InvalidParameterError("an edge is repeated")
    src, dst = np.divmod(arcs, count)
    degrees = np.bincount(src, minlength=count)
    if (degrees != (n - 1) * (k - 2)).any():
        raise InvalidParameterError(f"a vertex degree is not {(n - 1) * (k - 2)}")
    indptr = np.concatenate([[0], np.cumsum(degrees)])
    return FlipGraph(k, n, vertices, indptr, dst)


def _transform_diagonals(diags, m: int, rot: int, reflect: bool) -> tuple:
    out = []
    for a, b in diags:
        if reflect:
            a, b = (m - a) % m, (m - b) % m
        a, b = (a + rot) % m, (b + rot) % m
        out.append((a, b) if a < b else (b, a))
    return tuple(sorted(out))


def orbit_representatives(graph: FlipGraph) -> list:
    """One vertex per orbit of the polygon's dihedral symmetry group.

    Rotations and reflections of the polygon act on k-angulations and induce
    graph automorphisms, so vertex eccentricities are constant on orbits.
    """
    m = graph.m
    seen = set()
    reps = []
    for i, v in enumerate(graph.vertices):
        if v.diagonals in seen:
            continue
        reps.append(i)
        for reflect in (False, True):
            for rot in range(m):
                seen.add(_transform_diagonals(v.diagonals, m, rot, reflect))
    return reps


def eccentricities(graph: FlipGraph, starts: list) -> list:
    """BFS eccentricity of each start vertex (scipy csgraph, ECC_CHUNK
    starts per call so the distance block stays ECC_CHUNK x N)."""
    from scipy.sparse import csr_matrix
    from scipy.sparse.csgraph import shortest_path

    indptr, indices = graph.csr()
    n = graph.num_vertices
    mat = csr_matrix((np.ones(indices.size), indices, indptr), shape=(n, n))
    out = []
    for lo in range(0, len(starts), ECC_CHUNK):
        dist = shortest_path(mat, unweighted=True, indices=starts[lo:lo + ECC_CHUNK])
        if np.isinf(dist).any():
            raise InvalidParameterError("graph is disconnected")
        out.extend(int(d) for d in dist.max(axis=1))
    return out


def diameter(graph: FlipGraph) -> int:
    """Exact diameter via per-orbit eccentricities."""
    reps = orbit_representatives(graph)
    return max(eccentricities(graph, reps))


def build_flip_graph(
    k: int, n: int, cap: int = DEFAULT_ENUMERATION_CAP
) -> FlipGraph:
    """Materialize the flip graph on all k-angulations of the (k-2)n+2-gon.

    States are flipped FLIP_CHUNK at a time, and each neighbour row is
    found among the canonical rows by binary search on its byte key."""
    count = _check_size(k, n, cap)
    m, degree = polygon_size(k, n), (n - 1) * (k - 2)
    rows = _enumerate_rows(k, n)
    indices = np.empty(count * degree, dtype=np.int32)
    if degree:
        keys = _row_keys(rows)
        for lo in range(0, count, FLIP_CHUNK):
            nbrs = _flip_rows(rows[lo:lo + FLIP_CHUNK], k, m)[0]
            want = _row_keys(nbrs.reshape(-1, n - 1))
            at = np.searchsorted(keys, want)
            if (keys[np.minimum(at, count - 1)] != want).any():
                raise InvalidParameterError("a flip leaves the enumerated states")
            at = np.sort(at.reshape(-1, degree), axis=1).ravel()
            indices[lo * degree:lo * degree + at.size] = at
    indptr = np.arange(count + 1, dtype=np.int32) * degree
    return FlipGraph(k, n, rows, indptr, indices)
