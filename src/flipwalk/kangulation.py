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
from functools import cached_property, lru_cache
from itertools import chain, combinations
from typing import NamedTuple

import numpy as np

from .combinatorics import fuss_catalan
from .errors import EnumerationTooLargeError, InvalidParameterError
from .graph import Graph

DEFAULT_ENUMERATION_CAP = 5_000_000
ECC_CHUNK = 16  # BFS starts per csgraph call: 16 x 208012 float64 is 27 MB at n = 12
FLIP_CHUNK = 4096  # states per face-walk batch, and per flip batch in build_flip_graph

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
        _face_rows(_rows_of([diags], m, len(diags)), k, m)  # raises unless a k-angulation


class _Polygon(NamedTuple):
    """The m-gon's diagonals in lexicographic order (so ascending ids give
    the canonical sorted tuple) and the tables the array routines use."""

    diags: list  # id -> (a, b)
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
    return _Polygon(diags, ends, pair_id, cross, dtype)


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
    return _views(k, polygon_size(k, n), _enumerate_rows(k, n))


def _views(k: int, m: int, rows: np.ndarray) -> list:
    """The KAngulation view of each id row."""
    diags = _polygon(m).diags
    return [KAngulation(k, m, tuple(map(diags.__getitem__, r))) for r in rows.tolist()]


def faces_of(t: KAngulation) -> list:
    """All faces of the k-angulation, each as a tuple of polygon vertices.

    The face list has exactly n entries, the face on side (m-1, 0) first;
    each face is listed with its vertices in increasing label order.
    """
    row = _rows_of([t.diagonals], t.m, len(t.diagonals))
    return [tuple(face) for face in _face_array(row, t.k, t.m)[0].tolist()]


def _rows_of(states, m: int, width: int) -> np.ndarray:
    """Id rows of states given as sequences of `width` (a, b) diagonals.

    A pair that is not a diagonal (a < b) of the m-gon, or a repeated
    diagonal, raises InvalidParameterError; each row comes out ascending."""
    poly = _polygon(m)
    try:
        pairs = np.array(states, dtype=np.int64).reshape(len(states), width, 2)
    except (OverflowError, TypeError, ValueError) as exc:
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


def _face_rows(rows: np.ndarray, k: int, m: int) -> tuple:
    """The faces of a batch of states, one per row of `rows` (its diagonal
    ids, ascending): (root, inner, outer).  root[s] is the face on side
    (m-1, 0), its k vertices ascending.  inner[s, j] and outer[s, j] are the
    k-2 vertices that the two faces beside diagonal j = (a, b) add to it:
    the inner face's from a up to b, the outer face's from b on around the
    polygon to a.  Every face but the root is the inner face of one
    diagonal, its first-to-last chord.

    The faces are walked as offsets around the polygon: far[s, v, r] is the
    largest offset d <= r at which v + d (mod m) is joined to v by a side or
    a diagonal.  From a, the inner face's next vertex is the farthest
    neighbour short of b, and each later step goes to the farthest
    neighbour not past b; in convex position with non-crossing diagonals,
    nearer endpoints nest under farther ones, so the walk traces the face.
    The outer face is the same walk from b to a around the rest of the
    polygon.  Side (m-1, 0) lies outside every diagonal, and no wider
    diagonal can separate it from the outer face of the widest one, so
    that face is the root.

    Raises InvalidParameterError if two diagonals of a state cross or a face
    beside a diagonal is not a k-gon (a state with no diagonal must be the
    k-gon itself), so a state that passes is a k-angulation.
    """
    if len(rows) > FLIP_CHUNK:  # bound the (chunk, m, m) walk tables
        parts = (_face_rows(rows[lo:lo + FLIP_CHUNK], k, m)
                 for lo in range(0, len(rows), FLIP_CHUNK))
        return tuple(map(np.concatenate, zip(*parts)))
    poly = _polygon(m)
    count, width = rows.shape
    if width == 0:
        if m != k:
            raise InvalidParameterError(f"the {m}-gon with no diagonal is not a {k}-gon")
        empty = np.zeros((count, 0, k - 2), dtype=np.int64)
        return np.tile(np.arange(m), (count, 1)), empty, empty
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
    inner, outer = np.moveaxis(np.stack(path, axis=2), 3, 0)
    widest = np.arange(count), np.argmax(b - a, axis=1)
    root = np.sort(np.concatenate([ends[widest], outer[widest]], axis=1), axis=1)
    return root, inner, outer


def _face_array(rows: np.ndarray, k: int, m: int) -> np.ndarray:
    """(count, n, k) array: the root face of each state, then the inner face
    of each diagonal, every face's vertices ascending."""
    root, inner, _ = _face_rows(rows, k, m)
    ends = _polygon(m).ends[rows]
    return np.concatenate(
        [root[:, None], np.concatenate([ends[..., :1], inner, ends[..., 1:]], axis=2)],
        axis=1,
    )


def _flip_rows(rows: np.ndarray, k: int, m: int) -> tuple:
    """All flips of a batch of states, one per row of `rows` (its diagonal
    ids, ascending): (nbrs, removed, inserted), where nbrs[s, f] is the row
    of state s's f-th neighbour, reached by replacing diagonal removed[s, f]
    with inserted[s, f].  Flips come by removed diagonal, ascending, and
    then by the inserted diagonal's end on the removed one's inner face.

    The two faces beside a diagonal (see `_face_rows`) form a 2k-2-gon in
    which the diagonal joins an opposite pair, and each of the other k-2
    opposite pairs is a flip.  A state that is not a k-angulation raises
    InvalidParameterError, so each flip of a state that passes is one too.
    """
    _, inner, outer = _face_rows(rows, k, m)
    count, width = rows.shape
    if width == 0:
        return rows[:, :0, None], rows[:, :0], rows[:, :0]
    # the inner face's i-th vertex is opposite the outer face's i-th vertex
    inserted = _polygon(m).pair_id[inner, outer].astype(rows.dtype)
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
        (nbr, diags[d], diags[nd])
        for nbr, d, nd in zip(_views(t.k, t.m, nbrs[0]), removed[0].tolist(), inserted[0].tolist())
    ]


def _row_keys(rows: np.ndarray) -> np.ndarray:
    """One byte string per row; big-endian ids make byte order row order."""
    rows = np.ascontiguousarray(rows)
    return rows.view(f"S{rows.shape[1] * rows.itemsize}").ravel()


class FlipGraph(Graph):
    """Explicit flip graph on all k-angulations in canonical vertex order.

    Vertex i is row i of `rows`, the (N, n-1) array of each vertex's
    diagonal ids, ascending.
    """

    def __init__(self, k: int, n: int, rows: np.ndarray, indptr, indices):
        super().__init__(csr=(indptr, indices))
        self.k, self.n, self.m = k, n, polygon_size(k, n)
        self.rows = rows

    @cached_property
    def vertices(self) -> list:
        """The KAngulation view of every vertex, built on first use."""
        return _views(self.k, self.m, self.rows)

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

    k and n must be integers within the enumeration cap, and the vertex
    lists must be the k-angulations in canonical order.  Every edge must be
    a pair of integer vertex indices (not bools) in range, with no self-loop
    and no repeat, and every vertex must have the flip degree (n-1)(k-2).
    Anything else raises InvalidParameterError (EnumerationTooLargeError
    past the cap).
    """
    k, n, vertices, edges = doc["k"], doc["n"], doc["vertices"], doc["edges"]
    if type(k) is not int or type(n) is not int or set(map(type, chain.from_iterable(edges))) - {int}:
        raise InvalidParameterError("k, n and the edges' vertex indices must be integers")
    count = _check_size(k, n, DEFAULT_ENUMERATION_CAP)
    rows = _enumerate_rows(k, n)
    if not np.array_equal(_rows_of(vertices, polygon_size(k, n), n - 1), rows):
        raise InvalidParameterError("the vertex lists are not the k-angulations in canonical order")
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
    return FlipGraph(k, n, rows, indptr, dst)


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
