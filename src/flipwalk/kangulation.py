"""Convex-polygon k-angulations and their explicit flip graphs.

Polygon vertices are labeled 0..m-1 counterclockwise, m = (k-2)n + 2.  The
m-gon's diagonals (a, b), a < b, are numbered in lexicographic order, and a
state is the row of its n-1 diagonal ids in ascending order; the canonical
vertex order is the lexicographic order of rows, and the JSON export lists
each state as its sorted (a, b) pairs.  The flip graph is built from the
root-face classes, by index arithmetic on their blocks (`_write_flips`, the
package's one flip algorithm).
"""

from __future__ import annotations

from functools import lru_cache
from itertools import accumulate, chain, combinations
from math import prod
from typing import NamedTuple

import numpy as np

from .combinatorics import fuss_catalan
from .errors import EnumerationTooLargeError, InvalidParameterError
from .graph import Graph, _lookup, _row_keys

DEFAULT_ENUMERATION_CAP = 5_000_000
# factors up to this many states are read from a cached neighbour table; a
# larger one is written through its own classes, so that no table of a large
# factor is held beside the output (9.2 MB for n = 12 under k = 3 n = 13)
FACTOR_TABLE_STATES = 1 << 14
# the largest polygon whose diagonal ids fit in two bytes (m(m-3)/2 - 1 of them)
POLYGON_CAP = 363


def polygon_size(k: int, n: int) -> int:
    return (k - 2) * n + 2


class _Polygon(NamedTuple):
    """The m-gon's diagonals in lexicographic order (so ascending ids give
    the canonical sorted tuple) and the tables the array routines use."""

    diags: list  # id -> (a, b)
    ends: np.ndarray  # (D, 2): id -> (a, b)
    pair_id: np.ndarray  # (m, m): id of the diagonal {a, b}, else -1
    dtype: np.dtype  # of an id row: one byte per id when it fits, else big-endian


@lru_cache(maxsize=None)
def _polygon(m: int) -> _Polygon:
    diags = [(a, b) for a in range(m) for b in range(a + 2, m) if (a, b) != (0, m - 1)]
    ends = np.array(diags, dtype=np.int64).reshape(-1, 2)
    pair_id = np.full((m, m), -1, dtype=np.int64)
    pair_id[ends[:, 0], ends[:, 1]] = pair_id[ends[:, 1], ends[:, 0]] = np.arange(len(diags))
    dtype = np.dtype(np.uint8 if len(diags) <= 256 else ">u2")
    for table in (ends, pair_id):
        table.flags.writeable = False
    return _Polygon(diags, ends, pair_id, dtype)


def _compositions(total: int, count: int):
    """The compositions of total into count parts >= 0, in stars-and-bars
    order (count - 1 bars among total + count - 1 slots)."""
    slots = total + count - 1
    for bars in combinations(range(slots), count - 1):
        yield tuple(b - a - 1 for a, b in zip((-1,) + bars, bars + (slots,)))


class _States(NamedTuple):
    """The k-angulations of one polygon, by root-face class.

    The class of a state is the k-gon on side (m-1, 0), given by its parts:
    the number of faces in each of the k-1 sub-polygons it cuts off, in
    order.  A class's block is the Cartesian product of its nonempty
    sub-polygons' canonical states, in C order, and the blocks follow one
    another in the order of `_compositions`."""

    rows: np.ndarray  # canonical id rows
    rank: np.ndarray  # int32: canonical index of each block row
    offsets: dict  # parts -> index of the class's first block row


def _fill_face(k: int, poly: _Polygon, face: tuple, out: np.ndarray) -> None:
    """Write into `out` the unsorted id rows of every k-angulation of poly's
    polygon that holds the k-gon `face` (vertices ascending): the C-order
    product of the canonical states of the sub-polygons on its arcs, taken
    cyclically from face[0].  Each nonempty sub-polygon fills one column
    range: the chord that cuts it off, then its cached rows translated into
    poly's ids and broadcast along the block's axis for it."""
    m = len(poly.pair_id)
    subs = [(lo, p) for lo, hi in zip(face, face[1:] + face[:1])
            if (p := ((hi - lo) % m - 1) // (k - 2)) >= 1]
    shape = [fuss_catalan(k, p) for _, p in subs]
    block = out.reshape(*shape, out.shape[1])
    col = 0
    for axis, (lo, p) in enumerate(subs):
        block[..., col] = poly.pair_id[lo, (lo + (k - 2) * p + 1) % m]
        ends = (_polygon(polygon_size(k, p)).ends + lo) % m
        ids = poly.pair_id[ends[:, 0], ends[:, 1]].astype(poly.dtype)
        sub = ids[_enumerate_rows(k, p)]
        block[..., col + 1:col + p] = sub.reshape(
            [len(sub) if j == axis else 1 for j in range(len(shape))] + [p - 1])
        col += p


@lru_cache(maxsize=None)
def _enumerate_states(k: int, n: int) -> _States:
    """All k-angulations of the (k-2)n+2-gon as read-only id rows, in
    canonical (lexicographic) order, with the permutation from block order.

    Recursion: pick the k-gon containing polygon edge (m-1, 0); its other
    vertices split the polygon into k-1 sub-polygons handled recursively,
    and the states with that root face are the Cartesian product of theirs.
    Each root face's block of rows is filled in place (`_fill_face`).
    Every row is then sorted and the rows put in lexicographic order.
    """
    poly = _polygon(polygon_size(k, n))
    count = fuss_catalan(k, n)
    rows = np.empty((count, n - 1), dtype=poly.dtype)
    rank = np.zeros(count, dtype=np.int32)
    offsets, at = {}, 0
    for parts in _compositions(n - 1, k - 1):
        offsets[parts] = at
        # root face vertices: 0 = c_0 < c_1 < ... < c_{k-2} < c_{k-1} = m-1
        face = tuple(accumulate(((k - 2) * p + 1 for p in parts), initial=0))
        size = prod(fuss_catalan(k, p) for p in parts)
        _fill_face(k, poly, face, rows[at:at + size])
        at += size
    rows.sort(axis=1)
    # byte order is row order (see `_row_keys`); the rows are sorted in
    # place, so no second copy of them is made
    keys = _row_keys(rows)
    rank[np.argsort(keys, kind="stable")] = np.arange(count, dtype=np.int32)
    keys.sort()
    rows.flags.writeable = rank.flags.writeable = False
    return _States(rows, rank, offsets)


def _enumerate_rows(k: int, n: int) -> np.ndarray:
    """All k-angulations of the (k-2)n+2-gon as read-only id rows, in
    canonical order (see `_enumerate_states`)."""
    return _enumerate_states(k, n).rows


def _class_index(k: int, n: int, parts: tuple, coords: list):
    """Canonical index of the state of class `parts` whose sub-polygon i
    holds the state coords[i] (canonical indices, broadcastable arrays;
    read only where parts[i] is nonzero)."""
    states = _enumerate_states(k, n)
    at, stride = states.offsets[parts], 1
    for p, x in zip(parts[::-1], coords[::-1]):
        if p:
            at = at + x * stride
            stride *= fuss_catalan(k, p)
    return states.rank[at]


def _check_size(k: int, n: int, cap: int) -> int:
    """The number of states; an n whose count must exceed the cap (FC(k, n)
    >= C_n >= 2^(n-1)) is refused before the count is computed."""
    if k < 3:
        raise InvalidParameterError(f"k must be >= 3, got {k}")
    if n < 1:
        raise InvalidParameterError(f"n must be >= 1, got {n}")
    if n - 1 >= cap.bit_length():
        raise EnumerationTooLargeError(f">= 2^{n - 1}", cap)
    if polygon_size(k, n) > POLYGON_CAP:
        raise EnumerationTooLargeError(polygon_size(k, n), POLYGON_CAP, "polygon size")
    count = fuss_catalan(k, n)
    if count > cap:
        raise EnumerationTooLargeError(count, cap)
    return count


def count_kangulations(k: int, n: int, cap: int = DEFAULT_ENUMERATION_CAP) -> int:
    """The number of distinct k-angulations the enumeration lists, read off
    its rows: the rows are in lexicographic order, so each one that differs
    from the one before it is new."""
    _check_size(k, n, cap)
    keys = _row_keys(_enumerate_rows(k, n))
    return 1 + int(np.count_nonzero(keys[1:] != keys[:-1]))


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


class FlipGraph(Graph):
    """Explicit flip graph on all k-angulations in canonical vertex order.

    Vertex i is row i of `rows`, the (N, n-1) array of each vertex's
    diagonal ids, ascending.
    """

    def __init__(self, k: int, n: int, rows: np.ndarray, indptr, indices):
        super().__init__(indptr, indices)
        self.k, self.n, self.m = k, n, polygon_size(k, n)
        self.rows = rows

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

    The export must be an object holding k, n, vertices and edges.  k and
    n must be integers within the enumeration cap, and the vertex lists
    must be the k-angulations in canonical order.  The edges must be a list
    of pairs of integer vertex indices (not bools) in range, with no
    self-loop and no repeat, and every vertex must have the flip degree
    (n-1)(k-2).  Anything else raises InvalidParameterError
    (EnumerationTooLargeError past the cap).
    """
    if not isinstance(doc, dict) or not {"k", "n", "vertices", "edges"} <= doc.keys():
        raise InvalidParameterError("the export is not an object with k, n, vertices and edges")
    k, n, vertices, edges = doc["k"], doc["n"], doc["vertices"], doc["edges"]
    if not isinstance(edges, list) or not all(isinstance(e, list) for e in edges):
        raise InvalidParameterError("the edges are not a list of vertex index pairs")
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


def orbit_representatives(graph: FlipGraph) -> list:
    """The first vertex of each orbit of the polygon's dihedral symmetry
    group, which acts on k-angulations by graph automorphisms, so a vertex's
    eccentricity, and the TVD of the lazy walk from it, are constant on its
    orbit.

    The group is generated by the rotation v -> v + 1 and the reflection
    v -> -v (mod m).  Each permutes the diagonal ids; every row is mapped,
    sorted and looked up among the canonical rows.  Both images of every row
    must be states, so each generator permutes the states, and so does every
    product of them: the orbit of a vertex is what the two maps reach from
    it.  Each vertex's label, first itself, takes the minimum of its two
    images' labels until no label changes; it is then the first vertex of
    the orbit, and the representatives are the vertices labelled with
    themselves.
    """
    rows, m = graph.rows, graph.m
    label = np.arange(len(rows))
    poly, keys, v = _polygon(m), _row_keys(rows), np.arange(m)
    images = []
    for image in ((v + 1) % m, -v % m):
        perm = poly.pair_id[image[poly.ends[:, 0]], image[poly.ends[:, 1]]]
        mapped = perm.astype(poly.dtype)[rows]
        mapped.sort(axis=1)
        at, found = _lookup(keys, _row_keys(mapped))
        if not found.all():
            raise InvalidParameterError("a symmetry image leaves the enumerated states")
        images.append(at)
    while ((low := np.minimum(label[images[0]], label[images[1]])) < label).any():
        np.minimum(label, low, out=label)
    return np.flatnonzero(label == np.arange(len(rows))).tolist()


def _write_flips(k: int, n: int, top, col: int, out: np.ndarray) -> None:
    """Write the flips of the (k-2)n+2-gon's states into the neighbour
    table `out`, class by class.

    `top` embeds these states in the table: None when they are its rows,
    else an int32 (N, R) array whose row x holds the R table rows whose
    state has state x in this sub-polygon (and all else fixed).  Every flip
    x -> y here is written, for each r, as the value top[y, r] in row
    top[x, r], in columns col .. col + (n-1)(k-2).

    A state's columns go by its class's parts p_0 .. p_{k-2}: for each
    nonempty sub-polygon, (p_i - 1)(k-2) for the flips inside it, then k-2
    for the flips of the root-face chord that cuts it off.

    In-class flips are the factors' own flips (a Kronecker sum): a factor
    up to FACTOR_TABLE_STATES states is read from its cached table, a
    larger one is written by this routine through the block's embedding.
    Root-face flips: removing the chord of part j joins the root face and
    the sub-polygon's own root face into a (2k-2)-gon u_0 .. u_{2k-3}
    (u_0 = 0, u_{2k-3} = m-1), whose 2k-3 other sides cut off sub-polygons
    with h_0 .. h_{2k-4} faces, n-2 in all.  Its k-1 k-angulations t = 0
    .. k-2 join u_t to u_{t+k-1}; the root face of state t has parts h_0 ..
    h_{t-1}, 1 + h_t + ... + h_{t+k-2}, h_{t+k-1} .. h_{2k-4}, and the
    sub-polygon of part t has root parts h_t .. h_{t+k-2}.  With the
    hanging states fixed, the k-1 states are pairwise one flip apart.
    """
    if n < 2:
        return
    d = k - 2
    states = _enumerate_states(k, n)

    def embed(x):
        return x[..., None] if top is None else top[x]

    for parts, offset in states.offsets.items():
        shape = [fuss_catalan(k, p) for p in parts if p]
        members = embed(states.rank[offset:offset + prod(shape)].reshape(shape))
        at, axis = col, 0
        for p in parts:
            if p >= 2:
                sub = np.moveaxis(members, axis, 0).reshape(shape[axis], -1)
                if shape[axis] <= FACTOR_TABLE_STATES:
                    table = _factor_table(k, p)
                    out[sub, at:at + table.shape[1]] = np.swapaxes(sub[table], 1, 2)
                else:
                    _write_flips(k, p, sub, at, out)
            at += p * d
            axis += p > 0
    for h in _compositions(n - 2, 2 * k - 3):
        # the states hanging on the sides, one open-mesh axis per nonempty side
        mesh = iter(np.ix_(*(np.arange(fuss_catalan(k, q)) for q in h if q)))
        coords = [next(mesh) if q else None for q in h]
        found, cols = [], []
        for t in range(k - 1):
            inner = h[t:t + k - 1]
            q = 1 + sum(inner)
            x = _class_index(k, q, inner, coords[t:t + k - 1])
            outer = h[:t] + (q,) + h[t + k - 1:]
            found.append(embed(_class_index(k, n, outer, coords[:t] + [x] + coords[t + k - 1:])))
            cols.append(col + d * (sum(h[:t]) + q - 1))
        for t in range(k - 1):
            out[found[t], cols[t]:cols[t] + d] = np.stack(found[:t] + found[t + 1:], axis=-1)


@lru_cache(maxsize=None)
def _factor_table(k: int, n: int) -> np.ndarray:
    """Read-only int32 (N, (n-1)(k-2)) table of each state's neighbours, in
    no order within a row, for use as a factor of larger polygons."""
    table = np.empty((fuss_catalan(k, n), (n - 1) * (k - 2)), dtype=np.int32)
    _write_flips(k, n, None, 0, table)
    table.flags.writeable = False
    return table


def build_flip_graph(
    k: int, n: int, cap: int = DEFAULT_ENUMERATION_CAP
) -> FlipGraph:
    """Materialize the flip graph on all k-angulations of the (k-2)n+2-gon.

    The int32 neighbour table is written class by class (`_write_flips`)
    and each row then sorted; no flip is looked up by its row."""
    count = _check_size(k, n, cap)
    rows = _enumerate_rows(k, n)
    degree = (n - 1) * (k - 2)
    indices = np.empty(count * degree, dtype=np.int32)
    table = indices.reshape(count, degree)
    _write_flips(k, n, None, 0, table)
    table.sort(axis=1)
    indptr = np.arange(count + 1, dtype=np.int32)
    indptr *= degree
    return FlipGraph(k, n, rows, indptr, indices)
