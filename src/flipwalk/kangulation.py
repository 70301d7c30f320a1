"""Convex-polygon k-angulations, their flips, and explicit flip graphs.

Polygon vertices are labeled 0..m-1 counterclockwise, m = (k-2)n + 2.
A k-angulation is stored as its sorted tuple of diagonals (a, b), a < b;
two equal k-angulations are bit-identical (canonical form).  Flips and the
flip-graph build work on integer states instead: bit i of a state mask is
the m-gon's i-th diagonal in lexicographic order, and `KAngulation` is the
public view of a mask.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import chain, combinations, product
from operator import itemgetter

import numpy as np

from .combinatorics import fuss_catalan
from .errors import EnumerationTooLargeError, InvalidParameterError
from .graph import Graph

DEFAULT_ENUMERATION_CAP = 5_000_000
ECC_CHUNK = 16  # BFS starts per csgraph call: 16 x 208012 float64 is 27 MB at n = 12

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
        _flip_moves(_mask(diags, m), k, m)  # raises unless each diagonal bounds two k-gons


@lru_cache(maxsize=None)
def _enumerate_local(k: int, n: int) -> tuple:
    """All k-angulations of the (k-2)n+2-gon as sorted diagonal tuples.

    Recursion: pick the k-gon containing polygon edge (m-1, 0); its other
    vertices split the polygon into k-1 sub-polygons handled recursively.
    """
    if n <= 1:
        return ((),)
    results = []
    # compositions of n-1 into k-1 parts >= 0 (stars and bars: k-2 bars
    # among n+k-3 slots) determine the root face
    slots = n + k - 3
    for bars in combinations(range(slots), k - 2):
        parts = [b - a - 1 for a, b in zip((-1,) + bars, bars + (slots,))]
        # root face vertices: 0 = c_0 < c_1 < ... < c_{k-2} < c_{k-1} = m-1
        cs = [0]
        for p in parts:
            cs.append(cs[-1] + (k - 2) * p + 1)
        face_diags = tuple((a, b) for a, b in zip(cs, cs[1:]) if b - a > 1)
        sub_lists = [
            [tuple((a + base, b + base) for a, b in s) for s in _enumerate_local(k, p)]
            for base, p in zip(cs, parts)
            if p >= 1
        ]
        for subs in product(*sub_lists):
            results.append(tuple(sorted(chain(face_diags, *subs))))
    results.sort()
    return tuple(results)


def enumerate_kangulations(
    k: int, n: int, cap: int = DEFAULT_ENUMERATION_CAP
) -> list:
    """All k-angulations of the (k-2)n+2-gon, each once, in canonical order."""
    if k < 3:
        raise InvalidParameterError(f"k must be >= 3, got {k}")
    if n < 1:
        raise InvalidParameterError(f"n must be >= 1, got {n}")
    count = fuss_catalan(k, n)
    if count > cap:
        raise EnumerationTooLargeError(count, cap)
    m = polygon_size(k, n)
    return [KAngulation(k, m, d) for d in _enumerate_local(k, n)]


@lru_cache(maxsize=None)
def _polygon(m: int) -> tuple:
    """The m-gon's diagonals in lexicographic order (bit i of a state mask is
    diagonal i, so ascending bits give the canonical sorted tuple), their ids,
    and per id the mask of the diagonals it crosses."""
    diags = [(a, b) for a in range(m) for b in range(a + 2, m) if (a, b) != (0, m - 1)]
    cross = [sum(1 << j for j, e in enumerate(diags) if diagonals_cross(d, e)) for d in diags]
    return diags, {d: i for i, d in enumerate(diags)}, cross


def _mask(diagonals, m: int) -> int:
    ids = _polygon(m)[1]
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
    diags = _polygon(m)[0]
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


def _flip_moves(mask: int, k: int, m: int) -> list:
    """All flips of the state `mask` as (neighbour mask, removed id, inserted
    id), grouped by removed diagonal in face-walk order.

    For each diagonal, the two incident k-gons form a 2k-2-gon; the diagonal
    joins an opposite vertex pair and may be replaced by any of the other
    k-2 opposite-pair diagonals.
    """
    diags, ids, cross = _polygon(m)
    moves = []
    seen = 0
    for face, rest in _faces(mask, m):
        if len(face) != k:
            raise InvalidParameterError(f"face {tuple(face)} is not a {k}-gon")
        if not rest:
            continue  # the root face lies on the polygon edge (0, m-1)
        d = ids[face[0], face[-1]]
        seen |= 1 << d
        others = mask ^ (1 << d)
        # cycle face + rest has 2k-2 vertices; face[i] is opposite rest[i-1]
        for u, w in zip(face[1:-1], rest):
            nd = ids[u, w] if u < w else ids[w, u]
            if cross[nd] & others:
                raise InvalidParameterError(
                    f"flipping {diags[d]} to {diags[nd]} crosses another diagonal"
                )
            moves.append((others | 1 << nd, d, nd))
    if seen != mask:
        raise InvalidParameterError("a diagonal does not bound two faces")
    return moves


def flips(t: KAngulation) -> list:
    """All flips of t as (neighbor, removed_diagonal, inserted_diagonal),
    in the order of the removed diagonal in t.diagonals."""
    diags = _polygon(t.m)[0]
    moves = sorted(_flip_moves(_mask(t.diagonals, t.m), t.k, t.m), key=itemgetter(1))
    return [
        (KAngulation(t.k, t.m, tuple(e for i, e in enumerate(diags) if x >> i & 1)),
         diags[d], diags[nd])
        for x, d, nd in moves
    ]


class FlipGraph(Graph):
    """Explicit flip graph on all k-angulations in canonical vertex order."""

    def __init__(self, k: int, n: int, vertices: list, adj: list):
        super().__init__(adj)
        self.k, self.n, self.m = k, n, polygon_size(k, n)
        self.vertices = vertices

    def to_json_dict(self) -> dict:
        return {
            "k": self.k,
            "n": self.n,
            "vertices": [[list(d) for d in v.diagonals] for v in self.vertices],
            **super().to_json_dict(),
        }

    def to_dot(self) -> str:
        return self._dot(
            "flipgraph",
            (";".join(f"{a}-{b}" for a, b in v.diagonals) for v in self.vertices),
        )


def flip_graph_from_json_dict(doc: dict) -> FlipGraph:
    """Rebuild a FlipGraph from its JSON export."""
    k, n = doc["k"], doc["n"]
    m = polygon_size(k, n)
    vertices = [
        KAngulation(k, m, tuple(tuple(d) for d in diags)) for diags in doc["vertices"]
    ]
    adj = [[] for _ in vertices]
    for i, j in doc["edges"]:
        adj[i].append(j)
        adj[j].append(i)
    for nbrs in adj:
        nbrs.sort()
    return FlipGraph(k, n, vertices, adj)


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
    """Materialize the flip graph on all k-angulations of the (k-2)n+2-gon."""
    verts = enumerate_kangulations(k, n, cap=cap)
    m = polygon_size(k, n)
    index = {_mask(v.diagonals, m): i for i, v in enumerate(verts)}  # in vertex order
    adj = [sorted(index[y] for y, _, _ in _flip_moves(x, k, m)) for x in index]
    return FlipGraph(k, n, verts, adj)
