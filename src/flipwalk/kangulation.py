"""Convex-polygon k-angulations, their flips, and explicit flip graphs.

Polygon vertices are labeled 0..m-1 counterclockwise, m = (k-2)n + 2.
A k-angulation is stored as its sorted tuple of diagonals (a, b), a < b;
two equal k-angulations are bit-identical (canonical form).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

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
        n = self.n
        diags = self.diagonals
        if list(diags) != sorted(diags):
            raise InvalidParameterError("diagonals not in canonical sorted order")
        if len(diags) != n - 1:
            raise InvalidParameterError(
                f"expected {n - 1} diagonals, got {len(diags)}"
            )
        for a, b in diags:
            if not (0 <= a < b < m) or b - a < 2 or (a == 0 and b == m - 1):
                raise InvalidParameterError(f"({a},{b}) is not a diagonal of the {m}-gon")
        for i in range(len(diags)):
            for j in range(i + 1, len(diags)):
                if diagonals_cross(diags[i], diags[j]):
                    raise InvalidParameterError(
                        f"diagonals {diags[i]} and {diags[j]} cross"
                    )
        for face in faces_of(self):
            if len(face) != k:
                raise InvalidParameterError(f"face {face} is not a {k}-gon")


@lru_cache(maxsize=None)
def _enumerate_local(k: int, n: int) -> tuple:
    """All k-angulations of the (k-2)n+2-gon as sorted diagonal tuples.

    Recursion: pick the k-gon containing polygon edge (m-1, 0); its other
    vertices split the polygon into k-1 sub-polygons handled recursively.
    """
    if n <= 1:
        return ((),)
    m = polygon_size(k, n)
    results = []
    # compositions of n-1 into k-1 parts >= 0 determine the root face
    def compose(parts_left: int, total: int, prefix: tuple):
        if parts_left == 1:
            yield prefix + (total,)
            return
        for first in range(total + 1):
            yield from compose(parts_left - 1, total - first, prefix + (first,))

    for parts in compose(k - 1, n - 1, ()):
        # root face vertices: 0 = c_0 < c_1 < ... < c_{k-2} < c_{k-1} = m-1
        cs = [0]
        for p in parts:
            cs.append(cs[-1] + (k - 2) * p + 1)
        face_diags = [
            (cs[i], cs[i + 1]) for i in range(k - 1) if cs[i + 1] - cs[i] > 1
        ]
        sub_lists = []
        for i, p in enumerate(parts):
            if p >= 1:
                base = cs[i]
                subs = _enumerate_local(k, p)
                sub_lists.append(
                    [tuple((a + base, b + base) for a, b in s) for s in subs]
                )
        # cartesian product over the non-trivial gaps
        def combine(idx: int, acc: tuple):
            if idx == len(sub_lists):
                results.append(tuple(sorted(acc + tuple(face_diags))))
                return
            for s in sub_lists[idx]:
                combine(idx + 1, acc + s)

        combine(0, ())
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


def _face_from(start: int, end: int, chord_set: frozenset) -> tuple:
    """Face of the subdivision adjacent to chord (start, end), on the side
    of the vertices strictly between start and end.

    Greedy farthest-step walk; valid in convex position with non-crossing
    chords because nearer chord endpoints are nested under farther ones.
    The first step must not traverse the bounding chord itself.
    """
    verts = [start]
    v = start
    while v != end:
        nxt = v + 1
        top = end - 1 if v == start else end
        # farthest w with chord (v, w) present
        for w in range(top, v + 1, -1):
            if (v, w) in chord_set:
                nxt = w
                break
        verts.append(nxt)
        v = nxt
    return tuple(verts)


def faces_of(t: KAngulation) -> list:
    """All faces of the k-angulation, each as a tuple of polygon vertices.

    The face list has exactly n entries; each face is listed with its
    vertices in increasing label order.
    """
    chord_set = frozenset(t.diagonals)
    faces = []
    stack = [(0, t.m - 1)]  # region bounded by chord/edge (a, b) and the arc a..b
    while stack:
        a, b = stack.pop()
        face = _face_from(a, b, chord_set)
        faces.append(face)
        for i in range(len(face) - 1):
            u, w = face[i], face[i + 1]
            if w - u > 1:
                stack.append((u, w))
    return faces


def flips(t: KAngulation) -> list:
    """All flips of t as (neighbor, removed_diagonal, inserted_diagonal).

    For each diagonal, the two incident k-gons form a 2k-2-gon; the diagonal
    joins an opposite vertex pair and may be replaced by any of the other
    k-2 opposite-pair diagonals.
    """
    faces = faces_of(t)
    face_lookup = {}
    for f in faces:
        for i in range(len(f)):
            u, w = f[i], f[(i + 1) % len(f)]
            face_lookup.setdefault((min(u, w), max(u, w)), []).append(f)
    out = []
    diag_set = set(t.diagonals)
    for d in t.diagonals:
        inc = face_lookup.get(d, [])
        if len(inc) != 2:
            raise InvalidParameterError(f"diagonal {d} does not bound two faces")
        f_in = inc[0] if all(d[0] <= v <= d[1] for v in inc[0]) else inc[1]
        f_out = inc[1] if f_in is inc[0] else inc[0]
        a, b = d
        # 2k-2-gon in circular order: inner face a..b ascending, then outer
        # face from b back around to a
        inner = list(f_in)  # ascending, starts at a ends at b
        rest = [v for v in f_out if v not in (a, b)]
        after_b = sorted(v for v in rest if v > b)
        before_a = sorted(v for v in rest if v < a)
        cycle = inner + after_b + before_a
        h = len(cycle) // 2  # k - 1 opposite pairs
        pos = {v: i for i, v in enumerate(cycle)}
        assert (pos[b] - pos[a]) % len(cycle) == h, "flipped diagonal not opposite"
        for i in range(h):
            u, w = cycle[i], cycle[i + h]
            nd = (min(u, w), max(u, w))
            if nd == d:
                continue
            assert not any(
                diagonals_cross(nd, other) for other in diag_set if other != d
            )
            new_diags = tuple(sorted((diag_set - {d}) | {nd}))
            out.append((KAngulation(t.k, t.m, new_diags), d, nd))
    return out


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
    index = {v.diagonals: i for i, v in enumerate(verts)}
    adj = [sorted(index[nbr.diagonals] for nbr, _, _ in flips(v)) for v in verts]
    return FlipGraph(k, n, verts, adj)
