"""Integer-lattice triangulation flip graphs at desk scale, with an
independent region-recursion counting oracle and the Cartesian-product
subgraph induced by a fixed block partition of the grid.
"""

from __future__ import annotations

from bisect import insort
from dataclasses import dataclass
from functools import lru_cache, reduce
from itertools import product

from .errors import EnumerationTooLargeError, InvalidParameterError, StructureMismatchError
from .graph import Graph, product_graph

LATTICE_ENUM_CAP = 4  # grids beyond 4x4 points explode


def _cross(o, a, b) -> int:
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


def _norm_edge(p, q):
    return (p, q) if p <= q else (q, p)


def _segments_cross(p1, p2, q1, q2) -> bool:
    """Strict interior crossing of two closed segments."""
    d1 = _cross(q1, q2, p1)
    d2 = _cross(q1, q2, p2)
    d3 = _cross(p1, p2, q1)
    d4 = _cross(p1, p2, q2)
    return ((d1 > 0) != (d2 > 0) and d1 != 0 and d2 != 0) and (
        (d3 > 0) != (d4 > 0) and d3 != 0 and d4 != 0
    )


def _on_segment(p, a, b) -> bool:
    if _cross(a, b, p) != 0:
        return False
    return min(a[0], b[0]) <= p[0] <= max(a[0], b[0]) and min(a[1], b[1]) <= p[
        1
    ] <= max(a[1], b[1])


def _neighbours(edges) -> dict:
    """Point -> set of the points joined to it by an edge."""
    nbrs = {}
    for p, q in edges:
        nbrs.setdefault(p, set()).add(q)
        nbrs.setdefault(q, set()).add(p)
    return nbrs


@dataclass(frozen=True)
class LatticeTriangulation:
    """Full (unimodular) triangulation of the n x n lattice point grid,
    stored as the sorted tuple of all its edges (unit hull edges included)."""

    n: int
    edges: tuple

    def validate(self) -> None:
        n = self.n
        if n < 1:
            raise InvalidParameterError("grid side must be >= 1")
        if n == 1:
            if self.edges:
                raise InvalidParameterError("1x1 grid admits no edges")
            return
        expected_edges = n * n + 2 * (n - 1) ** 2 - 1
        if len(self.edges) != expected_edges:
            raise InvalidParameterError(
                f"expected {expected_edges} edges, got {len(self.edges)}"
            )
        es = set(self.edges)
        for i in range(n - 1):
            for fixed in (0, n - 1):
                if _norm_edge((i, fixed), (i + 1, fixed)) not in es:
                    raise InvalidParameterError("missing hull edge")
                if _norm_edge((fixed, i), (fixed, i + 1)) not in es:
                    raise InvalidParameterError("missing hull edge")
        edges = list(self.edges)
        for i in range(len(edges)):
            for j in range(i + 1, len(edges)):
                if _segments_cross(*edges[i], *edges[j]):
                    raise InvalidParameterError(
                        f"edges {edges[i]} and {edges[j]} cross"
                    )
        if len(self.triangles()) != 2 * (n - 1) ** 2:
            raise InvalidParameterError("face count is not 2(n-1)^2")

    def triangles(self) -> list:
        """All area-1/2 faces; with every edge present they are the faces."""
        nbrs = _neighbours(self.edges)
        tris = set()
        for p, q in self.edges:
            for w in nbrs[p] & nbrs[q]:
                if abs(_cross(p, q, w)) == 1:
                    tris.add(tuple(sorted((p, q, w))))
        return sorted(tris)


def canonical_lattice_triangulation(n: int) -> LatticeTriangulation:
    """All unit grid edges plus the negative-slope diagonal in every cell."""
    if n < 1:
        raise InvalidParameterError("grid side must be >= 1")
    edges = []
    for x in range(n):
        for y in range(n):
            if x + 1 < n:
                edges.append(_norm_edge((x, y), (x + 1, y)))
            if y + 1 < n:
                edges.append(_norm_edge((x, y), (x, y + 1)))
            if x + 1 < n and y + 1 < n:
                edges.append(_norm_edge((x, y + 1), (x + 1, y)))
    return LatticeTriangulation(n, tuple(sorted(edges)))


def flips_lattice(t: LatticeTriangulation) -> list:
    """All flips of t: interior edges whose two incident unimodular triangles
    form a strictly convex quadrilateral, with the diagonal swapped.

    Every edge of a unimodular triangulation is primitive, and its apexes w1,
    w2 sit at cross products +1 and -1, so segment w1w2 meets line pq at the
    half-integer point (w1 + w2)/2.  The only such point strictly inside a
    primitive segment is its midpoint, so the quadrilateral p w1 q w2 is
    strictly convex iff w1 + w2 == p + q.

    Returns (neighbor, removed_edge, inserted_edge) triples.
    """
    n = t.n
    nbrs = _neighbours(t.edges)
    out = []
    for i, (p, q) in enumerate(t.edges):
        if (p[0] == q[0] and p[0] in (0, n - 1)) or (p[1] == q[1] and p[1] in (0, n - 1)):
            continue  # hull edge
        left, right = [], []
        for w in nbrs[p] & nbrs[q]:
            c = _cross(p, q, w)
            if c == 1:
                left.append(w)
            elif c == -1:
                right.append(w)
        if len(left) != 1 or len(right) != 1:
            raise StructureMismatchError(f"edge {(p, q)} does not bound two faces")
        (w1,), (w2,) = left, right
        if w1[0] + w2[0] != p[0] + q[0] or w1[1] + w2[1] != p[1] + q[1]:
            continue  # non-convex quadrilateral: no flip on this edge
        new_edge = _norm_edge(w1, w2)
        new_edges = list(t.edges)
        del new_edges[i]
        insort(new_edges, new_edge)
        out.append((LatticeTriangulation(n, tuple(new_edges)), (p, q), new_edge))
    return out


class LatticeFlipGraph(Graph):
    """Flip graph of n x n lattice triangulations (or a subgraph of it)."""

    def __init__(self, n: int, vertices: list, adj: list, coords: list | None = None):
        super().__init__(adj, coords)
        self.n = n
        self.vertices = vertices

    def to_json_dict(self) -> dict:
        return {
            "n": self.n,
            "vertices": [[list(map(list, e)) for e in v.edges] for v in self.vertices],
            **super().to_json_dict(),
        }

    def to_dot(self) -> str:
        labels = []
        for v in self.vertices:
            diag = [e for e in v.edges if abs(e[0][0] - e[1][0]) == 1
                    and abs(e[0][1] - e[1][1]) == 1]
            labels.append(";".join(f"{a}{b}" for a, b in diag))
        return self._dot("latticeflip", labels)


def enumerate_lattice(n: int) -> LatticeFlipGraph:
    """Full flip graph of the n x n grid, discovered from the canonical
    all-negative-slope triangulation; vertices are sorted by edge tuple."""
    if n > LATTICE_ENUM_CAP:
        raise EnumerationTooLargeError(n, LATTICE_ENUM_CAP)
    start = canonical_lattice_triangulation(n)
    states = {start.edges: start}
    nbr_keys = {}  # edges -> the neighbours' edge tuples, as stored in states
    pending = [start]
    while pending:
        t = pending.pop()
        keys = nbr_keys[t.edges] = []
        for nbr, _, _ in flips_lattice(t):
            stored = states.setdefault(nbr.edges, nbr)
            if stored is nbr:
                pending.append(nbr)
            keys.append(stored.edges)
    order = sorted(states)
    index = {key: i for i, key in enumerate(order)}
    adj = [sorted(index[k] for k in nbr_keys[key]) for key in order]
    return LatticeFlipGraph(n, [states[key] for key in order], adj)


# ---------------------------------------------------------------------------
# independent counting oracle: memoized region recursion


def _point_in_polygon(pt, boundary) -> str:
    """'on', 'in', or 'out', exactly, for a lattice point and lattice polygon."""
    k = len(boundary)
    for i in range(k):
        if _on_segment(pt, boundary[i], boundary[(i + 1) % k]):
            return "on"
    inside = False
    x, y = pt
    for i in range(k):
        (x1, y1), (x2, y2) = boundary[i], boundary[(i + 1) % k]
        if (y1 > y) != (y2 > y):
            # exact comparison x < x1 + (y - y1) * (x2 - x1) / (y2 - y1)
            lhs = (x - x1) * (y2 - y1)
            rhs = (y - y1) * (x2 - x1)
            if y2 > y1:
                if lhs < rhs:
                    inside = not inside
            else:
                if lhs > rhs:
                    inside = not inside
    return "in" if inside else "out"


def _canon_cycle(boundary: tuple) -> tuple:
    k = len(boundary)
    best = min(range(k), key=lambda i: boundary[i])
    return boundary[best:] + boundary[:best]


def _region_points(boundary, grid_points) -> list:
    return [
        p
        for p in grid_points
        if _point_in_polygon(p, boundary) != "out"
    ]


@lru_cache(maxsize=None)
def _count_region(boundary: tuple, grid: tuple) -> int:
    """Number of full triangulations of the lattice polygon (ccw boundary)
    using every lattice point of `grid` that lies inside or on it."""
    if len(boundary) <= 2:
        return 1
    p0, p1 = boundary[0], boundary[1]
    edges = [
        (boundary[i], boundary[(i + 1) % len(boundary)])
        for i in range(len(boundary))
    ]
    total = 0
    for w in _region_points(boundary, grid):
        if w in (p0, p1):
            continue
        if _cross(p0, p1, w) != 1:  # ccw interior is to the left; area 1/2
            continue
        ok = True
        for leg in ((p0, w), (p1, w)):
            for i, (a, b) in enumerate(edges):
                if i == 0:
                    continue
                if _segments_cross(*leg, a, b):
                    ok = False
                    break
                # a boundary vertex strictly inside the leg blocks it
            if not ok:
                break
        if not ok:
            continue
        for v in boundary[2:]:
            if v != w and (_on_segment(v, p0, w) or _on_segment(v, p1, w)):
                ok = False
                break
        if not ok:
            continue
        if w in boundary:
            j = boundary.index(w)
            part1 = boundary[1 : j + 1]
            part2 = (w,) + boundary[j:][1:] + (p0,)
            total += _count_region(_canon_cycle(tuple(part1)), grid) * _count_region(
                _canon_cycle(tuple(part2)), grid
            )
        else:
            new_boundary = (p0, w) + boundary[1:]
            total += _count_region(_canon_cycle(new_boundary), grid)
    return total


def count_triangulations_recursive(n: int) -> int:
    """Independent oracle for g(n): memoized ear recursion over lattice
    sub-regions, cross-checking the BFS enumeration."""
    if n < 1:
        raise InvalidParameterError("grid side must be >= 1")
    if n == 1:
        return 1
    boundary = []
    for x in range(n - 1):
        boundary.append((x, 0))
    for y in range(n - 1):
        boundary.append((n - 1, y))
    for x in range(n - 1, 0, -1):
        boundary.append((x, n - 1))
    for y in range(n - 1, 0, -1):
        boundary.append((0, y))
    grid = tuple((x, y) for x in range(n) for y in range(n))
    return _count_region(_canon_cycle(tuple(boundary)), grid)


# ---------------------------------------------------------------------------
# product subgraph from the fixed block partition


def block_partial_triangulation(n: int, block: int) -> set:
    """The forced edge set: subgrid frame edges, the unit edges crossing
    between subgrids, and the negative-slope diagonals of the crossing cells."""
    if n % block != 0:
        raise InvalidParameterError(f"block {block} does not divide {n}")
    forced = set()
    for x in range(n):
        for y in range(n - 1):
            if x % block in (0, block - 1):
                forced.add(_norm_edge((x, y), (x, y + 1)))
    for y in range(n):
        for x in range(n - 1):
            if y % block in (0, block - 1):
                forced.add(_norm_edge((x, y), (x + 1, y)))
    for x in range(n - 1):
        for y in range(n - 1):
            if x // block != (x + 1) // block or y // block != (y + 1) // block:
                # the crossing cell's four sides and negative-slope diagonal
                forced.update([((x, y), (x + 1, y)), ((x, y + 1), (x + 1, y + 1)),
                               ((x, y), (x, y + 1)), ((x + 1, y), (x + 1, y + 1)),
                               ((x, y + 1), (x + 1, y))])
    return forced


def product_subgraph(n: int, block: int) -> LatticeFlipGraph:
    """Subgraph of F_n induced by triangulations extending the fixed block
    partial triangulation: isomorphic to the Cartesian product of the
    per-block flip graphs, verified by explicit coordinates."""
    forced = block_partial_triangulation(n, block)
    sub = enumerate_lattice(block)
    # placed[b][s]: block state s translated into block b (translation keeps
    # each edge's endpoint order)
    placed = [
        [{((ax + ox, ay + oy), (bx + ox, by + oy)) for (ax, ay), (bx, by) in s.edges}
         for s in sub.vertices]
        for ox in range(0, n, block)
        for oy in range(0, n, block)
    ]
    coords = list(product(range(sub.num_vertices), repeat=len(placed)))
    vertices = []
    for coord in coords:
        edges = forced.union(*(placed[b][s] for b, s in enumerate(coord)))
        t = LatticeTriangulation(n, tuple(sorted(edges)))
        t.validate()
        vertices.append(t)
    # adjacency from actual flips restricted to the subgraph
    index = {v.edges: i for i, v in enumerate(vertices)}
    adj = []
    for v in vertices:
        nbrs = []
        for nbr, removed, _ in flips_lattice(v):
            j = index.get(nbr.edges)
            if j is not None:
                if removed in forced:
                    raise StructureMismatchError("an internal flip removed a constrained edge")
                nbrs.append(j)
        adj.append(sorted(nbrs))
    # the left fold indexes coordinates in the same lexicographic order
    if adj != reduce(product_graph, [sub] * len(placed)).adj:
        raise StructureMismatchError("induced flips do not match the product adjacency")
    return LatticeFlipGraph(n, vertices, adj, coords)
