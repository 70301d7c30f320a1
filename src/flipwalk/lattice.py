"""Integer-lattice triangulation flip graphs at desk scale, with an
independent region-recursion counting oracle and the Cartesian-product
subgraph induced by a fixed block partition of the grid.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache, reduce
from itertools import combinations, compress, product
from math import gcd
from operator import or_

from .errors import EnumerationTooLargeError, InvalidParameterError, StructureMismatchError
from .graph import Graph, product_graph

LATTICE_ENUM_CAP = 4  # grids beyond 4x4 points explode
_BIT_BYTES = bytes.maketrans(b"01", b"\0\1")  # binary digits -> 0/1 bytes


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


def _ids_of(mask: int):
    """The set bits of a mask, lowest first."""
    while mask:
        low = mask & -mask
        mask ^= low
        yield low.bit_length() - 1


class _Grid:
    """The n x n grid's primitive segments in lexicographic order, so bit i of
    a state mask is segment i and ascending bits give the sorted edge tuple.

    Per segment pq: `apexes` holds its apex candidates, the points w with
    cross product c = +1 or -1, as (mask of pw and qw, w, c); `union` ORs
    those masks; `cross` is the mask of the segments pq strictly crosses;
    `memo` maps a state's `union` pattern to the flip decision (see
    `_flip_moves`), and `face_memo` maps it to the number of faces on pq.
    """

    def __init__(self, n: int):
        points = [(x, y) for x in range(n) for y in range(n)]
        self.segs = [
            (p, q) for p, q in combinations(points, 2)
            if gcd(q[0] - p[0], q[1] - p[1]) == 1
        ]
        self.ids = {e: i for i, e in enumerate(self.segs)}
        self.hull = self.interior = 0
        self.apexes, self.union, self.cross = [], [], []
        for i, (p, q) in enumerate(self.segs):
            on_hull = (p[0] == q[0] and p[0] in (0, n - 1)) or (
                p[1] == q[1] and p[1] in (0, n - 1))
            if on_hull:
                self.hull |= 1 << i
            else:
                self.interior |= 1 << i
            apexes = [
                (self.bit(p, w) | self.bit(q, w), w, c)
                for w in points if (c := _cross(p, q, w)) in (1, -1)
            ]
            self.apexes.append(apexes)
            self.union.append(reduce(or_, (two for two, _, _ in apexes), 0))
            self.cross.append(sum(
                1 << j for j, e in enumerate(self.segs) if _segments_cross(p, q, *e)))
        self.memo = [{} for _ in self.segs]
        self.face_memo = [{} for _ in self.segs]

    def bit(self, p, q) -> int:
        return 1 << self.ids[_norm_edge(p, q)]

    def mask(self, edges) -> int:
        """The state mask of an edge list; an edge that is not a normalized
        primitive segment of the grid, or is repeated, is rejected."""
        mask = 0
        for e in edges:
            i = self.ids.get(e)
            if i is None:
                raise InvalidParameterError(
                    f"edge {e} is not a normalized primitive segment of the grid")
            if mask >> i & 1:
                raise InvalidParameterError(f"edge {e} is repeated")
            mask |= 1 << i
        return mask

    def bits(self, mask: int) -> str:
        """Bit i of the mask as character i."""
        return f"{mask:0{len(self.segs)}b}"[::-1]

    def edges(self, mask: int) -> tuple:
        return tuple(compress(self.segs, self.bits(mask).encode().translate(_BIT_BYTES)))

    def sort_key(self, mask: int) -> int:
        """Key that sorts masks in ascending order of their edge tuples.

        Two sorted edge tuples of equal length first differ at the lowest
        bit where their masks differ, and the tuple holding that edge is the
        smaller one.  So the key is the complement with bit 0 read as the
        most significant digit."""
        return int(self.bits(mask), 2) ^ ((1 << len(self.segs)) - 1)

    def faces(self, mask: int):
        """(edge id, apex) for every area-1/2 triangle of the state and each
        of its three edges."""
        for i in _ids_of(mask):
            for two, w, _ in self.apexes[i]:
                if mask & two == two:
                    yield i, w


@lru_cache(maxsize=None)
def _grid(n: int) -> _Grid:
    return _Grid(n)


def _flip_moves(mask: int, grid: _Grid) -> list:
    """All flips of the state `mask` as (neighbour mask, removed id, inserted
    id), in increasing order of the removed edge.

    Every edge of a unimodular triangulation is primitive, and its apexes w1,
    w2 sit at cross products +1 and -1, so segment w1w2 meets line pq at the
    half-integer point (w1 + w2)/2.  The only such point strictly inside a
    primitive segment is its midpoint, so the quadrilateral p w1 q w2 is
    strictly convex iff w1 + w2 == p + q.  The decision depends only on the
    state's apex-candidate edges around pq, so it is memoized on that pattern;
    a pattern whose edge does not bound exactly two faces raises and is never
    stored.
    """
    moves = []
    union, memos = grid.union, grid.memo
    m = mask & grid.interior
    while m:  # _ids_of inlined: the generator costs a fifth of the enumeration
        low = m & -m
        m ^= low
        i = low.bit_length() - 1
        local = mask & union[i]
        memo = memos[i]
        new = memo.get(local)
        if new is None:
            left = [w for two, w, c in grid.apexes[i] if c == 1 and local & two == two]
            right = [w for two, w, c in grid.apexes[i] if c == -1 and local & two == two]
            if len(left) != 1 or len(right) != 1:
                raise StructureMismatchError(f"edge {grid.segs[i]} does not bound two faces")
            (w1,), (w2,) = left, right
            (p, q) = grid.segs[i]
            convex = w1[0] + w2[0] == p[0] + q[0] and w1[1] + w2[1] == p[1] + q[1]
            new = memo[local] = grid.ids[_norm_edge(w1, w2)] if convex else -1
        if new >= 0:
            moves.append((mask ^ low | 1 << new, i, new))
    return moves


@dataclass(frozen=True)
class LatticeTriangulation:
    """Full (unimodular) triangulation of the n x n lattice point grid,
    stored as the sorted tuple of all its edges (unit hull edges included).
    It is the public view of a state mask over the grid's segment table."""

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
        grid = _grid(n)
        mask = grid.mask(self.edges)
        expected_edges = n * n + 2 * (n - 1) ** 2 - 1
        if len(self.edges) != expected_edges:
            raise InvalidParameterError(
                f"expected {expected_edges} edges, got {len(self.edges)}"
            )
        missing = grid.hull & ~mask
        if missing:
            raise InvalidParameterError(f"missing hull edge {grid.segs[next(_ids_of(missing))]}")
        faces = 0  # area-1/2 triangles, once per edge
        for i in _ids_of(mask):
            crossed = grid.cross[i] & mask
            if crossed:
                j = next(_ids_of(crossed))
                raise InvalidParameterError(
                    f"edges {grid.segs[i]} and {grid.segs[j]} cross"
                )
            local = mask & grid.union[i]
            count = grid.face_memo[i].get(local)
            if count is None:
                count = grid.face_memo[i][local] = sum(
                    1 for two, _, _ in grid.apexes[i] if local & two == two)
            faces += count
        if faces != 3 * 2 * (n - 1) ** 2:
            raise InvalidParameterError("face count is not 2(n-1)^2")

    def triangles(self) -> list:
        """All area-1/2 faces; with every edge present they are the faces."""
        grid = _grid(self.n)
        return sorted({
            tuple(sorted((*grid.segs[i], w)))
            for i, w in grid.faces(grid.mask(self.edges))
        })


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
    """All flips of t as (neighbor, removed_edge, inserted_edge) triples, in
    the order of the removed edge in t.edges: interior edges whose two
    incident unimodular triangles form a strictly convex quadrilateral, with
    the diagonal swapped."""
    grid = _grid(t.n)
    return [
        (LatticeTriangulation(t.n, grid.edges(nbr)), grid.segs[i], grid.segs[j])
        for nbr, i, j in _flip_moves(grid.mask(t.edges), grid)
    ]


class LatticeFlipGraph(Graph):
    """Flip graph of n x n lattice triangulations (or a subgraph of it)."""

    def __init__(self, n: int, vertices: list, adj: list, coords: list | None = None):
        super().__init__(adj, coords)
        self.n = n
        self.vertices = vertices

    def to_json_dict(self) -> dict:
        return {
            "n": self.n,
            # json writes the edge tuples as nested lists
            "vertices": [v.edges for v in self.vertices],
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
    grid = _grid(n)
    start = grid.mask(canonical_lattice_triangulation(n).edges)
    # found: mask -> discovery id; each row holds the stored id objects, so
    # the 431,064 neighbour entries at n = 4 share 46,456 ints
    found = {start: 0}
    rows = [None]
    pending = [start]
    while pending:
        mask = pending.pop()
        row = rows[found[mask]] = []
        for nbr, _, _ in _flip_moves(mask, grid):
            j = found.get(nbr)
            if j is None:
                j = found[nbr] = len(rows)
                rows.append(None)
                pending.append(nbr)
            row.append(j)
    order = sorted(found, key=grid.sort_key)
    rank = [0] * len(order)
    for r, mask in enumerate(order):
        rank[found[mask]] = r
    for d, row in enumerate(rows):
        rows[d] = sorted(rank[j] for j in row)
    adj = [rows[found[mask]] for mask in order]
    del found, rows, rank
    vertices = [LatticeTriangulation(n, grid.edges(mask)) for mask in order]
    return LatticeFlipGraph(n, vertices, adj)


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
    grid = _grid(n)
    forced_mask = grid.mask(forced)
    # placed[b][s]: block state s translated into block b, as a mask
    # (translation keeps each edge's endpoint order)
    placed = [
        [grid.mask(((ax + ox, ay + oy), (bx + ox, by + oy)) for (ax, ay), (bx, by) in s.edges)
         for s in sub.vertices]
        for ox in range(0, n, block)
        for oy in range(0, n, block)
    ]
    coords = list(product(range(sub.num_vertices), repeat=len(placed)))
    masks = [
        reduce(or_, (placed[b][s] for b, s in enumerate(coord)), forced_mask)
        for coord in coords
    ]
    vertices = []
    for mask in masks:
        t = LatticeTriangulation(n, grid.edges(mask))
        t.validate()
        vertices.append(t)
    # adjacency from actual flips restricted to the subgraph
    index = {mask: i for i, mask in enumerate(masks)}
    adj = []
    for mask in masks:
        nbrs = []
        for nbr, removed, _ in _flip_moves(mask, grid):
            j = index.get(nbr)
            if j is not None:
                if forced_mask >> removed & 1:
                    raise StructureMismatchError("an internal flip removed a constrained edge")
                nbrs.append(j)
        adj.append(sorted(nbrs))
    # the left fold indexes coordinates in the same lexicographic order
    if adj != reduce(product_graph, [sub] * len(placed)).adj:
        raise StructureMismatchError("induced flips do not match the product adjacency")
    return LatticeFlipGraph(n, vertices, adj, coords)
