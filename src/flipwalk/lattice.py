"""Integer-lattice triangulation flip graphs at desk scale, with an
independent region-recursion counting oracle and the Cartesian-product
subgraph induced by a fixed block partition of the grid.

A state is a bool row over the grid's primitive segments (column i is
segment i), stored packed: the complemented row, big-endian, in whole 64-bit
words (two at n = 4), so that byte order is edge-tuple order.  One batched
routine, `_flip_batch`, finds the flips of a block of rows.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache, reduce
from itertools import combinations, compress, product
from math import gcd

import numpy as np

from .errors import EnumerationTooLargeError, InvalidParameterError, StructureMismatchError
from .graph import FLIP_CHUNK, Graph, _lookup, _ranges, _row_keys, product_graph
from .kangulation import DEFAULT_ENUMERATION_CAP

LATTICE_ENUM_CAP = 4  # grids beyond 4x4 points explode
# g(n), the number of full triangulations of the n x n grid, up to LATTICE_ENUM_CAP
LATTICE_COUNTS = {1: 1, 2: 2, 3: 64, 4: 46456}
# largest grid side of a product subgraph: the segment count grows as n**4
# and the crossing table as n**8 (1.6M pairs at n = 8, built by broadcasting)
LATTICE_GRID_CAP = 8
_BIT = np.array([0x80 >> b for b in range(8)], dtype=np.uint8)  # bit of a column in its byte


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


class _Grid:
    """The n x n grid's primitive segments in lexicographic order, so column
    i of a state row is segment i and ascending ids give the sorted edge tuple.

    Per segment pq and side (0: cross product +1, 1: -1), `apex` lists the
    grid points w (index x * n + y) that make an area-1/2 triangle pqw and
    `legs` the ids of pw and qw; rows are padded with point 0 and leg
    `size`, a column that a padded state row never sets.  `inserted[i, a,
    b]` is the id of the segment joining left apex a and right apex b when
    p w_a q w_b is a parallelogram (w_a + w_b = p + q), else -1.  `tally`
    maps a side's apex hits to (number of faces, sum of their apex slots).
    """

    def __init__(self, n: int):
        if n < 1:
            raise InvalidParameterError("grid side must be >= 1")
        points = [(x, y) for x in range(n) for y in range(n)]
        self.segs = [
            (p, q) for p, q in combinations(points, 2)
            if gcd(q[0] - p[0], q[1] - p[1]) == 1
        ]
        self.ids = {e: i for i, e in enumerate(self.segs)}
        self.n = n
        self.size = size = len(self.segs)
        p, q = np.array(self.segs, dtype=np.int64).reshape(size, 2, 2).transpose(1, 0, 2)
        self.hull = ((p[:, 0] == q[:, 0]) & np.isin(p[:, 0], (0, n - 1))) | (
            (p[:, 1] == q[:, 1]) & np.isin(p[:, 1], (0, n - 1)))
        self.interior = np.flatnonzero(~self.hull)
        pts = np.array(points, dtype=np.int64).reshape(-1, 2)
        seg_of = np.full((len(pts) + 1,) * 2, size, dtype=np.int64)  # last row: padding
        pi, qi = p @ (n, 1), q @ (n, 1)
        seg_of[pi, qi] = seg_of[qi, pi] = np.arange(size)
        d, w = (q - p)[:, None], pts[None] - p[:, None]
        cross = d[..., 0] * w[..., 1] - d[..., 1] * w[..., 0]  # (segment, point)
        sides = np.stack([cross == 1, cross == -1], axis=1)
        width = max(1, int(sides.sum(axis=2).max(initial=0)))
        # each side's apex points first, in point order
        order = np.argsort(~sides, axis=2, kind="stable")[..., :width]
        real = np.take_along_axis(sides, order, axis=2)
        self.apex = np.where(real, order, 0)
        self.legs = np.stack([seg_of[np.where(real, end[:, None, None], len(pts)), order]
                              for end in (pi, qi)], axis=-1).astype(np.int32)
        self.tally = np.stack([np.ones(width), np.arange(width)], axis=1).astype(np.uint8)
        wl, wr = pts[self.apex[:, 0]], pts[self.apex[:, 1]]
        mid = (p + q)[:, None, None]
        parallelogram = (wl[:, :, None] + wr[:, None] == mid).all(axis=3)
        parallelogram &= real[:, 0, :, None] & real[:, 1, None, :]
        self.inserted = np.where(
            parallelogram, seg_of[self.apex[:, 0, :, None], self.apex[:, 1, None, :]], -1)

    @cached_property
    def crossing(self) -> np.ndarray:
        """crossing[i, j]: segments i and j cross strictly inside both, as in
        `_segments_cross`: each one's ends lie strictly on opposite sides of
        the other's line (four nonzero orientations, opposite in pairs)."""
        p, q = np.array(self.segs, dtype=np.int32).reshape(self.size, 2, 2).transpose(1, 0, 2)
        d = q - p
        offset = d[:, 0] * p[:, 1] - d[:, 1] * p[:, 0]

        def side(r):  # side[i, j]: orientation of point r[i] against segment j
            return np.outer(r[:, 1], d[:, 0]) - np.outer(r[:, 0], d[:, 1]) - offset

        straddles = side(p) * side(q) < 0  # segment i's ends split segment j's line
        return straddles & straddles.T

    def row(self, edges) -> np.ndarray:
        """The state row of an edge list; an edge that is not a normalized
        primitive segment of the grid, or is repeated, is rejected."""
        row = np.zeros(self.size, dtype=bool)
        for e in edges:
            i = self.ids.get(e)
            if i is None:
                raise InvalidParameterError(
                    f"edge {e} is not a normalized primitive segment of the grid")
            if row[i]:
                raise InvalidParameterError(f"edge {e} is repeated")
            row[i] = True
        return row

    def check(self, row: np.ndarray) -> None:
        """Raise InvalidParameterError unless the state row is a full
        triangulation: the edge count, every hull edge, no crossing pair, and
        2(n-1)^2 area-1/2 triangles (counted once per edge)."""
        n = self.n
        expected_edges = n * n + 2 * (n - 1) ** 2 - 1
        ids = np.flatnonzero(row)
        if ids.size != expected_edges:
            raise InvalidParameterError(f"expected {expected_edges} edges, got {ids.size}")
        missing = np.flatnonzero(self.hull & ~row)
        if missing.size:
            raise InvalidParameterError(f"missing hull edge {self.segs[missing[0]]}")
        crossed = self.crossing[ids][:, ids]
        if crossed.any():
            i, j = ids[np.argwhere(crossed)[0]]
            raise InvalidParameterError(f"edges {self.segs[i]} and {self.segs[j]} cross")
        if _apex_hits(row[None], np.zeros_like(ids), ids, self).sum() != 3 * 2 * (n - 1) ** 2:
            raise InvalidParameterError("face count is not 2(n-1)^2")

    def edge_lists(self, keys: np.ndarray) -> list:
        """The sorted edge tuple of each packed state."""
        return [tuple(compress(self.segs, r)) for r in _unpack(keys, self.size).tolist()]


@lru_cache(maxsize=None)
def _grid(n: int) -> _Grid:
    return _Grid(n)


def _pack(rows: np.ndarray) -> np.ndarray:
    """Packed states of bool rows: each row complemented, packed big-endian
    (column 0 is the most significant bit) into whole 64-bit words, as a
    uint8 array.  Two sorted edge tuples of equal length first differ at the
    lowest column where their rows differ, and the tuple holding that edge
    is the smaller one, so byte order of packed states is edge-tuple order."""
    count, width = rows.shape
    out = np.full((count, 8 * max(1, -(-width // 64))), 0xFF, dtype=np.uint8)
    out[:, :-(-width // 8)] = ~np.packbits(rows, axis=1)
    return out


def _unpack(keys: np.ndarray, width: int) -> np.ndarray:
    return np.unpackbits(keys, axis=1, count=width) == 0


def _apex_hits(rows: np.ndarray, state: np.ndarray, edge: np.ndarray, grid: _Grid) -> np.ndarray:
    """hits[k, side, a]: both legs of apex a on that side of edge[k] are in
    row state[k] of the bool state rows."""
    padded = np.zeros((len(rows), grid.size + 1), dtype=bool)
    padded[:, :-1] = rows
    at = grid.legs[edge]
    at += (state * (grid.size + 1)).astype(at.dtype)[:, None, None, None]
    legs = padded.ravel()[at]
    return legs[..., 0] & legs[..., 1]


def _flip_batch(rows: np.ndarray, grid: _Grid) -> tuple:
    """Every flip of a batch of states, one bool row each, as index arrays
    (state, removed id, inserted id), by state and then by removed edge.

    Every edge of a unimodular triangulation is primitive, and its apexes
    w1, w2 sit at cross products +1 and -1, so segment w1w2 meets line pq at
    the half-integer point (w1 + w2)/2.  The only such point strictly inside
    a primitive segment is its midpoint, so the quadrilateral p w1 q w2 is
    strictly convex iff w1 + w2 == p + q.  A present interior edge that does
    not bound exactly one face on each side raises StructureMismatchError.
    """
    state, j = np.nonzero(rows[:, grid.interior])
    edge = grid.interior[j]
    # per side: the number of faces, and the sum of their apex slots
    tally = _apex_hits(rows, state, edge, grid).view(np.uint8) @ grid.tally
    bad = (tally[..., 0] != 1).any(axis=1)
    if bad.any():
        i = edge[bad.argmax()]
        raise StructureMismatchError(f"edge {grid.segs[i]} does not bound two faces")
    new = grid.inserted[edge, tally[:, 0, 1], tally[:, 1, 1]]
    keep = new >= 0
    return state[keep], edge[keep], new[keep]


def _flipped(keys: np.ndarray, removed: np.ndarray, inserted: np.ndarray) -> np.ndarray:
    """Each packed state of `keys` (changed in place) with edge removed[k]
    taken out and edge inserted[k] put in."""
    flat = np.arange(len(keys))
    keys[flat, removed >> 3] ^= _BIT[removed & 7]
    keys[flat, inserted >> 3] ^= _BIT[inserted & 7]
    return keys


def _flip_keys(keys: np.ndarray, grid: _Grid):
    """Flips of packed states, FLIP_CHUNK at a time: per chunk (first
    state, state offsets, removed ids, inserted ids, packed neighbours)."""
    for lo in range(0, len(keys), FLIP_CHUNK):
        part = keys[lo:lo + FLIP_CHUNK]
        state, removed, inserted = _flip_batch(_unpack(part, grid.size), grid)
        yield lo, state, removed, inserted, _flipped(part[state], removed, inserted)


@dataclass(frozen=True)
class LatticeTriangulation:
    """Full (unimodular) triangulation of the n x n lattice point grid,
    stored as the sorted tuple of all its edges (unit hull edges included).
    It is the public view of a state row over the grid's segment table."""

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
        grid.check(grid.row(self.edges))

    def triangles(self) -> list:
        """All area-1/2 faces; with every edge present they are the faces."""
        grid = _grid(self.n)
        row = grid.row(self.edges)
        ids = np.flatnonzero(row)
        e, side, a = np.nonzero(_apex_hits(row[None], np.zeros_like(ids), ids, grid))
        return sorted({
            tuple(sorted((*grid.segs[i], divmod(w, self.n))))
            for i, w in zip(ids[e].tolist(), grid.apex[ids[e], side, a].tolist())
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
    ((_, _, removed, inserted, nbrs),) = _flip_keys(_pack(grid.row(t.edges)[None]), grid)
    return [
        (LatticeTriangulation(t.n, edges), grid.segs[i], grid.segs[j])
        for edges, i, j in zip(grid.edge_lists(nbrs), removed.tolist(), inserted.tolist())
    ]


class LatticeFlipGraph(Graph):
    """Flip graph of n x n lattice triangulations (or a subgraph of it),
    held as CSR arrays; vertex i is row i of `keys`, its packed state."""

    def __init__(self, n: int, keys: np.ndarray, indptr, indices, coords: list | None = None):
        super().__init__(coords=coords, csr=(indptr, indices))
        self.n = n
        self.keys = keys

    @cached_property
    def vertices(self) -> list:
        """The LatticeTriangulation view of every vertex, built on first use."""
        return [LatticeTriangulation(self.n, e) for e in _grid(self.n).edge_lists(self.keys)]

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


def enumerate_lattice(n: int, cap: int = DEFAULT_ENUMERATION_CAP) -> LatticeFlipGraph:
    """Full flip graph of the n x n grid, discovered from the canonical
    all-negative-slope triangulation; vertices are sorted by edge tuple.
    A grid side above LATTICE_ENUM_CAP, or more than `cap` states, raise
    EnumerationTooLargeError before anything is built.

    The search runs level by level on packed states and flips each state
    once, keeping each flip's (removed, inserted) ids.  In an undirected
    graph a neighbour of level d lies on level d - 1, d or d + 1, so each
    new level is its sorted unique neighbours minus the previous and current
    levels.  The found states are sorted once; then, FLIP_CHUNK vertices at
    a time, each neighbour is rebuilt from its flip and looked up among them."""
    if n < 1:
        raise InvalidParameterError("grid side must be >= 1")
    if n > LATTICE_ENUM_CAP:
        raise EnumerationTooLargeError(n, LATTICE_ENUM_CAP, "grid side")
    if LATTICE_COUNTS[n] > cap:
        raise EnumerationTooLargeError(LATTICE_COUNTS[n], cap)
    grid = _grid(n)
    cur = _pack(grid.row(canonical_lattice_triangulation(n).edges)[None])
    levels, degs, flips = [], [], []
    prev = _row_keys(cur)  # the start level stands in for the level before it
    while len(cur):
        levels.append(cur)
        level = []
        for lo, state, removed, inserted, nbrs in _flip_keys(cur, grid):
            degs.append(np.bincount(state, minlength=min(FLIP_CHUNK, len(cur) - lo)))
            # segment ids fit int16 up to LATTICE_ENUM_CAP (86 at n = 4)
            flips.append(np.stack([removed, inserted], axis=1).astype(np.int16))
            level.append(_row_keys(nbrs))
        here = _row_keys(cur)
        cand = np.unique(np.concatenate(level))
        new = cand[~(_lookup(prev, cand)[1] | _lookup(here, cand)[1])]
        prev, cur = here, new.view(np.uint8).reshape(len(new), cur.shape[1])
    found = np.concatenate(levels)  # in discovery order
    count = len(found)
    order = np.argsort(_row_keys(found))  # discovery id of each vertex
    keys, deg, flips = found[order], np.concatenate(degs), np.concatenate(flips)
    first = np.zeros(count + 1, dtype=np.int64)  # flips of discovery id d: first[d]..first[d+1]
    np.cumsum(deg, out=first[1:])
    indptr = np.zeros(count + 1, dtype=np.int64)
    np.cumsum(deg[order], out=indptr[1:])
    indices = np.empty(indptr[-1], dtype=np.int32)
    sorted_keys = _row_keys(keys)
    for lo in range(0, count, FLIP_CHUNK):
        d = order[lo:lo + FLIP_CHUNK]
        at = _ranges(first[d], first[d + 1])
        src = np.repeat(np.arange(lo, lo + len(d)), deg[d])
        nbrs = _flipped(found[order[src]], flips[at, 0], flips[at, 1])
        dst = np.searchsorted(sorted_keys, _row_keys(nbrs))
        indices[indptr[lo]:indptr[lo + len(d)]] = np.sort(src * count + dst) % count
    return LatticeFlipGraph(n, keys, indptr, indices)


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


def product_subgraph(
    n: int, block: int, cap: int = DEFAULT_ENUMERATION_CAP
) -> LatticeFlipGraph:
    """Subgraph of F_n induced by triangulations extending the fixed block
    partial triangulation: isomorphic to the Cartesian product of the
    per-block flip graphs, verified by explicit coordinates.

    Before anything is built, a grid side above LATTICE_GRID_CAP, a block
    above LATTICE_ENUM_CAP, or more than `cap` states,
    g(block)^((n/block)^2), raise EnumerationTooLargeError."""
    if n < 1 or block < 1:
        raise InvalidParameterError("grid side and block must be >= 1")
    if n % block != 0:
        raise InvalidParameterError(f"block {block} does not divide {n}")
    if n > LATTICE_GRID_CAP:
        raise EnumerationTooLargeError(n, LATTICE_GRID_CAP, "grid side")
    if block > LATTICE_ENUM_CAP:
        raise EnumerationTooLargeError(block, LATTICE_ENUM_CAP, "block side")
    count = LATTICE_COUNTS[block] ** ((n // block) ** 2)
    if count > cap:
        raise EnumerationTooLargeError(count, cap)
    grid, sub_grid = _grid(n), _grid(block)
    forced = grid.row(block_partial_triangulation(n, block))
    sub = enumerate_lattice(block)
    sub_rows = _unpack(sub.keys, sub_grid.size)
    # placed[b]: the ids of block b's segments, translated into the grid
    # (translation keeps each edge's endpoint order)
    placed = [
        [grid.ids[((ax + ox, ay + oy), (bx + ox, by + oy))]
         for (ax, ay), (bx, by) in sub_grid.segs]
        for ox in range(0, n, block)
        for oy in range(0, n, block)
    ]
    coords = list(product(range(sub.num_vertices), repeat=len(placed)))
    keys = []
    for lo in range(0, count, FLIP_CHUNK):
        part = np.array(coords[lo:lo + FLIP_CHUNK]).reshape(-1, len(placed))
        rows = np.tile(forced, (len(part), 1))
        for ids, s in zip(placed, part.T):
            rows[:, ids] |= sub_rows[s]
        for row in rows:
            grid.check(row)
        keys.append(_pack(rows))
    keys = np.concatenate(keys)
    # adjacency from actual flips restricted to the subgraph
    order = np.argsort(_row_keys(keys))
    sorted_keys = _row_keys(keys[order])
    indptr, parts = np.zeros(count + 1, dtype=np.int64), []
    for lo, state, removed, _, nbrs in _flip_keys(keys, grid):
        at, inside = _lookup(sorted_keys, _row_keys(nbrs))
        if forced[removed[inside]].any():
            raise StructureMismatchError("an internal flip removed a constrained edge")
        state, dst = state[inside], order[at[inside]]
        hi = min(lo + FLIP_CHUNK, count)
        indptr[lo + 1:hi + 1] = np.bincount(state, minlength=hi - lo)
        parts.append(np.sort((state + lo) * count + dst) % count)
    np.cumsum(indptr, out=indptr)
    indices = np.concatenate(parts)
    # the left fold indexes coordinates in the same lexicographic order
    want = reduce(product_graph, [sub] * len(placed)).csr()
    if not (np.array_equal(indptr, want[0]) and np.array_equal(indices, want[1])):
        raise StructureMismatchError("induced flips do not match the product adjacency")
    return LatticeFlipGraph(n, keys, indptr, indices, coords)
