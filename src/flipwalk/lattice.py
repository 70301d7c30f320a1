"""Integer-lattice triangulation flip graphs at desk scale, with an
independent region-recursion counting oracle and the Cartesian-product
subgraph induced by a fixed block partition of the grid.

A state is a bool row over the grid's primitive segments (column i is
segment i), stored packed: the complemented row, big-endian, in whole 64-bit
words (two at n = 4), so that byte order is edge-tuple order.  The JSON
and DOT exports decode packed states into sorted edge tuples
(`_Grid.edge_lists`); no per-state object is built.

A chunk of states is also held bit-sliced: one plane of 64-bit words per
segment, bit s of a plane set when state s holds that segment.  One kernel,
`_flip_planes`, finds the flips of a whole chunk with AND/OR over planes;
`_Grid.check` validates a chunk the same way.  `enumerate_lattice` keys each
state by the XOR of one fixed 64-bit word per segment (Zobrist hashing), so
a flip's key is its parent's key XOR two words; each arc's target is
resolved by key during the search and then checked exactly against the
packed state that key names.
"""

from __future__ import annotations

from functools import cached_property, lru_cache, reduce
from itertools import combinations, compress
from math import gcd

import numpy as np

from .errors import EnumerationTooLargeError, InvalidParameterError, StructureMismatchError
from .graph import FLIP_CHUNK, Graph, _lookup, _ranges, _row_keys, graph_from_arcs, product_graph
from .kangulation import DEFAULT_ENUMERATION_CAP

LATTICE_ENUM_CAP = 4  # grids beyond 4x4 points explode
# g(n), the number of full triangulations of the n x n grid, up to LATTICE_ENUM_CAP
LATTICE_COUNTS = {1: 1, 2: 2, 3: 64, 4: 46456}
# largest grid side of a product subgraph: the segment count grows as n**4
# and the crossing table as n**8 (1.6M pairs at n = 8, built by broadcasting)
LATTICE_GRID_CAP = 8
_BIT = np.array([0x80 >> b for b in range(8)], dtype=np.uint8)  # bit of a column in its byte
_WORD = np.dtype("<u8")  # a plane word: state s is bit s % 64 of word s // 64
_PAIR_WORDS = 1 << 22  # plane words (32 MB) per temporary of the crossing check


def _splitmix64(count: int) -> np.ndarray:
    """The first `count` outputs of splitmix64 from seed 0, in numpy's
    wrapping uint64 arithmetic (no numpy.random import)."""
    x = np.arange(1, count + 1, dtype=np.uint64) * np.uint64(0x9E3779B97F4A7C15)
    x = (x ^ (x >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    x = (x ^ (x >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return x ^ (x >> np.uint64(31))


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
    p w_a q w_b is a parallelogram (w_a + w_b = p + q), else -1; `flips`
    lists its valid entries as (segment, a, b, inserted) arrays, by segment.
    `zobrist` holds one fixed 64-bit word per segment.
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
        wl, wr = pts[self.apex[:, 0]], pts[self.apex[:, 1]]
        mid = (p + q)[:, None, None]
        parallelogram = (wl[:, :, None] + wr[:, None] == mid).all(axis=3)
        parallelogram &= real[:, 0, :, None] & real[:, 1, None, :]
        self.inserted = np.where(
            parallelogram, seg_of[self.apex[:, 0, :, None], self.apex[:, 1, None, :]], -1)
        valid = np.nonzero(parallelogram)
        self.flips = (*valid, self.inserted[valid])
        self.zobrist = _splitmix64(size)

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

    def check(self, rows: np.ndarray) -> None:
        """Raise InvalidParameterError unless every bool state row is a full
        triangulation: the edge count, every hull edge, no crossing pair, and
        2(n-1)^2 area-1/2 triangles (counted once per edge).  The error
        names the first failing test of the first bad row.

        The last three tests run on the chunk's planes, over the segments
        that some row holds: the AND of the hull planes, the OR of the ANDs
        of crossing pairs, and a bit-sliced sum of the apex hit planes."""
        n, count = self.n, len(rows)
        expected_edges = n * n + 2 * (n - 1) ** 2 - 1
        planes = _planes(rows)
        live = np.flatnonzero(planes[:-1].any(axis=1))
        hull = np.bitwise_and.reduce(planes[np.flatnonzero(self.hull)], axis=0)
        crossed = np.zeros_like(hull)
        first, second = np.nonzero(np.triu(self.crossing[np.ix_(live, live)]))
        step = max(1, _PAIR_WORDS // planes.shape[1])
        for lo in range(0, len(first), step):
            both = planes[live[first[lo:lo + step]]]
            both &= planes[live[second[lo:lo + step]]]
            crossed |= np.bitwise_or.reduce(both, axis=0)
        hits = _hit_planes(planes, live, self) & planes[live, None, None]
        faces = _sums_to(hits.reshape(-1, planes.shape[1]), 3 * 2 * (n - 1) ** 2)
        edges = np.count_nonzero(rows, axis=1)
        bad = (edges != expected_edges) | _bits(~hull | crossed | ~faces, count)
        if not bad.any():
            return
        row = rows[bad.argmax()]
        ids = np.flatnonzero(row)
        if ids.size != expected_edges:
            raise InvalidParameterError(f"expected {expected_edges} edges, got {ids.size}")
        missing = np.flatnonzero(self.hull & ~row)
        if missing.size:
            raise InvalidParameterError(f"missing hull edge {self.segs[missing[0]]}")
        crossing = self.crossing[ids][:, ids]
        if crossing.any():
            i, j = ids[np.argwhere(crossing)[0]]
            raise InvalidParameterError(f"edges {self.segs[i]} and {self.segs[j]} cross")
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


def _planes(rows: np.ndarray) -> np.ndarray:
    """The bit planes of a chunk of bool state rows: plane j holds bit s
    when row s has segment j, and a last, all-zero plane stands for the
    padding leg `size`.  Bits past the last row are zero."""
    count, size = rows.shape
    out = np.zeros((size + 1, 8 * max(1, -(-count // 64))), dtype=np.uint8)
    out[:size, :-(-count // 8)] = np.packbits(np.ascontiguousarray(rows.T), axis=1,
                                               bitorder="little")
    return out.view(_WORD)


def _bits(planes: np.ndarray, count: int) -> np.ndarray:
    """planes unpacked to bools: [..., s] is bit s, for the first count states."""
    return np.unpackbits(planes.view(np.uint8), axis=-1, count=count,
                         bitorder="little").view(bool)


def _hit_planes(planes: np.ndarray, edges: np.ndarray, grid: _Grid) -> np.ndarray:
    """hits[k, side, a]: the plane of states that hold both legs of apex a
    on that side of segment edges[k]."""
    legs = grid.legs[edges]
    return planes[legs[..., 0]] & planes[legs[..., 1]]


def _sums_to(planes: np.ndarray, total: int) -> np.ndarray:
    """The plane of states with exactly `total` of the planes set.

    The count is bit-sliced: planes are added in pairs, each pair a
    ripple-carry add of two equal-width binary numbers held one plane per
    digit, until one number is left; its digits are then matched to
    total's."""
    digits = [planes]
    while len(digits[0]) > 1:
        if len(digits[0]) % 2:
            digits = [np.concatenate([d, np.zeros_like(d[:1])]) for d in digits]
        carry, out = np.zeros_like(digits[0][0::2]), []
        for d in digits:
            x, y = d[0::2], d[1::2]
            half = x ^ y
            out.append(half ^ carry)
            carry = (x & y) | (carry & half)
        digits = out + [carry]
    word = np.zeros(planes.shape[1:], dtype=_WORD)
    if total >> len(digits) or not len(planes):
        return word if total else ~word
    off = word.copy()
    for b, d in enumerate(digits):
        off |= d[0] if total >> b & 1 == 0 else ~d[0]
    return ~off


def _flip_planes(planes: np.ndarray, count: int, grid: _Grid) -> tuple:
    """Every flip of a chunk of `count` states held as planes, as index
    arrays (state, removed id, inserted id), by state and then by removed
    edge.

    Every edge of a unimodular triangulation is primitive, and its apexes
    w1, w2 sit at cross products +1 and -1, so segment w1w2 meets line pq at
    the half-integer point (w1 + w2)/2.  The only such point strictly inside
    a primitive segment is its midpoint, so the quadrilateral p w1 q w2 is
    strictly convex iff w1 + w2 == p + q: one entry of `grid.flips`.  A
    present interior edge that does not bound exactly one face on each side
    (a running seen-once/seen-twice pair of planes per side) raises
    StructureMismatchError, for the first such (state, edge).
    """
    edges = grid.interior[planes[grid.interior].any(axis=1)]
    held = planes[edges]
    hits = _hit_planes(planes, edges, grid)
    once = np.zeros_like(hits[:, :, 0])
    twice = once.copy()
    for h in hits.transpose(2, 0, 1, 3):
        twice |= once & h
        once |= h
    single = once & ~twice
    bad = held & ~(single[:, 0] & single[:, 1])
    if bad.any():
        k = np.nonzero(_bits(bad, count).T)[1][0]
        raise StructureMismatchError(f"edge {grid.segs[edges[k]]} does not bound two faces")
    at = np.full(grid.size, -1)
    at[edges] = np.arange(len(edges))
    edge, a, b, new = grid.flips
    k = at[edge]
    keep = k >= 0
    k, a, b = k[keep], a[keep], b[keep]
    state, c = np.nonzero(_bits(held[k] & hits[k, 0, a] & hits[k, 1, b], count).T)
    return state, edge[keep][c], new[keep][c]


def _flips(keys: np.ndarray, grid: _Grid):
    """Flips of packed states, FLIP_CHUNK at a time: per chunk (first
    state, int32 state offsets, int16 removed ids, int16 inserted ids);
    segment ids fit int16 up to LATTICE_GRID_CAP (1282 at n = 8)."""
    for lo in range(0, len(keys), FLIP_CHUNK):
        part = _unpack(keys[lo:lo + FLIP_CHUNK], grid.size)
        state, removed, inserted = _flip_planes(_planes(part), len(part), grid)
        yield lo, state.astype(np.int32), removed.astype(np.int16), inserted.astype(np.int16)


def _join(parts: list) -> np.ndarray:
    """The arrays of `parts` concatenated; the list is emptied."""
    out = np.concatenate(parts)
    parts.clear()
    return out


def _flipped(keys: np.ndarray, removed: np.ndarray, inserted: np.ndarray) -> np.ndarray:
    """Each packed state of `keys` (changed in place) with edge removed[k]
    taken out and edge inserted[k] put in."""
    flat = np.arange(len(keys))
    keys[flat, removed >> 3] ^= _BIT[removed & 7]
    keys[flat, inserted >> 3] ^= _BIT[inserted & 7]
    return keys


def canonical_lattice_triangulation(n: int) -> tuple:
    """The sorted edge tuple of the triangulation with all unit grid edges
    and the negative-slope diagonal in every cell."""
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
    return tuple(sorted(edges))


class LatticeFlipGraph(Graph):
    """Flip graph of n x n lattice triangulations (or a subgraph of it),
    held as CSR arrays; vertex i is row i of `keys`, its packed state.  A
    product subgraph also has `coords`, an (N, blocks) int array whose row i
    holds vertex i's index in each block's flip graph."""

    def __init__(self, n: int, keys: np.ndarray, indptr, indices,
                 coords: np.ndarray | None = None):
        super().__init__(indptr, indices)
        self.n = n
        self.keys = keys
        self.coords = coords

    def to_json_dict(self) -> dict:
        return {
            "n": self.n,
            # json writes the edge tuples as nested lists
            "vertices": _grid(self.n).edge_lists(self.keys),
            **super().to_json_dict(),
        }

    def to_dot(self) -> str:
        labels = []
        for edges in _grid(self.n).edge_lists(self.keys):
            diag = [e for e in edges if abs(e[0][0] - e[1][0]) == 1
                    and abs(e[0][1] - e[1][1]) == 1]
            labels.append(";".join(f"{a}{b}" for a, b in diag))
        return self._dot("latticeflip", labels)


def enumerate_lattice(n: int, cap: int = DEFAULT_ENUMERATION_CAP) -> LatticeFlipGraph:
    """Full flip graph of the n x n grid, discovered from the canonical
    all-negative-slope triangulation; vertices are sorted by edge tuple.
    A grid side above LATTICE_ENUM_CAP, or more than `cap` states, raise
    EnumerationTooLargeError before anything is built.

    The search runs level by level and flips each state once, keeping each
    flip's (removed, inserted) ids.  A state's key is the XOR of
    `grid.zobrist` over its edges, so a flip's key is its parent's key XOR
    the words of the two edges it swaps.  In an undirected graph a
    neighbour of level d lies on level d - 1, d or d + 1, so each new level
    is its unique neighbour keys minus those of the previous and current
    levels, each built from one of its flips; the level's keys stay sorted,
    and every flip's target id is looked up among the three.  The found
    states are sorted in place by packed state, so no second copy of them
    is kept; then, a quarter FLIP_CHUNK of sorted vertices at a time, each
    neighbour is rebuilt from its flip and must equal the sorted state its
    key resolved to, so a key collision raises StructureMismatchError
    instead of merging two states."""
    if n < 1:
        raise InvalidParameterError("grid side must be >= 1")
    if n > LATTICE_ENUM_CAP:
        raise EnumerationTooLargeError(n, LATTICE_ENUM_CAP, "grid side")
    if LATTICE_COUNTS[n] > cap:
        raise EnumerationTooLargeError(LATTICE_COUNTS[n], cap)
    grid = _grid(n)
    z = grid.zobrist
    start = grid.row(canonical_lattice_triangulation(n))
    cur, key = _pack(start[None]), np.bitwise_xor.reduce(z[start], keepdims=True)
    base, prev, prev_base = 0, key, 0  # the start level stands in for the level before it
    levels, degs, flips, targets = [], [], [], []
    while len(cur):
        levels.append(cur)
        state, removed, inserted = (np.concatenate(a) for a in zip(*(
            (lo + s, r, i) for lo, s, r, i in _flips(cur, grid))))
        degs.append(np.bincount(state, minlength=len(cur)).astype(np.int32))
        flips.append(np.stack([removed, inserted], axis=1))
        nbr = key[state] ^ z[removed] ^ z[inserted]
        by_key = np.argsort(nbr)
        nbr = nbr[by_key]
        head = np.ones(len(nbr), dtype=bool)
        head[1:] = nbr[1:] != nbr[:-1]
        cand, rep = nbr[head], by_key[head]  # one flip per distinct key
        at_prev, in_prev = _lookup(prev, cand)
        at_here, in_here = _lookup(key, cand)
        fresh = ~(in_prev | in_here)
        ids = np.where(in_prev, prev_base + at_prev, np.where(
            in_here, base + at_here, base + len(cur) + np.cumsum(fresh) - 1))
        target = np.empty(len(nbr), dtype=np.int32)
        target[by_key] = ids[np.cumsum(head) - 1]
        targets.append(target)
        rep = rep[fresh]
        prev, prev_base, base = key, base, base + len(cur)
        key, cur = cand[fresh], _flipped(cur[state[rep]], removed[rep], inserted[rep])
    # in discovery order, each list joined and dropped before the next
    found, deg, flips, target = map(_join, (levels, degs, flips, targets))
    count = len(found)
    order = np.argsort(_row_keys(found)).astype(np.int32)  # discovery id of each vertex
    rank = np.empty(count, dtype=np.int32)
    rank[order] = np.arange(count, dtype=np.int32)
    keys = found
    _row_keys(keys).sort()  # a view of the contiguous rows: sorted in place, no second copy
    first = np.zeros(count + 1, dtype=np.int32)  # flips of discovery id d: first[d]..first[d+1]
    np.cumsum(deg, out=first[1:])
    indptr = np.zeros(count + 1, dtype=np.int32)
    np.cumsum(deg[order], out=indptr[1:])
    indices = np.empty(indptr[-1], dtype=np.int32)
    step = FLIP_CHUNK // 4  # about 9,500 arcs at n = 4, so the check's temporaries stay small
    for lo in range(0, count, step):
        d = order[lo:lo + step]
        at = _ranges(first[d], first[d + 1])
        src = np.repeat(np.arange(lo, lo + len(d)), deg[d])
        dst = rank[target[at]]
        if not np.array_equal(_flipped(keys[src], flips[at, 0], flips[at, 1]), keys[dst]):
            raise StructureMismatchError("a flip's key resolved to a different state")
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
    for w in grid:
        # ccw interior is to the left; area 1/2 (which also rules out p0 and p1)
        if _cross(p0, p1, w) != 1 or _point_in_polygon(w, boundary) == "out":
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
    per-block flip graphs, verified by explicit coordinates.  A flip that
    removes a forced edge leaves the subgraph, so it is dropped before its
    neighbour is built; every other flip must land inside.

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
    # coordinate rows in lexicographic order, the order the left fold indexes
    place = sub.num_vertices ** np.arange(len(placed) - 1, -1, -1)
    coords = (np.arange(count)[:, None] // place % sub.num_vertices).astype(np.int32)
    keys = []
    for lo in range(0, count, FLIP_CHUNK):
        rows = np.tile(forced, (min(FLIP_CHUNK, count - lo), 1))
        for ids, s in zip(placed, coords[lo:lo + FLIP_CHUNK].T):
            rows[:, ids] |= sub_rows[s]
        grid.check(rows)
        keys.append(_pack(rows))
    keys = np.concatenate(keys)
    # Zobrist key of each state: the forced edges' word XOR, per block, the
    # word of its sub-state's edges that are not forced
    z = grid.zobrist
    zkey = np.full(count, np.bitwise_xor.reduce(z[forced]))
    for ids, s in zip(placed, coords.T):
        zkey ^= np.bitwise_xor.reduce(np.where(sub_rows & ~forced[ids], z[ids], 0), axis=1)[s]
    order = np.argsort(zkey)
    sorted_zkey = zkey[order]
    # adjacency from the flips of free edges, each of which must stay inside;
    # each is found by key and then rebuilt and checked against that state
    src, dst = [], []
    for lo, state, removed, inserted in _flips(keys, grid):
        free = ~forced[removed]
        state, removed, inserted = lo + state[free], removed[free], inserted[free]
        at, inside = _lookup(sorted_zkey, zkey[state] ^ z[removed] ^ z[inserted])
        if not inside.all():
            raise StructureMismatchError("a flip of a free edge left the product subgraph")
        at = order[at]
        if not np.array_equal(_flipped(keys[state], removed, inserted), keys[at]):
            raise StructureMismatchError("a flip's key resolved to a different state")
        src.append(state)
        dst.append(at)
    got = graph_from_arcs(count, np.concatenate(src), np.concatenate(dst)).csr()
    if not all(map(np.array_equal, got, reduce(product_graph, [sub] * len(placed)).csr())):
        raise StructureMismatchError("induced flips do not match the product adjacency")
    return LatticeFlipGraph(n, keys, *got, coords)
