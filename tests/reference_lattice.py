"""Per-state reference for lattice triangulation flips and enumeration.

This is the earlier, one-state-at-a-time implementation: a state is a Python
int bitmask over the grid's primitive segments in lexicographic order, each
interior edge's flip decision is memoized on the state's apex-candidate
edges around it, and the graph index is a `{mask: id}` dict.  The package's
batched routine must give the same vertex order, adjacency and flip lists.

`gather_flips` is the earlier batched routine on the package's `_Grid`
tables: one fancy-index gather per (state, interior edge, side, apex, leg).
"""

from functools import lru_cache, reduce
from itertools import combinations, compress
from math import gcd
from operator import or_

import numpy as np


def _cross(o, a, b) -> int:
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


def _norm_edge(p, q):
    return (p, q) if p <= q else (q, p)


class Grid:
    """Segment table of the n x n grid: bit i of a mask is segment i.

    Per segment pq, `apexes` holds (mask of pw and qw, w, c) for every grid
    point w at cross product c = +1 or -1, `union` ORs those masks, and
    `memo` maps a state's `union` pattern to the flip decision."""

    def __init__(self, n: int):
        points = [(x, y) for x in range(n) for y in range(n)]
        self.segs = [
            (p, q) for p, q in combinations(points, 2)
            if gcd(q[0] - p[0], q[1] - p[1]) == 1
        ]
        self.ids = {e: i for i, e in enumerate(self.segs)}
        self.interior = 0
        self.apexes, self.union = [], []
        for i, (p, q) in enumerate(self.segs):
            on_hull = (p[0] == q[0] and p[0] in (0, n - 1)) or (
                p[1] == q[1] and p[1] in (0, n - 1))
            if not on_hull:
                self.interior |= 1 << i
            apexes = [
                (self.bit(p, w) | self.bit(q, w), w, c)
                for w in points if (c := _cross(p, q, w)) in (1, -1)
            ]
            self.apexes.append(apexes)
            self.union.append(reduce(or_, (two for two, _, _ in apexes), 0))
        self.memo = [{} for _ in self.segs]

    def bit(self, p, q) -> int:
        return 1 << self.ids[_norm_edge(p, q)]

    def mask(self, edges) -> int:
        return sum(1 << self.ids[e] for e in edges)

    def edges(self, mask: int) -> tuple:
        bits = f"{mask:0{len(self.segs)}b}"[::-1]
        return tuple(compress(self.segs, map(int, bits)))

    def sort_key(self, mask: int) -> int:
        """The complement with bit 0 read as the most significant digit:
        ascending keys are ascending edge tuples."""
        bits = f"{mask:0{len(self.segs)}b}"[::-1]
        return int(bits, 2) ^ ((1 << len(self.segs)) - 1)


@lru_cache(maxsize=None)
def grid(n: int) -> Grid:
    return Grid(n)


def flip_moves(mask: int, g: Grid) -> list:
    """All flips of the state `mask` as (neighbour mask, removed id, inserted
    id), in increasing order of the removed edge; an interior edge that does
    not bound exactly one face on each side raises ValueError."""
    moves = []
    m = mask & g.interior
    while m:
        low = m & -m
        m ^= low
        i = low.bit_length() - 1
        local = mask & g.union[i]
        memo = g.memo[i]
        new = memo.get(local)
        if new is None:
            left = [w for two, w, c in g.apexes[i] if c == 1 and local & two == two]
            right = [w for two, w, c in g.apexes[i] if c == -1 and local & two == two]
            if len(left) != 1 or len(right) != 1:
                raise ValueError(f"edge {g.segs[i]} does not bound two faces")
            (w1,), (w2,) = left, right
            (p, q) = g.segs[i]
            convex = w1[0] + w2[0] == p[0] + q[0] and w1[1] + w2[1] == p[1] + q[1]
            new = memo[local] = g.ids[_norm_edge(w1, w2)] if convex else -1
        if new >= 0:
            moves.append((mask ^ low | 1 << new, i, new))
    return moves


def flips(n: int, edges) -> list:
    """(neighbour edges, removed edge, inserted edge) for every flip."""
    g = grid(n)
    return [(g.edges(nbr), g.segs[i], g.segs[j]) for nbr, i, j in flip_moves(g.mask(edges), g)]


def enumerate_graph(n: int, start_edges) -> tuple:
    """(vertex edge tuples, sorted adjacency lists) of the flip graph reached
    from `start_edges`, vertices in edge-tuple order."""
    g = grid(n)
    start = g.mask(start_edges)
    found = {start: 0}
    rows = [None]
    pending = [start]
    while pending:
        mask = pending.pop()
        row = rows[found[mask]] = []
        for nbr, _, _ in flip_moves(mask, g):
            j = found.get(nbr)
            if j is None:
                j = found[nbr] = len(rows)
                rows.append(None)
                pending.append(nbr)
            row.append(j)
    order = sorted(found, key=g.sort_key)
    rank = [0] * len(order)
    for r, mask in enumerate(order):
        rank[found[mask]] = r
    adj = [sorted(rank[j] for j in rows[found[mask]]) for mask in order]
    return [g.edges(mask) for mask in order], adj


def gather_flips(rows, grid) -> tuple:
    """(state, removed id, inserted id) of every flip of the bool state rows,
    by state and then by removed edge, read off `grid.legs` and
    `grid.inserted` with one gather per leg.  A present interior edge that
    does not bound exactly one face on each side raises ValueError naming it."""
    state, j = np.nonzero(rows[:, grid.interior])
    edge = grid.interior[j]
    padded = np.zeros((len(rows), grid.size + 1), dtype=bool)
    padded[:, :-1] = rows
    at = grid.legs[edge] + (state * (grid.size + 1))[:, None, None, None]
    legs = padded.ravel()[at]
    hits = legs[..., 0] & legs[..., 1]  # (flip, side, apex slot)
    faces = hits.sum(axis=2)
    bad = (faces != 1).any(axis=1)
    if bad.any():
        raise ValueError(f"edge {grid.segs[edge[bad.argmax()]]} does not bound two faces")
    slot = hits.argmax(axis=2)
    new = grid.inserted[edge, slot[:, 0], slot[:, 1]]
    keep = new >= 0
    return state[keep], edge[keep], new[keep]
