"""Recursive multicommodity-flow constructions on triangulation flip graphs:
the shuffle/concentrate/transmit/distribute uniform flow, its per-source
certification, and the hierarchical pairing flow.  All flow values are
exact rationals.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache, partial
from itertools import permutations
from math import lcm

import numpy as np

from .combinatorics import catalan
from .decomposition import (_region_count, boundary_matchings, boundary_projection,
                            oriented_partition)
from .errors import InvalidParameterError, StructureMismatchError
from .flows import (
    LIMIT,
    ArcFlow,
    bound,
    congestion_report,
    narrowed,
    product_lift,
    scaled,
    summable,
)
from .graph import _ranges
from .kangulation import build_flip_graph

# the largest n whose flow run fits desk budgets: `flow --n 10` takes 10 s
# at a 228 MB peak on a 2-vCPU host; n = 11 certifies too, but took 348 s
# at 2.2 GB, most of it the K_9 per-source table; C_12 = 208,012 states
# pass the enumeration cap but were killed for memory within 60 s on an
# 8 GB host
FLOW_N_CAP = 10


# ---------------------------------------------------------------------------
# oriented-class structure cache


@dataclass
class OrientedStructure:
    partition: object  # classes (by_coord: (x, y) at x * C_right + y) and vertex_class
    factor_ns: list  # per class: (left n, right n)
    matching: dict  # ordered (a, b) -> int64 rows (u in a, v in b)
    bproj: dict  # ordered (a, b) -> (factor_index, sub_class_index)
    coord_of: np.ndarray  # vertex -> x * C_right + y in its class


@lru_cache(maxsize=None)
def oriented_structure(n: int) -> OrientedStructure:
    part = oriented_partition(build_flip_graph(3, n))
    classes = part.classes
    factor_ns = [tuple(ni for _, ni in c.cartesian_factors) for c in classes]
    matching = {}
    for bm in boundary_matchings(part):
        matching[(bm.class_a, bm.class_b)] = bm.edges
        matching[(bm.class_b, bm.class_a)] = bm.edges[:, ::-1]
    bproj = {}
    for a, b in permutations(range(len(classes)), 2):
        fi, sub = boundary_projection(part, a, b)
        bproj[(a, b)] = (fi, sub["apex"] - 1)
    coord_of = np.empty(len(part.vertex_class), dtype=np.int64)
    for c in classes:
        coord_of[c.by_coord] = np.arange(c.size)
    return OrientedStructure(part, factor_ns, matching, bproj, coord_of)


# ---------------------------------------------------------------------------
# the recursive construction: pair flows, distribution flows, shuffles


def pair_flow(n: int, a: int, b: int) -> ArcFlow:
    """Single-source-class worth of the concentrate/transmit/distribute flow
    moving |C_b|/|C_a| units out of every vertex of class a and delivering
    one unit to every vertex of class b.  Verified exactly on construction.
    """
    st = oriented_structure(n)
    ca, cb = st.partition.classes[a], st.partition.classes[b]
    pieces = []
    # concentrate within class a onto the boundary toward b
    fi, sub = st.bproj[(a, b)]
    f_n = st.factor_ns[a][fi]
    if f_n >= 2:
        base = r_dist(f_n, sub).reversed()
        other = catalan(st.factor_ns[a][1 - fi])
        nh = catalan(st.factor_ns[a][1])
        pieces += product_lift(ca.by_coord, nh, fi, base, range(other), Fraction(cb.size, ca.size))
    # transmit across the matching
    arcs = st.matching[(a, b)]
    tran = ArcFlow.of(len(arcs), arcs[:, 0], arcs[:, 1], np.full(len(arcs), cb.size))
    pieces.append((tran, 1))
    # distribute within class b from the boundary toward a
    fj, sub2 = st.bproj[(b, a)]
    f2 = st.factor_ns[b][fj]
    if f2 >= 2:
        base2 = r_dist(f2, sub2)
        other2 = catalan(st.factor_ns[b][1 - fj])
        nh2 = catalan(st.factor_ns[b][1])
        pieces += product_lift(cb.by_coord, nh2, fj, base2, range(other2), 1)
    flow = ArcFlow.combine(pieces).reduce()
    expected = [(ca.member_indices, Fraction(-cb.size, ca.size)), (cb.member_indices, 1)]
    flow.check_net(expected, f"pair_flow({n},{a},{b})")
    return flow


@lru_cache(maxsize=None)
def r_dist(n: int, u: int) -> ArcFlow:
    """Canonical distribution flow on K_n: every vertex of oriented class u
    starts with C_n/|C_u| units; every vertex of K_n ends holding one."""
    classes = oriented_structure(n).partition.classes
    flow = ArcFlow.combine(
        (pair_flow(n, u, w), 1) for w in range(len(classes)) if w != u
    ).reduce()
    total = catalan(n)
    inside = np.zeros(total, dtype=bool)
    inside[classes[u].member_indices] = True
    expected = [(np.flatnonzero(~inside), 1),
                (classes[u].member_indices, 1 - Fraction(total, classes[u].size))]
    flow.check_net(expected, f"r_dist({n},{u})")
    return flow


def class_product_aggregate(n: int, t: int) -> ArcFlow:
    """Aggregate uniform flow inside class t, via its Cartesian factorization:
    every ordered member pair exchanges one unit."""
    st = oriented_structure(n)
    l, r = st.factor_ns[t]
    cl, cr = catalan(l), catalan(r)
    verts = st.partition.classes[t].by_coord
    return ArcFlow.combine(
        product_lift(verts, cr, 1, aggregate_flow(r), range(cl), cl)
        + product_lift(verts, cr, 0, aggregate_flow(l), range(cr), cr)
    )


@lru_cache(maxsize=None)
def aggregate_flow(n: int) -> ArcFlow:
    """Aggregate arc flow of the recursive uniform multicommodity flow on K_n."""
    if n <= 1:
        return ArcFlow()
    total = catalan(n)
    pieces = []
    for t, c in enumerate(oriented_structure(n).partition.classes):
        pieces.append((class_product_aggregate(n, t), Fraction(total, c.size)))
        pieces.append((r_dist(n, t), c.size))
    return ArcFlow.combine(pieces).reduce()


# ---------------------------------------------------------------------------
# per-source flows, batched: the flows of many sources as stacked rows


def _offsets(lens: np.ndarray) -> np.ndarray:
    return np.concatenate(([0], np.cumsum(lens)))


def _lcm(a: np.ndarray, b) -> np.ndarray:
    """Elementwise lcm of a and b (an int or an integer array), exactly."""
    if a.dtype != object and bound(a) * (bound(b) if isinstance(b, np.ndarray) else b) >= LIMIT:
        a = a.astype(object)
    return np.lcm(a, b)


@dataclass
class SourceRows:
    """The flows of a batch of sources, one block of rows per source: source
    i's flow has numerator num[j] on arc (src[j], dst[j]) for j in
    start[i]:start[i+1], over the denominator den[i], with its arcs in
    first-insertion order and none repeated."""

    den: np.ndarray
    start: np.ndarray
    src: np.ndarray
    dst: np.ndarray
    num: np.ndarray

    def lengths(self) -> np.ndarray:
        return np.diff(self.start)

    def source_of_row(self) -> np.ndarray:
        return np.repeat(np.arange(len(self.den)), self.lengths())

    def take(self, idx: np.ndarray) -> "SourceRows":
        lens = self.lengths()[idx]
        rows = _ranges(self.start[idx], self.start[idx + 1])
        return SourceRows(
            self.den[idx], _offsets(lens), self.src[rows], self.dst[rows], self.num[rows]
        )

    def followed_by(self, other: "SourceRows") -> "SourceRows":
        """Each source's rows here, then its rows in other (same sources)."""
        la, lb = self.lengths(), other.lengths()
        start = _offsets(la + lb)
        if len(la) == 1:
            cols = (np.concatenate(ab) for ab in zip((self.src, self.dst), (other.src, other.dst)))
            num = np.concatenate((self.num, other.num))
            return SourceRows(self.den, start, *cols, num)
        at_a = np.arange(len(self.num)) + np.repeat(start[:-1] - self.start[:-1], la)
        at_b = np.arange(len(other.num)) + np.repeat(start[:-1] + la - other.start[:-1], lb)
        cols = []
        for a, b in ((self.src, other.src), (self.dst, other.dst), (self.num, other.num)):
            out = np.empty(len(a) + len(b), dtype=np.result_type(a, b))
            out[at_a], out[at_b] = a, b
            cols.append(out)
        return SourceRows(self.den, start, *cols)


def _shuffle_rows(n: int, t: int, coords: np.ndarray, factor_rows) -> SourceRows:
    """Shuffle components of the sources at coordinates coords of class t:
    source (x, y) sends C_l units along the per-source flow of y in its
    copy {x} x K_r, then each (x, y') passes one unit to every member of
    its copy K_l x {y'} along the per-source flow of x.  factor_rows(f,
    ids) gives the per-source flows of K_f for the sources ids."""
    st = oriented_structure(n)
    l, r = st.factor_ns[t]
    cl, cr = catalan(l), catalan(r)
    verts = st.partition.classes[t].by_coord
    x, y = np.divmod(coords, cr)
    k = len(coords)
    parts = []  # (lifted rows over their factor's denominators, scale)
    if r >= 2:
        h = factor_rows(r, y)
        src, dst = h.src, h.dst
        if cl > 1:  # the copy {x} x K_r starts at vertex x * cr
            base = (x * cr)[h.source_of_row()]
            src, dst = base + src, base + dst
        parts.append((SourceRows(h.den, h.start, verts[src], verts[dst], h.num), cl))
    if l >= 2:
        g = factor_rows(l, x)
        if cr == 1:  # one copy K_l x {0}, in which (x, 0) is vertex x
            start, src, dst, num = g.start, verts[g.src], verts[g.dst], g.num
        else:
            lens = np.repeat(g.lengths(), cr)
            rows = _ranges(np.repeat(g.start[:-1], cr), np.repeat(g.start[1:], cr))
            copy = np.repeat(np.tile(np.arange(cr), k), lens)
            src, dst = verts[g.src[rows] * cr + copy], verts[g.dst[rows] * cr + copy]
            start, num = _offsets(g.lengths() * cr), g.num[rows]
        parts.append((SourceRows(g.den, start, src, dst, num), 1))
    if not parts:
        none = np.zeros(0, dtype=np.int64)
        return SourceRows(np.ones(k, dtype=np.int64), np.zeros(k + 1, dtype=np.int64), none, none, none)
    if len(parts) == 1:
        rows, scale = parts[0]
        num = rows.num if scale == 1 else scaled(rows.num, scale)
        return SourceRows(rows.den, rows.start, rows.src, rows.dst, num)
    den = _lcm(parts[0][0].den, parts[1][0].den)
    pieces = []
    for rows, scale in parts:
        mult = (den // rows.den * scale)[rows.source_of_row()]
        pieces.append(SourceRows(den, rows.start, rows.src, rows.dst, scaled(rows.num, mult)))
    # the two parts' arcs (moves inside a row, moves inside a column) differ
    return pieces[0].followed_by(pieces[1])


def _source_rows(n: int, t: int, ids: np.ndarray) -> SourceRows:
    """Per-source flows of the sources ids, all in class t of K_n: C_n/|C_t|
    times the shuffle component plus r_dist(n, t), summed arc by arc as
    ArcFlow.combine would (every value is positive, so no sum cancels).
    Factor flows come from the tables."""
    st = oriented_structure(n)
    sh = _shuffle_rows(n, t, st.coord_of[ids], _table_rows)
    dist = r_dist(n, t)
    q = Fraction(catalan(n), st.partition.classes[t].size)
    eff = scaled(sh.den, q.denominator)
    den = np.where(sh.lengths() > 0, _lcm(eff, dist.den), dist.den)
    dist_mult = den // dist.den
    sid = sh.source_of_row()
    num = scaled(sh.num, (den // eff * q.numerator)[sid])
    # r_dist's value on an arc of the shuffle goes into that row; r_dist's
    # other arcs follow the shuffle's, in r_dist's order
    at = dist.arc_index(sh.src, sh.dst)
    hit = np.flatnonzero(at >= 0)
    extra = scaled(dist.num[at[hit]], dist_mult[sid[hit]])
    if num.dtype != object and bound(num) + bound(extra) >= LIMIT:
        num = num.astype(object)
    num[hit] += extra
    covered = np.zeros((len(ids), len(dist.num)), dtype=bool)
    covered[sid[hit], at[hit]] = True
    who, arc = np.nonzero(~covered)
    rest = SourceRows(
        den,
        _offsets(np.bincount(who, minlength=len(ids))),
        dist.src[arc],
        dist.dst[arc],
        scaled(dist.num[arc], dist_mult[who]),
    )
    return SourceRows(den, sh.start, sh.src, sh.dst, num).followed_by(rest)


# rows that one chunk of sources holds at once, in verify_unit_demands and
# in the per-source tables (a source with more rows is a chunk of its own);
# larger chunks raise the peak RSS of `flow --n-range 2..8`
CHUNK_ROWS = 1 << 13


def _row_chunks(lens: np.ndarray):
    """Slices of consecutive sources, each with at most CHUNK_ROWS rows in
    all by lens, or with one source."""
    ends = np.cumsum(lens)
    lo = 0
    while lo < len(ends):
        below = int(ends[lo - 1]) if lo else 0
        hi = max(lo + 1, int(np.searchsorted(ends, below + CHUNK_ROWS, side="right")))
        yield slice(lo, hi)
        lo = hi


def _table_lengths(n: int, ids: np.ndarray) -> np.ndarray:
    rows, row_of = _source_table(n)
    return rows.lengths()[row_of[ids]]


def _shuffle_lengths(n: int, t: int, coords: np.ndarray) -> np.ndarray:
    """Row count of the shuffle component that _shuffle_rows builds for each
    source at coords of class t, whose factors have tables."""
    l, r = oriented_structure(n).factor_ns[t]
    cr = catalan(r)
    x, y = np.divmod(coords, cr)
    out = np.zeros(len(coords), dtype=np.int64)
    if r >= 2:
        out += _table_lengths(r, y)
    if l >= 2:
        out += cr * _table_lengths(l, x)
    return out


@lru_cache(maxsize=None)
def _source_table(n: int):
    """(rows, row_of): the per-source flows of every source of K_n, class by
    class, and each vertex's index into them.  A source of class t has one
    row per arc of r_dist(n, t), since every arc of its shuffle lies on
    that support (a chunk that breaks this is refused as miscounted); the
    rows are built in chunks and written into arrays of that size, so no
    part of the table is held twice."""
    members = [c.member_indices for c in oriented_structure(n).partition.classes]
    lens = [np.full(len(m), len(r_dist(n, t).num)) for t, m in enumerate(members)]
    start = _offsets(np.concatenate(lens))
    den = np.empty(catalan(n), dtype=np.int64)
    src, dst, num = (np.empty(int(start[-1]), dtype=np.int64) for _ in range(3))
    i = 0
    for t, m in enumerate(members):
        for part in _row_chunks(lens[t]):
            rows = _source_rows(n, t, m[part])
            j = i + len(rows.den)
            if not np.array_equal(rows.lengths(), lens[t][part]):
                raise StructureMismatchError(f"per-source rows of class {t} of K_{n} miscounted")
            part_den, part_num = narrowed(rows.den), narrowed(rows.num)
            if part_den.dtype == object:
                den = den.astype(object)
            if part_num.dtype == object:
                num = num.astype(object)
            a, b = start[i], start[j]
            den[i:j], src[a:b], dst[a:b], num[a:b] = part_den, rows.src, rows.dst, part_num
            i = j
    row_of = np.empty(catalan(n), dtype=np.int64)
    row_of[np.concatenate(members)] = np.arange(catalan(n))
    return SourceRows(den, start, src, dst, num), row_of


def _table_rows(n: int, ids: np.ndarray) -> SourceRows:
    rows, row_of = _source_table(n)
    return rows.take(row_of[ids])


def _shared_rows(rows: SourceRows, f: int, ids: np.ndarray, want_f: int, want_ids: np.ndarray):
    """rows, the per-source flows of K_f at ids, when they are asked for."""
    if want_f != f or not np.array_equal(want_ids, ids):
        raise InvalidParameterError(f"shared rows are K_{f}'s, not K_{want_f}'s at these sources")
    return rows


def _source_chunks(n: int):
    """(classes, coords): chunks of the coordinates of every class of K_n,
    each with at most CHUNK_ROWS shuffle rows (or one source).  The two end
    classes, (0, n-1) and (n-1, 0), share their chunks: in both, coordinate
    c is vertex c of their one factor K_(n-1), and a chunk's factor sources
    share their class of K_(n-1)."""
    factor = oriented_structure(n - 1)
    coords = np.argsort(factor.partition.vertex_class, kind="stable")
    group = factor.partition.vertex_class[coords]
    for block in np.split(coords, np.flatnonzero(np.diff(group)) + 1):
        # at least each factor source's row count: its shuffle rows and
        # every arc of its class's r_dist
        u = int(factor.partition.vertex_class[block[0]])
        lens = _shuffle_lengths(n - 1, u, factor.coord_of[block]) + len(r_dist(n - 1, u).num)
        for part in _row_chunks(lens):
            yield (0, n - 1), block[part]
    for t in range(1, n - 1):
        l, r = oriented_structure(n).factor_ns[t]
        coords = np.arange(catalan(l) * catalan(r))
        for part in _row_chunks(_shuffle_lengths(n, t, coords)):
            yield (t,), coords[part]


def _check_shuffle(n: int, t: int, coords: np.ndarray, rows: SourceRows) -> None:
    """Each source's shuffle component, net-checked exactly: over its
    denominator its net inflow is -(|C_t| - 1) at the source, 1 at every
    other member of class t and 0 elsewhere."""
    size = catalan(n)
    c = oriented_structure(n).partition.classes[t]
    members, sz, den = c.by_coord, c.size, rows.den
    # net inflow is linear in the rows, so repeated arcs need no merging
    cell = rows.source_of_row() * size
    num = summable(rows.num)
    if num.dtype != object and (den.dtype == object or bound(den) * sz >= LIMIT):
        num = num.astype(object)
    net = np.zeros(len(coords) * size, dtype=num.dtype)
    np.subtract.at(net, cell + rows.src, num)
    np.add.at(net, cell + rows.dst, num)
    net = net.reshape(len(coords), size)
    # the expected net comes off in place; |net| < LIMIT and 0 < den <=
    # sz * den < LIMIT, so no step wraps
    net[:, members] -= den[:, None]
    net[np.arange(len(coords)), members[coords]] += den * sz
    bad = np.flatnonzero(net)
    if len(bad):
        i, v = divmod(int(bad[0]), size)
        source = int(members[coords[i]])
        want = int(oriented_structure(n).partition.vertex_class[v] == t) - sz * (v == source)
        got = Fraction(int(net[i, v]) + want * int(den[i]), int(den[i]))
        raise StructureMismatchError(
            f"class {t} source {source}: shuffle: net inflow at {v} is {got}, expected {want}"
        )


def verify_unit_demands(n: int) -> dict:
    """Certify, source by source, that the recursive flow routes exactly one
    unit between every ordered vertex pair of K_n.

    The flow for source s in class T is (C_n/|C_T|) * shuffle_s + r_dist_T.
    Every pair flow and distribution flow is net-verified from its arcs at
    construction time.  Here each source's shuffle component is built from
    the per-source flows of its class's factors, summed arc by arc, and its
    net inflow is checked exactly against -(|C_T| - 1) at s, 1 at every
    other member of T and 0 elsewhere, which pins the per-source net to
    exactly -(C_n - 1) at s and +1 everywhere else.  The sources of a class
    go in chunks of stacked rows; a chunk of the two end classes builds its
    K_(n-1) per-source flows once and checks both classes on them.
    """
    if n <= 1:
        return {"n": n, "sources": 0, "ok": True}
    for t in range(len(oriented_structure(n).partition.classes)):
        r_dist(n, t)  # net-verified on construction
    count = 0
    for classes, coords in _source_chunks(n):
        factor_rows = _table_rows
        if len(classes) == 2:
            # the end classes' one factor is K_(n-1), whose table would be
            # the largest: its rows are built for just the sources coords
            u = int(oriented_structure(n - 1).partition.vertex_class[coords[0]])
            shared = _source_rows(n - 1, u, coords)
            factor_rows = partial(_shared_rows, shared, n - 1, coords)
        for t in classes:
            _check_shuffle(n, t, coords, _shuffle_rows(n, t, coords, factor_rows))
            count += len(coords)
    return {"n": n, "sources": count, "ok": True}


def matching_arc_values(n: int) -> list:
    """Un-normalized aggregate flow on every inter-class matching arc, in
    both directions."""
    agg = aggregate_flow(n)
    return [Fraction(v, agg.den)
            for arcs in oriented_structure(n).matching.values()
            for v in agg.numerators_at(arcs[:, 0], arcs[:, 1]).tolist()]


def uniform_flow_recursive(graph) -> tuple:
    """The recursive uniform multicommodity flow on a k=3 flip graph.

    Returns (ArcFlow, CongestionReport) with uniform normalization.
    """
    if graph.k != 3:
        raise InvalidParameterError("recursive flow requires k = 3")
    agg = aggregate_flow(graph.n)
    report = congestion_report(agg, graph.num_vertices)
    return agg, report


# ---------------------------------------------------------------------------
# hierarchical pairing flow (class-level, exact)


def hierarchical_pairing_flow(n: int) -> dict:
    """Solve the n class-to-graph MSF problems by dyadic pairing of the
    oriented classes, entirely at class level (sizes and matching sizes are
    closed-form Catalan products).

    Every source vertex of class i starts with C_n units; after the log n
    pairing levels every vertex of K_n holds |C_i| units of commodity i,
    certified by exact pool accounting.  Returns the per-level maximum pair
    congestions, their total and their maximum.
    """
    if n < 2:
        raise InvalidParameterError("need at least two classes")
    total = catalan(n)
    # apex a's class holds (0, a, n + 1); apexes a < b match on (0, a, b, n + 1)
    sizes = [_region_count(3, n + 2, (0, a, n + 1)) for a in range(1, n + 1)]

    def match_size(a: int, b: int) -> int:
        return _region_count(3, n + 2, (0, min(a, b), max(a, b), n + 1))

    # pools[i, c] / den: units of commodity i currently held by class c
    pools = np.zeros((n, n), dtype=object)
    pools[range(n), range(n)] = [total * sz for sz in sizes]
    den = 1
    levels = []
    size = 2
    while size <= 2 * (n - 1):
        worst = Fraction(0)
        worst_pair = None
        blocks = [(lo, lo + size // 2, min(lo + size, n)) for lo in range(0, n, size)]
        blocks = [(lo, mid, hi, sum(sizes[lo:hi])) for lo, mid, hi in blocks if mid < hi]
        # over den * step every pool is a multiple of every block's size, so
        # the moves below divide exactly
        step = lcm(*(s_block for *_, s_block in blocks))
        pools *= step
        den *= step
        for lo, mid, hi, s_block in blocks:
            # all per-level amounts come from the pre-level pools
            pre = pools[:, lo:hi].copy()
            for l in range(lo, mid):
                for r in range(mid, hi):
                    for src, dst in ((l, r), (r, l)):
                        amt = pre[:, src - lo] * sizes[dst] // s_block
                        pools[:, src] -= amt
                        pools[:, dst] += amt
                        cong = Fraction(amt.sum(), den * match_size(src + 1, dst + 1) * total)
                        if cong > worst:
                            worst, worst_pair = cong, (src + 1, dst + 1)
            # pool invariant: total mass at class c stays C_n * |C_c|
            held = pools[:, lo:hi].sum(axis=0)
            bad = np.flatnonzero(held != [total * sz * den for sz in sizes[lo:hi]])
            if len(bad):
                raise StructureMismatchError(
                    f"pool invariant broken at class {lo + bad[0]}: {Fraction(held[bad[0]], den)}"
                )
        levels.append(
            {
                "level": len(levels) + 1,
                "group_size": min(size, n),
                "congestion": worst,
                "argmax_pair": worst_pair,
            }
        )
        if size >= n:
            break
        size *= 2
    # final demand certification: commodity i spread with density |C_i|
    want = np.outer(np.array(sizes, dtype=object), np.array(sizes, dtype=object))
    bad = np.argwhere(pools != want * den)
    if len(bad):
        i, c = bad[0].tolist()
        raise StructureMismatchError(
            f"commodity {i} holds {Fraction(pools[i, c], den)} at class {c}, "
            f"expected {want[i, c]}"
        )
    # each class pair moves at one level, so the largest pair congestion is
    # the largest level maximum
    worsts = [lv["congestion"] for lv in levels]
    return {
        "n": n,
        "levels": levels,
        "total_matching_congestion": sum(worsts, Fraction(0)),
        "max_pair_congestion": max(worsts),
        "demands_certified": True,
    }
