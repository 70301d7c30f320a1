"""Recursive multicommodity-flow constructions on triangulation flip graphs:
the shuffle/concentrate/transmit/distribute uniform flow, the Cartesian
product combiner, the projection-restriction combiner, and the hierarchical
pairing flow.  All flow values are exact rationals.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache, partial

import numpy as np

from .combinatorics import catalan
from .decomposition import (_cross_arcs, _region_count, boundary_matchings,
                            boundary_projection, oriented_partition)
from .errors import InvalidParameterError, StructureMismatchError
from .flows import (
    LIMIT,
    ArcFlow,
    CongestionReport,
    bound,
    congestion_report,
    narrowed,
    product_lift,
    scaled,
    summable,
)
from .graph import _ranges, graph_from_arcs, product_graph
from .kangulation import build_flip_graph


# ---------------------------------------------------------------------------
# oriented-class structure cache


@dataclass
class OrientedStructure:
    n: int
    graph: object
    partition: object
    sizes: list
    members: list
    factor_ns: list  # per class: (left n, right n)
    by_coord: list  # per class: int64 members in coordinate order, (x, y) at x * C_right + y
    matching: dict  # ordered (a, b) -> int64 rows (u in a, v in b)
    bproj: dict  # ordered (a, b) -> (factor_index, sub_class_index)
    class_of: np.ndarray  # vertex -> class
    coord_of: np.ndarray  # vertex -> x * C_right + y in its class


@lru_cache(maxsize=None)
def oriented_structure(n: int) -> OrientedStructure:
    graph = build_flip_graph(3, n)
    part = oriented_partition(graph)
    classes = part.classes
    factor_ns = [tuple(ni for _, ni in c.cartesian_factors) for c in classes]
    matching = {}
    for bm in boundary_matchings(part):
        matching[(bm.class_a, bm.class_b)] = bm.edges
        matching[(bm.class_b, bm.class_a)] = bm.edges[:, ::-1]
    bproj = {}
    for a in range(len(classes)):
        for b in range(len(classes)):
            if a != b:
                fi, sub = boundary_projection(part, a, b)
                bproj[(a, b)] = (fi, sub["apex"] - 1)
    coord_of = np.empty(graph.num_vertices, dtype=np.int64)
    for c in classes:
        coord_of[c.by_coord] = np.arange(c.size)
    return OrientedStructure(
        n, graph, part, [c.size for c in classes], [c.member_indices for c in classes],
        factor_ns, [c.by_coord for c in classes], matching, bproj, part.vertex_class, coord_of,
    )


# ---------------------------------------------------------------------------
# the recursive construction: pair flows, distribution flows, shuffles


@lru_cache(maxsize=None)
def pair_flow(n: int, a: int, b: int) -> ArcFlow:
    """Single-source-class worth of the concentrate/transmit/distribute flow
    moving |C_b|/|C_a| units out of every vertex of class a and delivering
    one unit to every vertex of class b.  Verified exactly on construction.
    """
    st = oriented_structure(n)
    ca, cb = st.sizes[a], st.sizes[b]
    pieces = []
    # concentrate within class a onto the boundary toward b
    fi, sub = st.bproj[(a, b)]
    f_n = st.factor_ns[a][fi]
    if f_n >= 2:
        base = r_dist(f_n, sub).reversed()
        other = catalan(st.factor_ns[a][1 - fi])
        nh = catalan(st.factor_ns[a][1])
        pieces += product_lift(st.by_coord[a], nh, fi, base, range(other), Fraction(cb, ca))
    # transmit across the matching
    arcs = st.matching[(a, b)]
    tran = ArcFlow.of(len(arcs), arcs[:, 0], arcs[:, 1], np.full(len(arcs), cb))
    pieces.append((tran, 1))
    # distribute within class b from the boundary toward a
    fj, sub2 = st.bproj[(b, a)]
    f2 = st.factor_ns[b][fj]
    if f2 >= 2:
        base2 = r_dist(f2, sub2)
        other2 = catalan(st.factor_ns[b][1 - fj])
        nh2 = catalan(st.factor_ns[b][1])
        pieces += product_lift(st.by_coord[b], nh2, fj, base2, range(other2), 1)
    flow = ArcFlow.combine(pieces).reduce()
    expected = dict.fromkeys(st.members[a], Fraction(-cb, ca))
    expected.update(dict.fromkeys(st.members[b], 1))
    flow.check_net(expected, f"pair_flow({n},{a},{b})")
    return flow


@lru_cache(maxsize=None)
def r_dist(n: int, u: int) -> ArcFlow:
    """Canonical distribution flow on K_n: every vertex of oriented class u
    starts with C_n/|C_u| units; every vertex of K_n ends holding one."""
    st = oriented_structure(n)
    flow = ArcFlow.combine(
        (pair_flow(n, u, w), 1) for w in range(len(st.sizes)) if w != u
    ).reduce()
    total = catalan(n)
    expected = dict.fromkeys(range(total), 1)
    expected.update(dict.fromkeys(st.members[u], 1 - Fraction(total, st.sizes[u])))
    flow.check_net(expected, f"r_dist({n},{u})")
    return flow


def class_product_aggregate(n: int, t: int) -> ArcFlow:
    """Aggregate uniform flow inside class t, via its Cartesian factorization:
    every ordered member pair exchanges one unit."""
    st = oriented_structure(n)
    l, r = st.factor_ns[t]
    cl, cr = catalan(l), catalan(r)
    verts = st.by_coord[t]
    return ArcFlow.combine(
        product_lift(verts, cr, 1, aggregate_flow(r), range(cl), cl)
        + product_lift(verts, cr, 0, aggregate_flow(l), range(cr), cr)
    )


@lru_cache(maxsize=None)
def aggregate_flow(n: int) -> ArcFlow:
    """Aggregate arc flow of the recursive uniform multicommodity flow on K_n."""
    if n <= 1:
        return ArcFlow()
    st = oriented_structure(n)
    total = catalan(n)
    pieces = []
    for t, sz in enumerate(st.sizes):
        pieces.append((class_product_aggregate(n, t), Fraction(total, sz)))
        pieces.append((r_dist(n, t), sz))
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
        at_a = np.arange(len(self.num)) + np.repeat(start[:-1] - self.start[:-1], la)
        at_b = np.arange(len(other.num)) + np.repeat(start[:-1] + la - other.start[:-1], lb)
        cols = []
        for a, b in ((self.src, other.src), (self.dst, other.dst), (self.num, other.num)):
            out = np.empty(len(a) + len(b), dtype=np.result_type(a, b))
            out[at_a], out[at_b] = a, b
            cols.append(out)
        return SourceRows(self.den, start, *cols)

    def flow(self, i: int) -> ArcFlow:
        a, b = self.start[i], self.start[i + 1]
        return ArcFlow.of(int(self.den[i]), self.src[a:b], self.dst[a:b], narrowed(self.num[a:b]))


def _shuffle_rows(n: int, t: int, coords: np.ndarray, factor_rows) -> SourceRows:
    """Shuffle components of the sources at coordinates coords of class t:
    source (x, y) sends C_l units along the per-source flow of y in its
    copy {x} x K_r, then each (x, y') passes one unit to every member of
    its copy K_l x {y'} along the per-source flow of x.  factor_rows(f,
    ids) gives the per-source flows of K_f for the sources ids."""
    st = oriented_structure(n)
    l, r = st.factor_ns[t]
    cl, cr = catalan(l), catalan(r)
    verts = st.by_coord[t]
    x, y = np.divmod(coords, cr)
    k = len(coords)
    parts = []  # (lifted rows over their factor's denominators, scale)
    if r >= 2:
        h = factor_rows(r, y)
        base = (x * cr)[h.source_of_row()]
        lifted = SourceRows(h.den, h.start, verts[base + h.src], verts[base + h.dst], h.num)
        parts.append((lifted, cl))
    if l >= 2:
        g = factor_rows(l, x)
        lens = np.repeat(g.lengths(), cr)
        rows = _ranges(np.repeat(g.start[:-1], cr), np.repeat(g.start[1:], cr))
        copy = np.repeat(np.tile(np.arange(cr), k), lens)
        src, dst = verts[g.src[rows] * cr + copy], verts[g.dst[rows] * cr + copy]
        parts.append((SourceRows(g.den, _offsets(g.lengths() * cr), src, dst, g.num[rows]), 1))
    den = np.ones(k, dtype=np.int64)
    for rows, _ in parts:
        den = _lcm(den, rows.den)
    pieces = []
    for rows, scale in parts:
        mult = (den // rows.den * scale)[rows.source_of_row()]
        pieces.append(SourceRows(den, rows.start, rows.src, rows.dst, scaled(rows.num, mult)))
    if not pieces:
        none = np.zeros(0, dtype=np.int64)
        return SourceRows(den, np.zeros(k + 1, dtype=np.int64), none, none, none)
    # the two parts' arcs (moves inside a row, moves inside a column) differ
    return pieces[0] if len(pieces) == 1 else pieces[0].followed_by(pieces[1])


def _source_rows(n: int, t: int, ids: np.ndarray) -> SourceRows:
    """Per-source flows of the sources ids, all in class t of K_n: C_n/|C_t|
    times the shuffle component plus r_dist(n, t), summed arc by arc as
    ArcFlow.combine would (every value is positive, so no sum cancels).
    Factor flows come from the tables."""
    st = oriented_structure(n)
    sh = _shuffle_rows(n, t, st.coord_of[ids], _table_rows)
    dist = r_dist(n, t)
    q = Fraction(catalan(n), st.sizes[t])
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


@lru_cache(maxsize=None)
def _source_table(n: int):
    """(rows, row_of): the per-source flows of every source of K_n, class by
    class, and each vertex's index into them."""
    st = oriented_structure(n)
    parts = [_source_rows(n, t, np.asarray(m)) for t, m in enumerate(st.members)]
    row_of = np.empty(catalan(n), dtype=np.int64)
    row_of[np.concatenate(st.members)] = np.arange(catalan(n))
    rows = SourceRows(
        np.concatenate([p.den for p in parts]),
        _offsets(np.concatenate([p.lengths() for p in parts])),
        *(np.concatenate([getattr(p, c) for p in parts]) for c in ("src", "dst", "num")),
    )
    return rows, row_of


def _table_rows(n: int, ids: np.ndarray) -> SourceRows:
    rows, row_of = _source_table(n)
    return rows.take(row_of[ids])


def _factor_rows(f: int, ids: np.ndarray, n: int) -> SourceRows:
    """Per-source flows of K_f for verify_unit_demands(n): from the table up
    to K_(n-2), built for just these sources (all in one class) on K_(n-1),
    whose table would be the largest."""
    if f < n - 1:
        return _table_rows(f, ids)
    classes = oriented_structure(f).class_of[ids]
    if (classes != classes[0]).any():
        raise InvalidParameterError("factor sources span classes")
    return _source_rows(f, int(classes[0]), ids)


def per_source_flow(n: int, s: int) -> ArcFlow:
    """Full per-source flow on K_n: one unit from s to every other vertex."""
    if n <= 1:
        return ArcFlow()
    st = oriented_structure(n)
    return _source_rows(n, int(st.class_of[s]), np.array([s])).flow(0)


# rows per chunk of sources that verify_unit_demands builds at once
CHUNK_ROWS = 1 << 14


def _source_chunks(n: int, t: int):
    """The coordinates of class t in chunks of about CHUNK_ROWS shuffle rows.
    When one factor is K_(n-1) (the other has one state) a chunk's factor
    sources share their class of K_(n-1)."""
    st = oriented_structure(n)
    sz = st.sizes[t]
    size = max(1, CHUNK_ROWS // (sz * max(n - 3, 1)))
    coords = np.arange(sz)
    if n - 1 >= 2 and n - 1 in st.factor_ns[t]:
        group = oriented_structure(n - 1).class_of
        coords = coords[np.argsort(group, kind="stable")]
        cuts = np.flatnonzero(np.diff(group[coords])) + 1
    else:
        cuts = []
    for block in np.split(coords, cuts):
        for i in range(0, len(block), size):
            yield block[i:i + size]


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
    go in chunks of stacked rows.
    """
    if n <= 1:
        return {"n": n, "sources": 0, "ok": True}
    st = oriented_structure(n)
    for t in range(len(st.sizes)):
        r_dist(n, t)  # net-verified on construction
    size = catalan(n)
    factor_rows = partial(_factor_rows, n=n)
    count = 0
    for t, sz in enumerate(st.sizes):
        members = st.by_coord[t]
        for coords in _source_chunks(n, t):
            rows = _shuffle_rows(n, t, coords, factor_rows)
            k = len(coords)
            # net inflow is linear in the rows, so repeated arcs need no merging
            cell = rows.source_of_row() * size
            num = summable(rows.num)
            net = np.zeros(k * size, dtype=num.dtype)
            np.subtract.at(net, cell + rows.src, num)
            np.add.at(net, cell + rows.dst, num)
            want = np.zeros((k, size), dtype=np.int64)
            want[:, members] = 1
            want[np.arange(k), members[coords]] = 1 - sz
            bad = np.flatnonzero(net != scaled(want, rows.den[:, None]).ravel())
            if len(bad):
                i, v = divmod(int(bad[0]), size)
                den = int(rows.den[i])
                raise StructureMismatchError(
                    f"class {t} source {members[coords[i]]}: shuffle: net inflow at {v} "
                    f"is {Fraction(int(net[bad[0]]), den)}, expected {int(want[i, v])}"
                )
            count += k
    return {"n": n, "sources": count, "ok": True}


def matching_arc_values(n: int):
    """Un-normalized aggregate flow on every inter-class matching arc."""
    st = oriented_structure(n)
    agg = aggregate_flow(n)
    pairs = [(ab, arcs) for ab, arcs in st.matching.items() if ab[0] < ab[1]]
    if not pairs:
        return []
    arcs = np.concatenate([a for _, a in pairs])
    fwd = agg.numerators_at(arcs[:, 0], arcs[:, 1]).tolist()
    bwd = agg.numerators_at(arcs[:, 1], arcs[:, 0]).tolist()
    den = agg.den
    out = []
    i = 0
    for (a, b), block in pairs:
        for u, v in block.tolist():
            out.append(((a, b), (u, v), Fraction(fwd[i], den)))
            out.append(((b, a), (v, u), Fraction(bwd[i], den)))
            i += 1
    return out


def uniform_flow_recursive(graph) -> tuple:
    """The recursive uniform multicommodity flow on a k=3 flip graph.

    Returns (ArcFlow, CongestionReport) with uniform normalization.
    """
    if graph.k != 3:
        raise InvalidParameterError("recursive flow requires k = 3")
    agg = aggregate_flow(graph.n)
    report = congestion_report(agg, graph.num_vertices, "uniform")
    return agg, report


# ---------------------------------------------------------------------------
# Cartesian product combiner


def cartesian_flow_combine(factor_flows: list, factor_graphs: list):
    """Combine uniform flows on factors into a uniform flow on the product.

    The pairwise rule routes between copies in two stages (factor flow in the
    source copy, then the other factor's flow), which scales the factor flows
    by the co-factor vertex counts and loses nothing in normalized congestion.

    Returns (flow, product_graph).
    """
    if len(factor_flows) != len(factor_graphs) or not factor_flows:
        raise InvalidParameterError("need one flow per factor graph")
    flow, graph = factor_flows[0], factor_graphs[0]
    for nxt_flow, nxt_graph in zip(factor_flows[1:], factor_graphs[1:]):
        ng, nh = graph.num_vertices, nxt_graph.num_vertices
        verts = range(ng * nh)
        flow = ArcFlow.combine(
            product_lift(verts, nh, 1, nxt_flow, range(ng), ng)
            + product_lift(verts, nh, 0, flow, range(nh), nh)
        ).reduce()
        graph = product_graph(graph, nxt_graph)
    return flow, graph


def cartesian_per_source(per_source_fns: list, factor_graphs: list, coord: tuple) -> ArcFlow:
    """Per-source flow of the two-factor product combiner, for certification."""
    if len(factor_graphs) != 2:
        raise InvalidParameterError("per-source certification implemented for 2 factors")
    (g, h), (x, y) = factor_graphs, coord
    ng, nh = g.num_vertices, h.num_vertices
    verts = range(ng * nh)
    return ArcFlow.combine(
        product_lift(verts, nh, 1, per_source_fns[1](y), [x], ng)
        + product_lift(verts, nh, 0, per_source_fns[0](x), range(nh), 1)
    )


# ---------------------------------------------------------------------------
# projection-restriction combiner


def _path(parent, target):
    path = [target]
    while parent[path[-1]] is not None:
        path.append(parent[path[-1]])
    path.reverse()
    return path


def _route(vals: dict, path: list, amount: Fraction) -> None:
    for i in range(len(path) - 1):
        arc = (path[i], path[i + 1])
        vals[arc] = vals.get(arc, Fraction(0)) + amount


def _shares(points: list) -> dict:
    """Each distinct point's share of the list, in first-appearance order."""
    return {p: Fraction(c, len(points)) for p, c in Counter(points).items()}


@dataclass
class ProjectionRestrictionResult:
    flow: ArcFlow
    report: CongestionReport
    rho_max: Fraction
    rho_bar: Fraction
    gamma: Fraction
    delta: int
    bound: Fraction
    measured: Fraction

    @property
    def satisfied(self) -> bool:
        return self.measured <= self.bound


def projection_restriction_combine(graph, classes: list) -> ProjectionRestrictionResult:
    """Combine per-class restriction flows with a projection flow into one
    flow with demands pi(s) pi(t), following the decomposition construction.

    The chain is the lazy uniform walk: P(x,y) = 1/(2 Delta) per edge with
    Delta the maximum degree, so pi is uniform and Q(x, y) = 1/(2 Delta N).
    Restriction chains use the rejection convention (off-diagonal transition
    probabilities unchanged inside the class).  Congestions rho_max, rho_bar
    and the measured value are all in the f/Q convention of the combiner's
    proof; the report's chain normalization additionally divides by Delta.
    """
    n_verts = graph.num_vertices
    delta = graph.degree
    if delta < 1:
        raise InvalidParameterError("graph has no edges; chain is degenerate")
    members = [v for cls in classes for v in cls]
    if sorted(members) != list(range(n_verts)):
        raise InvalidParameterError("classes do not partition the vertices")
    vc = np.empty(n_verts, dtype=np.int64)
    vc[members] = np.repeat(np.arange(len(classes)), list(map(len, classes)))
    q_edge = Fraction(1, 2 * delta * n_verts)

    # restriction flows: canonical BFS paths inside each class; within[arc]
    # is the number of class paths through arc
    paths = []
    within: dict = {}
    rho_max = Fraction(0)
    for cls in classes:
        allowed = set(cls)
        ptrees = {z: graph.bfs_tree(z, allowed) for z in cls}
        counts: dict = {}
        cls_paths = {}
        for z in cls:
            for u in cls:
                if u == z:
                    continue
                if u not in ptrees[z]:
                    raise InvalidParameterError("class induces a disconnected subgraph")
                p = _path(ptrees[z], u)
                cls_paths[(z, u)] = p
                for i in range(len(p) - 1):
                    arc = (p[i], p[i + 1])
                    counts[arc] = counts.get(arc, 0) + 1
        paths.append(cls_paths)
        within.update(counts)
        sz = len(cls)
        for arc, cnt in counts.items():
            # f_i/Q_i with f_i = cnt/sz^2 and Q_i = 1/(2 delta sz)
            rho = Fraction(2 * delta * cnt, sz)
            rho_max = max(rho_max, rho)

    # quotient graph and projection flow by canonical quotient paths
    k = len(classes)
    cross_edges = {ab: list(map(tuple, arcs.tolist()))
                   for ab, arcs in _cross_arcs(graph, vc, k).items()}
    pairs = np.array(list(cross_edges), dtype=np.int64).reshape(-1, 2)
    quotient = graph_from_arcs(k, pairs[:, 0], pairs[:, 1])
    qtrees = {i: quotient.bfs_tree(i) for i in range(k)}
    pi_bar = [Fraction(len(cls), n_verts) for cls in classes]
    fbar: dict = {}
    qpaths = {}
    for i in range(k):
        for j in range(k):
            if i == j:
                continue
            if j not in qtrees[i]:
                raise InvalidParameterError("quotient graph is disconnected")
            qp = _path(qtrees[i], j)
            qpaths[(i, j)] = qp
            for t in range(len(qp) - 1):
                arc = (qp[t], qp[t + 1])
                fbar[arc] = fbar.get(arc, Fraction(0)) + pi_bar[i] * pi_bar[j]
    rho_bar = Fraction(0)
    for (a, b), val in fbar.items():
        qbar = Fraction(len(cross_edges[(a, b)]), 2 * delta * n_verts)
        rho_bar = max(rho_bar, val / qbar)

    # gamma: worst escape probability
    src, dst = graph.arcs()
    ext = np.bincount(src[vc[src] != vc[dst]], minlength=n_verts)
    gamma = Fraction(int(ext.max()), 2 * delta)

    # within-class demands pi(z) pi(u) = 1/N^2, routed on the restriction paths
    pieces = [(ArcFlow(n_verts * n_verts, within), 1)]

    # cross-class demands, lifted along the quotient paths
    for (i, j), qp in qpaths.items():
        demand = pi_bar[i] * pi_bar[j]
        comp: dict = {}
        hop_edges = [cross_edges[(qp[t], qp[t + 1])] for t in range(len(qp) - 1)]
        # crossing arcs
        for edges in hop_edges:
            share = demand / len(edges)
            for arc in edges:
                comp[arc] = comp.get(arc, Fraction(0)) + share
        # inside each class on the path, route from entry to exit points: the
        # shares are uniform over the class at the path's ends and follow the
        # crossing edges' endpoints elsewhere
        for t, ci in enumerate(qp):
            uniform = dict.fromkeys(classes[ci], Fraction(1, len(classes[ci])))
            entry = _shares([y for _, y in hop_edges[t - 1]]) if t else uniform
            exit_ = _shares([x for x, _ in hop_edges[t]]) if t < len(hop_edges) else uniform
            for z, a in entry.items():
                for w, b in exit_.items():
                    if z != w:
                        _route(comp, paths[ci][(z, w)], demand * a * b)
        # component conservation: class i sends demand, class j receives it
        commodity = ArcFlow.from_fractions(comp)
        expected = dict.fromkeys(classes[i], -demand / len(classes[i]))
        expected.update(dict.fromkeys(classes[j], demand / len(classes[j])))
        commodity.check_net(expected, f"commodity ({i},{j})")
        pieces.append((commodity, 1))

    flow = ArcFlow.combine(pieces).reduce()
    top, arg = flow.max_arc()
    measured = top / q_edge
    bound = (1 + 2 * rho_bar * gamma * delta) * rho_max
    report = CongestionReport(
        rho=measured / delta,
        argmax_arc=arg,
        normalization="chain",
        rho_directed=measured / delta,
    )
    return ProjectionRestrictionResult(
        flow=flow,
        report=report,
        rho_max=rho_max,
        rho_bar=rho_bar,
        gamma=gamma,
        delta=delta,
        bound=bound,
        measured=measured,
    )


# ---------------------------------------------------------------------------
# hierarchical pairing flow (class-level, exact)


def hierarchical_pairing_flow(n: int):
    """Solve the n class-to-graph MSF problems by dyadic pairing of the
    oriented classes, entirely at class level (sizes and matching sizes are
    closed-form Catalan products).

    Every source vertex of class i starts with C_n units; after the log n
    pairing levels every vertex of K_n holds |C_i| units of commodity i,
    certified by exact pool accounting.  Returns (quotient ArcFlow,
    CongestionReport with per-level data, details dict).
    """
    if n < 2:
        raise InvalidParameterError("need at least two classes")
    total = catalan(n)
    # apex a's class holds (0, a, n + 1); apexes a < b match on (0, a, b, n + 1)
    sizes = [_region_count(3, n + 2, (0, a, n + 1)) for a in range(1, n + 1)]

    def match_size(a: int, b: int) -> int:
        return _region_count(3, n + 2, (0, min(a, b), max(a, b), n + 1))

    # pools[i][c]: units of commodity i currently held by class c
    pools = [
        [Fraction(total * sizes[i]) if c == i else Fraction(0) for c in range(n)]
        for i in range(n)
    ]
    levels = []
    arc_vals: dict = {}
    size = 2
    level_no = 0
    total_congestion = Fraction(0)
    while size <= 2 * (n - 1):
        level_no += 1
        worst = Fraction(0)
        worst_pair = None
        for start in range(0, n, size):
            block = list(range(start, min(start + size, n)))
            left = [c for c in block if c < start + size // 2]
            right = [c for c in block if c >= start + size // 2]
            if not left or not right:
                continue
            s_block = sum(sizes[c] for c in block)
            # all per-level amounts come from the pre-level pools
            pre = {c: [pools[i][c] for i in range(n)] for c in block}
            for l in left:
                for r in right:
                    for src, dst in ((l, r), (r, l)):
                        sent = Fraction(0)
                        for i in range(n):
                            amt = pre[src][i] * sizes[dst] / s_block
                            if amt:
                                pools[i][src] -= amt
                                pools[i][dst] += amt
                                sent += amt
                        if sent:
                            arc_vals[(src, dst)] = arc_vals.get(
                                (src, dst), Fraction(0)
                            ) + sent
                        cong = sent / (match_size(src + 1, dst + 1) * total)
                        if cong > worst:
                            worst, worst_pair = cong, (src + 1, dst + 1)
            # pool invariant: total mass at class c stays C_n * |C_c|
            for c in block:
                held = sum(pools[i][c] for i in range(n))
                if held != total * sizes[c]:
                    raise StructureMismatchError(
                        f"pool invariant broken at class {c}: {held}"
                    )
        levels.append(
            {
                "level": level_no,
                "group_size": min(size, n),
                "congestion": worst,
                "argmax_pair": worst_pair,
            }
        )
        total_congestion += worst
        if size >= n:
            break
        size *= 2
    # final demand certification: commodity i spread with density |C_i|
    for i in range(n):
        for c in range(n):
            if pools[i][c] != Fraction(sizes[i] * sizes[c]):
                raise StructureMismatchError(
                    f"commodity {i} holds {pools[i][c]} at class {c}, "
                    f"expected {sizes[i] * sizes[c]}"
                )
    flow = ArcFlow.from_fractions(arc_vals)
    max_arc = max(
        (
            (v / (match_size(a + 1, b + 1) * total), (a, b))
            for (a, b), v in arc_vals.items()
        ),
        default=(Fraction(0), None),
    )
    report = CongestionReport(
        rho=max_arc[0],
        argmax_arc=max_arc[1],
        normalization="uniform",
        rho_directed=max_arc[0],
        levels=levels,
    )
    details = {
        "n": n,
        "levels": levels,
        "total_matching_congestion": total_congestion,
        "max_pair_congestion": max_arc[0],
        "demands_certified": True,
    }
    return flow, report, details
