"""Recursive multicommodity-flow constructions on triangulation flip graphs:
the shuffle/concentrate/transmit/distribute uniform flow, the Cartesian
product combiner, the projection-restriction combiner, and the hierarchical
pairing flow.  All flow values are exact rationals.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .combinatorics import catalan
from .decomposition import boundary_matchings, boundary_projection, oriented_partition
from .errors import InvalidParameterError, StructureMismatchError
from .flows import (
    ArcFlow,
    CongestionReport,
    congestion_report,
    product_lift,
)
from .graph import Graph, product_graph
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
    by_coord: list  # per class: members in coordinate order, (x, y) at x * C_right + y
    matching: dict  # ordered (a, b) -> [(u in a, v in b), ...]
    bproj: dict  # ordered (a, b) -> (factor_index, sub_class_index)


@lru_cache(maxsize=None)
def oriented_structure(n: int) -> OrientedStructure:
    graph = build_flip_graph(3, n)
    part = oriented_partition(graph)
    sizes = [c.size for c in part.classes]
    members = [c.member_indices for c in part.classes]
    factor_ns = [tuple(ni for _, ni in c.cartesian_factors) for c in part.classes]
    by_coord = [[v for _, v in sorted(zip(c.coords, c.member_indices))] for c in part.classes]
    matching = {}
    for bm in boundary_matchings(part):
        matching[(bm.class_a, bm.class_b)] = bm.edges
        matching[(bm.class_b, bm.class_a)] = [(v, u) for u, v in bm.edges]
    bproj = {}
    k = len(part.classes)
    for a in range(k):
        for b in range(k):
            if a != b:
                fi, sub = boundary_projection(part, a, b)
                bproj[(a, b)] = (fi, sub["apex"] - 1)
    return OrientedStructure(
        n, graph, part, sizes, members, factor_ns, by_coord, matching, bproj
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
    tran = ArcFlow(len(arcs), {(u, v): cb for u, v in arcs})
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


def shuffle_source_flow(n: int, s: int) -> ArcFlow:
    """Per-source component of the class-internal product flow: source s
    sends one unit to every member of its own class."""
    st = oriented_structure(n)
    t = st.partition.vertex_class[s]
    c = st.partition.classes[t]
    x, y = c.coords[c.member_indices.index(s)]
    l, r = st.factor_ns[t]
    cl, cr = catalan(l), catalan(r)
    verts = st.by_coord[t]
    pieces = []
    # factors with one state carry no flow; skipping them keeps them out of
    # per_source_flow's small LRU
    if r >= 2:
        pieces += product_lift(verts, cr, 1, per_source_flow(r, y), [x], cl)
    if l >= 2:
        pieces += product_lift(verts, cr, 0, per_source_flow(l, x), range(cr), 1)
    return ArcFlow.combine(pieces)


@lru_cache(maxsize=32)
def per_source_flow(n: int, s: int) -> ArcFlow:
    """Full per-source flow on K_n: one unit from s to every other vertex."""
    if n <= 1:
        return ArcFlow()
    st = oriented_structure(n)
    t = st.partition.vertex_class[s]
    return ArcFlow.combine(
        [
            (shuffle_source_flow(n, s), Fraction(catalan(n), st.sizes[t])),
            (r_dist(n, t), 1),
        ]
    )


def verify_unit_demands(n: int) -> dict:
    """Certify, source by source, that the recursive flow routes exactly one
    unit between every ordered vertex pair of K_n.

    The flow for source s in class T is (C_n/|C_T|) * shuffle_s + r_dist_T.
    Every pair flow and distribution flow is net-verified from its arcs at
    construction time; here the per-source shuffle component is additionally
    verified from its arcs for every source, which pins the per-source net
    to exactly -(C_n - 1) at s and +1 everywhere else.  Exact rationals
    throughout.
    """
    if n <= 1:
        return {"n": n, "sources": 0, "ok": True}
    st = oriented_structure(n)
    for t in range(len(st.sizes)):
        r_dist(n, t)  # net-verified on construction
    count = 0
    for t, sz in enumerate(st.sizes):
        unit = dict.fromkeys(st.members[t], 1)
        for s in st.members[t]:
            shuffle_source_flow(n, s).check_net({**unit, s: 1 - sz}, f"source {s}: shuffle")
            count += 1
    return {"n": n, "sources": count, "ok": True}


def matching_arc_values(n: int):
    """Un-normalized aggregate flow on every inter-class matching arc."""
    st = oriented_structure(n)
    agg = aggregate_flow(n)
    out = []
    for (a, b), arcs in st.matching.items():
        if a < b:
            for u, v in arcs:
                out.append(((a, b), (u, v), agg.value(u, v)))
                out.append(((b, a), (v, u), agg.value(v, u)))
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
    vclass = {}
    for ci, cls in enumerate(classes):
        for v in cls:
            if v in vclass:
                raise InvalidParameterError(f"vertex {v} in two classes")
            vclass[v] = ci
    if len(vclass) != n_verts:
        raise InvalidParameterError("classes do not partition the vertices")
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
    cross_edges = {}
    for i, j in graph.edges():
        ci, cj = vclass[i], vclass[j]
        if ci != cj:
            cross_edges.setdefault((ci, cj), []).append((i, j))
            cross_edges.setdefault((cj, ci), []).append((j, i))
    quotient = Graph([sorted({b for (a, b) in cross_edges if a == ci}) for ci in range(k)])
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
    gamma = Fraction(0)
    for v in range(n_verts):
        ext = sum(1 for w in graph.adj[v] if vclass[w] != vclass[v])
        gamma = max(gamma, Fraction(ext, 2 * delta))

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
    sizes = [catalan(a - 1) * catalan(n - a) for a in range(1, n + 1)]

    def match_size(a: int, b: int) -> int:
        lo, hi = min(a, b), max(a, b)
        return catalan(lo - 1) * catalan(hi - lo - 1) * catalan(n - hi)

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
