"""Single-source flows for certification, the paper's two flow combiners,
its flow bound on expansion, and the flow accessors that only tests read.

`per_source_flow` is one commodity of the recursive uniform flow on K_n,
built alone from the package's source rows; `cartesian_per_source` is one
commodity of the two-factor product combiner.  The package only builds
and checks these flows in chunks (`verify_unit_demands`); the tests
compare one source at a time against the aggregate and the golden hashes.

`cartesian_flow_combine`, `projection_restriction_combine` (the
decomposition theorem of Jerrum, Son, Tetali and Vigoda) and
`expansion_lower_bound` are the acceptance checks of the flow framework:
no command runs them.  `arc_values`, `arc_value` and `net_inflow` read an
`ArcFlow` for the tests.
"""

from dataclasses import dataclass
from fractions import Fraction
from itertools import permutations

import numpy as np
from reference_graph import bfs_tree

from flipwalk.decomposition import _cross_arcs
from flipwalk.errors import InvalidParameterError
from flipwalk.flownet import _offsets, _source_rows, oriented_structure
from flipwalk.flows import (
    ArcFlow,
    CongestionReport,
    arc_keys,
    coalesce,
    narrowed,
    product_lift,
    scaled,
)
from flipwalk.graph import graph_from_arcs, product_graph


def per_source_flow(n: int, s: int) -> ArcFlow:
    """Full per-source flow on K_n: one unit from s to every other vertex."""
    if n <= 1:
        return ArcFlow()
    t = int(oriented_structure(n).partition.vertex_class[s])
    rows = _source_rows(n, t, np.array([s]))
    return ArcFlow.of(int(rows.den[0]), rows.src, rows.dst, narrowed(rows.num))


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


# ---------------------------------------------------------------------------
# projection-restriction combiner


def _path(parent, target):
    path = [target]
    while parent[path[-1]] is not None:
        path.append(parent[path[-1]])
    path.reverse()
    return path


def _class_paths(graph, cls: np.ndarray, where: np.ndarray) -> tuple:
    """The canonical BFS path inside a class from each member z to each
    other member u, as parallel int64 arrays with one entry per path arc:
    (position of z, position of u, arc source, arc target), where[v] being
    v's position in the class.  Paths go by z, then u, each from z to u."""
    sz = len(cls)
    # parent[z, u]: u's parent in z's tree, z's own being z
    parent = np.empty((sz, sz), dtype=np.int64)
    for z, root in enumerate(cls.tolist()):
        tree = bfs_tree(graph, root, cls)
        if len(tree) < sz:
            raise InvalidParameterError("class induces a disconnected subgraph")
        up = list(tree.values())
        up[0] = root  # the tree's first key is its root
        parent[z, where[list(tree)]] = where[up]
    # anc[i, z * sz + u]: u's i-th ancestor in z's tree, up to the root
    anc = [np.broadcast_to(np.arange(sz), (sz, sz))]
    while True:
        up = np.take_along_axis(parent, anc[-1], axis=1)
        if (up == anc[-1]).all():
            break
        anc.append(up)
    anc = np.stack(anc).reshape(len(anc), -1)
    depth = (anc[1:] != anc[:-1]).sum(axis=0)
    pair = np.flatnonzero(depth)
    lens = depth[pair]
    row = np.repeat(pair, lens)
    # arc i (from 0) of a path of length d runs from the end's (d - i)-th
    # ancestor to its (d - i - 1)-th
    level = np.repeat(lens, lens) - (np.arange(len(row)) - np.repeat(_offsets(lens)[:-1], lens))
    start, end = np.divmod(row, sz)
    return start, end, cls[anc[level, row]], cls[anc[level - 1, row]]


@dataclass
class ProjectionRestrictionResult:
    flow: ArcFlow
    argmax_arc: tuple
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
    proof; measured is taken on the flow's largest single arc, argmax_arc
    (the first of them).
    """
    n_verts = graph.num_vertices
    delta = graph.degree
    if delta < 1:
        raise InvalidParameterError("graph has no edges; chain is degenerate")
    classes = [np.asarray(cls, dtype=np.int64) for cls in classes]
    members = np.concatenate(classes) if classes else np.zeros(0, dtype=np.int64)
    if not np.array_equal(np.sort(members), np.arange(n_verts)):
        raise InvalidParameterError("classes do not partition the vertices")
    vc = np.empty(n_verts, dtype=np.int64)
    vc[members] = np.repeat(np.arange(len(classes)), list(map(len, classes)))
    where = np.empty(n_verts, dtype=np.int64)  # each vertex's position in its class
    where[members] = np.concatenate([np.arange(len(cls)) for cls in classes])
    q_edge = Fraction(1, 2 * delta * n_verts)

    # restriction flows: canonical BFS paths inside each class; an arc's
    # count is the number of its class's paths through it
    paths = [_class_paths(graph, cls, where) for cls in classes]
    src, dst = (np.concatenate([p[i] for p in paths]) for i in (2, 3))
    pos, count = coalesce(arc_keys(src, dst), np.ones(len(src), dtype=np.int64))
    # within-class demands pi(z) pi(u) = 1/N^2, routed on the restriction paths
    pieces = [(ArcFlow.of(n_verts * n_verts, src[pos], dst[pos], count), 1)]
    # f_i/Q_i with f_i = count/sz^2 and Q_i = 1/(2 delta sz)
    top = np.zeros(len(classes), dtype=np.int64)
    np.maximum.at(top, vc[src[pos]], count)
    rho_max = max([Fraction(0)] + [Fraction(2 * delta * int(c), len(cls))
                                   for c, cls in zip(top, classes) if c])

    # quotient graph and projection flow by canonical quotient paths
    k = len(classes)
    cross_edges = _cross_arcs(graph, vc, k)
    pairs = np.array(list(cross_edges), dtype=np.int64).reshape(-1, 2)
    quotient = graph_from_arcs(k, pairs[:, 0], pairs[:, 1])
    qtrees = {i: bfs_tree(quotient, i) for i in range(k)}
    pi_bar = [Fraction(len(cls), n_verts) for cls in classes]
    fbar: dict = {}
    qpaths = {}
    for i, j in permutations(range(k), 2):
        if j not in qtrees[i]:
            raise InvalidParameterError("quotient graph is disconnected")
        qp = qpaths[(i, j)] = _path(qtrees[i], j)
        for arc in zip(qp, qp[1:]):
            fbar[arc] = fbar.get(arc, Fraction(0)) + pi_bar[i] * pi_bar[j]
    rho_bar = Fraction(0)
    for (a, b), val in fbar.items():
        qbar = Fraction(len(cross_edges[(a, b)]), 2 * delta * n_verts)
        rho_bar = max(rho_bar, val / qbar)

    # gamma: worst escape probability
    src, dst = graph.arcs()
    ext = np.bincount(src[vc[src] != vc[dst]], minlength=n_verts)
    gamma = Fraction(int(ext.max()), 2 * delta)

    # cross-class demands, lifted along the quotient paths
    for (i, j), qp in qpaths.items():
        demand = pi_bar[i] * pi_bar[j]
        hops = [cross_edges[(a, b)] for a, b in zip(qp, qp[1:])]
        # crossing arcs, each hop's share spread evenly over its arcs
        steps = [(ArcFlow.of(1, h[:, 0], h[:, 1], np.ones(len(h), dtype=np.int64)),
                  demand / len(h)) for h in hops]
        # inside each class on the path, route from entry to exit points: the
        # multiplicities are uniform over the class at the path's ends and
        # count the crossing edges' endpoints elsewhere
        for t, ci in enumerate(qp):
            start, end, src, dst = paths[ci]
            into = hops[t - 1][:, 1] if t else classes[ci]
            out = hops[t][:, 0] if t < len(hops) else classes[ci]
            a, b = (np.bincount(where[e], minlength=len(classes[ci])) for e in (into, out))
            pos, sums = coalesce(arc_keys(src, dst), scaled(a[start], b[end]))
            steps.append((ArcFlow.of(1, src[pos], dst[pos], narrowed(sums)),
                          demand / (len(into) * len(out))))
        # component conservation: class i sends demand, class j receives it
        commodity = ArcFlow.combine(steps)
        expected = [(classes[i], -demand / len(classes[i])), (classes[j], demand / len(classes[j]))]
        commodity.check_net(expected, f"commodity ({i},{j})")
        pieces.append((commodity, 1))

    flow = ArcFlow.combine(pieces).reduce()
    top = int(np.argmax(flow.num))
    measured = Fraction(int(flow.num[top]), flow.den) / q_edge
    bound = (1 + 2 * rho_bar * gamma * delta) * rho_max
    return ProjectionRestrictionResult(
        flow=flow,
        argmax_arc=(int(flow.src[top]), int(flow.dst[top])),
        rho_max=rho_max,
        rho_bar=rho_bar,
        gamma=gamma,
        delta=delta,
        bound=bound,
        measured=measured,
    )


def expansion_lower_bound(report: CongestionReport) -> Fraction:
    """h(G) >= 1/(2 rho) for a uniform multicommodity flow with congestion rho."""
    if report.rho == 0:
        raise InvalidParameterError("zero congestion: no flow routed")
    return Fraction(1, 2) / report.rho


# ---------------------------------------------------------------------------
# accessors


def arc_values(flow: ArcFlow) -> dict:
    """{(u, v): numerator}, in arc order."""
    return dict(zip(zip(flow.src.tolist(), flow.dst.tolist()), flow.num.tolist()))


def arc_value(flow: ArcFlow, u: int, v: int) -> Fraction:
    return Fraction(int(flow.numerators_at([u], [v])[0]), flow.den)


def net_inflow(flow: ArcFlow) -> dict:
    """The nonzero net inflow of each vertex of the flow."""
    verts = np.unique(np.concatenate((flow.src, flow.dst)))
    net = flow.net_array(int(verts.max(initial=-1)) + 1)[verts]
    return {v: Fraction(w, flow.den) for v, w in zip(verts.tolist(), net.tolist()) if w}

