"""Flow primitives: exact sparse arc flows, congestion reports, MSF problems,
and Cartesian products of graphs.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from math import gcd

from .errors import InvalidParameterError, NoFlowError, StructureMismatchError
from .graph import Graph


def _lcm(a: int, b: int) -> int:
    return a // gcd(a, b) * b


class ArcFlow:
    """Sparse arc flow with exact rational values.

    Values are integer numerators over one shared denominator, which keeps
    the hot accumulation loops in plain integer arithmetic.  Arcs are keyed
    by (u, v) vertex pairs; both directions of an edge are distinct arcs.
    """

    __slots__ = ("den", "vals")

    def __init__(self, den: int = 1, vals: dict | None = None):
        self.den = den
        self.vals = vals if vals is not None else {}

    @classmethod
    def combine(cls, pieces) -> "ArcFlow":
        """Exact sum of scaled flows; pieces are (flow, scale) with rational scale."""
        staged = []
        den = 1
        for flow, scale in pieces:
            s = Fraction(scale)
            if s == 0 or not flow.vals:
                continue
            eff_den = flow.den * s.denominator
            staged.append((flow, s.numerator, eff_den))
            den = _lcm(den, eff_den)
        vals: dict = {}
        get = vals.get
        for flow, num, eff_den in staged:
            mult = (den // eff_den) * num
            for arc, w in flow.vals.items():
                vals[arc] = get(arc, 0) + w * mult
        out = cls(den, {a: w for a, w in vals.items() if w != 0})
        return out

    def reduce(self) -> "ArcFlow":
        g = self.den
        for w in self.vals.values():
            g = gcd(g, w)
            if g == 1:
                return self
        if g > 1:
            self.vals = {a: w // g for a, w in self.vals.items()}
            self.den //= g
        return self

    def reversed(self) -> "ArcFlow":
        return ArcFlow(self.den, {(v, u): w for (u, v), w in self.vals.items()})

    def relabeled(self, vmap) -> "ArcFlow":
        return ArcFlow(
            self.den, {(vmap[u], vmap[v]): w for (u, v), w in self.vals.items()}
        )

    def value(self, u, v) -> Fraction:
        return Fraction(self.vals.get((u, v), 0), self.den)

    def net_ints(self) -> dict:
        """Net inflow per vertex as integers over self.den."""
        net: dict = {}
        get = net.get
        for (u, v), w in self.vals.items():
            net[u] = get(u, 0) - w
            net[v] = get(v, 0) + w
        return net

    def net(self) -> dict:
        return {v: Fraction(w, self.den) for v, w in self.net_ints().items() if w}

    def support_size(self) -> int:
        return len(self.vals)

    def max_arc(self):
        """(value, arc) of the largest single-direction arc flow."""
        if not self.vals:
            return Fraction(0), None
        arc = max(self.vals, key=lambda a: self.vals[a])
        return Fraction(self.vals[arc], self.den), arc

    def items_fractions(self):
        for arc, w in self.vals.items():
            yield arc, Fraction(w, self.den)


@dataclass
class CongestionReport:
    """Congestion of a flow: max over undirected edges of the two-direction
    total, normalized per the stated mode (uniform: divide by |V|)."""

    rho: Fraction
    argmax_arc: tuple | None
    normalization: str  # "uniform" | "chain"
    rho_directed: Fraction = Fraction(0)
    levels: list | None = None

    def to_json_dict(self) -> dict:
        doc = {
            "rho_num": self.rho.numerator,
            "rho_den": self.rho.denominator,
            "argmax_arc": list(self.argmax_arc) if self.argmax_arc else None,
            "normalization": self.normalization,
        }
        if self.levels is not None:
            doc["levels"] = [
                {
                    "level": lv["level"],
                    "group_size": lv["group_size"],
                    "congestion_num": lv["congestion"].numerator,
                    "congestion_den": lv["congestion"].denominator,
                }
                for lv in self.levels
            ]
        return doc

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), sort_keys=True)


def congestion_report(
    flow: ArcFlow, num_vertices: int, normalization: str = "uniform"
) -> CongestionReport:
    """Measure congestion of a uniform-demand flow.

    rho is the max over undirected edges of the summed two-direction flow,
    divided by |V|; rho_directed tracks the max single arc.
    """
    best = 0
    best_arc = None
    for (u, v), w in flow.vals.items():
        total = w + flow.vals.get((v, u), 0)
        if total > best:
            best, best_arc = total, (u, v)
    dmax, _ = flow.max_arc()
    return CongestionReport(
        rho=Fraction(best, flow.den * num_vertices),
        argmax_arc=best_arc,
        normalization=normalization,
        rho_directed=dmax / num_vertices,
    )


def expansion_lower_bound(report: CongestionReport) -> Fraction:
    """h(G) >= 1/(2 rho) for a uniform multicommodity flow with congestion rho."""
    if report.normalization != "uniform":
        raise InvalidParameterError("expansion bound needs a uniform-normalization report")
    if report.rho == 0:
        raise InvalidParameterError("zero congestion: no flow routed")
    return Fraction(1, 2) / report.rho


def product_graph(g, h) -> Graph:
    """Cartesian product G box H; vertex (x, y) has index x * |V(H)| + y."""
    nh = h.num_vertices
    adj = []
    coords = []
    for x in range(g.num_vertices):
        for y in range(nh):
            nbrs = [x * nh + y2 for y2 in h.adj[y]]
            nbrs += [x2 * nh + y for x2 in g.adj[x]]
            adj.append(sorted(nbrs))
            coords.append((x, y))
    return Graph(adj, coords)


@dataclass
class MsfProblem:
    """Multi-way single-commodity flow problem: per-vertex surpluses and
    deficits on one graph; feasible only when they balance."""

    graph: object
    surplus: dict  # vertex -> Fraction
    deficit: dict  # vertex -> Fraction

    def validate(self) -> None:
        total_s = sum(self.surplus.values(), Fraction(0))
        total_d = sum(self.deficit.values(), Fraction(0))
        if total_s != total_d:
            raise InvalidParameterError(
                f"unbalanced MSF problem: surplus {total_s} != deficit {total_d}"
            )

    def net_required(self) -> dict:
        """Required net outflow per vertex (Def. conditions 1-4 combined)."""
        net = {}
        for v, s in self.surplus.items():
            net[v] = net.get(v, Fraction(0)) + s
        for v, d in self.deficit.items():
            net[v] = net.get(v, Fraction(0)) - d
        return {v: x for v, x in net.items() if x}


def verify_msf(flow: ArcFlow, problem: MsfProblem) -> None:
    """Exact rational conservation check of a flow against an MSF problem."""
    required = problem.net_required()
    net = flow.net_ints()
    den = flow.den
    keys = set(net) | set(required)
    for v in keys:
        have = -Fraction(net.get(v, 0), den)
        want = required.get(v, Fraction(0))
        if have != want:
            raise StructureMismatchError(
                f"vertex {v}: net outflow {have} != required {want}"
            )


def solve_msf(problem: MsfProblem, strategy: str = "tree") -> ArcFlow:
    """Solve an MSF problem.

    Strategies:
      tree              -- push imbalances along a BFS spanning tree (general).
      direct-matching   -- route across a perfect matching between sources and
                           sinks; each matching arc carries its surplus.
      through-class-decomposition -- delegate to the recursive class-flow
                           machinery (flownet.solve_msf_by_classes).
    """
    problem.validate()
    g = problem.graph
    required = problem.net_required()
    if not required:
        return ArcFlow()
    if strategy == "direct-matching":
        vals = {}
        den = 1
        for s, amount in problem.surplus.items():
            if amount == 0:
                continue
            sinks = [v for v in g.adj[s] if problem.deficit.get(v, 0) == amount]
            if len(sinks) != 1 or problem.surplus.get(sinks[0], 0) != 0:
                raise InvalidParameterError(
                    f"source {s} has no unique matching sink with equal demand"
                )
            den = _lcm(den, amount.denominator)
            vals[(s, sinks[0])] = amount
        flow = ArcFlow(den, {a: int(w * den) for a, w in vals.items()})
        verify_msf(flow, problem)
        return flow
    if strategy == "through-class-decomposition":
        from .flownet import solve_msf_by_classes

        flow = solve_msf_by_classes(problem)
        verify_msf(flow, problem)
        return flow
    if strategy != "tree":
        raise InvalidParameterError(f"unknown MSF strategy: {strategy}")
    # BFS tree from some vertex carrying nonzero imbalance
    parent = g.bfs_tree(next(iter(required)))
    if any(v not in parent for v in required):
        raise NoFlowError("imbalanced vertices not all in one component")
    den = 1
    for x in required.values():
        den = _lcm(den, x.denominator)
    excess = {v: int(required.get(v, 0) * den) for v in parent}
    vals: dict = {}
    for v in reversed(parent):
        p = parent[v]
        if p is None:
            continue
        e = excess[v]
        if e > 0:
            vals[(v, p)] = vals.get((v, p), 0) + e
        elif e < 0:
            vals[(p, v)] = vals.get((p, v), 0) - e
        excess[p] += e
    flow = ArcFlow(den, vals)
    verify_msf(flow, problem)
    return flow
