"""Flow primitives: exact sparse arc flows, congestion reports, and lifts of
factor flows into Cartesian products.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm

from .errors import InvalidParameterError, StructureMismatchError


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
            den = lcm(den, eff_den)
        vals: dict = {}
        get = vals.get
        for flow, num, eff_den in staged:
            mult = (den // eff_den) * num
            for arc, w in flow.vals.items():
                vals[arc] = get(arc, 0) + w * mult
        return cls(den, {a: w for a, w in vals.items() if w != 0})

    @classmethod
    def from_fractions(cls, vals: dict) -> "ArcFlow":
        """The flow with value vals[arc] (an int or Fraction) on each arc, over
        the least common denominator, in the insertion order of vals."""
        den = 1
        for x in vals.values():
            den = lcm(den, x.denominator)
        return cls(den, {a: x.numerator * (den // x.denominator) for a, x in vals.items()})

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

    def check_net(self, expected: dict, context: str) -> None:
        """Exact conservation check: the net inflow at each vertex v of
        expected is expected[v] (an int or Fraction), and 0 at every other
        vertex; raises StructureMismatchError naming the first mismatch."""
        den = self.den
        net = self.net_ints()
        for v, x in expected.items():
            w = net.pop(v, 0)
            if w * x.denominator != x.numerator * den:
                raise StructureMismatchError(
                    f"{context}: net inflow at {v} is {Fraction(w, den)}, expected {x}"
                )
        for v, w in net.items():
            if w:
                raise StructureMismatchError(
                    f"{context}: net inflow at {v} is {Fraction(w, den)}, expected 0"
                )

    def support_size(self) -> int:
        return len(self.vals)

    def max_arc(self):
        """(value, arc) of the largest single-direction arc flow."""
        if not self.vals:
            return Fraction(0), None
        arc = max(self.vals, key=lambda a: self.vals[a])
        return Fraction(self.vals[arc], self.den), arc


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


def product_lift(verts, nh: int, factor: int, flow: ArcFlow, copies, scale) -> list:
    """(flow, scale) pieces that put a flow on one factor of a product G x H
    into some of that factor's copies, for ArcFlow.combine.

    Vertex (x, y) of the product is verts[x * nh + y].  A flow on H
    (factor 1) goes into the copies {x} x H for x in copies, a flow on G
    (factor 0) into the copies G x {y} for y in copies.
    """
    if factor:
        return [(flow.relabeled(verts[x * nh:(x + 1) * nh]), scale) for x in copies]
    return [(flow.relabeled(verts[y::nh]), scale) for y in copies]
