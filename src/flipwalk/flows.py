"""Flow primitives: exact sparse arc flows, congestion reports, and lifts of
factor flows into Cartesian products.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm

import numpy as np

from .errors import InvalidParameterError, StructureMismatchError


# An int64 numerator array keeps every entry below this bound in magnitude,
# so the sum of any two entries still fits; larger values live in object
# arrays of Python ints.  No arithmetic ever wraps.
LIMIT = 1 << 62
# Arc (u, v) sorts and looks up as the int64 key u << SHIFT | v; vertices
# are ints in [0, 2**31).
SHIFT = 32


def int_array(values) -> np.ndarray:
    """Python ints as an int64 array, or as an object array when some value
    reaches LIMIT."""
    vals = list(values)
    if any(abs(x) >= LIMIT for x in vals):
        return np.array(vals, dtype=object)
    return np.array(vals, dtype=np.int64)


def bound(a: np.ndarray) -> int:
    """max |a| as a Python int (0 when a is empty)."""
    if not len(a):
        return 0
    return max(int(a.max()), -int(a.min()))


def scaled(a: np.ndarray, mult) -> np.ndarray:
    """a * mult exactly; mult is an int or an integer array like a."""
    m = bound(mult) if isinstance(mult, np.ndarray) else abs(mult)
    if a.dtype != object and (m >= LIMIT or bound(a) * m >= LIMIT):
        a = a.astype(object)
    return a * mult


def summable(a: np.ndarray) -> np.ndarray:
    """a, or a as an object array when a sum of its entries could reach
    LIMIT."""
    if a.dtype != object and bound(a) * len(a) >= LIMIT:
        return a.astype(object)
    return a


def narrowed(a: np.ndarray) -> np.ndarray:
    """An object array back as int64 when every entry fits."""
    if a.dtype == object and bound(a) < LIMIT:
        return a.astype(np.int64)
    return a


def arc_keys(src: np.ndarray, dst: np.ndarray) -> np.ndarray:
    return (np.asarray(src, dtype=np.int64) << SHIFT) | dst


def coalesce(keys: np.ndarray, num: np.ndarray):
    """(positions, sums): one entry per distinct key in first-appearance
    order, with the position of its first appearance and the exact sum of
    its numerators."""
    if not len(keys):
        return np.zeros(0, dtype=np.int64), num[:0]
    order = np.argsort(keys, kind="stable")
    k = keys[order]
    starts = np.flatnonzero(np.concatenate(([True], k[1:] != k[:-1])))
    sums = np.add.reduceat(summable(num)[order], starts)
    first = order[starts]
    back = np.argsort(first)
    return first[back], sums[back]


class ArcFlow:
    """Sparse arc flow with exact rational values.

    Values are integer numerators over one shared Python-int denominator.
    Arcs are (u, v) vertex pairs, both directions of an edge being distinct
    arcs, kept as parallel arrays `src`, `dst` and `num` in first-insertion
    order with no repeated arc.  `num` is int64 while every value stays
    below LIMIT and an object array of Python ints otherwise.
    """

    __slots__ = ("den", "src", "dst", "num", "_lookup")

    def __init__(self, den: int = 1, vals=None):
        vals = vals or {}
        arcs = np.array(list(vals), dtype=np.int64).reshape(-1, 2)
        if len(arcs) and (arcs.min() < 0 or arcs.max() >= 1 << (SHIFT - 1)):
            raise InvalidParameterError("arc endpoints must be ints in [0, 2**31)")
        self._set(den, arcs[:, 0], arcs[:, 1], int_array(vals.values()))

    def _set(self, den, src, dst, num) -> None:
        self.den = den
        self.src, self.dst, self.num = src, dst, num
        self._lookup = None

    @classmethod
    def of(cls, den: int, src, dst, num) -> "ArcFlow":
        """The flow with numerator num[i] on arc (src[i], dst[i]); the arcs
        must be distinct."""
        flow = cls.__new__(cls)
        flow._set(den, src, dst, num)
        return flow

    @classmethod
    def combine(cls, pieces) -> "ArcFlow":
        """Exact sum of scaled flows; pieces are (flow, scale) with rational
        scale.  Arcs keep the order in which they first appear."""
        staged = []
        den = 1
        for flow, scale in pieces:
            s = Fraction(scale)
            if s == 0 or not len(flow.num):
                continue
            eff_den = flow.den * s.denominator
            staged.append((flow, s.numerator, eff_den))
            den = lcm(den, eff_den)
        if not staged:
            return cls(den)
        src = np.concatenate([f.src for f, _, _ in staged])
        dst = np.concatenate([f.dst for f, _, _ in staged])
        num = np.concatenate(
            [scaled(f.num, (den // eff_den) * k) for f, k, eff_den in staged]
        )
        pos, sums = coalesce(arc_keys(src, dst), num)
        keep = sums != 0
        return cls.of(den, src[pos][keep], dst[pos][keep], narrowed(sums[keep]))

    def reduce(self) -> "ArcFlow":
        if self.num.dtype == object:
            g = gcd(self.den, *self.num.tolist())
        else:
            g = gcd(self.den, int(np.gcd.reduce(self.num)) if len(self.num) else 0)
        if g > 1:
            self.num = narrowed(self.num // g)
            self.den //= g
        return self

    def reversed(self) -> "ArcFlow":
        return ArcFlow.of(self.den, self.dst, self.src, self.num)

    def arc_index(self, src, dst) -> np.ndarray:
        """Index of each arc (src[i], dst[i]) in the flow's arrays, -1 off
        the support."""
        if self._lookup is None:
            keys = arc_keys(self.src, self.dst)
            order = np.argsort(keys)
            self._lookup = (keys[order], order)
        keys, order = self._lookup
        want = arc_keys(np.asarray(src, dtype=np.int64), np.asarray(dst, dtype=np.int64))
        if not len(keys):
            return np.full(len(want), -1, dtype=np.int64)
        at = np.minimum(np.searchsorted(keys, want), len(keys) - 1)
        return np.where(keys[at] == want, order[at], -1)

    def numerators_at(self, src, dst) -> np.ndarray:
        """Numerators on the arcs (src[i], dst[i]), 0 off the support."""
        at = self.arc_index(src, dst)
        if not len(self.num):
            return np.zeros(len(at), dtype=np.int64)
        return np.where(at >= 0, self.num[at], 0)

    def net_array(self, size: int) -> np.ndarray:
        """Net inflow of vertices 0..size-1 as exact integers over self.den;
        size must exceed every vertex of the flow."""
        num = summable(self.num)
        net = np.zeros(size, dtype=num.dtype)
        np.subtract.at(net, self.src, num)
        np.add.at(net, self.dst, num)
        return net

    def _size(self) -> int:
        if not len(self.src):
            return 0
        return int(max(self.src.max(), self.dst.max())) + 1

    def check_net(self, groups, context: str) -> None:
        """Exact conservation check: groups are (vertices, value) pairs with
        disjoint vertex arrays, and the net inflow is value (an int or
        Fraction) at every vertex of a group and 0 at every other vertex;
        raises StructureMismatchError naming the first mismatch."""
        den = self.den
        groups = [(np.asarray(v, dtype=np.int64), Fraction(x)) for v, x in groups]
        top = max((int(v.max(initial=-1)) for v, _ in groups), default=-1)
        net = self.net_array(max(self._size(), top + 1))
        for verts, x in groups:
            # w / den == x exactly when w * x.denominator == x.numerator * den
            got = scaled(net[verts], x.denominator)
            want = x.numerator * den
            if got.dtype != object and abs(want) >= LIMIT:
                got = got.astype(object)
            bad = np.flatnonzero(got != want)
            if len(bad):
                v = int(verts[bad[0]])
                raise StructureMismatchError(
                    f"{context}: net inflow at {v} is {Fraction(int(net[v]), den)}, expected {x}"
                )
            net[verts] = 0
        stray = np.flatnonzero(net)
        if len(stray):
            v = int(stray[0])
            raise StructureMismatchError(
                f"{context}: net inflow at {v} is {Fraction(int(net[v]), den)}, expected 0"
            )

    def support_size(self) -> int:
        return len(self.num)


@dataclass
class CongestionReport:
    """Congestion of a uniform-demand flow: max over undirected edges of the
    two-direction total, divided by |V|."""

    rho: Fraction
    argmax_arc: tuple | None

    def to_json_dict(self) -> dict:
        return {
            "rho_num": self.rho.numerator,
            "rho_den": self.rho.denominator,
            "argmax_arc": list(self.argmax_arc) if self.argmax_arc else None,
            "normalization": "uniform",
        }


def congestion_report(flow: ArcFlow, num_vertices: int) -> CongestionReport:
    """Measure congestion of a uniform-demand flow.

    rho is the max over undirected edges of the summed two-direction flow,
    divided by |V|.
    """
    total = flow.num + flow.numerators_at(flow.dst, flow.src)
    best, best_arc = 0, None
    if len(total):
        i = int(np.argmax(total))  # the first arc with the largest total
        if total[i] > 0:
            best, best_arc = int(total[i]), (int(flow.src[i]), int(flow.dst[i]))
    return CongestionReport(Fraction(best, flow.den * num_vertices), best_arc)


def product_lift(verts, nh: int, factor: int, flow: ArcFlow, copies, scale) -> list:
    """(flow, scale) pieces that put a flow on one factor of a product G x H
    into some of that factor's copies, for ArcFlow.combine.

    Vertex (x, y) of the product is verts[x * nh + y].  A flow on H
    (factor 1) goes into the copies {x} x H for x in copies, a flow on G
    (factor 0) into the copies G x {y} for y in copies.  The copies are
    distinct, so their arcs are too: the pieces come as one flow, copy by
    copy.
    """
    verts = np.asarray(verts, dtype=np.int64)
    c = np.asarray(copies, dtype=np.int64)[:, None]
    if factor:
        src, dst = c * nh + flow.src, c * nh + flow.dst
    else:
        src, dst = flow.src * nh + c, flow.dst * nh + c
    num = np.tile(flow.num, len(c))
    return [(ArcFlow.of(flow.den, verts[src.ravel()], verts[dst.ravel()], num), scale)]
