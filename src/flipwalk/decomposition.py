"""Class partitions of flip graphs, generated from their faces: the oriented
one (special-edge classes), with Cartesian-factor coordinates, boundary
sets, inter-class matchings, and exact verification of the cardinality
lemmas; and the faces that hold the polygon's center, behind the central
cut.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .combinatorics import catalan, fuss_catalan
from .errors import InvalidParameterError, LemmaViolationError, StructureMismatchError
from .graph import _lookup, _ranges, _row_keys
from .kangulation import FlipGraph, _compositions, _enumerate_states, _fill_face, _polygon


@lru_cache(maxsize=None)
def _local_apex(n: int) -> np.ndarray:
    """For each triangulation of the (n+2)-gon, in canonical order: the apex
    of its triangle on edge (n+1, 0), read off the enumeration's root-face
    classes.  Classifies factor states into oriented sub-classes."""
    states = _enumerate_states(3, n)
    apex = np.empty(len(states.rank), dtype=np.int64)
    for (left, right), at in states.offsets.items():
        apex[states.rank[at:at + catalan(left) * catalan(right)]] = left + 1
    apex.flags.writeable = False
    return apex


@dataclass
class ClassDescriptor:
    """One class of a partition, with its Cartesian-factor structure."""

    defining_polygon: tuple
    member_indices: np.ndarray  # int64 vertices, ascending
    cartesian_factors: list  # [(k, n_i), ...], one per arc of the polygon
    coords: np.ndarray = field(repr=False)  # (size, factors) int64 factor states, row per member
    by_coord: np.ndarray = field(repr=False)  # int64 members in lexicographic coordinate order

    @property
    def size(self) -> int:
        return len(self.member_indices)


@dataclass
class ClassPartition:
    kind: str  # "oriented" | "central"
    graph: FlipGraph
    classes: list
    vertex_class: np.ndarray  # int64 class of each vertex


@dataclass
class BoundaryMatching:
    class_a: int
    class_b: int
    edges: np.ndarray  # (size, 2) int64 rows (vertex in a, vertex in b), sorted

    @property
    def size(self) -> int:
        return len(self.edges)


def _arc_factor(k: int, arc_len: int) -> int:
    """Sub-flip-graph parameter n_i for a sub-polygon spanning arc_len edges."""
    ni, rem = divmod(arc_len - 1, k - 2)
    if rem != 0:
        raise StructureMismatchError(f"arc of length {arc_len} has no k={k} factor")
    return ni


def _region_count(k: int, m: int, poly) -> int:
    """The number of k-angulations of the m-gon that hold a fixed
    subdivision of the sub-polygon poly (vertices ascending): each arc of
    the m-gon between consecutive vertices of poly, cyclically, is
    k-angulated on its own."""
    return math.prod(
        fuss_catalan(k, _arc_factor(k, (hi - lo) % m)) for lo, hi in zip(poly, poly[1:] + poly[:1])
    )


def _build_classes(graph: FlipGraph, faces: np.ndarray, kind: str) -> ClassPartition:
    """One class per row of faces (vertices ascending), in order: the states
    that hold the face, generated as the product of its arcs' states
    (`_fill_face`) and looked up once among the graph's rows, so a member's
    coordinates are its position in the product and by_coord is the lookup.
    An oriented face's last arc is the special edge (m-1, 0): no factor."""
    k, m, count = graph.k, graph.m, graph.num_vertices
    poly = _polygon(m)
    keys = _row_keys(graph.rows)
    vertex_class = np.full(count, -1, dtype=np.int64)
    classes = []
    for ci, face in enumerate(map(tuple, faces.tolist())):
        arcs = list(zip(face, face[1:] + face[:1]))[:len(face) - (kind == "oriented")]
        factors = [(k, _arc_factor(k, (hi - lo) % m)) for lo, hi in arcs]
        dims = [fuss_catalan(k, ni) for _, ni in factors]
        block = np.empty((math.prod(dims), graph.n - 1), dtype=poly.dtype)
        _fill_face(k, poly, face, block)
        block.sort(axis=1)
        by_coord, found = _lookup(keys, _row_keys(block))
        if not found.all():
            raise StructureMismatchError(f"class {face}: a state of its factors is not a vertex")
        order = np.argsort(by_coord)
        coords = np.stack(np.unravel_index(order, dims), axis=1)
        vertex_class[by_coord] = ci
        classes.append(ClassDescriptor(face, by_coord[order], factors, coords, by_coord))
    # as many members as vertices, and none left out: each vertex in one class
    if sum(c.size for c in classes) != count or (vertex_class < 0).any():
        raise StructureMismatchError(f"the {kind} classes do not partition the {count} vertices")
    return ClassPartition(kind, graph, classes, vertex_class)


def oriented_partition(graph: FlipGraph) -> ClassPartition:
    """Partition of K_n by the triangle (0, c, m-1) on the special edge
    (m-1, 0), one class per apex c."""
    if graph.k != 3:
        raise InvalidParameterError("oriented partition is defined for k = 3 only")
    faces = np.array([(0, c, graph.m - 1) for c in range(1, graph.m - 1)])
    return _build_classes(graph, faces, "oriented")


def _contains_center(faces: np.ndarray, m: int) -> np.ndarray:
    """Whether each face along the last axis of faces (vertices ascending)
    contains the symbolically perturbed polygon center.

    A face with all cyclic arcs < m/2 contains the true center.  An arc of
    exactly m/2 (m even) makes the face border a diameter; the tie is broken
    by perturbing the center toward the midpoint of polygon edge (0, 1):
    working in angle units of pi/m (vertex a sits at angle 2a, the midpoint
    at angle 1), the perturbed center lies inside iff the midpoint's angle
    falls in the open half-turn counterclockwise of the diameter's far end.
    """
    w = np.roll(faces, -1, axis=-1)
    twice = 2 * ((w - faces) % m)
    tie = (1 - 2 * w) % (2 * m)
    return ((twice < m) | ((twice == m) & (0 < tie) & (tie < m))).all(axis=-1)


def _central_faces(k: int, m: int) -> np.ndarray:
    """(F, k) int64 array: every k-gon of the m-gon that holds the
    (perturbed) center and can be a face of a k-angulation, vertices
    ascending, rows in lexicographic order.

    A face is its smallest vertex s and then the partial sums of the
    lengths of its arcs from s: (k-2)p + 1 each, for a composition p of n-1
    into k parts.  s can be any vertex before the last arc's length."""
    n = (m - 2) // (k - 2)
    arcs = (k - 2) * np.array(list(_compositions(n - 1, k)), dtype=np.int64).reshape(-1, k) + 1
    last = arcs[:, -1]
    faces = np.repeat(np.cumsum(arcs, axis=1) - arcs, last, axis=0)
    faces += _ranges(np.zeros_like(last), last)[:, None]
    faces = faces[_contains_center(faces, m)]
    return faces[np.lexsort(faces.T[::-1])]


def _cross_arcs(graph, vertex_class: np.ndarray, ncls: int) -> dict:
    """The arcs whose ends lie in different classes, as {(class of source,
    class of target): (count, 2) int64 rows (source, target)}.  Groups come
    in (source class, target class) order and each is ordered by (smaller
    end, larger end), the order of `Graph.edges`: each edge's two arcs are
    laid out in edge order, and one stable sort by class pair groups them."""
    src, dst = graph.arcs()
    keep = src < dst
    arcs = np.stack([src[keep], dst[keep], dst[keep], src[keep]], axis=1).reshape(-1, 2)
    ends = vertex_class[arcs]
    cross = ends[:, 0] != ends[:, 1]
    pair = ends[cross, 0] * ncls + ends[cross, 1]
    order = np.argsort(pair, kind="stable")
    arcs, pair = arcs[cross][order].astype(np.int64), pair[order]
    cuts = np.flatnonzero(pair[1:] != pair[:-1]) + 1
    firsts = pair[np.concatenate(([0], cuts))[:len(pair)]]
    keys = zip((firsts // ncls).tolist(), (firsts % ncls).tolist())
    return dict(zip(keys, np.split(arcs, cuts)))


def boundary_matchings(partition: ClassPartition) -> list:
    """Per class pair: the inter-class edge set, verified to be a matching.

    Oriented partitions must have a nonempty matching for every pair; central
    partitions record empty pairs explicitly.
    """
    ncls = len(partition.classes)
    groups = _cross_arcs(partition.graph, partition.vertex_class, ncls)
    none = np.zeros((0, 2), dtype=np.int64)
    out = []
    for ca in range(ncls):
        for cb in range(ca + 1, ncls):
            edges = groups.get((ca, cb), none)
            if len(edges):
                edges = edges[np.argsort(edges[:, 0])]
                # a vertex on two of the pair's edges repeats in sorted order
                if not (np.diff(edges[:, 0]).all() and np.diff(np.sort(edges[:, 1])).all()):
                    raise LemmaViolationError(
                        f"edges between classes {ca},{cb} are not a matching",
                        witness=(ca, cb),
                    )
            elif partition.kind == "oriented":
                raise LemmaViolationError(
                    f"oriented classes {ca},{cb} have no connecting edge",
                    witness=(ca, cb),
                )
            out.append(BoundaryMatching(ca, cb, edges))
    return out


def verify_matching_inequality(partition: ClassPartition) -> dict:
    """Exact check |E(T,T')| >= |C(T)| |C(T')| / C_n for every class pair.

    Returns a report with the minimum-slack pair; raises LemmaViolationError
    (never expected) if any pair fails.
    """
    if partition.kind != "oriented":
        raise InvalidParameterError("matching inequality applies to oriented partitions")
    if len(partition.classes) < 2:
        raise InvalidParameterError("matching inequality needs at least two classes")
    g = partition.graph
    total = catalan(g.n)
    worst = None
    checked = 0
    for bm in boundary_matchings(partition):
        sa = partition.classes[bm.class_a].size
        sb = partition.classes[bm.class_b].size
        lhs = bm.size * total
        rhs = sa * sb
        if lhs < rhs:
            raise LemmaViolationError(
                f"matching bound violated for classes {bm.class_a},{bm.class_b}: "
                f"{bm.size} * {total} < {sa} * {sb}",
                witness=(bm.class_a, bm.class_b, bm.size, sa, sb),
            )
        ratio = Fraction(rhs, lhs)  # <= 1; slack shrinks as ratio approaches 1
        checked += 1
        if worst is None or ratio > worst[0]:
            worst = (ratio, bm.class_a, bm.class_b)
    return {
        "pairs_checked": checked,
        "min_slack_pair": (worst[1], worst[2]),
        "min_slack_ratio": worst[0],
        "ok": True,
    }


def boundary_projection(partition: ClassPartition, a: int, b: int):
    """Identify the Cartesian factor of class a carrying the boundary toward b.

    Returns (factor_index, sub_class) where sub_class describes the oriented
    class of the factor flip graph whose lift equals the boundary set; the
    claimed bijection is verified member by member.
    """
    if partition.kind != "oriented" or partition.graph.k != 3:
        raise InvalidParameterError("boundary projection is defined for oriented k=3")
    if a == b or not (0 <= a < len(partition.classes) and 0 <= b < len(partition.classes)):
        raise InvalidParameterError(f"classes {a}, {b} are not two of the partition's classes")
    g = partition.graph
    ca, cb = partition.classes[a], partition.classes[b]
    apex_a, apex_b = ca.defining_polygon[1], cb.defining_polygon[1]
    if apex_b > apex_a:
        factor_index = 1  # right sub-polygon apex_a..m-1
        sub_apex = apex_b - apex_a
    else:
        factor_index = 0  # left sub-polygon 0..apex_a
        sub_apex = apex_b
    _, factor_n = ca.cartesian_factors[factor_index]
    if factor_n < 1:
        raise StructureMismatchError(
            f"boundary of class {a} toward {b} projects to a trivial factor"
        )
    apexes = _local_apex(factor_n)
    on_side = apexes[ca.coords[:, factor_index]] == sub_apex
    src, dst = g.arcs(ca.member_indices)
    actual = set(src[partition.vertex_class[dst] == b].tolist())
    if set(ca.member_indices[on_side].tolist()) != actual:
        raise StructureMismatchError(
            f"boundary of class {a} toward {b} is not the lift of sub-class "
            f"apex {sub_apex} in factor {factor_index}"
        )
    sub_size = int((apexes == sub_apex).sum())
    return factor_index, {
        "factor_n": factor_n,
        "apex": sub_apex,
        "size": sub_size,
        "boundary_size": len(actual),
    }
