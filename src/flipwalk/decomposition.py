"""Class partitions of flip graphs: oriented (special-edge) and central
(center-containing face), with Cartesian-factor coordinates, boundary sets,
inter-class matchings, and exact verification of the cardinality lemmas.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache, reduce

from .combinatorics import catalan, fuss_catalan
from .errors import (
    InvalidParameterError,
    LemmaViolationError,
    StructureMismatchError,
)
from .graph import product_graph
from .kangulation import FlipGraph, _enumerate_local, _faces, _mask, build_flip_graph, faces_of


@lru_cache(maxsize=None)
def _local_index(k: int, n: int) -> dict:
    """Canonical-order index of the k-angulations of the (k-2)n+2-gon."""
    return {d: i for i, d in enumerate(_enumerate_local(k, n))}


@lru_cache(maxsize=None)
def _local_apex(k: int, n: int) -> tuple:
    """For each local state of K_{k,n}: apex tuple of the face on edge (m-1, 0).

    For k = 3 this is the single apex vertex; used to classify factor states
    into oriented sub-classes.
    """
    m = (k - 2) * n + 2
    out = []
    for diags in _enumerate_local(k, n):
        face, _ = next(_faces(_mask(diags, m), m))
        out.append(tuple(face[1:-1]))  # interior vertices of the root face
    return tuple(out)


@dataclass
class ClassDescriptor:
    """One class of a partition, with its Cartesian-factor structure."""

    defining_polygon: tuple
    member_indices: list
    cartesian_factors: list  # [(k, n_i), ...], one per arc of the polygon
    coords: list = field(repr=False)  # per member: tuple of factor state indices

    @property
    def size(self) -> int:
        return len(self.member_indices)

    def expected_size(self) -> int:
        prod = 1
        for k, ni in self.cartesian_factors:
            prod *= fuss_catalan(k, ni)
        return prod


@dataclass
class ClassPartition:
    kind: str  # "oriented" | "central"
    graph: FlipGraph
    classes: list
    vertex_class: list


@dataclass
class BoundaryMatching:
    class_a: int
    class_b: int
    edges: list  # [(vertex_in_a, vertex_in_b), ...]

    @property
    def size(self) -> int:
        return len(self.edges)


def _subdiagonals(diags, lo: int, hi: int, m: int) -> tuple:
    """Diagonals strictly inside the cyclic arc lo..hi of the m-gon (which
    may wrap past m-1), relabeled so that lo becomes vertex 0."""
    span = (hi - lo) % m
    out = []
    for a, b in diags:
        x, y = (a - lo) % m, (b - lo) % m
        if x > y:
            x, y = y, x
        if y <= span and (x, y) != (0, span):
            out.append((x, y))
    return tuple(sorted(out))


def _arc_factor(k: int, arc_len: int) -> int:
    """Sub-flip-graph parameter n_i for a sub-polygon spanning arc_len edges."""
    ni, rem = divmod(arc_len - 1, k - 2)
    if rem != 0:
        raise StructureMismatchError(f"arc of length {arc_len} has no k={k} factor")
    return ni


def _build_classes(graph: FlipGraph, key_of, arcs_of, kind: str) -> ClassPartition:
    k, m = graph.k, graph.m
    buckets = {}
    for idx, t in enumerate(graph.vertices):
        buckets.setdefault(key_of(t), []).append(idx)
    classes = []
    vertex_class = [-1] * graph.num_vertices
    for ci, poly in enumerate(sorted(buckets)):
        members = buckets[poly]
        arcs = arcs_of(poly)
        factors = [(k, _arc_factor(k, (hi - lo) % m)) for lo, hi in arcs]
        coords = []
        for idx in members:
            diags = graph.vertices[idx].diagonals
            coord = []
            for (lo, hi), (_, ni) in zip(arcs, factors):
                if ni == 0:
                    coord.append(0)
                    continue
                coord.append(_local_index(k, ni)[_subdiagonals(diags, lo, hi, m)])
            coords.append(tuple(coord))
            vertex_class[idx] = ci
        desc = ClassDescriptor(
            defining_polygon=poly,
            member_indices=members,
            cartesian_factors=factors,
            coords=coords,
        )
        if desc.size != desc.expected_size() or len(set(coords)) != desc.size:
            raise StructureMismatchError(
                f"class {poly}: size {desc.size} != product {desc.expected_size()}"
            )
        classes.append(desc)
    return ClassPartition(kind, graph, classes, vertex_class)


def oriented_partition(graph: FlipGraph) -> ClassPartition:
    """Partition of K_n by the triangle on the special edge (m-1, 0)."""
    if graph.k != 3:
        raise InvalidParameterError("oriented partition is defined for k = 3 only")
    m = graph.m

    def key_of(t):
        face, _ = next(_faces(_mask(t.diagonals, m), m))
        return tuple(face)  # (0, apex, m-1)

    def arcs_of(poly):
        apex = poly[1]
        return [(0, apex), (apex, m - 1)]

    part = _build_classes(graph, key_of, arcs_of, "oriented")
    if len(part.classes) != graph.n:
        raise StructureMismatchError(
            f"expected {graph.n} oriented classes, got {len(part.classes)}"
        )
    return part


def face_contains_center(face: tuple, m: int) -> bool:
    """Whether the face contains the symbolically perturbed polygon center.

    A face with all cyclic arcs < m/2 contains the true center.  An arc of
    exactly m/2 (m even) makes the face border a diameter; the tie is broken
    by perturbing the center toward the midpoint of polygon edge (0, 1):
    working in angle units of pi/m (vertex a sits at angle 2a, the midpoint
    at angle 1), the perturbed center lies inside iff the midpoint's angle
    falls in the open half-turn counterclockwise of the diameter's far end.
    """
    verts = list(face)
    arcs = []
    for i in range(len(verts)):
        u = verts[i]
        w = verts[(i + 1) % len(verts)]
        arcs.append(((w - u) % m, u, w))
    for ln, _, w in arcs:
        if 2 * ln > m:
            return False
        if 2 * ln == m and not (0 < (1 - 2 * w) % (2 * m) < m):
            return False
    return True


def central_face(t) -> tuple:
    """The unique face of t containing the (perturbed) polygon center."""
    hits = [f for f in faces_of(t) if face_contains_center(f, t.m)]
    if len(hits) != 1:
        raise StructureMismatchError(
            f"{len(hits)} central faces found for {t.diagonals}; expected 1"
        )
    return hits[0]


def central_partition(graph: FlipGraph) -> ClassPartition:
    """Partition of a flip graph by the k-gon containing the polygon center."""
    m = graph.m

    def arcs_of(poly):
        arcs = []
        for i in range(len(poly)):
            arcs.append((poly[i], poly[(i + 1) % len(poly)]))
        return arcs

    return _build_classes(graph, central_face, arcs_of, "central")


def boundary_matchings(partition: ClassPartition) -> list:
    """Per class pair: the inter-class edge set, verified to be a matching.

    Oriented partitions must have a nonempty matching for every pair; central
    partitions record empty pairs explicitly.
    """
    g = partition.graph
    vc = partition.vertex_class
    buckets = {}
    for i, j in g.edges():
        ci, cj = vc[i], vc[j]
        if ci == cj:
            continue
        if ci > cj:
            ci, cj, i, j = cj, ci, j, i
        buckets.setdefault((ci, cj), []).append((i, j))
    out = []
    ncls = len(partition.classes)
    for ca in range(ncls):
        for cb in range(ca + 1, ncls):
            edges = sorted(buckets.get((ca, cb), []))
            ba = set(u for u, _ in edges)
            bb = set(v for _, v in edges)
            if len(ba) != len(edges) or len(bb) != len(edges):
                raise LemmaViolationError(
                    f"edges between classes {ca},{cb} are not a matching",
                    witness=(ca, cb),
                )
            if partition.kind == "oriented" and not edges:
                raise LemmaViolationError(
                    f"oriented classes {ca},{cb} have no connecting edge",
                    witness=(ca, cb),
                )
            if edges or partition.kind == "central":
                out.append(BoundaryMatching(ca, cb, edges))
    return out


def verify_matching_inequality(partition: ClassPartition) -> dict:
    """Exact check |E(T,T')| >= |C(T)| |C(T')| / C_n for every class pair.

    Returns a report with the minimum-slack pair; raises LemmaViolationError
    (never expected) if any pair fails.
    """
    if partition.kind != "oriented":
        raise InvalidParameterError("matching inequality applies to oriented partitions")
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
    apexes = _local_apex(3, factor_n)
    wanted = {
        ca.member_indices[pos]
        for pos, coord in enumerate(ca.coords)
        if apexes[coord[factor_index]][0] == sub_apex
    }
    vc = partition.vertex_class
    actual = {
        u for u in ca.member_indices for w in g.adj[u] if vc[w] == b
    }
    if wanted != actual:
        raise StructureMismatchError(
            f"boundary of class {a} toward {b} is not the lift of sub-class "
            f"apex {sub_apex} in factor {factor_index}"
        )
    sub_size = sum(1 for ap in apexes if ap[0] == sub_apex)
    return factor_index, {
        "factor_n": factor_n,
        "apex": sub_apex,
        "size": sub_size,
        "boundary_size": len(actual),
    }


def verify_class_product_structure(partition: ClassPartition) -> None:
    """Check each class induces exactly the Cartesian product of its factors.

    The members, taken in coordinate order, must induce the adjacency of the
    left-fold product of the factor flip graphs: factor states are in the
    canonical order the coordinates index, and the fold indexes coordinate
    tuples lexicographically.
    """
    g = partition.graph
    for ci, c in enumerate(partition.classes):
        order = [v for _, v in sorted(zip(c.coords, c.member_indices))]
        pos = {v: i for i, v in enumerate(order)}
        induced = [sorted(pos[w] for w in g.adj[v] if w in pos) for v in order]
        factors = [build_flip_graph(k, max(ni, 1)) for k, ni in c.cartesian_factors]
        if induced != reduce(product_graph, factors).adj:
            raise StructureMismatchError(
                f"class {ci} does not induce the product of its factor flip graphs"
            )


def partition_to_json(partition: ClassPartition, full_edge_lists: bool = False) -> str:
    matchings = boundary_matchings(partition)
    doc = {
        "kind": partition.kind,
        "k": partition.graph.k,
        "n": partition.graph.n,
        "classes": [
            {
                "defining_polygon": list(c.defining_polygon),
                "size": c.size,
                "factors": [list(f) for f in c.cartesian_factors],
            }
            for c in partition.classes
        ],
        "matchings": [
            {
                "classes": [bm.class_a, bm.class_b],
                "size": bm.size,
                **({"edges": [list(e) for e in bm.edges]} if full_edge_lists else {}),
            }
            for bm in matchings
        ],
    }
    return json.dumps(doc, sort_keys=True)
