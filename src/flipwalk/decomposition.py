"""Class partitions of flip graphs: oriented (special-edge) and central
(center-containing face), with Cartesian-factor coordinates, boundary sets,
inter-class matchings, and exact verification of the cardinality lemmas.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache, reduce

import numpy as np

from .combinatorics import catalan, fuss_catalan
from .errors import (
    InvalidParameterError,
    LemmaViolationError,
    StructureMismatchError,
)
from .graph import product_graph
from .kangulation import (
    FLIP_CHUNK,
    FlipGraph,
    _enumerate_rows,
    _face_array,
    _face_rows,
    _polygon,
    _row_keys,
    _rows_of,
    build_flip_graph,
)


@lru_cache(maxsize=None)
def _local_apex(n: int) -> np.ndarray:
    """For each triangulation of the (n+2)-gon, in canonical order: the apex
    of its triangle on edge (n+1, 0).  Classifies factor states into
    oriented sub-classes."""
    apex = _face_rows(_enumerate_rows(3, n), 3, n + 2)[0][:, 1]
    apex.flags.writeable = False
    return apex


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


def _arc_factor(k: int, arc_len: int) -> int:
    """Sub-flip-graph parameter n_i for a sub-polygon spanning arc_len edges."""
    ni, rem = divmod(arc_len - 1, k - 2)
    if rem != 0:
        raise StructureMismatchError(f"arc of length {arc_len} has no k={k} factor")
    return ni


def _factor_coords(rel: np.ndarray, span: int, k: int, ni: int) -> np.ndarray:
    """Canonical index, among the k-angulations of the sub-polygon on an arc
    of span polygon edges, of each state's diagonals strictly inside the
    arc.  rel holds the states' (count, n-1, 2) diagonal ends, renumbered so
    that the arc starts at vertex 0."""
    if ni <= 1:
        return np.zeros(len(rel), dtype=np.int64)
    x, y = np.moveaxis(np.sort(rel, axis=2), 2, 0)
    inside = (y <= span) & ((x != 0) | (y != span))
    if (inside.sum(axis=1) != ni - 1).any():
        raise StructureMismatchError(f"an arc of {span} edges does not hold {ni - 1} diagonals")
    sub = _polygon(span + 1)
    ids = np.sort(sub.pair_id[x[inside], y[inside]].reshape(-1, ni - 1), axis=1)
    want = _row_keys(ids.astype(sub.dtype))
    keys = _row_keys(_enumerate_rows(k, ni))
    at = np.minimum(np.searchsorted(keys, want), len(keys) - 1)
    if (keys[at] != want).any():
        raise StructureMismatchError(f"an arc of {span} edges does not hold a {k}-angulation")
    return at


def _build_classes(graph: FlipGraph, keys: np.ndarray, kind: str) -> ClassPartition:
    """Classes by key (keys[v] is vertex v's defining face, ascending), in
    key order.  A member's coordinates come from the arcs between
    consecutive vertices of its face; an oriented face's last arc is the
    special edge (m-1, 0), which holds no factor."""
    k, m = graph.k, graph.m
    polys, vertex_class = np.unique(keys, axis=0, return_inverse=True)
    classes = []
    for ci, poly in enumerate(map(tuple, polys.tolist())):
        members = np.flatnonzero(vertex_class == ci)
        ends = _polygon(m).ends[graph.rows[members]]
        arcs = list(zip(poly, poly[1:] + poly[:1]))[:len(poly) - (kind == "oriented")]
        factors = [(k, _arc_factor(k, (hi - lo) % m)) for lo, hi in arcs]
        coords = np.stack([
            _factor_coords((ends - lo) % m, (hi - lo) % m, k, ni)
            for (lo, hi), (_, ni) in zip(arcs, factors)
        ], axis=1)
        desc = ClassDescriptor(
            defining_polygon=poly,
            member_indices=members.tolist(),
            cartesian_factors=factors,
            coords=list(map(tuple, coords.tolist())),
        )
        if desc.size != desc.expected_size() or len(set(desc.coords)) != desc.size:
            raise StructureMismatchError(
                f"class {poly}: size {desc.size} != product {desc.expected_size()}"
            )
        classes.append(desc)
    return ClassPartition(kind, graph, classes, vertex_class.ravel().tolist())


def oriented_partition(graph: FlipGraph) -> ClassPartition:
    """Partition of K_n by the triangle on the special edge (m-1, 0)."""
    if graph.k != 3:
        raise InvalidParameterError("oriented partition is defined for k = 3 only")
    part = _build_classes(graph, _face_rows(graph.rows, 3, graph.m)[0], "oriented")
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
    return bool(_contains_center(np.asarray(face), m))


def _contains_center(faces: np.ndarray, m: int) -> np.ndarray:
    """`face_contains_center` of each face along the last axis of faces."""
    w = np.roll(faces, -1, axis=-1)
    twice = 2 * ((w - faces) % m)
    tie = (1 - 2 * w) % (2 * m)
    return ((twice < m) | ((twice == m) & (0 < tie) & (tie < m))).all(axis=-1)


def _central_face_rows(rows: np.ndarray, k: int, m: int) -> np.ndarray:
    """The face of each state that contains the (perturbed) polygon center,
    vertices ascending."""
    if len(rows) > FLIP_CHUNK:  # bound the (chunk, n, k) face tables
        return np.concatenate([_central_face_rows(rows[lo:lo + FLIP_CHUNK], k, m)
                               for lo in range(0, len(rows), FLIP_CHUNK)])
    faces = _face_array(rows, k, m)
    hits = _contains_center(faces, m)
    count = hits.sum(axis=1)
    if (count != 1).any():
        s = int(np.argmax(count != 1))
        diags = tuple(_polygon(m).diags[i] for i in rows[s].tolist())
        raise StructureMismatchError(
            f"{count[s]} central faces found for {diags}; expected 1"
        )
    return faces[hits]


def central_face(t) -> tuple:
    """The unique face of t containing the (perturbed) polygon center."""
    row = _rows_of([t.diagonals], t.m, len(t.diagonals))
    return tuple(_central_face_rows(row, t.k, t.m)[0].tolist())


def central_partition(graph: FlipGraph) -> ClassPartition:
    """Partition of a flip graph by the k-gon containing the polygon center."""
    return _build_classes(graph, _central_face_rows(graph.rows, graph.k, graph.m), "central")


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
    apexes = _local_apex(factor_n)
    on_side = apexes[np.array(ca.coords)[:, factor_index]] == sub_apex
    wanted = set(np.array(ca.member_indices)[on_side].tolist())
    vc = partition.vertex_class
    actual = {
        u for u in ca.member_indices for w in g.adj[u] if vc[w] == b
    }
    if wanted != actual:
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
