"""Keyed reference for the oriented and central class partitions.

This is the earlier builder: it walks every state's faces, keys each state
by its root face or by its central face, groups the keys with `np.unique`,
and finds each member's factor coordinates by a binary search among the
canonical rows of each arc's sub-polygon.  The package generates each class
from its face instead; every field of the two partitions must agree.
"""

import math

import numpy as np
from reference_flips import face_array, face_rows

from flipwalk.combinatorics import fuss_catalan
from flipwalk.decomposition import (
    ClassDescriptor,
    ClassPartition,
    _arc_factor,
    _contains_center,
)
from flipwalk.errors import StructureMismatchError
from flipwalk.graph import FLIP_CHUNK, _lookup, _row_keys
from flipwalk.kangulation import _enumerate_rows, _polygon


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
    at, found = _lookup(_row_keys(_enumerate_rows(k, ni)), _row_keys(ids.astype(sub.dtype)))
    if not found.all():
        raise StructureMismatchError(f"an arc of {span} edges does not hold a {k}-angulation")
    return at


def _build_classes(graph, keys: np.ndarray, kind: str) -> ClassPartition:
    """Classes by key (keys[v] is vertex v's defining face, ascending), in
    key order."""
    k, m = graph.k, graph.m
    polys, vertex_class = np.unique(keys, axis=0, return_inverse=True)
    vertex_class = vertex_class.ravel().astype(np.int64)
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
        dims = [fuss_catalan(k, ni) for k, ni in factors]
        by_coord = np.full(math.prod(dims), -1, dtype=np.int64)
        by_coord[np.ravel_multi_index(tuple(coords.T), dims)] = members
        if len(members) != len(by_coord) or (by_coord < 0).any():
            raise StructureMismatchError(f"class {poly} is not the product of its factors")
        classes.append(ClassDescriptor(poly, members, factors, coords, by_coord))
    return ClassPartition(kind, graph, classes, vertex_class)


def central_face_rows(rows: np.ndarray, k: int, m: int) -> np.ndarray:
    """The face of each state that contains the (perturbed) polygon center,
    vertices ascending; raises unless each state has exactly one."""
    if len(rows) > FLIP_CHUNK:  # bound the (chunk, n, k) face tables
        return np.concatenate([central_face_rows(rows[lo:lo + FLIP_CHUNK], k, m)
                               for lo in range(0, len(rows), FLIP_CHUNK)])
    faces = face_array(rows, k, m)
    count = _contains_center(faces, m).sum(axis=1)
    if (count != 1).any():
        raise StructureMismatchError(f"{count[np.argmax(count != 1)]} central faces; expected 1")
    return faces[_contains_center(faces, m)]


def oriented_partition(graph) -> ClassPartition:
    return _build_classes(graph, face_rows(graph.rows, 3, graph.m)[0], "oriented")


def central_partition(graph) -> ClassPartition:
    return _build_classes(graph, central_face_rows(graph.rows, graph.k, graph.m), "central")
