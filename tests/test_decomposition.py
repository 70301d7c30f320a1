"""Oriented and central class partitions and their cardinality lemmas."""

import dataclasses
import hashlib
import json
import tracemalloc
from collections import Counter
from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest
import reference_partition
from reference_decomposition import central_partition, verify_class_product_structure
from reference_graph import adjacency_lists, boundary_matchings_lists, graph_from_lists

from flipwalk import kangulation
from flipwalk.combinatorics import catalan, fuss_catalan
from flipwalk.decomposition import (
    _central_faces,
    _contains_center,
    _region_count,
    boundary_matchings,
    boundary_projection,
    oriented_partition,
    verify_matching_inequality,
)
from flipwalk.errors import InvalidParameterError, LemmaViolationError, StructureMismatchError
from flipwalk.kangulation import build_flip_graph


def _graph(k, n, _cache={}):
    if (k, n) not in _cache:
        _cache[(k, n)] = build_flip_graph(k, n)
    return _cache[(k, n)]


def test_oriented_k5_has_five_classes_with_catalan_sizes():
    p = oriented_partition(_graph(3, 5))
    assert len(p.classes) == 5
    sizes = [c.size for c in p.classes]
    assert sizes == [catalan(a - 1) * catalan(5 - a) for a in range(1, 6)]


def test_oriented_k2_singletons():
    p = oriented_partition(_graph(3, 2))
    assert [c.size for c in p.classes] == [1, 1]


def test_oriented_requires_k3():
    with pytest.raises(InvalidParameterError):
        oriented_partition(_graph(4, 2))


def test_partition_covers_all_vertices():
    for k, n in [(3, 5), (3, 6), (4, 3)]:
        g = _graph(k, n)
        p = central_partition(g)
        assert sum(c.size for c in p.classes) == g.num_vertices
        assert all(vc >= 0 for vc in p.vertex_class)


def test_matching_sizes_are_triple_catalan_products():
    g = _graph(3, 6)
    p = oriented_partition(g)
    for bm in boundary_matchings(p):
        a = p.classes[bm.class_a].defining_polygon[1]
        b = p.classes[bm.class_b].defining_polygon[1]
        assert bm.size == catalan(a - 1) * catalan(b - a - 1) * catalan(6 - b)


def test_oriented_k2_single_matching_edge():
    p = oriented_partition(_graph(3, 2))
    bms = boundary_matchings(p)
    assert len(bms) == 1 and bms[0].size == 1


def test_matching_inequality_k5_and_k2():
    for n in (2, 5):
        report = verify_matching_inequality(oriented_partition(_graph(3, n)))
        assert report["ok"]
        assert report["min_slack_ratio"] <= 1


def test_matching_inequality_worst_pair_k10():
    report = verify_matching_inequality(oriented_partition(_graph(3, 10)))
    p = oriented_partition(_graph(3, 10))
    a, b = report["min_slack_pair"]
    apexes = {p.classes[a].defining_polygon[1], p.classes[b].defining_polygon[1]}
    assert apexes == {1, 10}
    assert report["min_slack_ratio"] == Fraction(
        catalan(9) ** 2, catalan(8) * catalan(10)
    )


def test_center_containment_odd_polygon_no_ties():
    # m odd: no diagonal is a diameter, so the arc test alone decides
    m = 7
    assert _contains_center(np.array((0, 2, 5)), m)
    assert not _contains_center(np.array((0, 1, 2)), m)


def test_central_partition_square_tie_break():
    g = _graph(3, 2)
    p = central_partition(g)
    assert sorted(c.defining_polygon for c in p.classes) == [(0, 1, 2), (0, 1, 3)]


def test_central_face_unique_per_vertex():
    g = _graph(3, 6)
    reference_partition.central_face_rows(g.rows, 3, g.m)  # raises if not unique


def test_central_k44_class_factors_bounded():
    g = _graph(4, 4)
    p = central_partition(g)
    for c in p.classes:
        assert c.size == _region_count(4, g.m, c.defining_polygon)
        for _, ni in c.cartesian_factors:
            assert ni <= 2  # n/2
        assert len(c.cartesian_factors) == 4


def _expected_central_match(t1, t2, m, k):
    """Independent oracle for |E(T, T')| between central k-gon classes:
    sum, over the 2k-2-gons having T and T' as halves on distinct main
    diagonals, of the Fuss-Catalan products over the 2k-2-gon's arcs."""
    from itertools import combinations

    from flipwalk.combinatorics import fuss_catalan as fc

    total = 0
    size = 2 * k - 2
    for hexa in combinations(range(m), size):
        arcs = [
            (hexa[(i + 1) % size] - hexa[i]) % m for i in range(size)
        ]
        if any((ln - 1) % (k - 2) for ln in arcs):
            continue
        halves = {}
        for i in range(k - 1):
            d = (hexa[i], hexa[i + k - 1])
            h1 = tuple(sorted(hexa[i : i + k]))
            h2 = tuple(sorted(hexa[i + k - 1 :] + hexa[: i + 1]))
            halves[d] = (h1, h2)
        d1 = [d for d, hs in halves.items() if t1 in hs]
        d2 = [d for d, hs in halves.items() if t2 in hs]
        if d1 and d2 and d1 != d2:
            prod = 1
            for ln in arcs:
                prod *= fc(k, (ln - 1) // (k - 2))
            total += prod
    return total


def test_central_k44_matching_sizes_match_hexagon_products():
    g = _graph(4, 4)
    p = central_partition(g)
    m = g.m
    checked_nonempty = 0
    for bm in boundary_matchings(p):
        t1 = tuple(p.classes[bm.class_a].defining_polygon)
        t2 = tuple(p.classes[bm.class_b].defining_polygon)
        assert bm.size == _expected_central_match(t1, t2, m, 4)
        checked_nonempty += bool(bm.size)
    assert checked_nonempty > 0


def test_central_records_empty_pairs():
    g = _graph(4, 4)
    p = central_partition(g)
    bms = boundary_matchings(p)
    k = len(p.classes)
    assert len(bms) == k * (k - 1) // 2
    assert any(bm.size == 0 for bm in bms)


def test_class_product_structure():
    verify_class_product_structure(oriented_partition(_graph(3, 6)))
    verify_class_product_structure(central_partition(_graph(3, 6)))
    verify_class_product_structure(central_partition(_graph(4, 4)))


@pytest.mark.parametrize(
    "build, k, n",
    [(oriented_partition, 3, 6), (central_partition, 3, 6), (central_partition, 4, 4)],
)
def test_class_product_structure_rejects_dropped_edge(build, k, n):
    part = build(_graph(k, n))
    vc = part.vertex_class
    i, j = next((i, j) for i, j in part.graph.edges() if vc[i] == vc[j])
    adj = adjacency_lists(part.graph)
    adj[i].remove(j)
    adj[j].remove(i)
    with pytest.raises(StructureMismatchError):
        verify_class_product_structure(dataclasses.replace(part, graph=graph_from_lists(adj)))


def test_boundary_projection_all_pairs_k5():
    p = oriented_partition(_graph(3, 5))
    for a in range(5):
        for b in range(5):
            if a == b:
                continue
            fi, sub = boundary_projection(p, a, b)
            apex_a = p.classes[a].defining_polygon[1]
            apex_b = p.classes[b].defining_polygon[1]
            assert fi == (1 if apex_b > apex_a else 0)
            assert sub["boundary_size"] > 0


def test_boundary_projection_shared_left_diagonal_targets_right_factor():
    # classes with apex_b > apex_a share the left side of T; the boundary
    # constrains the right sub-polygon's factor
    p = oriented_partition(_graph(3, 6))
    fi, sub = boundary_projection(p, 1, 4)
    assert fi == 1
    assert sub["factor_n"] == 6 - 2  # right factor of the apex-2 class


def test_boundary_projection_trivial_n2():
    p = oriented_partition(_graph(3, 2))
    fi, sub = boundary_projection(p, 0, 1)
    assert sub["boundary_size"] == 1 and sub["size"] == 1


def test_central_factor_bound_k3():
    # no central-class factor exceeds n/2
    g = _graph(3, 6)
    for c in central_partition(g).classes:
        for _, ni in c.cartesian_factors:
            assert ni <= 3


# sha256 of each partition's classes as JSON: per class, the defining
# polygon, member indices, Cartesian factors and member coordinates.
CLASS_STRUCTURE_SHA256 = {
    (3, 2, "central"): "14ad0ba03ca1eac1267ed77f8e0e8abc54757e09334d52b0b8ced794d02ebf3a",
    (3, 2, "oriented"): "0c985e892b3f0a6d315ca04b41b80977d0ab0f08ef608df66a580400a26c825a",
    (3, 3, "central"): "26ab02ffb25031a3019356a85dafe3cf4a963de0bd6305b58db6c48199bb4ebe",
    (3, 3, "oriented"): "6265abb19e5d987665277fbea35d94a2ce1b69e0eb1c28d203ccea724d62da2f",
    (3, 4, "central"): "c8a4e6f1c3f86614eb427419aa16a51fc36f6a3995f21d18124e86a7f7834318",
    (3, 4, "oriented"): "1f21077375d41a572527f14d4315b28329b533853f4afb11a70117cc646d5d9c",
    (3, 5, "central"): "ac039ca206c608e027c4a47a6867c2902cd4566370878189204b64ac1edeb19a",
    (3, 5, "oriented"): "586a21c0db14e40ddfd8e6c558ab0a1fccdbeb8adc17774ca9bd781165b6f063",
    (3, 6, "central"): "3d629e69ab8f573eb3395d9be6a42c819a9eaf994569d7995e374907b1bff3f0",
    (3, 6, "oriented"): "dcc87133f20e0ef46e633ce43e492d503f7e5badcdb16d61457de389071cb658",
    (3, 7, "central"): "69e6d03d1bbe473f03d6cb7771758b37f99611edc28d59dba018630a6d2170cd",
    (3, 7, "oriented"): "661ac3aa5ae036cb703a58a57084e379811b5759f29a309a98d1c1210772836c",
    (3, 8, "central"): "ddbb4896eb1bdceef50282959a0c0552ca62a799613c400cb1d1c351c59aa22b",
    (3, 8, "oriented"): "50c670717c1775fd8eec504a3db0603f504bb9f5a91d84f68b14827cac49ba00",
    (4, 2, "central"): "99c6dd170268ce10e1a0d532762c3d366dc3ca725bd9306f8494698a0ed36f6d",
    (4, 3, "central"): "142af32cc7aff7d69a8a9f87c0e7b454dd985d214e7205a19a638517bba9bbef",
    (4, 4, "central"): "fcc2e9d07bd3e5beb5b762b1fc9531787873d90b3639ce1277afe256e7e9f611",
    (4, 5, "central"): "89f8fab5b7e3b88cbf9bb0070fc7fd1a64b7fad9675aba5f6c530d06ed4675c9",
    (5, 2, "central"): "a3d3392527b2aac8135f53713d49c2f760a010f9b2bc4c00cee375a34bdfd12a",
    (5, 3, "central"): "43e3845d8039bbdacb7ecf37cd2a7af6df0d5cb9997176ebbc04fb87620b93d4",
    (5, 4, "central"): "03431b3ff058aa0e7efc81a934d2c6614feca4eb6a847686ba2620ffbd2edf67",
}


def test_class_structure_matches_golden_hashes():
    for (k, n, kind), digest in CLASS_STRUCTURE_SHA256.items():
        build = oriented_partition if kind == "oriented" else central_partition
        doc = [
            [
                list(c.defining_polygon),
                c.member_indices.tolist(),
                [list(f) for f in c.cartesian_factors],
                c.coords.tolist(),
            ]
            for c in build(_graph(k, n)).classes
        ]
        assert hashlib.sha256(json.dumps(doc).encode()).hexdigest() == digest, (k, n, kind)


def _partitions():
    """Every partition of k = 3 n <= 9, k = 4 n <= 5 and k = 5 n <= 4."""
    for k, top in ((3, 9), (4, 5), (5, 4)):
        for n in range(1, top + 1):
            yield central_partition(_graph(k, n))
            if k == 3:
                yield oriented_partition(_graph(k, n))


def test_class_arrays_are_int64_and_aligned():
    for p in _partitions():
        assert p.vertex_class.dtype == np.int64
        for ci, c in enumerate(p.classes):
            assert c.member_indices.dtype == c.coords.dtype == c.by_coord.dtype == np.int64
            assert (np.diff(c.member_indices) > 0).all()
            assert c.coords.shape == (c.size, len(c.cartesian_factors))
            assert (p.vertex_class[c.member_indices] == ci).all()
            # by_coord lists the members in lexicographic coordinate order
            order = np.lexsort(c.coords.T[::-1])
            assert np.array_equal(c.by_coord, c.member_indices[order])


def test_boundary_matchings_match_edge_loop_reference():
    for p in _partitions():
        got = [(bm.class_a, bm.class_b, bm.edges) for bm in boundary_matchings(p)]
        want = boundary_matchings_lists(p)
        assert [(a, b) for a, b, _ in got] == [(a, b) for a, b, _ in want]
        for (_, _, edges), (_, _, ref) in zip(got, want):
            assert edges.dtype == np.int64 and edges.shape == (len(ref), 2)
            assert edges.tolist() == [list(e) for e in ref]


def _corrupted(part, drop_pair):
    """part over a copy of its graph that either gains an edge giving a
    vertex of one class two neighbours in another, or loses every edge
    between two classes."""
    adj = adjacency_lists(part.graph)
    bm = boundary_matchings(part)[-1]
    if drop_pair:
        for u, v in bm.edges.tolist():
            adj[u].remove(v)
            adj[v].remove(u)
    else:
        # w is off the matching and the smallest such member, so u's new
        # edge lies apart from its matching edge in edge order
        u = int(bm.edges[len(bm.edges) // 2, 0])
        matched = set(bm.edges[:, 1].tolist())
        w = min(set(part.classes[bm.class_b].member_indices.tolist()) - matched)
        adj[u] = sorted(adj[u] + [w])
        adj[w] = sorted(adj[w] + [u])
    return dataclasses.replace(part, graph=graph_from_lists(adj))


@pytest.mark.parametrize("drop_pair", [False, True])
def test_boundary_matchings_reject_corrupt_graph_like_reference(drop_pair):
    part = _corrupted(oriented_partition(_graph(3, 6)), drop_pair)
    with pytest.raises(LemmaViolationError) as got:
        boundary_matchings(part)
    with pytest.raises(LemmaViolationError) as want:
        boundary_matchings_lists(part)
    assert got.value.witness == want.value.witness
    assert str(got.value) == str(want.value)


def _closed_form_matchings(k, m) -> Counter:
    """Closed-form flip-edge counts between face classes: for every
    (2k-2)-gon whose arcs each hold a k-angulation, and every two of its
    main diagonals, each half on the first and each half on the second,
    the k-angulations holding the (2k-2)-gon split by the first."""
    size = 2 * k - 2
    want = Counter()
    for poly in combinations(range(m), size):
        if any(((poly[(i + 1) % size] - poly[i]) % m - 1) % (k - 2) for i in range(size)):
            continue
        count = _region_count(k, m, poly)
        halves = [(poly[i:i + k], poly[i + k - 1:] + poly[:i + 1]) for i in range(k - 1)]
        for i, j in combinations(range(k - 1), 2):
            for t1 in halves[i]:
                for t2 in halves[j]:
                    pair = tuple(sorted(t1)), tuple(sorted(t2))
                    want[pair] += count
                    want[pair[::-1]] += count
    return want


def test_closed_form_count_matches_enumerated_classes_and_matchings():
    for k, top in ((3, 9), (4, 5)):
        for n in range(1, top + 1):
            g = _graph(k, n)
            want = _closed_form_matchings(k, g.m)
            for p in (central_partition(g),) + ((oriented_partition(g),) if k == 3 else ()):
                polys = [c.defining_polygon for c in p.classes]
                for c in p.classes:
                    assert c.size == _region_count(k, g.m, c.defining_polygon)
                for bm in boundary_matchings(p):
                    assert bm.size == want[(polys[bm.class_a], polys[bm.class_b])], (k, n)


def test_boundary_projection_rejects_bad_class_pairs():
    p = oriented_partition(_graph(3, 5))
    for a, b in [(2, 2), (0, 7), (7, 0), (-1, 0), (0, -1)]:
        with pytest.raises(InvalidParameterError):
            boundary_projection(p, a, b)


def test_matching_inequality_needs_two_classes():
    with pytest.raises(InvalidParameterError):
        verify_matching_inequality(oriented_partition(_graph(3, 1)))


def _assert_same_partition(got, want):
    """Every field of two partitions of one graph, with its dtype."""
    assert got.kind == want.kind and got.graph is want.graph
    assert got.vertex_class.dtype == want.vertex_class.dtype
    assert np.array_equal(got.vertex_class, want.vertex_class)
    assert len(got.classes) == len(want.classes)
    for c, r in zip(got.classes, want.classes):
        assert type(c.defining_polygon) is tuple and c.defining_polygon == r.defining_polygon
        assert c.cartesian_factors == r.cartesian_factors
        for name in ("member_indices", "coords", "by_coord"):
            a, b = getattr(c, name), getattr(r, name)
            assert a.dtype == b.dtype and a.shape == b.shape and np.array_equal(a, b), name


def _check_against_keyed_builder(k, n):
    g = build_flip_graph(k, n)
    _assert_same_partition(central_partition(g), reference_partition.central_partition(g))
    if k == 3:
        _assert_same_partition(oriented_partition(g), reference_partition.oriented_partition(g))


@pytest.mark.parametrize(
    "k, n", [(3, n) for n in range(1, 11)] + [(4, n) for n in range(1, 8)]
    + [(5, n) for n in range(1, 7)] + [(6, 4), (10, 3)])
def test_generated_classes_match_keyed_builder(k, n):
    """Classes generated from their faces against the face-walk keyed
    builder of tests/reference_partition.py."""
    _check_against_keyed_builder(k, n)


@pytest.mark.slow
@pytest.mark.parametrize("k, n", [(3, 12), (4, 8), (5, 7)])
def test_generated_classes_match_keyed_builder_large(k, n):
    _check_against_keyed_builder(k, n)


def test_generated_classes_reject_a_missing_state():
    """A graph whose rows lack a state of some class is refused."""
    g = build_flip_graph(3, 5)
    short = kangulation.FlipGraph(3, 5, g.rows[1:], *g.csr())
    with pytest.raises(StructureMismatchError, match="not a vertex"):
        oriented_partition(short)


def test_oriented_partition_traced_peak():
    """The oriented partition of K_12 (208,012 states) holds about 8 MB of
    class arrays; the keyed builder it replaced peaked at 83 MB."""
    g = build_flip_graph(3, 12)
    tracemalloc.start()
    try:
        oriented_partition(g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16e6, peak


def test_face_sets_cover_every_state():
    """Without building a graph: the classes of the central faces, and of
    the oriented faces (0, c, m-1), sum to the Fuss-Catalan count.  The
    central sum groups the faces by their arc lengths, on which
    `_region_count` depends alone."""
    for k, top in ((3, 30), (4, 30), (5, 16), (6, 12)):
        for n in range(1, top + 1):
            m = (k - 2) * n + 2
            faces = _central_faces(k, m)
            assert (np.diff(faces, axis=1) > 0).all()
            assert (np.diff(faces[:, 0]) >= 0).all()
            arcs = (np.roll(faces, -1, axis=1) - faces) % m
            _, first, times = np.unique(arcs, axis=0, return_index=True, return_counts=True)
            total = sum(t * _region_count(k, m, tuple(faces[i].tolist()))
                        for i, t in zip(first.tolist(), times.tolist()))
            assert total == fuss_catalan(k, n), (k, n)
    for n in range(1, 31):
        m = n + 2
        assert sum(_region_count(3, m, (0, c, m - 1)) for c in range(1, m - 1)) == catalan(n)
