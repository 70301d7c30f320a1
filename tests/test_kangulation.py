"""Enumeration, flips, and flip-graph invariants for polygon k-angulations."""

import hashlib
import json
import os
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from reference_flips import _crosses as reference_crosses
from reference_flips import _faces as reference_faces
from reference_flips import _mask as reference_mask
from reference_flips import _transform_diagonals as reference_transform
from reference_flips import build_csr as reference_csr
from reference_flips import check_kangulation, diagonal_tuples, endpoint_rows, face_array
from reference_flips import face_walk_indices, orbit_representatives_all_images, walk_flips
from reference_flips import eccentricities as reference_eccentricities
from reference_flips import flips as reference_flips
from reference_flips import orbit_representatives as reference_orbits
from reference_graph import adjacency_lists, diameter, eccentricities, graph_from_lists

from flipwalk.combinatorics import catalan, fuss_catalan
from flipwalk.errors import EnumerationTooLargeError, InvalidParameterError
import flipwalk.kangulation as kangulation
from flipwalk.kangulation import (
    FlipGraph,
    _enumerate_rows,
    _enumerate_states,
    build_flip_graph,
    count_kangulations,
    flip_graph_from_json_dict,
    orbit_representatives,
)

with open(os.path.join(os.path.dirname(__file__), "golden", "flip_graphs.json")) as fh:
    GOLDEN = json.load(fh)


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _states(k, n) -> list:
    """The canonical states as sorted tuples of (a, b) diagonals."""
    return diagonal_tuples(_enumerate_rows(k, n), (k - 2) * n + 2)


def test_crossing_predicate():
    """The per-state reference's crossing test, on which its flip check
    rests."""
    assert reference_crosses((0, 2), (1, 3))
    assert not reference_crosses((0, 2), (2, 4))
    assert not reference_crosses((0, 2), (0, 3))


def test_enumerate_square():
    assert _states(3, 2) == [((0, 2),), ((1, 3),)]


def test_enumerate_counts_match_catalan():
    for n in range(1, 9):
        assert len(_enumerate_rows(3, n)) == count_kangulations(3, n) == catalan(n)


def test_enumerate_counts_match_fuss_catalan():
    for k, n in [(4, 1), (4, 2), (4, 3), (4, 4), (5, 1), (5, 2), (5, 3)]:
        ts = _states(k, n)
        assert len(ts) == count_kangulations(k, n) == fuss_catalan(k, n)
        assert sorted(set(ts)) == ts


def test_enumeration_cap():
    """n = 30 would not fit in memory: each call must refuse it first."""
    for call in (build_flip_graph, count_kangulations):
        with pytest.raises(EnumerationTooLargeError):
            call(3, 30, cap=1000)


def test_validate_rejects_crossing_and_wrong_count():
    """The face walk's check, on which the flip oracles rest."""
    with pytest.raises(InvalidParameterError):
        check_kangulation(3, 6, ((0, 2), (1, 3), (3, 5)))
    with pytest.raises(InvalidParameterError):
        check_kangulation(3, 6, ((0, 2),))
    for t in _states(4, 3):
        check_kangulation(4, 8, t)


@st.composite
def diagonal_sets(draw):
    """(k, m, sorted tuple of n-1 distinct diagonals of the m-gon), m <= 9:
    a k-angulation with up to three of its diagonals swapped for others."""
    k = draw(st.sampled_from([3, 4]))
    n = draw(st.integers(1, 7 if k == 3 else 3))
    m = (k - 2) * n + 2
    diags = [(a, b) for a in range(m) for b in range(a + 2, m) if (a, b) != (0, m - 1)]
    chosen = list(draw(st.sampled_from(_states(k, n))))
    for _ in range(draw(st.integers(0, 3)) if n >= 2 else 0):
        chosen.pop(draw(st.integers(0, len(chosen) - 1)))
        chosen.append(draw(st.sampled_from([d for d in diags if d not in chosen])))
    return k, m, tuple(sorted(chosen))


@settings(derandomize=True, max_examples=400, deadline=None)
@given(diagonal_sets())
def test_validate_accepts_exactly_the_kangulations(case):
    """The face walk accepts exactly the enumerated states."""
    k, m, diags = case
    if diags in set(_states(k, (m - 2) // (k - 2))):
        check_kangulation(k, m, diags)
    else:
        with pytest.raises(InvalidParameterError):
            check_kangulation(k, m, diags)


def test_faces_partition_polygon():
    for k, n in ((3, 5), (5, 3)):
        faces = face_array(_enumerate_rows(k, n), k, (k - 2) * n + 2)
        assert faces.shape == (fuss_catalan(k, n), n, k)


def test_flip_square_has_single_neighbor():
    assert walk_flips(3, 4, ((0, 2),)) == [(((1, 3),), (0, 2), (1, 3))]


def test_flip_counts():
    # every triangulation of the heptagon has n - 1 = 4 flips
    for t in _states(3, 5):
        assert len(walk_flips(3, 7, t)) == 4
    # k=4, n=3: 2 diagonals x 2 replacements
    for t in _states(4, 3):
        assert len(walk_flips(4, 8, t)) == 4


def test_flip_involution():
    for t in _states(4, 3):
        for nbr, removed, inserted in walk_flips(4, 8, t):
            back = [b for b, r, i in walk_flips(4, 8, nbr) if b == t]
            assert len(back) == 1


@pytest.mark.parametrize(
    "diagonals, m",
    [
        (((0, 2), (1, 3), (3, 5)), 6),  # the root face is a 4-gon
        (((0, 2), (0, 3), (1, 3)), 5),  # flipping (0, 3) to (2, 4) crosses (1, 3)
        (((0, 2), (1, 3)), 4),  # (1, 3) bounds no face of the walk
        (((0, 1),), 4),  # a polygon edge
    ],
)
def test_flips_reject_invalid_triangulations(diagonals, m):
    """These are checks, not asserts, so `python -O` keeps them."""
    with pytest.raises(InvalidParameterError):
        walk_flips(3, m, diagonals)


def test_flip_graph_small():
    g = build_flip_graph(3, 2)
    assert g.num_vertices == 2 and g.num_edges() == 1

    g5 = build_flip_graph(3, 5)
    assert g5.num_vertices == 42
    assert all(len(a) == 4 for a in adjacency_lists(g5))
    assert g5.is_connected()

    g43 = build_flip_graph(4, 3)
    assert g43.num_vertices == fuss_catalan(4, 3) == 12
    assert all(len(a) == 4 for a in adjacency_lists(g43))
    assert g43.is_connected()


def test_flip_graph_undirected_and_labeled():
    g = build_flip_graph(4, 2)
    adj = adjacency_lists(g)
    states = diagonal_tuples(g.rows, g.m)
    for i, nbrs in enumerate(adj):
        labels = {t: (r, s) for t, r, s in walk_flips(4, g.m, states[i])}
        for j in nbrs:
            assert i in adj[j]
            removed, inserted = labels[states[j]]
            assert removed in states[i]
            assert inserted in states[j]


def test_vertex_counts_larger():
    for k, n in [(3, 9), (3, 10), (4, 5), (5, 4)]:
        g = build_flip_graph(k, n)
        assert g.num_vertices == fuss_catalan(k, n)
        assert all(len(a) == (n - 1) * (k - 2) for a in adjacency_lists(g))
        assert g.is_connected()


def test_json_round_trip():
    for k, n in [(3, 4), (3, 8), (4, 5), (5, 4)]:
        g = build_flip_graph(k, n)
        doc = json.loads(g.to_json())
        g2 = flip_graph_from_json_dict(doc)
        assert adjacency_lists(g2) == adjacency_lists(g), (k, n)
        assert g2.rows.tobytes() == g.rows.tobytes(), (k, n)
        assert g2.to_json() == g.to_json(), (k, n)


def _rewire(doc):
    """Move one end of the first edge to a vertex that is not a neighbour:
    the edge count stays, two degrees change."""
    i, j = doc["edges"][0]
    nbrs = {b if a == i else a for a, b in doc["edges"] if i in (a, b)}
    doc["edges"][0] = [i, min(set(range(len(doc["vertices"]))) - nbrs - {i})]


def _bool_index(doc):
    e = next(e for e in doc["edges"] if 1 in e)
    e[e.index(1)] = True  # json writes true, and Python reads it back as == 1


def _swap_vertices(doc):
    vs = doc["vertices"]
    vs[0], vs[41] = vs[41], vs[0]


CORRUPTIONS = {
    "negative-index": lambda doc: doc["edges"][0].__setitem__(0, -1),
    "index-past-end": lambda doc: doc["edges"][0].__setitem__(1, len(doc["vertices"])),
    "self-loop": lambda doc: doc["edges"][0].__setitem__(1, doc["edges"][0][0]),
    "repeated-edge": lambda doc: doc["edges"].__setitem__(1, list(doc["edges"][0])),
    "float-index": lambda doc: doc["edges"][0].__setitem__(1, doc["edges"][0][1] + 0.0),
    "string-index": lambda doc: doc["edges"][0].__setitem__(1, str(doc["edges"][0][1])),
    "bool-index": _bool_index,
    "wrong-degree": _rewire,
    "swapped-vertices": _swap_vertices,
    "vertex-missing": lambda doc: doc["vertices"].__delitem__(-1),
    "crossing-vertex": lambda doc: doc["vertices"][0].__setitem__(0, [1, 3]),
    "huge-vertex-end": lambda doc: doc["vertices"][0][0].__setitem__(1, 2**70),
    "edges-missing": lambda doc: doc.__delitem__("edges"),
    "not-an-object": lambda doc: [doc],
    "edges-a-number": lambda doc: doc.__setitem__("edges", 5),
    "edges-flat": lambda doc: doc.__setitem__("edges", [1, 2]),
}


@pytest.mark.parametrize("corrupt", CORRUPTIONS.values(), ids=CORRUPTIONS.keys())
def test_loader_rejects_corrupt_export(corrupt):
    """Each corruption of the k = 3 n = 5 export keeps k and n, and all but
    the vertex and shape ones keep the vertex and edge counts, so only the
    loader's own checks can catch it.  A corruption edits the export in
    place, or returns the document that replaces it."""
    doc = json.loads(build_flip_graph(3, 5).to_json())
    bad = corrupt(doc)
    with pytest.raises(InvalidParameterError):
        flip_graph_from_json_dict(json.loads(json.dumps(doc if bad is None else bad)))


def test_loader_checks_the_cap():
    doc = json.loads(build_flip_graph(3, 2).to_json())
    doc["n"] = 30
    with pytest.raises(EnumerationTooLargeError):
        flip_graph_from_json_dict(doc)


def test_huge_n_is_refused_before_its_count(monkeypatch):
    """C_n >= 2^(n-1): every entry point refuses n = 10^6 without the
    count, which is never computed past n = 100 here."""
    real = kangulation.fuss_catalan

    def small_only(k, n):
        assert n <= 100, f"the count at n = {n} was computed"
        return real(k, n)

    monkeypatch.setattr(kangulation, "fuss_catalan", small_only)
    doc = json.loads(build_flip_graph(3, 2).to_json())
    doc["n"] = 10**6
    calls = [lambda: flip_graph_from_json_dict(doc)] + [
        lambda call=call: call(3, 10**6)
        for call in (build_flip_graph, count_kangulations)]
    for call in calls:
        with pytest.raises(EnumerationTooLargeError, match=r"size >= 2\^999999 exceeds"):
            call()


def test_two_byte_ids_up_to_the_polygon_cap():
    """Up to m = 363 every diagonal id fits in two bytes, and a state
    there round-trips and passes the face walk; m = 364 is refused."""
    g = build_flip_graph(182, 2)  # m = 362: 181 states, 65,159 diagonals
    assert g.rows.dtype == np.dtype(">u2") and g.num_vertices == 181
    assert flip_graph_from_json_dict(json.loads(g.to_json())).rows is g.rows
    for t in diagonal_tuples(g.rows, g.m):
        check_kangulation(182, g.m, t)
    assert build_flip_graph(363, 1).m == 363
    with pytest.raises(EnumerationTooLargeError, match="polygon size 364 exceeds cap 363"):
        build_flip_graph(364, 1)


@pytest.mark.parametrize("size", sorted(GOLDEN["graphs"]))
def test_flip_graph_matches_golden_hashes(size):
    """JSON and DOT exports, byte for byte, against tests/golden/flip_graphs.json."""
    k, n = map(int, size.split(","))
    g = build_flip_graph(k, n)
    want = GOLDEN["graphs"][size]
    assert _sha256(g.to_json()) == want["json_sha256"]
    assert _sha256(g.to_dot()) == want["dot_sha256"]


@pytest.mark.parametrize("size", sorted(GOLDEN["flips"]))
def test_flips_match_golden(size):
    """Every (neighbour, removed, inserted) triple of every state, in order."""
    k, n = map(int, size.split(","))
    m = (k - 2) * n + 2
    got = [
        [[[list(d) for d in nbr], list(r), list(i)] for nbr, r, i in walk_flips(k, m, t)]
        for t in _states(k, n)
    ]
    assert got == GOLDEN["flips"][size]


@pytest.mark.parametrize("k, n_max", [(3, 7), (4, 4), (5, 3), (6, 3)])
def test_adjacency_equals_one_diagonal_difference(k, n_max):
    """Independent oracle, with no face walk: two k-angulations are adjacent
    exactly when their diagonal sets differ in one diagonal each."""
    for n in range(1, n_max + 1):
        g = build_flip_graph(k, n)
        sets = [frozenset(t) for t in diagonal_tuples(g.rows, g.m)]
        oracle = [
            [j for j, y in enumerate(sets) if len(x - y) == 1] for x in sets
        ]
        assert adjacency_lists(g) == oracle, (k, n)


REFERENCE_SIZES = (
    [(3, n) for n in range(1, 11)] + [(4, n) for n in range(1, 6)]
    + [(5, n) for n in range(1, 5)] + [(6, n) for n in range(1, 4)]
    + [(10, 3)]  # 298 diagonals: big-endian two-byte ids
)


@pytest.mark.parametrize("k, n", REFERENCE_SIZES)
def test_build_matches_per_state_reference(k, n):
    """Vertex order and CSR arrays equal the per-state build's."""
    verts, indptr, indices = reference_csr(k, n)
    g = build_flip_graph(k, n)
    assert diagonal_tuples(g.rows, g.m) == list(verts)
    got_indptr, got_indices = g.csr()
    assert got_indptr.tolist() == indptr
    assert got_indices.tolist() == indices


@pytest.mark.parametrize("k, n", REFERENCE_SIZES)
def test_flips_match_per_state_reference(k, n):
    """(neighbour, removed, inserted) of every state, in order, and every
    state's faces from one batched walk: the root face first, then the
    same set of faces as the per-state walk."""
    m = (k - 2) * n + 2
    faces = face_array(_enumerate_rows(k, n), k, m).tolist()
    for t, got_faces in zip(_states(k, n), faces, strict=True):
        assert walk_flips(k, m, t) == reference_flips(k, m, t), t
        want = [face for face, _ in reference_faces(reference_mask(t, m), m)]
        assert got_faces[0] == want[0], t
        assert sorted(got_faces) == sorted(want), t


FACE_WALK_SIZES = (
    [(3, n) for n in range(1, 11)] + [(4, n) for n in range(1, 8)]
    + [(5, n) for n in range(1, 7)]
)


def _check_against_face_walk(k, n):
    g = build_flip_graph(k, n)
    indptr, indices = g.csr()
    assert np.array_equal(indptr, np.arange(g.num_vertices + 1) * (n - 1) * (k - 2))
    assert indices.tobytes() == face_walk_indices(k, n).tobytes()


@pytest.mark.parametrize("k, n", FACE_WALK_SIZES)
def test_class_build_matches_face_walk_build(k, n):
    """The class-wise build's CSR equals the per-state face walk's, where
    every neighbour row is looked up by its byte key."""
    _check_against_face_walk(k, n)


@pytest.mark.slow
@pytest.mark.parametrize("k, n", [(3, 12), (4, 8), (5, 7)])
def test_class_build_matches_face_walk_build_large(k, n):
    _check_against_face_walk(k, n)


@pytest.mark.parametrize("k, n", [(3, 9), (4, 6), (5, 5), (6, 4), (10, 3)])
def test_class_build_without_factor_tables(k, n, monkeypatch):
    """With no factor table, every factor is written through its own
    classes, as the factors above FACTOR_TABLE_STATES are at k = 3 n >= 11."""
    monkeypatch.setattr(kangulation, "FACTOR_TABLE_STATES", 0)
    assert build_flip_graph(k, n).csr()[1].tobytes() == face_walk_indices(k, n).tobytes()


def test_dot_export_mentions_all_vertices():
    g = build_flip_graph(3, 3)
    dot = g.to_dot()
    assert dot.count(" -- ") == g.num_edges()
    assert dot.count("label=") == g.num_vertices


def test_diameter_small_n():
    # the formula 2n - 6 (Pournin 2014) holds from n = 11 on, not below
    got = [diameter(build_flip_graph(3, n)) for n in range(1, 10)]
    assert got == [0, 1, 2, 4, 5, 7, 9, 11, 12]


def test_orbit_eccentricities_give_the_diameter():
    sizes = [(3, n) for n in range(1, 8)] + [(4, 3), (4, 4), (5, 3)]
    for k, n in sizes:
        g = build_flip_graph(k, n)
        assert max(eccentricities(g, list(range(g.num_vertices)))) == diameter(g), (k, n)


ORBIT_SIZES = (
    [(3, n) for n in range(1, 11)] + [(4, n) for n in range(1, 7)]
    + [(5, n) for n in range(1, 6)]
)


@pytest.mark.parametrize("k, n", ORBIT_SIZES)
def test_orbit_representatives_match_reference(k, n):
    """The orbit labels give the per-vertex loop's list, n = 1 included."""
    assert orbit_representatives(build_flip_graph(k, n)) == reference_orbits(k, n)


ORACLE_SIZES = (
    [(3, n) for n in range(1, 12)] + [(4, n) for n in range(1, 8)]
    + [(5, n) for n in range(1, 7)]
)


def _state_set(k, n, rows):
    """The states `rows` as an edgeless FlipGraph: orbit labels read only
    the rows."""
    return FlipGraph(k, n, rows, np.zeros(len(rows) + 1), [])


def _check_against_oracles(k, n):
    rows, want = _enumerate_rows(k, n), endpoint_rows(k, n)
    assert (rows.dtype, rows.shape) == (want.dtype, want.shape)
    assert rows.tobytes() == want.tobytes()
    got = orbit_representatives(_state_set(k, n, rows))
    assert got == orbit_representatives_all_images(want, (k - 2) * n + 2)


@pytest.mark.parametrize("k, n", ORACLE_SIZES)
def test_block_rows_and_two_generator_orbits_match_oracles(k, n):
    """Block-wise rows equal the endpoint-array rows byte for byte, and the
    two-generator orbit labels give the 2m-image labelling's list."""
    _check_against_oracles(k, n)


@pytest.mark.slow
def test_block_rows_and_two_generator_orbits_match_oracles_n12():
    _check_against_oracles(3, 12)


@pytest.mark.slow
def test_state_set_and_orbits_n13():
    g = build_flip_graph(3, 13)
    assert g.num_vertices == catalan(13) == 742_900
    assert len(orbit_representatives(g)) == 24_834


def test_enumerate_rows_traced_peak():
    """k = 3 n = 12 (208,012 rows, 2.3 MB) from a cold cache, sub-polygons
    included: no endpoint array and no int64 copy of the rows."""
    _enumerate_states.cache_clear()
    tracemalloc.start()
    try:
        _enumerate_rows(3, 12)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 20e6


def test_build_traced_peak():
    """k = 3 n = 12 from a cold cache: the 9.2 MB neighbour table, the 2.3 MB
    rows and the transients of the build, with no neighbour table of the
    58,786-state n = 11 factor beside them (19.0 MB traced with one)."""
    _enumerate_states.cache_clear()
    kangulation._factor_table.cache_clear()
    tracemalloc.start()
    try:
        build_flip_graph(3, 12)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16e6


def test_orbits_reject_a_state_set_missing_a_reflected_row():
    """Take out one rotation orbit whose mirror image is another rotation
    orbit: every rotation image stays inside, and only the reflection
    leaves the states.  Taking out one row alone must raise as well."""
    k, n, m = 3, 7, 9
    rows = _enumerate_rows(k, n)
    index = {t: i for i, t in enumerate(_states(k, n))}

    def rotations(diags):
        return {reference_transform(diags, m, r, False) for r in range(m)}

    chiral = next(orbit for orbit in map(rotations, index)
                  if orbit != rotations(reference_transform(min(orbit), m, 0, True)))
    keep = np.ones(len(rows), dtype=bool)
    keep[[index[t] for t in chiral]] = False
    for states in (rows[keep], np.delete(rows, 5, axis=0)):
        with pytest.raises(InvalidParameterError, match="a symmetry image leaves the enumerated states"):
            orbit_representatives(_state_set(k, n, states))


@pytest.mark.parametrize("k, n", ORBIT_SIZES)
def test_eccentricities_match_csgraph(k, n):
    """From every vertex up to n = 7 (1428 starts at k = 4 n = 6) and from
    the orbit starts above it (733 at k = 3 n = 10), so the larger sizes run
    several 64-start passes, the last one partial."""
    g = build_flip_graph(k, n)
    starts = list(range(g.num_vertices)) if n <= 7 else orbit_representatives(g)
    assert eccentricities(g, starts) == reference_eccentricities(g, starts)


def test_eccentricities_reject_disconnected_graph():
    with pytest.raises(InvalidParameterError):
        eccentricities(graph_from_lists([[1], [0], [3], [2]]), [0])


def test_flip_graph_n11_matches_golden_hash():
    assert _sha256(build_flip_graph(3, 11).to_json()) == (
        "215b1a2720120adb2cb92255063a7044fb854d738099f6da529f5efd99e5e71c"
    )


@pytest.mark.slow
def test_flip_graph_n12_matches_golden_hash():
    """Written from the per-state build (tests/reference_flips.py)."""
    assert _sha256(build_flip_graph(3, 12).to_json()) == (
        "0770d6c931a7a92a8c6dc1882b6759b7e6467e4629fd7823d521437c80e4831f"
    )


def test_diameter_bound_n11():
    g = build_flip_graph(3, 11)
    assert diameter(g) == 2 * 11 - 6 == 16


@pytest.mark.slow
def test_diameter_bound_n12():
    g = build_flip_graph(3, 12)
    assert diameter(g) == 2 * 12 - 6 == 18


@pytest.mark.slow
@pytest.mark.parametrize("k, n, want", [(4, 8, 12), (5, 7, 10)])
def test_diameter_k4_k5(k, n, want):
    assert diameter(build_flip_graph(k, n)) == want
