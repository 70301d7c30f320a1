"""Enumeration, flips, and flip-graph invariants for polygon k-angulations."""

import hashlib
import json
import os

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from reference_flips import _faces as reference_faces
from reference_flips import _mask as reference_mask
from reference_flips import build_csr as reference_csr
from reference_flips import flips as reference_flips

from flipwalk.combinatorics import catalan, fuss_catalan
from flipwalk.errors import EnumerationTooLargeError, InvalidParameterError
from flipwalk.graph import Graph
from flipwalk.kangulation import (
    KAngulation,
    _face_array,
    _enumerate_rows,
    build_flip_graph,
    diameter,
    diagonals_cross,
    eccentricities,
    enumerate_kangulations,
    faces_of,
    flip_graph_from_json_dict,
    flips,
)

with open(os.path.join(os.path.dirname(__file__), "golden", "flip_graphs.json")) as fh:
    GOLDEN = json.load(fh)


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def test_crossing_predicate():
    assert diagonals_cross((0, 2), (1, 3))
    assert not diagonals_cross((0, 2), (2, 4))
    assert not diagonals_cross((0, 2), (0, 3))


def test_enumerate_square():
    ts = enumerate_kangulations(3, 2)
    assert [t.diagonals for t in ts] == [((0, 2),), ((1, 3),)]


def test_enumerate_counts_match_catalan():
    for n in range(1, 9):
        assert len(enumerate_kangulations(3, n)) == catalan(n)


def test_enumerate_counts_match_fuss_catalan():
    for k, n in [(4, 1), (4, 2), (4, 3), (4, 4), (5, 1), (5, 2), (5, 3)]:
        ts = enumerate_kangulations(k, n)
        assert len(ts) == fuss_catalan(k, n)
        assert sorted(set(t.diagonals for t in ts)) == [t.diagonals for t in ts]


def test_enumeration_cap():
    with pytest.raises(EnumerationTooLargeError):
        enumerate_kangulations(3, 30, cap=1000)


def test_validate_rejects_crossing_and_wrong_count():
    with pytest.raises(InvalidParameterError):
        KAngulation(3, 6, ((0, 2), (1, 3), (3, 5))).validate()
    with pytest.raises(InvalidParameterError):
        KAngulation(3, 6, ((0, 2),)).validate()
    for t in enumerate_kangulations(4, 3):
        t.validate()


@st.composite
def diagonal_sets(draw):
    """(k, m, sorted tuple of n-1 distinct diagonals of the m-gon), m <= 9:
    a k-angulation with up to three of its diagonals swapped for others."""
    k = draw(st.sampled_from([3, 4]))
    n = draw(st.integers(1, 7 if k == 3 else 3))
    m = (k - 2) * n + 2
    diags = [(a, b) for a in range(m) for b in range(a + 2, m) if (a, b) != (0, m - 1)]
    chosen = list(draw(st.sampled_from(enumerate_kangulations(k, n))).diagonals)
    for _ in range(draw(st.integers(0, 3)) if n >= 2 else 0):
        chosen.pop(draw(st.integers(0, len(chosen) - 1)))
        chosen.append(draw(st.sampled_from([d for d in diags if d not in chosen])))
    return k, m, tuple(sorted(chosen))


@settings(derandomize=True, max_examples=400, deadline=None)
@given(diagonal_sets())
def test_validate_accepts_exactly_the_kangulations(case):
    k, m, diags = case
    t = KAngulation(k, m, diags)
    if diags in {v.diagonals for v in enumerate_kangulations(k, t.n)}:
        t.validate()
    else:
        with pytest.raises(InvalidParameterError):
            t.validate()


def test_faces_partition_polygon():
    for t in enumerate_kangulations(3, 5):
        fs = faces_of(t)
        assert len(fs) == 5
        assert all(len(f) == 3 for f in fs)
    for t in enumerate_kangulations(5, 3):
        fs = faces_of(t)
        assert len(fs) == 3
        assert all(len(f) == 5 for f in fs)


def test_flip_square_has_single_neighbor():
    t = KAngulation(3, 4, ((0, 2),))
    out = flips(t)
    assert len(out) == 1
    nbr, removed, inserted = out[0]
    assert removed == (0, 2) and inserted == (1, 3)
    assert nbr.diagonals == ((1, 3),)


def test_flip_counts():
    # every triangulation of the heptagon has n - 1 = 4 flips
    for t in enumerate_kangulations(3, 5):
        assert len(flips(t)) == 4
    # k=4, n=3: 2 diagonals x 2 replacements
    for t in enumerate_kangulations(4, 3):
        assert len(flips(t)) == 4


def test_flip_involution():
    for t in enumerate_kangulations(4, 3):
        for nbr, removed, inserted in flips(t):
            back = [b for b, r, i in flips(nbr) if b.diagonals == t.diagonals]
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
        flips(KAngulation(3, m, diagonals))


def test_flip_graph_small():
    g = build_flip_graph(3, 2)
    assert g.num_vertices == 2 and g.num_edges() == 1

    g5 = build_flip_graph(3, 5)
    assert g5.num_vertices == 42
    assert all(len(a) == 4 for a in g5.adj)
    assert g5.is_connected()

    g43 = build_flip_graph(4, 3)
    assert g43.num_vertices == fuss_catalan(4, 3) == 12
    assert all(len(a) == 4 for a in g43.adj)
    assert g43.is_connected()


def test_flip_graph_undirected_and_labeled():
    g = build_flip_graph(4, 2)
    for i, nbrs in enumerate(g.adj):
        labels = {t.diagonals: (r, s) for t, r, s in flips(g.vertices[i])}
        for j in nbrs:
            assert i in g.adj[j]
            removed, inserted = labels[g.vertices[j].diagonals]
            assert removed in g.vertices[i].diagonals
            assert inserted in g.vertices[j].diagonals


def test_vertex_counts_larger():
    for k, n in [(3, 9), (3, 10), (4, 5), (5, 4)]:
        g = build_flip_graph(k, n)
        assert g.num_vertices == fuss_catalan(k, n)
        assert all(len(a) == (n - 1) * (k - 2) for a in g.adj)
        assert g.is_connected()


def test_json_round_trip():
    g = build_flip_graph(3, 4)
    doc = json.loads(g.to_json())
    g2 = flip_graph_from_json_dict(doc)
    assert g2.adj == g.adj
    assert [v.diagonals for v in g2.vertices] == [v.diagonals for v in g.vertices]
    assert g2.to_json() == g.to_json()


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
    "vertex-missing": lambda doc: doc["vertices"].pop(),
    "crossing-vertex": lambda doc: doc["vertices"][0].__setitem__(0, [1, 3]),
    "huge-vertex-end": lambda doc: doc["vertices"][0][0].__setitem__(1, 2**70),
}


@pytest.mark.parametrize("corrupt", CORRUPTIONS.values(), ids=CORRUPTIONS.keys())
def test_loader_rejects_corrupt_export(corrupt):
    """Each corruption of the k = 3 n = 5 export keeps k and n, and all but
    the vertex ones keep the vertex and edge counts, so only the loader's
    own checks can catch it."""
    doc = json.loads(build_flip_graph(3, 5).to_json())
    corrupt(doc)
    with pytest.raises(InvalidParameterError):
        flip_graph_from_json_dict(json.loads(json.dumps(doc)))


def test_loader_checks_the_cap():
    doc = json.loads(build_flip_graph(3, 2).to_json())
    doc["n"] = 30
    with pytest.raises(EnumerationTooLargeError):
        flip_graph_from_json_dict(doc)


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
    got = [
        [[[list(d) for d in nbr.diagonals], list(r), list(i)] for nbr, r, i in flips(t)]
        for t in enumerate_kangulations(k, n)
    ]
    assert got == GOLDEN["flips"][size]


@pytest.mark.parametrize("k, n_max", [(3, 7), (4, 4), (5, 3), (6, 3)])
def test_adjacency_equals_one_diagonal_difference(k, n_max):
    """Independent oracle, with no face walk: two k-angulations are adjacent
    exactly when their diagonal sets differ in one diagonal each."""
    for n in range(1, n_max + 1):
        g = build_flip_graph(k, n)
        sets = [frozenset(v.diagonals) for v in g.vertices]
        oracle = [
            [j for j, y in enumerate(sets) if len(x - y) == 1] for x in sets
        ]
        assert g.adj == oracle, (k, n)


REFERENCE_SIZES = (
    [(3, n) for n in range(1, 11)] + [(4, n) for n in range(1, 6)]
    + [(5, n) for n in range(1, 5)] + [(6, n) for n in range(1, 4)]
)


@pytest.mark.parametrize("k, n", REFERENCE_SIZES)
def test_build_matches_per_state_reference(k, n):
    """Vertex order and CSR arrays equal the per-state build's."""
    verts, indptr, indices = reference_csr(k, n)
    g = build_flip_graph(k, n)
    assert [v.diagonals for v in g.vertices] == list(verts)
    got_indptr, got_indices = g.csr()
    assert got_indptr.tolist() == indptr
    assert got_indices.tolist() == indices


@pytest.mark.parametrize("k, n", REFERENCE_SIZES)
def test_flips_match_per_state_reference(k, n):
    """(neighbour, removed, inserted) of every state, in order, and every
    state's faces from one batched walk: the root face first, then the
    same set of faces as the per-state walk."""
    m = (k - 2) * n + 2
    faces = _face_array(_enumerate_rows(k, n), k, m).tolist()
    for t, got_faces in zip(enumerate_kangulations(k, n), faces, strict=True):
        got = [(nbr.diagonals, r, i) for nbr, r, i in flips(t)]
        assert got == reference_flips(k, m, t.diagonals), t.diagonals
        want = [face for face, _ in reference_faces(reference_mask(t.diagonals, m), m)]
        assert got_faces[0] == want[0], t.diagonals
        assert sorted(got_faces) == sorted(want), t.diagonals


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


def test_eccentricities_reject_disconnected_graph():
    with pytest.raises(InvalidParameterError):
        eccentricities(Graph([[1], [0], [3], [2]]), [0])


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


@pytest.mark.slow
def test_diameter_bound_n11():
    g = build_flip_graph(3, 11)
    assert diameter(g) == 2 * 11 - 6 == 16


@pytest.mark.slow
def test_diameter_bound_n12():
    g = build_flip_graph(3, 12)
    assert diameter(g) == 2 * 12 - 6 == 18
