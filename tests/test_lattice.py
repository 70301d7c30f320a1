"""Lattice triangulation flip graphs and the block product subgraph."""

import hashlib
import json
import os
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from reference_graph import adjacency_lists
from reference_lattice import enumerate_graph as reference_graph
from reference_lattice import flip_moves as reference_moves
from reference_lattice import gather_flips
from reference_lattice import grid as reference_grid
from reference_spectral import brute_force_expansion

from flipwalk import lattice
from flipwalk.errors import EnumerationTooLargeError, InvalidParameterError, StructureMismatchError
from flipwalk.lattice import (
    _WORD,
    LATTICE_COUNTS,
    _flip_planes,
    _flipped,
    _flips,
    _grid,
    _pack,
    _planes,
    _sums_to,
    _unpack,
    _cross,
    _segments_cross,
    block_partial_triangulation,
    canonical_lattice_triangulation,
    count_triangulations_recursive,
    enumerate_lattice,
    product_subgraph,
)

GOLDEN = os.path.join(os.path.dirname(__file__), "golden")


def _vertices(g) -> list:
    """The sorted edge tuple of every vertex of a lattice flip graph."""
    return _grid(g.n).edge_lists(g.keys)


def _validate(n, edges) -> None:
    """The batched full-triangulation check, on one state."""
    grid = _grid(n)
    grid.check(grid.row(edges)[None])


def _state_flips(n, edges) -> list:
    """Every flip of one state by the plane kernel, as (neighbour edges,
    removed edge, inserted edge), in the order of the removed edge."""
    grid = _grid(n)
    keys = _pack(grid.row(edges)[None])
    ((_, state, removed, inserted),) = _flips(keys, grid)
    nbrs = _flipped(keys[state], removed, inserted)
    return [(nbr, grid.segs[i], grid.segs[j])
            for nbr, i, j in zip(grid.edge_lists(nbrs), removed.tolist(), inserted.tolist())]


def _triangles(edges) -> set:
    """The area-1/2 triangles whose three edges are all present, each as
    its sorted points; in a full triangulation these are the faces."""
    nbrs = {}
    for p, q in edges:
        nbrs.setdefault(p, set()).add(q)
        nbrs.setdefault(q, set()).add(p)
    return {tuple(sorted((p, q, w))) for p, q in edges
            for w in nbrs[p] & nbrs[q] if abs(_cross(p, q, w)) == 1}


def test_single_cell_two_triangulations():
    g = enumerate_lattice(2)
    assert g.num_vertices == 2
    assert g.num_edges() == 1
    for v in _vertices(g):
        _validate(2, v)


def test_degenerate_1x1():
    g = enumerate_lattice(1)
    assert g.num_vertices == 1 and g.num_edges() == 0


def test_single_cell_flip_swaps_diagonal():
    out = _state_flips(2, canonical_lattice_triangulation(2))
    assert len(out) == 1
    nbr, removed, inserted = out[0]
    assert removed == ((0, 1), (1, 0))
    assert inserted == ((0, 0), (1, 1))


def test_triangle_count_identity():
    for n in (2, 3):
        for v in _vertices(enumerate_lattice(n)):
            assert len(_triangles(v)) == 2 * (n - 1) ** 2


def test_bfs_and_recursive_oracles_agree_on_g3():
    g = enumerate_lattice(3)
    assert g.num_vertices == count_triangulations_recursive(3) == 64
    assert count_triangulations_recursive(2) == 2
    assert count_triangulations_recursive(1) == 1


def test_flip_symmetry_and_connectivity_n3():
    g = enumerate_lattice(3)
    assert g.is_connected()
    adj = adjacency_lists(g)
    for i, nbrs in enumerate(adj):
        for j in nbrs:
            assert i in adj[j]


def test_canonical_n3_flip_count():
    # all 8 interior edges of the canonical staircase happen to be flippable
    assert len(_state_flips(3, canonical_lattice_triangulation(3))) == 8


def test_nonconvex_quad_yields_no_flip():
    # flipping cell (0,0) to its NE diagonal makes the apexes of the unit
    # edge ((1,0),(1,1)) collinear with it: that edge then has no flip
    t = canonical_lattice_triangulation(3)
    t2 = next(f[0] for f in _state_flips(3, t) if f[1] == ((0, 1), (1, 0)))
    removable = {r for _, r, _ in _state_flips(3, t2)}
    assert ((1, 0), (1, 1)) not in removable
    assert len(_state_flips(3, t2)) == 6


def test_enumeration_cap():
    with pytest.raises(EnumerationTooLargeError):
        enumerate_lattice(5)


def test_validate_rejects_missing_hull_edge():
    t = canonical_lattice_triangulation(2)
    broken = tuple(e for e in t if e != ((0, 0), (1, 0)))
    with pytest.raises(InvalidParameterError):
        _validate(2, broken)


def test_validate_names_a_crossing_pair():
    t = canonical_lattice_triangulation(3)
    edges = [e for e in t if e != ((1, 1), (2, 0))] + [((0, 0), (1, 1))]
    with pytest.raises(InvalidParameterError, match=re.escape(
            "edges ((0, 0), (1, 1)) and ((0, 1), (1, 0)) cross")):
        _validate(3, tuple(sorted(edges)))


def test_product_subgraph_is_hypercube():
    h = product_subgraph(4, 2)
    assert h.num_vertices == 16
    adj = adjacency_lists(h)
    assert all(len(a) == 4 for a in adj)
    assert h.num_edges() == 32
    # explicit isomorphism: adjacency is exactly Hamming distance one
    for i in range(16):
        for j in adj[i]:
            assert int((h.coords[i] != h.coords[j]).sum()) == 1
    assert h.is_connected()
    for v in _vertices(h):
        _validate(4, v)


def test_product_subgraph_expansion_bound():
    h = product_subgraph(4, 2)
    h_block = brute_force_expansion(enumerate_lattice(2)).ratio
    assert brute_force_expansion(h).ratio >= h_block / 2


def test_product_subgraph_block_n_is_whole_graph():
    w = product_subgraph(2, 2)
    assert w.num_vertices == enumerate_lattice(2).num_vertices


def test_product_subgraph_requires_divisibility():
    with pytest.raises(InvalidParameterError):
        product_subgraph(4, 3)


def test_partial_triangulation_forces_only_crossing_structure():
    forced = block_partial_triangulation(4, 2)
    # the four free cells' diagonals are not forced
    for cell in ((0, 0), (0, 2), (2, 0), (2, 2)):
        x, y = cell
        assert ((x, y + 1), (x + 1, y)) not in forced
        assert ((x, y), (x + 1, y + 1)) not in forced


def test_json_and_dot_exports():
    g = enumerate_lattice(2)
    doc = g.to_json_dict()
    assert doc["n"] == 2 and len(doc["vertices"]) == 2
    dot = g.to_dot()
    assert dot.count(" -- ") == 1


_GOLDEN_BUILDS = {
    "enumerate_lattice(1)": lambda: enumerate_lattice(1),
    "enumerate_lattice(2)": lambda: enumerate_lattice(2),
    "enumerate_lattice(3)": lambda: enumerate_lattice(3),
    "product_subgraph(2, 1)": lambda: product_subgraph(2, 1),
    "product_subgraph(2, 2)": lambda: product_subgraph(2, 2),
    "product_subgraph(4, 2)": lambda: product_subgraph(4, 2),
}


@pytest.mark.parametrize("case", sorted(_GOLDEN_BUILDS))
def test_lattice_graph_matches_golden(case):
    """JSON, DOT and coordinates, byte for byte, against
    tests/golden/lattice_graphs.json."""
    with open(os.path.join(GOLDEN, "lattice_graphs.json")) as fh:
        want = json.load(fh)[case]
    g = _GOLDEN_BUILDS[case]()
    assert g.to_json() == want["json"]
    assert g.to_dot() == want["dot"]
    coords = None if g.coords is None else g.coords.tolist()
    assert coords == want["coords"]


def test_enumerate_lattice_4_matches_golden_hash():
    doc = enumerate_lattice(4).to_json().encode()
    assert hashlib.sha256(doc).hexdigest() == (
        "8ea2a0b5aa47be67ce94e8186f849aea07094bdc18852b803a95774a7fc53ed3"
    )


def test_parallelogram_rule_matches_segment_crossing():
    """For an interior edge pq with apexes w1 (left) and w2 (right), the
    quadrilateral p w1 q w2 is strictly convex iff w1 + w2 == p + q."""
    checked = 0
    for t in _vertices(enumerate_lattice(3)):
        nbrs = {}
        for p, q in t:
            nbrs.setdefault(p, set()).add(q)
            nbrs.setdefault(q, set()).add(p)
        flipped = {removed for _, removed, _ in _state_flips(3, t)}
        for p, q in t:
            apexes = [w for w in nbrs[p] & nbrs[q] if abs(_cross(p, q, w)) == 1]
            if len(apexes) < 2:
                continue  # hull edge
            (w1,) = [w for w in apexes if _cross(p, q, w) > 0]
            (w2,) = [w for w in apexes if _cross(p, q, w) < 0]
            rule = (w1[0] + w2[0], w1[1] + w2[1]) == (p[0] + q[0], p[1] + q[1])
            assert rule == _segments_cross(p, q, w1, w2)
            assert rule == ((p, q) in flipped)
            checked += 1
    assert checked == 64 * 8


@pytest.mark.parametrize("n", range(2, 7))
def test_crossing_table_matches_segment_crossing(n):
    grid = _grid(n)
    want = [[_segments_cross(*a, *b) for b in grid.segs] for a in grid.segs]
    assert grid.crossing.tolist() == want


@pytest.mark.parametrize("n", [1, 2, 3])
def test_flips_match_golden(n):
    """Every (neighbour, removed, inserted) triple of every state, in order,
    against tests/golden/lattice_flips.json."""
    with open(os.path.join(GOLDEN, "lattice_flips.json")) as fh:
        want = json.load(fh)[str(n)]
    states = [tuple(tuple(map(tuple, e)) for e in s) for s in want["states"]]
    assert _vertices(enumerate_lattice(n)) == states
    index = {s: i for i, s in enumerate(states)}
    for s, flips in zip(states, want["flips"]):
        got = [
            [index[nbr], list(map(list, r)), list(map(list, ins))]
            for nbr, r, ins in _state_flips(n, s)
        ]
        assert got == flips


@pytest.mark.parametrize("n", [1, 2, 3])
def test_flips_are_single_edge_exchanges(n):
    """With no flip rule: two triangulations are adjacent iff their edge sets
    differ by exactly one edge, and flipping the inserted edge back restores
    the state.  The state count is pinned by the recursive oracle."""
    vertices = _vertices(enumerate_lattice(n))
    assert len(vertices) == count_triangulations_recursive(n)
    edge_sets = [set(v) for v in vertices]
    for t, es in zip(vertices, edge_sets):
        exchanges = {o for o, os in zip(vertices, edge_sets) if len(es - os) == 1}
        flips = _state_flips(n, t)
        assert {nbr for nbr, _, _ in flips} == exchanges
        for nbr, removed, inserted in flips:
            assert set(nbr) == es - {removed} | {inserted}
            (back,) = [(b, r) for b, rem, r in _state_flips(n, nbr) if rem == inserted]
            assert back == (t, removed)


_CANONICAL_3 = canonical_lattice_triangulation(3)


@pytest.mark.parametrize(
    "edges, bad",
    [
        (tuple((q, p) for p, q in _CANONICAL_3), (_CANONICAL_3[0][1], _CANONICAL_3[0][0])),
        (_CANONICAL_3[:-1] + (_CANONICAL_3[0],), _CANONICAL_3[0]),
        (_CANONICAL_3[:-1] + (((0, 0), (5, 5)),), ((0, 0), (5, 5))),
        (_CANONICAL_3[:-1] + (((0, 0), (2, 2)),), ((0, 0), (2, 2))),
    ],
    ids=["reversed", "repeated", "off-grid", "not-primitive"],
)
def test_edges_outside_the_grid_table_are_rejected(edges, bad):
    for check in (_state_flips, _validate):
        with pytest.raises(InvalidParameterError, match=re.escape(str(bad))):
            check(3, edges)


@settings(derandomize=True, max_examples=20, deadline=None)
@given(st.integers(min_value=1, max_value=200), st.randoms(use_true_random=False))
def test_random_flip_walk_stays_valid_and_symmetric(steps, rnd):
    """A flip walk from the canonical n = 4 state passes the batched check,
    and each step's new state lists the old one among its flips."""
    t = canonical_lattice_triangulation(4)
    flips = _state_flips(4, t)
    for _ in range(steps):
        nxt = rnd.choice(flips)[0]
        _validate(4, nxt)
        flips = _state_flips(4, nxt)
        assert t in [nbr for nbr, _, _ in flips]
        t = nxt


def _kernel_flips(keys, grid) -> list:
    """(state, removed, inserted) of every flip, from the plane kernel run
    FLIP_CHUNK states at a time."""
    return [(lo + s, i, j) for lo, state, removed, inserted in _flips(keys, grid)
            for s, i, j in zip(state.tolist(), removed.tolist(), inserted.tolist())]


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_batched_flips_match_reference(n):
    """The plane kernel against the per-state routine in
    tests/reference_lattice.py: the same vertices in the same order, the
    same adjacency, and every state's (removed, inserted) flips in order."""
    g = enumerate_lattice(n)
    vertices, adj = reference_graph(n, canonical_lattice_triangulation(n))
    grid, ref = _grid(n), reference_grid(n)
    assert grid.segs == ref.segs
    assert g.num_vertices == len(vertices) == LATTICE_COUNTS[n]
    assert grid.edge_lists(g.keys) == vertices
    assert adjacency_lists(g) == adj
    want = [(s, i, j) for s, edges in enumerate(vertices)
            for _, i, j in reference_moves(ref.mask(edges), ref)]
    assert _kernel_flips(g.keys, grid) == want


def test_kernel_matches_gather_routine_on_product_states():
    """The plane kernel against the earlier gather routine (kept in
    tests/reference_lattice.py) on every product_subgraph(6, 2) state."""
    keys = product_subgraph(6, 2).keys
    grid = _grid(6)
    state, removed, inserted = gather_flips(_unpack(keys, grid.size), grid)
    want = list(zip(state.tolist(), removed.tolist(), inserted.tolist()))
    assert _kernel_flips(keys, grid) == want


@pytest.mark.parametrize("row, edge", [(0, 0), (5, 3), (70, 10), (70, 40), (99, 73)])
def test_corrupted_row_names_the_same_edge(row, edge):
    """A row with one interior edge removed, among 100 good n = 4 rows (two
    plane words): the kernel raises on the same edge as the gather routine."""
    grid = _grid(4)
    rows = _unpack(enumerate_lattice(4).keys[:100], grid.size)
    present = np.intersect1d(np.flatnonzero(rows[row]), grid.interior)
    rows[row, present[edge % len(present)]] = False
    with pytest.raises(ValueError) as old:
        gather_flips(rows, grid)
    with pytest.raises(StructureMismatchError) as new:
        _flip_planes(_planes(rows), len(rows), grid)
    assert str(new.value) == str(old.value)


def test_product_subgraph_rejects_a_kept_flip_that_leaves(monkeypatch):
    """With a block frame edge left out of the forced set, its flips are no
    longer dropped, and one of them leaves the product subgraph: the check
    that every kept flip lands inside must raise."""
    forced = block_partial_triangulation(4, 2)
    frame = ((1, 0), (1, 1))
    assert frame in forced
    monkeypatch.setattr(lattice, "block_partial_triangulation", lambda n, b: forced - {frame})
    with pytest.raises(StructureMismatchError, match="left the product subgraph"):
        product_subgraph(4, 2)


def test_zobrist_table_is_pinned():
    """The n = 4 grid's 86 key words, one per segment, by sha256: the
    lattice goldens hold only while this table stays the same."""
    z = _grid(4).zobrist
    assert z.dtype == np.uint64 and z.size == 86
    assert hashlib.sha256(z.astype("<u8").tobytes()).hexdigest() == (
        "d07529e37a380df44300adc4d09b8c16bdc1ef3bb30da7d0c8e64bc6b4defc86")


@pytest.mark.parametrize("n", [2, 3, 4])
def test_key_collision_raises(n, monkeypatch):
    """With the removed and inserted edges of the canonical state's first
    flip sharing one key word, that flip's key equals its parent's: the
    exact arc check must raise rather than return a merged graph."""
    grid = _grid(n)
    ((nbr, removed, inserted), *_) = _state_flips(n, canonical_lattice_triangulation(n))
    z = grid.zobrist.copy()
    z[grid.ids[inserted]] = z[grid.ids[removed]]
    monkeypatch.setattr(grid, "zobrist", z)
    with pytest.raises(StructureMismatchError, match="resolved to a different state"):
        enumerate_lattice(n)


def test_product_subgraph_key_collision_raises(monkeypatch):
    """With the two diagonals of the first block's cell sharing one key
    word, product states that differ only there share a key: the exact
    row check of each kept flip must raise."""
    grid = _grid(4)
    z = grid.zobrist.copy()
    z[grid.ids[((0, 0), (1, 1))]] = z[grid.ids[((0, 1), (1, 0))]]
    monkeypatch.setattr(grid, "zobrist", z)
    with pytest.raises(StructureMismatchError, match="resolved to a different state"):
        product_subgraph(4, 2)


def test_enumerate_lattice_traced_peak():
    """46,456 states and 431,064 arcs at n = 4, the grid table built
    beforehand: the per-level lists are joined one at a time, and the
    discovery-order and sorted states never coexist."""
    _grid(4)
    tracemalloc.start()
    try:
        enumerate_lattice(4)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 9.5e6


@pytest.mark.parametrize("count", [0, 1, 2, 3, 7, 64, 100])
def test_sums_to_counts_set_planes(count):
    """The bit-sliced plane sum against numpy's per-state count, for every
    total from 0 to one past the number of planes."""
    rng = np.random.default_rng(count)
    planes = rng.integers(0, 1 << 63, size=(count, 3), dtype=np.uint64).astype(_WORD)
    planes[: count // 3] = ~np.zeros(3, dtype=_WORD)  # some counts reach the top
    per_state = np.unpackbits(planes.view(np.uint8), axis=1, bitorder="little").sum(axis=0)
    for total in range(count + 2):
        got = np.unpackbits(_sums_to(planes, total).view(np.uint8), bitorder="little")
        assert (got == (per_state == total)).all()


def _swap(edges, out, into):
    return tuple(sorted([e for e in edges if e != out] + ([into] if into else [])))


_C3 = canonical_lattice_triangulation(3)
_DEFECTS = {  # a row per check, each passing every earlier check
    "count": (_swap(_C3, ((0, 1), (1, 0)), None), "expected 16 edges, got 15"),
    "hull": (_swap(_C3, ((0, 0), (1, 0)), ((0, 0), (1, 1))), "missing hull edge ((0, 0), (1, 0))"),
    "crossing": (_swap(_C3, ((1, 1), (2, 0)), ((0, 0), (1, 1))),
                 "edges ((0, 0), (1, 1)) and ((0, 1), (1, 0)) cross"),
    "faces": (_C3, "face count is not 2(n-1)^2"),
}


@pytest.mark.parametrize("first", sorted(_DEFECTS))
def test_batched_check_names_the_first_bad_row(first, monkeypatch):
    """A 69-row chunk of n = 3 rows holding one row of each defect kind
    raises the per-row message of its first bad row.

    A row that passes the edge count, hull and crossing tests is a full
    triangulation, so the face count is reached by blinding the leg table
    for the triangle (0,0) (1,0) (0,1); the good rows avoid that triangle,
    and the "faces" row (the canonical state) holds it."""
    grid = _grid(3)
    good = [grid.row(v) for v in _vertices(enumerate_lattice(3))
            if ((0, 1), (1, 0)) not in v]
    legs = grid.legs.copy()
    cut = grid.ids[((0, 1), (1, 0))]
    ((side, slot),) = np.argwhere((grid.apex[cut] == 0) & (grid.legs[cut, ..., 0] < grid.size))
    legs[cut, side, slot, 0] = grid.size
    monkeypatch.setattr(grid, "legs", legs)
    kinds = [first] + [k for k in sorted(_DEFECTS) if k != first]
    rows = good[:20] + [grid.row(_DEFECTS[k][0]) for k in kinds] + good * 2
    rows = np.array(rows[:69])
    grid.check(np.array(good * 3))
    for k in kinds:
        with pytest.raises(InvalidParameterError, match=re.escape(_DEFECTS[k][1])):
            grid.check(grid.row(_DEFECTS[k][0])[None])
    with pytest.raises(InvalidParameterError, match=re.escape(_DEFECTS[first][1])):
        grid.check(rows)


def _block_coords(n, edges, block, sub_states):
    """The coordinate of a product-subgraph vertex, read off its edges: per
    block, the index of the block triangulation it restricts to."""
    coord = []
    for ox in range(0, n, block):
        for oy in range(0, n, block):
            inside = tuple(
                ((ax - ox, ay - oy), (bx - ox, by - oy)) for (ax, ay), (bx, by) in edges
                if all(ox <= x < ox + block and oy <= y < oy + block
                       for x, y in ((ax, ay), (bx, by))))
            coord.append(sub_states.index(inside))
    return tuple(coord)


@pytest.mark.parametrize(
    "build, block",
    [(lambda: enumerate_lattice(3), None), (lambda: product_subgraph(4, 2), 2)],
    ids=["enumerate_lattice(3)", "product_subgraph(4, 2)"],
)
def test_json_round_trip(build, block):
    """Parsing to_json() back gives valid triangulations, the same vertices
    and edge list, and (read off the edges) the same block coordinates."""
    g = build()
    doc = json.loads(g.to_json())
    vertices = [tuple(tuple(map(tuple, e)) for e in v) for v in doc["vertices"]]
    for v in vertices:
        _validate(doc["n"], v)
    assert vertices == _vertices(g)
    assert [tuple(e) for e in doc["edges"]] == list(g.edges())
    if block is None:
        assert g.coords is None
    else:
        sub_states = _vertices(enumerate_lattice(block))
        want = [_block_coords(g.n, v, block, sub_states) for v in vertices]
        assert want == list(map(tuple, g.coords.tolist()))
