"""Flow primitives and the recursive congestion machinery."""

import hashlib
import json
import os
import re
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from reference_decomposition import central_partition
from reference_flownet import (
    arc_value,
    arc_values,
    cartesian_flow_combine,
    cartesian_per_source,
    expansion_lower_bound,
    net_inflow,
    per_source_flow,
    projection_restriction_combine,
)
from reference_graph import graph_from_lists

from flipwalk import flownet
from flipwalk.combinatorics import catalan
from flipwalk.decomposition import boundary_matchings, oriented_partition
from flipwalk.errors import InvalidParameterError, StructureMismatchError
from flipwalk.flownet import (
    aggregate_flow,
    hierarchical_pairing_flow,
    matching_arc_values,
    pair_flow,
    r_dist,
    uniform_flow_recursive,
    verify_unit_demands,
)
from flipwalk.flows import ArcFlow, congestion_report
from flipwalk.kangulation import build_flip_graph
from flipwalk.spectral import build_chain, cheeger_bounds, shortest_side_cut

GOLDEN = os.path.join(os.path.dirname(__file__), "golden")


def _graph(k, n, _cache={}):
    if (k, n) not in _cache:
        _cache[(k, n)] = build_flip_graph(k, n)
    return _cache[(k, n)]


def _reduced(flow):
    """(den, vals) of flow in lowest terms; flow itself is left as it is."""
    r = ArcFlow(flow.den, arc_values(flow)).reduce()
    return r.den, arc_values(r)


# ---------------------------------------------------------------------------
# ArcFlow primitives


def test_arcflow_combine_and_reverse():
    a = ArcFlow(2, {(0, 1): 3})  # 3/2 on (0,1)
    b = ArcFlow(3, {(1, 0): 2, (0, 1): 1})
    s = ArcFlow.combine([(a, 1), (b, Fraction(1, 2))])
    assert arc_value(s, 0, 1) == Fraction(3, 2) + Fraction(1, 6)
    assert arc_value(s, 1, 0) == Fraction(1, 3)
    r = s.reversed()
    assert arc_value(r, 1, 0) == arc_value(s, 0, 1)


def test_arcflow_of_int32_arcs_keeps_arcs_apart():
    # int32 arrays, as Graph.arcs returns them, must not wrap u << 32 to 0
    src, dst = np.array([0, 1], dtype=np.int32), np.array([1, 0], dtype=np.int32)
    flow = ArcFlow.of(1, src, dst, np.array([3, 5]))
    assert arc_value(flow, 0, 1) == 3 and arc_value(flow, 1, 0) == 5
    assert arc_values(ArcFlow.combine([(flow, 1)])) == {(0, 1): 3, (1, 0): 5}


# small random flows on vertices 0..5; vertex 9 is never touched
ARCS = st.tuples(st.integers(0, 5), st.integers(0, 5)).filter(lambda a: a[0] != a[1])
FLOWS = st.builds(
    ArcFlow, st.integers(1, 12), st.dictionaries(ARCS, st.integers(-20, 20), max_size=8)
)
SCALES = st.fractions(min_value=-5, max_value=5, max_denominator=12)
PROPERTY = settings(derandomize=True, max_examples=60, deadline=None)
# numerators at the int64 guard: sums and scalings of these pass 2**63
NEAR_2_62 = st.one_of(
    st.integers(2**62 - 40, 2**62 + 40),
    st.integers(-(2**62) - 40, -(2**62) + 40),
    st.integers(-20, 20),
)
BIG_FLOWS = st.builds(
    ArcFlow, st.integers(1, 12), st.dictionaries(ARCS, NEAR_2_62, max_size=8)
)


# three int64 numerators under 2**62 whose sum is past 2**63
_THREE_NEAR = [(ArcFlow(1, {(0, 1): 2**62 - 1, (1, 2): 5}), 1)] * 3


def _groups(expected: dict) -> list:
    """A {vertex: value} map as check_net's (vertices, value) groups, one
    group per distinct value."""
    by_value: dict = {}
    for v, x in expected.items():
        by_value.setdefault(x, []).append(v)
    return [(np.array(vs), x) for x, vs in by_value.items()]


@PROPERTY
@given(st.one_of(st.lists(st.tuples(FLOWS, SCALES), max_size=4),
                 st.lists(st.tuples(BIG_FLOWS, SCALES), max_size=4)))
@example(_THREE_NEAR)
@example(_THREE_NEAR + [(ArcFlow(3, {(0, 1): -(2**62) + 7}), Fraction(-2, 5))])
def test_arcflow_combine_is_linear(pieces):
    """combine and check_net against a Python-int reference built from each
    piece's vals view, also for numerators near 2**62."""
    total = ArcFlow.combine(pieces)
    want: dict = {}
    for flow, scale in pieces:
        for arc, w in arc_values(flow).items():
            want[arc] = want.get(arc, 0) + scale * Fraction(w, flow.den)
    for u, v in {(0, 1)}.union(want):
        assert arc_value(total, u, v) == want.get((u, v), 0)
    assert arc_values(total) == {a: x * total.den for a, x in want.items() if x}
    net: dict = {}
    for (u, v), x in want.items():
        net[u] = net.get(u, 0) - x
        net[v] = net.get(v, 0) + x
    total.check_net(_groups(net), "reference")
    with pytest.raises(StructureMismatchError):
        total.check_net(_groups({**net, 9: Fraction(1, total.den)}), "off by one")


@PROPERTY
@given(FLOWS, st.integers(0, 5), SCALES.filter(bool))
def test_check_net_is_exact(flow, v, delta):
    net = net_inflow(flow)
    flow.check_net(_groups(net), "exact")
    flow.check_net(_groups({**net, 9: 0}), "explicit zero")
    with pytest.raises(StructureMismatchError):
        flow.check_net(_groups({**net, v: net.get(v, 0) + delta}), "wrong value")
    with pytest.raises(StructureMismatchError):
        flow.check_net(_groups({**net, 9: delta}), "missing vertex")
    for leak in net:
        with pytest.raises(StructureMismatchError):
            flow.check_net(_groups({u: x for u, x in net.items() if u != leak}), "leak")


def test_congestion_subadditive_over_decomposition():
    a = ArcFlow(1, {(0, 1): 2, (1, 2): 1})
    b = ArcFlow(1, {(1, 0): 1, (1, 2): 3})
    total = ArcFlow.combine([(a, 1), (b, 1)])
    for arcs in [((0, 1),), ((1, 2),)]:
        u, v = arcs[0]
        assert arc_value(total, u, v) == arc_value(a, u, v) + arc_value(b, u, v)
    rt = congestion_report(total, 3)
    ra, rb = congestion_report(a, 3), congestion_report(b, 3)
    assert rt.rho <= ra.rho + rb.rho


# ---------------------------------------------------------------------------
# the recursive uniform flow


def test_uniform_flow_k2_unit_each_way():
    g = _graph(3, 2)
    flow, report = uniform_flow_recursive(g)
    assert arc_value(flow, 0, 1) == 1 and arc_value(flow, 1, 0) == 1
    assert report.rho == 1


def test_uniform_flow_requires_k3():
    with pytest.raises(InvalidParameterError):
        uniform_flow_recursive(_graph(4, 2))


def test_unit_demands_certified_small():
    for n in (2, 3, 4):
        stats = verify_unit_demands(n)
        assert stats["ok"] and stats["sources"] == catalan(n)


def test_unit_demands_certified_n9():
    assert verify_unit_demands(9)["sources"] == 4862


@pytest.mark.slow
def test_unit_demands_certified_n10():
    assert verify_unit_demands(10)["sources"] == 16796


@pytest.mark.parametrize("f", [4, 5])
def test_unit_demands_catch_a_changed_factor_numerator(monkeypatch, f):
    """One numerator of one factor per-source flow, on K_4 (from the table)
    or K_5 (built on demand), raised by one: certification must fail."""
    real = flownet._factor_rows
    changed = []

    def tampered(g, ids, n):
        rows = real(g, ids, n)
        if g == f and not changed and len(rows.num):
            rows.num = rows.num.copy()
            rows.num[0] += 1
            changed.append(g)
        return rows

    monkeypatch.setattr(flownet, "_factor_rows", tampered)
    with pytest.raises(StructureMismatchError, match=r"class \d+ source \d+: shuffle"):
        verify_unit_demands(6)
    assert changed == [f]


def _drop_row(rows, j):
    """rows without row j."""
    keep = np.delete(np.arange(len(rows.num)), j)
    start = rows.start - (rows.start > j)
    return flownet.SourceRows(rows.den, start, rows.src[keep], rows.dst[keep], rows.num[keep])


@pytest.mark.parametrize("change", ["numerator", "dropped row"])
def test_unit_demands_catch_a_changed_block_of_the_shared_pass(monkeypatch, change):
    """At n = 8 the end classes (0, 7) and (7, 0) share each block of K_7
    per-source flows, built on demand.  One numerator raised by one, or
    one row dropped, in the third block: certification must fail."""
    real = flownet._factor_rows
    blocks = []

    def tampered(g, ids, n):
        rows = real(g, ids, n)
        if g == 7:
            blocks.append(len(ids))
            if len(blocks) == 3:
                j = len(rows.num) // 2
                if change == "numerator":
                    rows.num = rows.num.copy()
                    rows.num[j] += 1
                else:
                    rows = _drop_row(rows, j)
        return rows

    monkeypatch.setattr(flownet, "_factor_rows", tampered)
    with pytest.raises(StructureMismatchError, match=r"class [07] source \d+: shuffle"):
        verify_unit_demands(8)
    assert len(blocks) == 3 and blocks[2] > 1


def test_shared_rows_serve_only_their_own_sources():
    """The end classes' shared K_(n-1) rows are handed out only for the
    factor and sources they were built for."""
    ids = np.array([9, 10])
    rows = flownet._factor_rows(4, ids, 5)
    assert flownet._shared_rows(rows, 4, ids, 4, np.array([9, 10])) is rows
    for f, want in [(3, ids), (4, np.array([9, 11])), (4, np.array([9]))]:
        with pytest.raises(InvalidParameterError, match="shared rows"):
            flownet._shared_rows(rows, 4, ids, f, want)


def test_source_table_traced_peak():
    """The K_7 table from a cold cache: 486,592 rows and 11.7 MB of arrays,
    written chunk by chunk in place.  The smaller tables and one chunk's
    transients add about 2 MB (13.7 MB traced); joining per-class parts
    into the table peaked at 24.6 MB."""
    for f in range(2, 8):
        for t in range(f):
            r_dist(f, t)
    flownet._source_table.cache_clear()
    tracemalloc.start()
    try:
        rows, row_of = flownet._source_table(7)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(rows.num) == 486592 and len(row_of) == catalan(7)
    assert sum(a.nbytes for a in (rows.src, rows.dst, rows.num)) == 486592 * 24
    assert peak < 15e6


_GOLDEN_FLOWS = {
    "aggregate_flow": aggregate_flow,
    "r_dist": r_dist,
    "pair_flow": pair_flow,
    "per_source_flow": per_source_flow,
}


@pytest.mark.parametrize("n", range(1, 9))
def test_flows_match_golden(n):
    """Denominator, arcs and arc order of every aggregate, r_dist and pair
    flow (n <= 8) and every per-source flow (n <= 7), against the sha256 of
    (den, list(vals.items())) in tests/golden/flows.json."""
    with open(os.path.join(GOLDEN, "flows.json")) as fh:
        golden = json.load(fh)
    checked = 0
    for name, want in golden.items():
        func, args = re.fullmatch(r"(\w+)\((.*)\)", name).groups()
        args = [int(a) for a in args.split(",")]
        if args[0] != n:
            continue
        flow = _GOLDEN_FLOWS[func](*args)
        got = hashlib.sha256(repr((flow.den, list(arc_values(flow).items()))).encode()).hexdigest()
        assert got == want, name
        checked += 1
    assert checked == 1 + (n >= 2) * n * n + (n <= 7) * catalan(n)


@pytest.mark.parametrize("n", range(2, 9))
def test_flow_bound_below_cheeger_and_cut(n):
    """1/(2 rho) of the recursive flow is a lower bound on the expansion, so
    it sits below the upper end of the Cheeger bracket and, exactly, below
    |dS| / min(|S|, |S^c|) of the shortest-side cut when both sides are
    nonempty."""
    g = _graph(3, n)
    bound = expansion_lower_bound(congestion_report(aggregate_flow(n), g.num_vertices))
    assert float(bound) <= cheeger_bounds(build_chain(g))[1]
    cut = shortest_side_cut(n)
    if n <= 3:
        assert cut.degenerate and cut.side_size == 0
        return
    assert cut.side_size and cut.other_size
    assert bound <= Fraction(cut.boundary_size, min(cut.side_size, cut.other_size))


def test_aggregate_equals_sum_of_sources():
    for n in (2, 3, 4, 5):
        agg = aggregate_flow(n)
        total = ArcFlow.combine((per_source_flow(n, s), 1) for s in range(catalan(n)))
        assert _reduced(agg) == _reduced(total)


def test_pair_flow_nets():
    # construction-time checks re-run here on a fresh pair
    flow = pair_flow(5, 0, 3)
    net = net_inflow(flow)
    st_members = oriented_partition(_graph(3, 5)).classes
    for v in st_members[3].member_indices:
        assert net[v] == 1


def test_r_dist_scaling():
    flow = r_dist(3, 0)
    # sources hold C_3/|C_0| = 5/2; every vertex ends with one unit
    net = net_inflow(flow)
    p = oriented_partition(_graph(3, 3))
    for v in p.classes[0].member_indices:
        assert net[v] == 1 - Fraction(5, 2)


def test_matching_arcs_carry_at_most_cn():
    for n in range(2, 7):
        for v in matching_arc_values(n):
            assert v <= catalan(n)


@pytest.mark.parametrize("n", range(2, 9))
def test_matching_arc_values_cover_both_directions(n):
    """One value per arc of every boundary matching, in both directions: as
    a multiset, the aggregate flow on both arcs of every inter-class edge."""
    part = oriented_partition(_graph(3, n))
    values = matching_arc_values(n)
    assert len(values) == 2 * sum(bm.size for bm in boundary_matchings(part))
    agg = aggregate_flow(n)
    cls = part.vertex_class
    want = [arc_value(agg, a, b) for u, v in _graph(3, n).edges() if cls[u] != cls[v]
            for a, b in ((u, v), (v, u))]
    assert sorted(values) == sorted(want)


def test_congestion_increment_follows_class_count():
    # Lemma-style increment: per-arc congestion grows by at most the class
    # count per level (the directed convention of the flow definition)
    prev = None
    for n in range(2, 10):
        agg = aggregate_flow(n)
        directed = Fraction(int(agg.num.max()), agg.den * catalan(n))
        if prev is not None:
            assert directed <= prev + n
        prev = directed


def test_expansion_lower_bound():
    g = _graph(3, 2)
    _, report = uniform_flow_recursive(g)
    assert expansion_lower_bound(report) == Fraction(1, 2)
    with pytest.raises(InvalidParameterError):
        expansion_lower_bound(congestion_report(ArcFlow(), 2))


# ---------------------------------------------------------------------------
# Cartesian combiner


def test_cartesian_four_cycle():
    g2 = _graph(3, 2)
    f2 = aggregate_flow(2)
    flow, prod = cartesian_flow_combine([f2, f2], [g2, g2])
    assert prod.num_vertices == 4 and prod.num_edges() == 4
    rep = congestion_report(flow, 4)
    assert rep.rho == 1
    # hand-checkable routing: every arc of the 4-cycle carries 2 units
    den, vals = _reduced(flow)
    assert den == 1 and set(vals.values()) == {2}


def test_cartesian_respects_max_factor_congestion():
    g2, g4 = _graph(3, 2), _graph(3, 4)
    f2, f4 = aggregate_flow(2), aggregate_flow(4)
    flow24, prod24 = cartesian_flow_combine([f2, f4], [g2, g4])
    r24 = congestion_report(flow24, prod24.num_vertices)
    bound = max(congestion_report(f2, 2).rho, congestion_report(f4, 14).rho)
    assert r24.rho <= bound
    flow44, prod44 = cartesian_flow_combine([f4, f4], [g4, g4])
    r44 = congestion_report(flow44, prod44.num_vertices)
    assert r44.rho <= congestion_report(f4, 14).rho


def test_cartesian_single_vertex_factor_is_identity():
    g4 = _graph(3, 4)
    f4 = aggregate_flow(4)
    point = graph_from_lists([[]])
    flow, prod = cartesian_flow_combine([f4, ArcFlow()], [g4, point])
    assert prod.num_vertices == 14
    assert _reduced(flow) == _reduced(f4)


def test_cartesian_per_source_demands():
    g2, g4 = _graph(3, 2), _graph(3, 4)
    fns = [lambda s: per_source_flow(2, s), lambda s: per_source_flow(4, s)]
    for x in range(2):
        for y in range(14):
            ps = cartesian_per_source(fns, [g2, g4], (x, y))
            net = net_inflow(ps)
            s = x * 14 + y
            assert net[s] == -(28 - 1)
            assert all(net[v] == 1 for v in range(28) if v != s)


# ---------------------------------------------------------------------------
# projection-restriction combiner


def test_projres_single_class_degenerates():
    g = _graph(3, 3)
    res = projection_restriction_combine(g, [list(range(g.num_vertices))])
    assert res.gamma == 0
    assert res.bound == res.rho_max
    assert res.measured <= res.bound


def test_projres_k4_oriented():
    g = _graph(3, 4)
    p = oriented_partition(g)
    res = projection_restriction_combine(g, [c.member_indices for c in p.classes])
    assert res.satisfied
    assert res.gamma == Fraction(2, 2 * 3)


def _toy_chain(joins):
    cyc = [[1, 3], [0, 2], [1, 3], [0, 2]]
    adj = [list(a) for a in cyc] + [[x + 4 for x in a] for a in cyc]
    for u, v in joins:
        adj[u].append(v)
        adj[v].append(u)
    return graph_from_lists([sorted(a) for a in adj])


_TOY_JOINS = {"toy-1": [(0, 4)], "toy-4": [(0, 4), (1, 5), (2, 6), (3, 7)]}


def test_projres_two_class_toy_chains():
    for joins in _TOY_JOINS.values():
        res = projection_restriction_combine(_toy_chain(joins), [[0, 1, 2, 3], [4, 5, 6, 7]])
        assert res.satisfied


def _projres_case(case):
    if case in _TOY_JOINS:
        return _toy_chain(_TOY_JOINS[case]), [[0, 1, 2, 3], [4, 5, 6, 7]]
    name, n = case.split("-")
    g = _graph(3, int(n))
    part = oriented_partition(g) if name == "oriented" else central_partition(g)
    return g, [c.member_indices for c in part.classes]


_PROJRES_CASES = [f"{p}-{n}" for p in ("oriented", "central") for n in range(3, 8)]
_PROJRES_CASES += list(_TOY_JOINS)


def _flow_sha256(flow, *extra):
    return hashlib.sha256(repr((flow.den, list(arc_values(flow).items()), *extra)).encode()).hexdigest()


@pytest.mark.parametrize("case", _PROJRES_CASES)
def test_projres_matches_golden(case):
    """The combined flow (denominator and values in dict order, or at n = 7
    the sha256 of (den, list(vals.items()))) and every reported quantity,
    against tests/golden/projection_restriction.json."""
    with open(os.path.join(GOLDEN, "projection_restriction.json")) as fh:
        want = json.load(fh)[case]
    res = projection_restriction_combine(*_projres_case(case))
    if "sha256" in want:
        assert _flow_sha256(res.flow) == want["sha256"]
    else:
        assert res.flow.den == want["den"]
        assert [[u, v, w] for (u, v), w in arc_values(res.flow).items()] == want["vals"]
    for key in ("measured", "bound", "rho_max", "rho_bar", "gamma"):
        assert str(getattr(res, key)) == want[key], key
    assert list(res.argmax_arc) == want["argmax_arc"]


def test_projres_rejects_non_partition():
    g = _graph(3, 3)
    with pytest.raises(InvalidParameterError):
        projection_restriction_combine(g, [[0, 1], [1, 2, 3, 4]])


def test_projres_rejects_edgeless_graph():
    with pytest.raises(InvalidParameterError):
        projection_restriction_combine(build_flip_graph(3, 1), [[0]])


def test_projres_rejects_disconnected_class():
    # 0 and 4 are not neighbours on the 5-cycle K_3
    g = _graph(3, 3)
    assert (0, 4) not in set(g.edges())
    with pytest.raises(InvalidParameterError, match="disconnected subgraph"):
        projection_restriction_combine(g, [[0, 4], [1, 2, 3]])


def test_projres_rejects_empty_class():
    with pytest.raises(InvalidParameterError):
        projection_restriction_combine(_graph(3, 4), [[], list(range(14))])


def test_projres_rejects_disconnected_quotient():
    # two 4-cycles with no edge between them
    with pytest.raises(InvalidParameterError, match="quotient graph is disconnected"):
        projection_restriction_combine(_toy_chain([]), [[0, 1, 2, 3], [4, 5, 6, 7]])


# ---------------------------------------------------------------------------
# hierarchical pairing


def test_pairing_n2_one_exchange():
    details = hierarchical_pairing_flow(2)
    # one unit each way across the one matching edge: 1 / (|M| C_2) = 1/2
    assert details["levels"][0]["argmax_pair"] == (1, 2)
    assert details["max_pair_congestion"] == Fraction(1, 2)
    assert len(details["levels"]) == 1
    assert details["total_matching_congestion"] == Fraction(1, 2)
    assert details["demands_certified"]


def test_pairing_n8_levels_and_exact_totals():
    details = hierarchical_pairing_flow(8)
    assert len(details["levels"]) == 3
    assert all(lv["congestion"] > 0 for lv in details["levels"])
    # frozen exact per-level maxima of the dyadic construction
    assert [lv["congestion"] for lv in details["levels"]] == [
        Fraction(15, 11),
        Fraction(3, 2),
        Fraction(39, 40),
    ]


def test_pairing_sqrt_scaling_against_prediction():
    t4 = hierarchical_pairing_flow(4)["total_matching_congestion"]
    t16 = hierarchical_pairing_flow(16)["total_matching_congestion"]
    assert t4 == Fraction(45, 28)
    ratio = t16 / t4
    # measured: t4 = 45/28 and t16 / t4 = 68031671/12192300, about 5.58,
    # so the total grows about x2.36 per doubling of n, not the x1.41 of
    # sqrt(n) scaling
    assert Fraction(12, 10) <= ratio / 2 <= Fraction(28, 10)


@pytest.mark.parametrize("n", [*range(2, 20), 32, 64])
def test_pairing_matches_golden(n):
    """The sha256 of the pairing result's repr (levels, totals and maximum
    in key order), against tests/golden/pairing.json."""
    with open(os.path.join(GOLDEN, "pairing.json")) as fh:
        want = json.load(fh)[str(n)]
    assert hashlib.sha256(repr(hierarchical_pairing_flow(n)).encode()).hexdigest() == want


@pytest.mark.parametrize("n", [0, 1])
def test_pairing_needs_two_classes(n):
    with pytest.raises(InvalidParameterError, match="at least two classes"):
        hierarchical_pairing_flow(n)


def test_flows_are_nonnegative():
    for n in (2, 3, 4, 5):
        assert all(w >= 0 for w in arc_values(aggregate_flow(n)).values())
        for s in range(catalan(n)):
            assert all(w >= 0 for w in arc_values(per_source_flow(n, s)).values())
