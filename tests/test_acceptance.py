"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines as they complete.
"""

import math
import time
from fractions import Fraction

import numpy as np
from reference_flownet import (
    cartesian_flow_combine,
    cartesian_per_source,
    expansion_lower_bound,
    net_inflow,
    per_source_flow,
    projection_restriction_combine,
)
from reference_graph import adjacency_lists, graph_from_lists
from reference_spectral import brute_force_expansion

from flipwalk.cli import main as cli_main
from flipwalk.combinatorics import catalan, fuss_catalan
from flipwalk.decomposition import (
    boundary_matchings,
    oriented_partition,
    verify_matching_inequality,
)
from flipwalk.flownet import (
    aggregate_flow,
    hierarchical_pairing_flow,
    matching_arc_values,
    verify_unit_demands,
)
from flipwalk.flows import congestion_report
from flipwalk.kangulation import build_flip_graph, count_kangulations
from flipwalk.lattice import (
    count_triangulations_recursive,
    enumerate_lattice,
    product_subgraph,
)
from flipwalk.spectral import (
    build_chain,
    cheeger_bounds,
    mixing_time,
    shortest_side_cut,
    tvd_curve,
)

_GRAPHS = {}


def _graph(k, n):
    if (k, n) not in _GRAPHS:
        _GRAPHS[(k, n)] = build_flip_graph(k, n)
    return _GRAPHS[(k, n)]


def _report(num: int, desc: str, ok: bool):
    print(f"ACCEPTANCE {num:>2}: {'PASS' if ok else 'FAIL'} - {desc}")
    assert ok, f"criterion {num}: {desc}"


def test_criterion_01_counting_exactness():
    t0 = time.time()
    ok = all(
        count_kangulations(3, n) == catalan(n) for n in range(1, 13)
    )
    assert catalan(12) == 208012
    ok &= all(
        count_kangulations(4, n) == fuss_catalan(4, n) for n in range(1, 6)
    )
    ok &= all(
        count_kangulations(5, n) == fuss_catalan(5, n) for n in range(1, 5)
    )
    elapsed = time.time() - t0
    ok &= elapsed < 300
    _report(1, f"vertex counts match Catalan/Fuss-Catalan ({elapsed:.1f}s)", ok)


def test_criterion_02_structure_exactness():
    ok = True
    for n in range(2, 10):
        part = oriented_partition(_graph(3, n))
        for c in part.classes:
            apex = c.defining_polygon[1]
            ok &= c.size == catalan(apex - 1) * catalan(n - apex)
        for bm in boundary_matchings(part):
            a = part.classes[bm.class_a].defining_polygon[1]
            b = part.classes[bm.class_b].defining_polygon[1]
            ok &= bm.size == catalan(a - 1) * catalan(b - a - 1) * catalan(n - b)
        report = verify_matching_inequality(part)
        ok &= report["ok"] and report["min_slack_ratio"] <= 1
    _report(2, "class sizes, matching sizes, and the matching bound, n=2..9", ok)


def test_criterion_03_flow_certification():
    ok = True
    for n in range(2, 10):
        t0 = time.time()
        stats = verify_unit_demands(n)
        ok &= stats["ok"] and stats["sources"] == catalan(n)
        worst = max(matching_arc_values(n))
        ok &= worst <= catalan(n)
        if n == 9:
            ok &= (time.time() - t0) < 600
    _report(3, "unit demands certified and matching arcs carry <= C_n, n=2..9", ok)


def test_criterion_04_combiner_bound():
    ok = True
    for n in (4, 5):
        g = _graph(3, n)
        classes = [c.member_indices for c in oriented_partition(g).classes]
        res = projection_restriction_combine(g, classes)
        ok &= res.measured <= res.bound
    cyc = [[1, 3], [0, 2], [1, 3], [0, 2]]

    def toy(joins):
        adj = [list(a) for a in cyc] + [[x + 4 for x in a] for a in cyc]
        for u, v in joins:
            adj[u].append(v)
            adj[v].append(u)
        return graph_from_lists([sorted(a) for a in adj])

    for joins in ([(0, 4)], [(0, 4), (1, 5), (2, 6), (3, 7)]):
        res = projection_restriction_combine(toy(joins), [[0, 1, 2, 3], [4, 5, 6, 7]])
        ok &= res.measured <= res.bound
    _report(4, "projection-restriction congestion <= (1+2*rho*gamma*Delta)*rho_max", ok)


def test_criterion_05_cartesian_combiner():
    ok = True
    cases = [((3, 2), (3, 2)), ((3, 2), (3, 4)), ((3, 4), (3, 4))]
    for (k1, n1), (k2, n2) in cases:
        g1, g2 = _graph(k1, n1), _graph(k2, n2)
        f1, f2 = aggregate_flow(n1), aggregate_flow(n2)
        flow, prod = cartesian_flow_combine([f1, f2], [g1, g2])
        rho = congestion_report(flow, prod.num_vertices).rho
        bound = max(
            congestion_report(f1, g1.num_vertices).rho,
            congestion_report(f2, g2.num_vertices).rho,
        )
        ok &= rho <= bound
        # uniformity: every source nets -(|V|-1), every sink +1, exactly
        fns = [
            lambda s, n=n1: per_source_flow(n, s),
            lambda s, n=n2: per_source_flow(n, s),
        ]
        nv = prod.num_vertices
        for x in range(g1.num_vertices):
            for y in range(g2.num_vertices):
                ps = cartesian_per_source(fns, [g1, g2], (x, y))
                net = net_inflow(ps)
                s = x * g2.num_vertices + y
                ok &= net[s] == -(nv - 1)
                ok &= all(net[v] == 1 for v in range(nv) if v != s)
    _report(5, "product flows: congestion <= max factor, demands exact", ok)


def test_criterion_06_mixing_sandwich():
    ok = True
    taus = {}
    for k, ns in ((3, range(2, 10)), (4, range(2, 5))):
        for n in ns:
            g = _graph(k, n)
            chain = build_chain(g)
            tau, mode = mixing_time(chain)
            lam = chain.spectral_gap()
            lo = (1 / lam - 1) * math.log(2)
            hi = (1 / lam) * math.log(4 * g.num_vertices)
            ok &= lo <= tau <= hi
            ok &= mode.startswith("exact")
            if k == 3:
                taus[n] = tau
            curve = tvd_curve(chain, 0, min(tau + 5, 200))
            ok &= all(b <= a + 1e-12 for a, b in zip(curve, curve[1:]))
    xs = np.log([n for n in range(4, 10)])
    ys = np.log([taus[n] for n in range(4, 10)])
    slope = float(np.polyfit(xs, ys, 1)[0])
    ok &= 1.5 <= slope <= 4.5
    _report(
        6,
        "gap-mixing sandwich holds; exponent fitted over exact mixing times "
        f"n=4..9: {slope:.2f} in [1.5,4.5]",
        ok,
    )


def test_criterion_07_expansion_bracket():
    ok = True
    for n in (2, 3, 4):
        g = _graph(3, n)
        h = brute_force_expansion(g).ratio
        lo, hi = cheeger_bounds(build_chain(g))
        ok &= lo <= float(h) <= hi
        flow_bound = expansion_lower_bound(
            congestion_report(aggregate_flow(n), g.num_vertices)
        )
        ok &= flow_bound <= h
    _report(7, "brute-force expansion inside Cheeger bracket, above flow bound", ok)


def test_criterion_08_sparse_cut_trend():
    r8 = shortest_side_cut(8).ratio
    r16 = shortest_side_cut(16).ratio
    r32 = shortest_side_cut(32).ratio
    ok = r8 > r16 > r32
    ok &= Fraction(35, 100) <= r32 / r8 <= Fraction(75, 100)
    _report(8, f"cut ratio decreasing; ratio(32)/ratio(8) = {float(r32/r8):.4f}", ok)


def test_criterion_09_hierarchical_pairing():
    t4 = hierarchical_pairing_flow(4)["total_matching_congestion"]
    t16 = hierarchical_pairing_flow(16)["total_matching_congestion"]
    ratio = t16 / t4
    rel = ratio / 2  # measured growth relative to the sqrt(16/4) prediction
    ok = Fraction(12, 10) <= rel <= Fraction(28, 10)
    _report(
        9,
        f"pairing congestion ratio {float(ratio):.3f} vs sqrt-n prediction 2.0 "
        f"(relative {float(rel):.3f} in [1.2, 2.8])",
        ok,
    )


def test_criterion_10_lattice():
    ok = enumerate_lattice(2).num_vertices == 2
    g3 = enumerate_lattice(3)
    ok &= g3.num_vertices == count_triangulations_recursive(3)
    h = product_subgraph(4, 2)
    h_adj = adjacency_lists(h)
    ok &= h.num_vertices == 16 and all(len(a) == 4 for a in h_adj)
    for i in range(16):
        for j in h_adj[i]:
            ok &= int((h.coords[i] != h.coords[j]).sum()) == 1
    block_h = brute_force_expansion(enumerate_lattice(2)).ratio
    ok &= brute_force_expansion(h).ratio >= block_h / 2
    _report(10, "lattice counts agree; block subgraph is the 4-cube", ok)


def test_criterion_11_determinism(tmp_path):
    runs = []
    for tag in ("r1", "r2"):
        out = tmp_path / tag
        assert cli_main(["--command", "analyze", "--n-range", "2..3",
                         "--out", str(out)]) == 0
        assert cli_main(["--command", "sample", "--n", "4", "--seed", "99",
                         "--steps", "5000", "--thin", "10", "--out", str(out)]) == 0
        runs.append(
            (out / "analyze_summary.json").read_bytes()
            + (out / "sample_summary.json").read_bytes()
        )
    ok = runs[0] == runs[1]
    _report(11, "config+seed reruns are byte-identical", ok)
