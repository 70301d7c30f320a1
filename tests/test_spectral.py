"""Chain analysis: matrices, TVD, mixing, gaps, expansion, cuts, sampling."""

import itertools
import math
import re
import tracemalloc
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest
from reference_graph import adjacency_lists, graph_from_lists
from reference_spectral import (
    InvalidDistributionError,
    brute_force_expansion,
    eigsh_gap,
    sample_walk_per_step,
    scipy_operator,
    step_starts_indexed,
    transition_matrix,
    tvd,
)

from flipwalk import spectral
from flipwalk.combinatorics import catalan
from flipwalk.decomposition import _central_faces
from flipwalk.errors import InvalidParameterError, NumericFailureError
from flipwalk.graph import Graph
from flipwalk.kangulation import build_flip_graph, orbit_representatives
from flipwalk.lattice import enumerate_lattice
from flipwalk.spectral import (
    build_chain,
    cheeger_bounds,
    chi_square_survival,
    mixing_time,
    sample_walk,
    shortest_side_cut,
    tvd_curve,
)


def _graph(k, n, _cache={}):
    if (k, n) not in _cache:
        _cache[(k, n)] = build_flip_graph(k, n)
    return _cache[(k, n)]


def test_k2_transition_matrix():
    chain = build_chain(_graph(3, 2))
    assert np.allclose(transition_matrix(chain), [[0.5, 0.5], [0.5, 0.5]])


def test_k5_row_mass():
    chain = build_chain(_graph(3, 5))
    p = transition_matrix(chain)
    assert p.shape == (42, 42)
    off_mass = p.sum(axis=1) - np.diag(p)
    assert np.allclose(off_mass, 0.5)


def test_doubly_stochastic():
    p = transition_matrix(build_chain(_graph(3, 4)))
    assert np.allclose(p.sum(axis=0), 1.0)
    assert np.allclose(p.sum(axis=1), 1.0)
    # k = 4, n = 3: 2(n-1)(k-2) = 8, so each row is four moves of exactly
    # 1/8 and a stay of 1/2, and sums to 1 exactly
    p = transition_matrix(build_chain(_graph(4, 3)))
    off = p - np.diag(np.diag(p))
    assert ((off == 0) | (off == 0.125)).all()
    assert ((off == 0.125).sum(axis=1) == 4).all()
    assert (p.sum(axis=1) == 1.0).all()


def test_tvd_basic():
    assert tvd([0.5, 0.5], [0.5, 0.5]) == 0
    assert tvd([1.0, 0.0], [0.5, 0.5]) == 0.5
    assert tvd([1.0, 0.0, 0.0], [0.0, 0.0, 1.0]) == 1.0
    with pytest.raises(InvalidDistributionError):
        tvd([0.7, 0.7], [0.5, 0.5])
    with pytest.raises(InvalidDistributionError):
        tvd([1.0], [0.5, 0.5])


def test_mixing_time_k2():
    chain = build_chain(_graph(3, 2))
    assert mixing_time(chain) == (1, "exact-orbit-starts")
    assert mixing_time(chain, eps=1.0) == (0, "exact-orbit-starts")


def test_mixing_time_matches_stepwise_oracle():
    for k, n in [(3, 3), (3, 4), (4, 3)]:
        g = _graph(k, n)
        chain = build_chain(g)
        tau, _ = mixing_time(chain)
        p = transition_matrix(chain)
        m = np.eye(g.num_vertices)
        t = 0
        while 0.5 * np.abs(m - 1.0 / g.num_vertices).sum(axis=1).max() >= 0.25:
            m = m @ p
            t += 1
        assert tau == t, (k, n)


def test_mixing_upper_bound_by_gap():
    chain = build_chain(_graph(3, 4))
    tau, _ = mixing_time(chain)
    lam = chain.spectral_gap()
    assert tau <= (1 / lam) * math.log(14 / 0.25)


def test_spectral_gap_k2_and_cycle():
    assert abs(build_chain(_graph(3, 2)).spectral_gap() - 1.0) < 1e-12
    cyc = graph_from_lists([[1, 3], [0, 2], [1, 3], [0, 2]])
    assert abs(build_chain(cyc).spectral_gap() - 0.5) < 1e-12
    assert build_chain(_graph(3, 5)).spectral_gap() > 0


ORACLE_SIZES = [(3, n) for n in range(2, 11)] + [(4, n) for n in range(2, 7)] + [
    (5, n) for n in range(2, 6)] + [
    pytest.param(k, n, marks=pytest.mark.slow) for k, n in [(3, 11), (3, 12), (4, 8), (5, 7)]]


@pytest.mark.parametrize("k, n", ORACLE_SIZES)
def test_gap_matches_arpack_oracle(k, n):
    """The deflated Lanczos gap against ARPACK's (`reference_spectral`), and
    against dense `eigvalsh` up to 1,430 states, to a relative 1e-13; its
    eigenvector is one of P's."""
    chain = build_chain(_graph(k, n))
    gap = chain.spectral_gap()
    assert abs(gap - eigsh_gap(chain)) <= 1e-13 * gap, (k, n)
    if chain.num_states <= 1430:
        dense = 1.0 - np.linalg.eigvalsh(transition_matrix(chain))[-2]
        assert abs(gap - dense) <= 1e-13 * gap, (k, n)
    vec = chain.second_eigenvector()
    assert abs(np.sqrt((vec * vec).sum()) - 1) < 1e-14
    pv = chain.operator() @ vec
    assert np.abs(pv - (1.0 - gap) * vec).max() < 1e-12, (k, n)


_SMALL_GRAPHS = {
    "lattice3": lambda: enumerate_lattice(3),
    # degree-zero vertices: empty CSR rows, the diagonal alone
    "deg0-last": lambda: graph_from_lists([[1], [0], []]),
    "deg0-first": lambda: graph_from_lists([[], [2], [1]]),
    "cycle4": lambda: graph_from_lists([[1, 3], [0, 2], [1, 3], [0, 2]]),
}


@pytest.mark.parametrize("graph", [
    *((3, n) for n in range(2, 11)), *((4, n) for n in range(2, 8)),
    *((5, n) for n in range(2, 7)), *_SMALL_GRAPHS, pytest.param((3, 12), marks=pytest.mark.slow),
], ids=lambda g: g if isinstance(g, str) else "k{}n{}".format(*g))
def test_operator_equals_scipys(graph):
    """P's indptr, indices and data are scipy's `(moves + diags).tocsr()`
    entry for entry, on the flip graphs listed, the irregular 3 x 3 lattice
    flip graph, graphs with a degree-zero vertex and the 4-cycle, and
    `p @ x` is scipy's product bit for bit, for a float64 vector and for
    float32 and float64 blocks; an x of another length is refused before
    the kernel reads it."""
    chain = build_chain(_SMALL_GRAPHS[graph]() if isinstance(graph, str) else _graph(*graph))
    p, want = chain.operator(), scipy_operator(chain)
    for name in ("indptr", "indices", "data"):
        got, ref = getattr(p, name), getattr(want, name)
        assert got.dtype == ref.dtype and np.array_equal(got, ref), (graph, name)
    rng = np.random.default_rng(3)
    vec, block = rng.random(chain.num_states), rng.random((chain.num_states, 5))
    for dtype, x in [(np.float64, vec), (np.float32, block.astype(np.float32)), (np.float64, block)]:
        got, ref = p.astype(dtype) @ x, want.astype(dtype) @ x
        assert got.dtype == ref.dtype == dtype and np.array_equal(got, ref), (graph, x.shape, dtype)
    for bad in (vec[:-1], block[:-1], block[..., None]):
        with pytest.raises(ValueError, match="cannot multiply"):
            p @ bad


def test_missing_sparsetools_names_the_directory(monkeypatch, tmp_path):
    """Without scipy's compiled _sparsetools file the loader raises
    ImportError naming the directory it searched; there is no fallback."""
    scipy = SimpleNamespace(submodule_search_locations=[str(tmp_path)])
    monkeypatch.setattr(spectral.importlib.util, "find_spec", lambda name: scipy)
    with pytest.raises(ImportError, match=re.escape(str(tmp_path / "sparse"))):
        spectral._sparsetools.__wrapped__()


def test_lanczos_is_rerun_identically():
    """Reruns give the same gap and vector bit for bit: the start vector is
    fixed, and the Ritz vector replays the first pass."""
    a, b = (build_chain(build_flip_graph(3, 8))._second_eigenpair() for _ in range(2))
    assert a[0] == b[0] and (a[1] == b[1]).all()


def test_lanczos_step_cap(monkeypatch):
    monkeypatch.setattr(spectral, "LANCZOS_MAX_STEPS", 8)
    with pytest.raises(NumericFailureError, match="Lanczos residual"):
        build_chain(_graph(3, 9)).spectral_gap()


@pytest.mark.parametrize("n", range(5, 10))
def test_gap_is_the_rayleigh_quotient(n):
    """The reported gap is 1 minus the Rayleigh quotient of the reported
    eigenvector, within 3e-14 (relative) of the same quotient in long
    double.  Lanczos' Ritz value is up to 9.4e-14 off at n = 7."""
    chain = build_chain(_graph(3, n))
    vec = chain.second_eigenvector().astype(np.longdouble)
    indptr, indices = chain.graph.csr()
    off = np.longdouble(1) / (2 * chain.delta)
    step = (1 - off * np.diff(indptr)) * vec + off * np.add.reduceat(vec[indices], indptr[:-1])
    exact = 1 - (vec @ step) / (vec @ vec)
    assert abs(chain.spectral_gap() - exact) / exact < 3e-14


def test_orbit_start_mixing_matches_all_starts():
    """A flip graph's orbit starts give the tau of stepping every start."""
    sizes = [(3, n) for n in range(2, 9)] + [(4, n) for n in range(2, 7)] + [
        (5, n) for n in range(2, 6)]
    for kn in sizes:
        chain = build_chain(_graph(*kn))
        for eps in (0.25, 0.05):
            tau, mode = mixing_time(chain, eps)
            assert mode == "exact-orbit-starts", (kn, eps)
            all_starts = list(range(chain.num_states))
            assert tau == spectral._mixing_block(chain, all_starts, eps), (kn, eps)


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_tvd_to_uniform_is_the_same_alone_or_in_a_block(dtype):
    """A column's TVD, bit for bit, as a vector, as a one-column block and
    inside a wide block, where a column-wise sum of a C-ordered block would
    add in another order than a vector's pairwise sum.  Each also equals
    the plain one-temporary form exactly, also over several TVD_BAND
    bands of rows."""
    rng = np.random.default_rng(5)
    for shape in [(1430, 37)] * 20 + [(2 * spectral.TVD_BAND + 37, 5)] * 3:
        x = rng.random(shape).astype(dtype)
        x /= x.sum(axis=0)
        wide = spectral._tvd_to_uniform(x)
        for j in range(x.shape[1]):
            col = np.ascontiguousarray(x[:, j])
            alone = spectral._tvd_to_uniform(col)
            assert alone == spectral._tvd_to_uniform(col[:, None])[0] == wide[j]
            assert alone == 0.5 * np.abs(col - dtype(1 / col.size)).sum(dtype=np.float64)


def _float64_mixing_block(chain, starts, eps):
    """The mixing loop stepped in float64 only: the oracle for the float32
    path with its float64 re-step."""
    n = chain.num_states
    p = chain.operator()
    gap = chain.spectral_gap()
    limit = 2 * math.log(n / eps) / gap + 10 if gap > 1e-12 else 0
    tau = spectral._mixing_floor(gap, eps)
    for lo in range(0, len(starts), spectral.MIXING_CHUNK):
        cols = starts[lo:lo + spectral.MIXING_CHUNK]
        x = np.zeros((n, len(cols)))
        x[cols, np.arange(len(cols))] = 1.0
        t = 0
        while True:
            if t >= tau:
                live = 0.5 * np.abs(x - 1.0 / n).sum(axis=0) >= eps
                if not live.any():
                    break
                if not live.all():
                    x = np.ascontiguousarray(x[:, live])
            if t >= limit:
                raise NumericFailureError(f"no convergence in {t} steps")
            x = p @ x
            t += 1
        tau = t
    return tau


# the plain copies step every start up to this many states; above it (k = 3
# n = 9, 4862 states, about 5 s a stepping) they step the orbit starts
ALL_STARTS_CAP = 2000


def _mixing_both_ways(sizes, eps):
    """Every size's (tau, mode) from the orbit starts of its flip graph, and
    its tau from every start of a plain Graph copy (`_mixing_block`), or
    from its orbit starts above ALL_STARTS_CAP states."""
    out = {}
    for kn in sizes:
        out[kn, "orbit"] = mixing_time(build_chain(_graph(*kn)), eps)
        chain = build_chain(Graph(*_graph(*kn).csr()))
        n = chain.num_states
        starts = range(n) if n <= ALL_STARTS_CAP else orbit_representatives(_graph(*kn))
        out[kn, "all"] = spectral._mixing_block(chain, starts, eps)
    return out


def _orbit_starts_are_exact(taus, sizes) -> bool:
    return all(taus[kn, "orbit"] == (taus[kn, "all"], "exact-orbit-starts") for kn in sizes)


@pytest.mark.parametrize("eps", [0.25, 0.05])
def test_mixing_floor_changes_no_mixing_time(monkeypatch, eps):
    """TVD checks start at the Levin-Peres-Wilmer floor; every tau equals
    the one checked from step 0, from the orbit starts and from all starts,
    and the orbit starts' tau is the all-starts tau."""
    sizes = [(3, n) for n in range(2, 10)] + [(4, n) for n in range(2, 6)]
    skipped = _mixing_both_ways(sizes, eps)
    assert spectral._mixing_floor(build_chain(_graph(3, 9)).spectral_gap(), 0.25) == 27
    monkeypatch.setattr(spectral, "_mixing_floor", lambda gap, eps: 0)
    unskipped = _mixing_both_ways(sizes, eps)
    assert skipped == unskipped
    assert _orbit_starts_are_exact(skipped, sizes)


@pytest.mark.parametrize("eps", [0.25, 0.05])
def test_float32_mixing_matches_float64_oracle(monkeypatch, eps):
    """Stepping in float32 with the float64 re-step of undecided starts
    gives the tau of the float64-only loop, from the orbit starts and from
    all starts, and the two agree."""
    sizes = [(3, n) for n in range(2, 10)] + [(4, n) for n in range(2, 7)] + [
        (5, n) for n in range(2, 6)]
    fast = _mixing_both_ways(sizes, eps)
    monkeypatch.setattr(spectral, "_mixing_block", _float64_mixing_block)
    assert fast == _mixing_both_ways(sizes, eps)
    assert _orbit_starts_are_exact(fast, sizes)


@pytest.mark.parametrize("n", range(2, 9))
def test_tvd_bound_covers_float32_stepping(n):
    """|T32 - T64| <= delta_t at every step up to tau(0.05) from every orbit
    start, and delta_t is small at tau, so the band it leaves is narrow."""
    chain = build_chain(_graph(3, n))
    p = chain.operator()
    w = int(np.diff(p.indptr).max())
    starts = spectral.orbit_representatives(chain.graph)
    x = np.zeros((chain.num_states, len(starts)))
    x[starts, np.arange(len(starts))] = 1.0
    x32 = x.astype(np.float32)
    p32 = p.astype(np.float32)
    tau, _ = mixing_time(chain, 0.05)
    for t in range(tau + 1):
        gap = np.abs(spectral._tvd_to_uniform(x32) - spectral._tvd_to_uniform(x))
        assert gap.max() <= spectral._tvd_bound(w, chain.num_states, t), t
        x, x32 = p @ x, p32 @ x32
    assert x32.dtype == np.float32
    assert spectral._tvd_bound(w, chain.num_states, tau) < 1e-4


def test_unbounded_delta_resteps_every_start(monkeypatch):
    """With delta = inf no float32 TVD decides a start, so every start goes
    through the float64 re-step, and every tau stays the same."""
    sizes = [(3, n) for n in range(2, 9)] + [(4, n) for n in range(2, 6)]
    want = _mixing_both_ways(sizes, 0.25)
    stepped = {"float32": 0, "float64": 0}
    step_starts = spectral._step_starts

    def counted(p, starts, first, eps, limit, delta):
        stepped[p.dtype.name] += len(starts)
        return step_starts(p, starts, first, eps, limit, delta)

    monkeypatch.setattr(spectral, "_step_starts", counted)
    monkeypatch.setattr(spectral, "_tvd_bound", lambda w, n, t: math.inf)
    assert _mixing_both_ways(sizes, 0.25) == want
    assert stepped["float64"] == stepped["float32"] > 0


def test_four_cycle_exact_tie(monkeypatch):
    """The lazy walk on a 4-cycle reaches TVD exactly 1/4 at step 1, so at
    eps = 1/4 float32 cannot decide it, and the float64 re-step decides it
    by value as the float64 loop does: tau = 2."""
    cyc = graph_from_lists([[1, 3], [0, 2], [1, 3], [0, 2]])
    chain = build_chain(cyc)
    assert tvd_curve(chain, 0, 2) == [0.75, 0.25, 0.125]
    restepped = []
    step_starts = spectral._step_starts

    def counted(p, starts, first, eps, limit, delta):
        if p.dtype == np.float64:
            restepped.append((list(starts), first))
        return step_starts(p, starts, first, eps, limit, delta)

    monkeypatch.setattr(spectral, "_step_starts", counted)
    assert spectral._mixing_block(chain, range(4), 0.25) == 2
    assert restepped == [([0, 1, 2, 3], 1)]
    assert _float64_mixing_block(build_chain(cyc), [0, 1, 2, 3], 0.25) == 2


@pytest.mark.parametrize("graph", ["cycle", (3, 8)])
def test_column_drop_by_compress_matches_indexed_drop(graph):
    """Mixed columns dropped by one C-ordered `compress` give the step,
    undecided starts and first undecided step of the boolean-index form,
    in float32 with the rounding bound and with a wider band that leaves
    starts undecided, and in float64: on the 4-cycle, whose TVD is exactly
    1/4 at step 1, and on every orbit-start chunk at k = 3 n = 8."""
    g = graph_from_lists([[1, 3], [0, 2], [1, 3], [0, 2]]) if graph == "cycle" else _graph(*graph)
    chain = build_chain(g)
    n, p = chain.num_states, chain.operator()
    p32, w = p.astype(np.float32), int(np.diff(p.indptr).max())
    starts = list(range(n)) if graph == "cycle" else orbit_representatives(g)
    bands = [lambda t: spectral._tvd_bound(w, n, t), lambda t: 1e-3, lambda t: 0.0]
    undecided = 0
    for lo in range(0, len(starts), spectral.MIXING_CHUNK):
        cols = starts[lo:lo + spectral.MIXING_CHUNK]
        for q, delta in zip((p32, p32, p), bands):
            got = spectral._step_starts(q, cols, 0, 0.25, 10**6, delta)
            assert got == step_starts_indexed(q, cols, 0, 0.25, 10**6, delta)
            undecided += len(got[1])
    assert undecided


def test_mixing_loop_holds_two_blocks():
    """The mixing loop holds at most two N x MIXING_CHUNK float32 blocks at
    once: the stepped block and the product or the TVD temporary.  Mixed
    columns are dropped by one C-ordered copy; a boolean column index made
    an F-ordered copy that was then copied again, about 3.1 blocks."""
    chain = build_chain(_graph(3, 9))
    chain.spectral_gap()
    tracemalloc.start()
    try:
        assert mixing_time(chain, 0.25) == (55, "exact-orbit-starts")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2.5 * chain.num_states * spectral.MIXING_CHUNK * 4


def test_orbit_start_mixing_n9():
    chain = build_chain(_graph(3, 9))
    assert mixing_time(chain) == (55, "exact-orbit-starts")


@pytest.mark.parametrize("k, n, want", [
    (4, 5, 18), (4, 6, 29), (4, 7, 42), (5, 5, 21), (5, 6, 33),
    *(pytest.param(*case, marks=pytest.mark.slow)
      for case in [(4, 8, 59), (5, 7, 49), (3, 10, 72), (3, 11, 90)]),
])
def test_kangulation_mixing_trend(k, n, want):
    """tau from orbit starts, inside the Levin-Peres-Wilmer sandwich
    (t_rel - 1) log(1/(2 eps)) <= tau <= t_rel log(N/eps), t_rel = 1/gap."""
    eps = 0.25
    chain = build_chain(build_flip_graph(k, n))
    tau, mode = mixing_time(chain, eps)
    assert (tau, mode) == (want, "exact-orbit-starts")
    t_rel = 1 / chain.spectral_gap()
    assert (t_rel - 1) * math.log(1 / (2 * eps)) <= tau <= t_rel * math.log(chain.num_states / eps)


# 1/gap at k = 4, n = 3..8 and k = 5, n = 3..7, to five significant digits
RELAXATION_TIMES = {
    4: [4.0000, 8.2932, 14.3023, 22.0866, 31.6867, 43.1316],
    5: [4.6116, 9.5713, 16.4548, 25.3099, 36.1684],
}


@pytest.mark.parametrize("k, n, want", [
    (k, n, t) for k, times in RELAXATION_TIMES.items() for n, t in enumerate(times, 3)])
def test_kangulation_relaxation_time(k, n, want):
    """The relaxation time 1/gap of the k >= 4 chains, pinned to 1e-4."""
    gap = build_chain(build_flip_graph(k, n)).spectral_gap()
    assert 1 / gap == pytest.approx(want, rel=1e-4)


@pytest.mark.slow
@pytest.mark.parametrize("k, n, want", [(4, 9, 56.443420995149), (5, 8, 49.052767774738)])
def test_relaxation_time_at_the_first_unpinned_sizes(k, n, want):
    """1/gap at k = 4 n = 9 (246,675 states) and k = 5 n = 8 (420,732), the
    first sizes past the oracle checks, against ARPACK's from the same
    splitmix64 start vector and against the pinned value, to 1e-9."""
    chain = build_chain(build_flip_graph(k, n))
    t_rel = 1 / chain.spectral_gap()
    assert t_rel == pytest.approx(1 / eigsh_gap(chain), rel=1e-9)
    assert t_rel == pytest.approx(want, rel=1e-9)


@pytest.mark.parametrize("graph", ["copy", "lattice3"])
def test_mixing_time_refuses_a_graph_that_is_not_a_flip_graph(graph):
    """Only a flip graph has the dihedral orbit starts that make tau exact:
    a plain Graph copy of the hexagon's flip graph and the n = 3 lattice
    flip graph are refused before any step (`_mixing_block` takes explicit
    starts)."""
    g = Graph(*_graph(3, 4).csr()) if graph == "copy" else enumerate_lattice(3)
    with pytest.raises(InvalidParameterError, match="flip graph"):
        mixing_time(build_chain(g))


def test_mixing_time_disconnected_raises():
    """A disconnected chain is not mixed by the step bound from its gap of 0."""
    with pytest.raises(NumericFailureError, match="disconnected"):
        spectral._mixing_block(build_chain(graph_from_lists([[1], [0], [3], [2]])), range(4), 0.25)


@pytest.mark.parametrize("eps", [5e-324, 1e-300])
def test_mixing_time_rejects_an_eps_below_float64_rounding(eps):
    """The step bound log(N/eps)/gap is only a check while the float64 TVD
    error there is below eps/2, so a smaller eps is refused before any step
    (log(N/eps) overflowed at 5e-324, and 1e-300 stepped to the bound)."""
    with pytest.raises(InvalidParameterError, match="cannot be decided"):
        mixing_time(build_chain(_graph(3, 7)), eps)


def _chain_with_gap_times(factor):
    """The K_6 chain with its second eigenvalue replaced so that the gap is
    `factor` times the true one."""
    chain = build_chain(build_flip_graph(3, 6))
    lam, vec = chain._second_eigenpair()
    chain._eig = (1 - factor * (1 - lam), vec)
    return chain


def test_mixing_time_rejects_an_underestimated_gap():
    """A tenth of the gap puts the floor (110 steps) past tau: every start
    is mixed at the first check."""
    with pytest.raises(NumericFailureError, match="the gap is underestimated"):
        mixing_time(_chain_with_gap_times(0.1))


def test_mixing_time_rejects_a_missed_eigenvalue():
    """Ten times the gap, as if lambda_2 had been missed, puts the bound
    log(N/eps)/gap (11 steps) below tau."""
    with pytest.raises(NumericFailureError, match="an eigenvalue was missed"):
        mixing_time(_chain_with_gap_times(10))


@pytest.mark.parametrize(
    "adj, start, expected_p",
    [
        ([[1], [0], []], 0, [[0.5, 0.5, 0], [0.5, 0.5, 0], [0, 0, 1]]),
        ([[], [2], [1]], 1, [[1, 0, 0], [0, 0.5, 0.5], [0, 0.5, 0.5]]),
    ],
)
def test_degree_zero_vertex_keeps_its_mass(adj, start, expected_p):
    chain = build_chain(graph_from_lists(adj))
    p = transition_matrix(chain)
    assert np.array_equal(p, np.array(expected_p, dtype=float))
    x = np.zeros(3)
    x[start] = 1.0
    for t, value in enumerate(tvd_curve(chain, start, 4)):
        assert abs(value - tvd(x, np.full(3, 1 / 3))) < 1e-15, t
        x = x @ p


def test_cheeger_bounds_contain_true_expansion():
    for n in (2, 3, 4):
        g = _graph(3, n)
        chain = build_chain(g)
        lo, hi = cheeger_bounds(chain)
        h = brute_force_expansion(g).ratio
        assert lo <= float(h) <= hi


def test_cheeger_four_cycle_brute_force():
    cyc = graph_from_lists([[1, 3], [0, 2], [1, 3], [0, 2]])
    rep = brute_force_expansion(cyc)
    assert rep.ratio == 1  # two opposite edges cut / side of two
    lo, hi = cheeger_bounds(build_chain(cyc))
    assert lo <= 1 <= hi


def test_brute_force_expansion_values():
    assert brute_force_expansion(_graph(3, 2)).ratio == 1
    assert brute_force_expansion(_graph(3, 3)).ratio == 1  # 5-cycle
    rep = brute_force_expansion(_graph(3, 4))
    assert rep.ratio == Fraction(5, 7)
    assert rep.side_size <= 7


@pytest.mark.parametrize("adj", [[], [[]]])
def test_brute_force_expansion_needs_two_vertices(adj):
    with pytest.raises(InvalidParameterError):
        brute_force_expansion(graph_from_lists(adj))


def test_brute_force_cap():
    with pytest.raises(InvalidParameterError):
        brute_force_expansion(_graph(3, 5))


def test_tvd_curve_non_increasing():
    chain = build_chain(_graph(3, 5))
    for start in (0, 17, 41):
        curve = tvd_curve(chain, start, 50)
        assert all(curve[i + 1] <= curve[i] + 1e-12 for i in range(len(curve) - 1))


def test_shortest_side_cut_n12():
    rep = shortest_side_cut(12)
    assert not rep.degenerate
    frac = rep.side_size / (rep.side_size + rep.other_size)
    assert 0.05 < frac < 0.95
    assert rep.ratio == Fraction(rep.boundary_size, rep.side_size)


def test_shortest_side_cut_trend():
    r8 = shortest_side_cut(8).ratio
    r16 = shortest_side_cut(16).ratio
    r32 = shortest_side_cut(32).ratio
    assert r8 > r16 > r32


def _cut_boundary_pairwise(n):
    """The shortest-side cut's boundary by a loop over every (side, other)
    pair of central triangles, with the matching size of two triangles that
    share a side written out as a Catalan product over their quadrilateral."""
    m = n + 2
    tris = _central_faces(3, m).tolist()
    side = [t for t in tris if 6 * min(spectral._tri_arcs(t, m)) <= m]
    other = [t for t in tris if 6 * min(spectral._tri_arcs(t, m)) > m]
    total = 0
    for t1 in side:
        for t2 in other:
            quad = sorted(set(t1) | set(t2))
            if len(quad) == 4:
                arcs = [b - a for a, b in zip(quad, quad[1:])] + [m - quad[3] + quad[0]]
                total += math.prod(catalan(ln - 1) for ln in arcs)
    return total


def test_shortest_side_cut_boundary_matches_pairwise_loop():
    for n in range(2, 25):
        assert shortest_side_cut(n).boundary_size == _cut_boundary_pairwise(n), n


def test_shortest_side_cut_degenerate_notice():
    assert shortest_side_cut(4).degenerate
    assert shortest_side_cut(6).degenerate
    assert not shortest_side_cut(7).degenerate


def test_sample_walk_zero_steps_point_mass():
    res = sample_walk(_graph(3, 4), 0, seed=3, start=5)
    assert res["histogram"][5] == 1 and res["recorded"] == 1


def test_sample_walk_deterministic():
    g = _graph(3, 4)
    r1 = sample_walk(g, 5000, seed=11, start=0, thin=10)
    r2 = sample_walk(g, 5000, seed=11, start=0, thin=10)
    assert r1 == r2
    r3 = sample_walk(g, 5000, seed=12, start=0, thin=10)
    assert r3 != r1


def test_sample_walk_matches_list_walk():
    """On an irregular graph the CSR walk takes the moves of a walk on
    adjacency lists: coin c moves to neighbour c if there is one, else the
    walk holds."""
    g = enumerate_lattice(3)
    adj = adjacency_lists(g)
    assert len({len(a) for a in adj}) > 1
    steps, thin = 3000, 7
    state, counts = 0, [0] * g.num_vertices
    counts[state] += 1
    for i, coin in enumerate(np.random.default_rng(5).integers(0, 2 * g.degree, size=steps)):
        if coin < len(adj[state]):
            state = adj[state][coin]
        if (i + 1) % thin == 0:
            counts[state] += 1
    res = sample_walk(g, steps, seed=5, start=0, thin=thin)
    assert res["histogram"] == counts and res["final_state"] == state


def test_sample_walk_chunked_draws_match_one_draw(monkeypatch):
    """Coins drawn seven at a time replay the walk of one draw of all 1000
    (the default chunk is larger), thinning included."""
    g = _graph(3, 5)
    whole = sample_walk(g, 1000, seed=4, start=2, thin=3)
    monkeypatch.setattr(spectral, "WALK_CHUNK", 7)
    assert sample_walk(g, 1000, seed=4, start=2, thin=3) == whole


@pytest.mark.parametrize("chunk", [7, spectral.WALK_CHUNK])
@pytest.mark.parametrize("graph", ["k3n4", "k3n7", "k3n10", "lattice3"])
def test_sample_walk_matches_per_step_oracle(monkeypatch, graph, chunk):
    """Stepping only the coins below Delta gives the per-step loop's
    histogram, final state and chi-square, bit for bit, with coins drawn
    seven at a time (records then fall on chunk boundaries) or in one chunk.
    The n = 3 lattice flip graph is irregular, so a coin below Delta can
    still hold."""
    g = enumerate_lattice(3) if graph == "lattice3" else _graph(3, int(graph[3:]))
    monkeypatch.setattr(spectral, "WALK_CHUNK", chunk)
    for seed, thin, steps in itertools.product([0, 1, 7], [1, 3, 50], [0, 1, 500, 10_000]):
        res = sample_walk(g, steps, seed=seed, start=0, thin=thin)
        want = sample_walk_per_step(g, steps, seed=seed, start=0, thin=thin)
        assert {key: res[key] for key in want} == want, (seed, thin, steps)


@pytest.mark.parametrize("steps, thin", [(-1, 1), (10, 0), (10, -2)])
def test_sample_walk_rejects_bad_steps_and_thin(steps, thin):
    with pytest.raises(InvalidParameterError):
        sample_walk(_graph(3, 4), steps, seed=1, start=0, thin=thin)


def test_sample_walk_uniformity_chi_square():
    # thinned by 50 steps the samples are nearly independent; frozen seed
    res = sample_walk(_graph(3, 4), 1_000_000, seed=20260808, start=0, thin=50)
    assert res["p_value"] > 0.001


def test_chi_square_survival_reference_values():
    # chi2 with 1 dof at 3.841 is the 5% point
    assert abs(chi_square_survival(3.841458820694124, 1) - 0.05) < 1e-9
    assert chi_square_survival(0.0, 5) == 1.0
    assert abs(chi_square_survival(4.0, 4) - math.exp(-2.0) * (1 + 2.0)) < 1e-12


def test_chi_square_survival_matches_scipy():
    # dof 16795, 58785 and 208011 are C_n - 1 for n = 10, 11, 12: the
    # degrees of freedom of `sample` at those sizes
    from scipy.special import chdtrc

    for dof in (1, 2, 5, 100, 16795, 58785, 208011):
        for z in (-3, -1, 0, 1, 3):
            stat = dof + z * math.sqrt(2 * dof)
            if stat <= 0:
                continue
            assert abs(chi_square_survival(stat, dof) - chdtrc(dof, stat)) < 1e-8, (dof, z)


def test_mixing_time_cap():
    from flipwalk.errors import EnumerationTooLargeError

    chain = build_chain(_graph(3, 4))
    with pytest.raises(EnumerationTooLargeError):
        mixing_time(chain, cap=10)


def test_cheeger_disconnected_graph_zero_bracket():
    """lambda_2 = 1: a Rayleigh quotient within its rounding bound of 1 is
    taken as 1, so the gap is 0.0 and the square root in the bracket is
    defined (the quotient here is 1 - 2^-52)."""
    g = graph_from_lists([[1], [0], [3], [2]])
    chain = build_chain(g)
    assert chain.spectral_gap() == 0.0
    assert cheeger_bounds(chain) == (0.0, 0.0)


def test_cut_gap_bound():
    """The cut bound is an upper bound on the gap at every size where both
    sides are nonempty, and equals the indicator's quotient on P."""
    for n in range(4, 10):
        cut = shortest_side_cut(n)
        chain = build_chain(_graph(3, n))
        bound = spectral.cut_gap_bound(cut, chain.delta)
        assert chain.spectral_gap() < bound, n
    # the 4-cycle split into two paths: 2 boundary edges, N = 4, Delta = 2
    cut = spectral.CutReport(2, 2, 2, Fraction(1))
    f = np.array([1.0, 1.0, 0.0, 0.0]) - 0.5
    p = transition_matrix(build_chain(graph_from_lists([[1, 3], [0, 2], [1, 3], [0, 2]])))
    assert spectral.cut_gap_bound(cut, 2) == Fraction(1, 2) == 1 - (f @ p @ f) / (f @ f)
