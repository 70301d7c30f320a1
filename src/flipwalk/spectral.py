"""Chain analysis for lazy flip walks: transition matrices, total variation
distance, exact mixing times, spectral gaps, Cheeger-style expansion brackets,
brute-force expansion for tiny graphs, and the shortest-side central cut.

scipy is imported inside the functions that use it: importing it costs
more than the rest of the package, and only the spectral commands need it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations

import numpy as np

from .combinatorics import catalan
from .decomposition import _contains_center
from .errors import (
    EnumerationTooLargeError,
    InvalidDistributionError,
    InvalidParameterError,
    NumericFailureError,
)
from .kangulation import FlipGraph, orbit_representatives

EXACT_START_CAP = 2000  # all-starts exact mixing below this size
EXACT_ANALYSIS_CAP = 300_000  # beyond this, mixing analysis is refused
MIXING_CHUNK = 256  # point-mass columns stepped together by _mixing_block
EIGSH_SEED = 7  # fixed Lanczos start vector, so reruns are byte-identical


@dataclass
class ChainAnalysis:
    """Lazy uniform walk on a graph: P = I/2 + A/(2*Delta), pi uniform.

    P is held as one sparse CSR matrix, built on first use; the second
    eigenpair and mixing times are computed on demand and cached.
    """

    graph: object
    delta: int
    _P: object = field(default=None, repr=False)
    _eig: tuple | None = field(default=None, repr=False)
    _mixing: dict = field(default_factory=dict, repr=False)

    @property
    def num_states(self) -> int:
        return self.graph.num_vertices

    def operator(self):
        """P as a scipy CSR matrix; symmetric, so P @ x steps a distribution."""
        if self._P is None:
            import scipy.sparse as sp

            n = self.num_states
            indptr, indices = self.graph.csr()
            degs = np.diff(indptr)
            off = 1.0 / (2 * self.delta)
            moves = sp.csr_matrix(
                (np.full(indices.size, off), indices, indptr), shape=(n, n)
            )
            self._P = (moves + sp.diags(1.0 - off * degs)).tocsr()
        return self._P

    def transition_matrix(self) -> np.ndarray:
        return self.operator().toarray()

    def _second_eigenpair(self) -> tuple:
        """(lambda_2, eigenvector) by Lanczos; dense for N <= 2, where
        ARPACK cannot return two eigenpairs."""
        if self._eig is None:
            n = self.num_states
            if n <= 2:
                evals, evecs = np.linalg.eigh(self.transition_matrix())
                self._eig = (float(evals[-2]), evecs[:, -2])
            else:
                from scipy.sparse.linalg import eigsh

                v0 = np.random.default_rng(EIGSH_SEED).standard_normal(n)
                evals, evecs = eigsh(self.operator(), k=2, which="LA", v0=v0, tol=0)
                i = int(np.argmin(evals))
                self._eig = (float(evals[i]), evecs[:, i])
        return self._eig

    def spectral_gap(self) -> float:
        return 1.0 - self._second_eigenpair()[0]

    def second_eigenvector(self) -> np.ndarray:
        return self._second_eigenpair()[1]


def build_chain(graph) -> ChainAnalysis:
    """Lazy flip-walk chain: half-stay, otherwise uniform over the
    (n-1)(k-2) moves (max degree for irregular graphs)."""
    delta = graph.degree
    if delta < 1:
        raise InvalidParameterError("graph has no edges; chain is degenerate")
    return ChainAnalysis(graph, delta)


def tvd(mu, nu) -> float:
    """Total variation distance: half the L1 distance."""
    mu = np.asarray(mu, dtype=float)
    nu = np.asarray(nu, dtype=float)
    if mu.shape != nu.shape:
        raise InvalidDistributionError("distributions have different supports")
    for vec in (mu, nu):
        if abs(vec.sum() - 1.0) > 1e-12 or (vec < -1e-15).any():
            raise InvalidDistributionError("input is not a probability vector")
    return 0.5 * float(np.abs(mu - nu).sum())


def _tvd_to_uniform(x: np.ndarray):
    """TVD to uniform of a distribution, or of each column of a block."""
    return 0.5 * np.abs(x - 1.0 / x.shape[0]).sum(axis=0)


def mixing_time(
    chain: ChainAnalysis,
    eps: float = 0.25,
    return_mode: bool = False,
    cap: int = EXACT_ANALYSIS_CAP,
):
    """Least t with worst-start TVD below eps.

    Up to EXACT_START_CAP states every point-mass start is stepped
    ("exact-all-starts").  A larger flip graph steps one start per orbit of
    the polygon's dihedral group, which acts by automorphisms of the chain,
    so the TVD from a start is constant on its orbit and the result is still
    exact ("exact-orbit-starts").  Any other larger graph steps the extreme
    entries of the second eigenvector, and the result is a heuristic lower
    bound ("heuristic-start").  States beyond `cap` are refused.
    """
    key = (eps,)
    if key in chain._mixing:
        tau, mode = chain._mixing[key]
        return (tau, mode) if return_mode else tau
    n = chain.num_states
    if n > cap:
        raise EnumerationTooLargeError(n, cap)
    if n <= EXACT_START_CAP:
        starts, mode = list(range(n)), "exact-all-starts"
    elif isinstance(chain.graph, FlipGraph):
        starts, mode = orbit_representatives(chain.graph), "exact-orbit-starts"
    else:
        order = np.argsort(chain.second_eigenvector())
        starts = sorted({int(i) for i in (order[0], order[1], order[-2], order[-1])})
        mode = "heuristic-start"
    tau = _mixing_block(chain, starts, eps)
    chain._mixing[key] = (tau, mode)
    return (tau, mode) if return_mode else tau


def _mixing_floor(gap: float, eps: float) -> int:
    """A step count below the mixing time, so TVD checks can start there.

    For a reversible lazy chain with second eigenvalue 1 - gap, the start
    x where the second eigenvector f peaks in |f| has TVD at least
    (1 - gap)^t / 2 after t steps, so nothing mixes before
    (1/gap - 1) log(1/(2 eps)) steps (Levin-Peres-Wilmer, Thm 12.5).  That
    x is among the starts of every mode: all starts, an orbit of every
    start (the TVD is constant on orbits), or the extreme entries of f.  One
    step is taken off for the rounding of the float gap.
    """
    if gap <= 1e-12:
        return 0
    return max(0, math.floor((1 / gap - 1) * math.log(1 / (2 * eps))) - 1)


def _mixing_block(chain: ChainAnalysis, starts: list, eps: float) -> int:
    """Least t at which every start's TVD to uniform is below eps.

    Point masses at the starts are stepped as the columns of an
    N x MIXING_CHUNK block, X <- P @ X.  No TVD is checked before
    `_mixing_floor`.  The TVD from a fixed start never rises,
    so a column is dropped once it is below eps, and a later chunk is first
    checked at the running maximum.  A connected lazy chain mixes within
    log(N/eps)/gap steps (Levin-Peres-Wilmer, Thm 12.4); running past twice
    that means the chain is disconnected or the arithmetic failed.
    """
    n = chain.num_states
    p = chain.operator()
    gap = chain.spectral_gap()
    limit = 2 * math.log(n / eps) / gap + 10 if gap > 1e-12 else 0
    tau = _mixing_floor(gap, eps)
    for lo in range(0, len(starts), MIXING_CHUNK):
        cols = starts[lo:lo + MIXING_CHUNK]
        x = np.zeros((n, len(cols)))
        x[cols, np.arange(len(cols))] = 1.0
        t = 0
        while True:
            if t >= tau:
                live = _tvd_to_uniform(x) >= eps
                if not live.any():
                    break
                if not live.all():
                    x = np.ascontiguousarray(x[:, live])
            if t >= limit:
                raise NumericFailureError(
                    f"mixing did not converge in {t} steps; is the chain connected?"
                )
            x = p @ x
            t += 1
        tau = t
    return tau


def tvd_curve(chain: ChainAnalysis, start: int, steps: int) -> list:
    """TVD to uniform after 0..steps lazy steps from a point-mass start."""
    p = chain.operator()
    x = np.zeros(chain.num_states)
    x[start] = 1.0
    curve = [float(_tvd_to_uniform(x))]
    for _ in range(steps):
        x = p @ x
        curve.append(float(_tvd_to_uniform(x)))
    return curve


def cheeger_bounds(chain: ChainAnalysis) -> tuple:
    """Bracket for the unnormalized expansion h(G) from the spectral gap.

    The degree-normalized expansion h/Delta of the lazy walk satisfies
    lambda/2 <= h/Delta <= sqrt(2 lambda); both ends are reported after
    multiplying back by Delta.
    """
    lam = chain.spectral_gap()
    return chain.delta * lam / 2.0, chain.delta * math.sqrt(2.0 * lam)


@dataclass
class CutReport:
    side: set | None
    side_size: int
    other_size: int
    boundary_size: object  # int (edge count); exact
    ratio: Fraction
    construction: str
    degenerate: bool = False

    def to_json_dict(self) -> dict:
        return {
            "side_size": self.side_size,
            "other_size": self.other_size,
            "boundary_size": self.boundary_size,
            "ratio_num": self.ratio.numerator,
            "ratio_den": self.ratio.denominator,
            "construction": self.construction,
            "degenerate": self.degenerate,
        }


def brute_force_expansion(graph) -> CutReport:
    """Exact minimizer of |dS|/|S| over nonempty S with |S| <= |V|/2."""
    n = graph.num_vertices
    if n > 24:
        raise InvalidParameterError(f"{n} vertices is too large for brute force")
    masks = [0] * n
    for i, nbrs in enumerate(graph.adj):
        for j in nbrs:
            masks[i] |= 1 << j
    full = (1 << n) - 1
    best = None
    for s in range(1, 1 << n):
        size = s.bit_count()
        if 2 * size > n:
            continue
        boundary = 0
        m = s
        while m:
            v = (m & -m).bit_length() - 1
            boundary += (masks[v] & ~s & full).bit_count()
            m &= m - 1
        ratio = Fraction(boundary, size)
        if best is None or ratio < best[0]:
            best = (ratio, s, boundary, size)
    ratio, s, boundary, size = best
    side = {v for v in range(n) if s >> v & 1}
    return CutReport(side, size, n - size, boundary, ratio, "brute-force")


# ---------------------------------------------------------------------------
# central shortest-side cut (class-level; sizes are Catalan products)


def _central_triangles(m: int) -> list:
    tris = np.array(list(combinations(range(m), 3))).reshape(-1, 3)
    return list(map(tuple, tris[_contains_center(tris, m)].tolist()))


def _tri_arcs(tri: tuple, m: int) -> tuple:
    a, b, c = tri
    return (b - a, c - b, m - (c - a))


def _tri_class_size(tri: tuple, m: int) -> int:
    l1, l2, l3 = _tri_arcs(tri, m)
    return catalan(l1 - 1) * catalan(l2 - 1) * catalan(l3 - 1)


def _tri_match_size(t1: tuple, t2: tuple, m: int) -> int:
    """Matching size between two central classes sharing a triangle side."""
    s1, s2 = set(t1), set(t2)
    if len(s1 & s2) != 2:
        return 0
    quad = sorted(s1 | s2)
    arcs = (
        quad[1] - quad[0],
        quad[2] - quad[1],
        quad[3] - quad[2],
        m - (quad[3] - quad[0]),
    )
    r = 1
    for ln in arcs:
        r *= catalan(ln - 1)
    return r


def shortest_side_cut(n: int) -> CutReport:
    """The central-class cut S = all classes whose central triangle's
    shortest side spans at most m/6 polygon edges (m = n + 2).

    Computed entirely at class level: class sizes and inter-class matching
    sizes are closed-form Catalan products, so no enumeration is needed.
    Emits a degenerate-cut notice for n < 7.
    """
    if n < 2:
        raise InvalidParameterError("need n >= 2")
    m = n + 2
    tris = _central_triangles(m)
    total = sum(_tri_class_size(t, m) for t in tris)
    if total != catalan(n):
        raise InvalidParameterError(
            f"central classes sum to {total}, expected {catalan(n)}"
        )
    in_cut = lambda t: 6 * min(_tri_arcs(t, m)) <= m
    side = [t for t in tris if in_cut(t)]
    other = [t for t in tris if not in_cut(t)]
    s_size = sum(_tri_class_size(t, m) for t in side)
    o_size = total - s_size
    boundary = 0
    for t1 in side:
        for t2 in other:
            boundary += _tri_match_size(t1, t2, m)
    degenerate = n < 7 or s_size == 0 or o_size == 0
    ratio = Fraction(boundary, s_size) if s_size else Fraction(0)
    return CutReport(
        None, s_size, o_size, boundary, ratio, "central-shortest-side", degenerate
    )


# ---------------------------------------------------------------------------
# sampling


def sample_walk(graph, steps: int, seed: int, start: int, thin: int = 1) -> dict:
    """Seeded lazy flip walk; returns the visit histogram of the thinned
    trajectory and a chi-square uniformity statistic.

    The histogram records the initial state and every thin-th subsequent
    state.  Thinning de-correlates consecutive samples so the chi-square
    statistic is meaningful; thin=1 keeps the raw trajectory.  The
    chi-square approximation needs about 5 expected samples per state;
    `chi_square_reliable` says whether the run had them.
    """
    if start < 0 or start >= graph.num_vertices:
        raise InvalidParameterError(f"invalid start vertex {start}")
    delta = graph.degree
    if delta < 1:
        raise InvalidParameterError("graph has no edges; the walk cannot move")
    rng = np.random.default_rng(seed)
    n = graph.num_vertices
    counts = np.zeros(n, dtype=np.int64)
    state = start
    counts[state] += 1
    if steps:
        coins = rng.integers(0, 2 * delta, size=steps)
        for i in range(steps):
            move = int(coins[i])
            nbrs = graph.adj[state]
            if move < len(nbrs):
                state = nbrs[move]
            # else: lazy hold (covers the coin's tails half and any
            # missing moves of an irregular vertex)
            if (i + 1) % thin == 0:
                counts[state] += 1
    recorded = int(counts.sum())
    expected = recorded / n
    stat = float(((counts - expected) ** 2 / expected).sum())
    pvalue = chi_square_survival(stat, n - 1)
    return {
        "histogram": counts.tolist(),
        "recorded": recorded,
        "final_state": int(state),
        "chi_square": stat,
        "dof": n - 1,
        "p_value": pvalue,
        "expected_per_state": expected,
        "chi_square_reliable": expected >= 5,
    }


def chi_square_survival(stat: float, dof: int) -> float:
    """P[Chi2_dof >= stat], via the regularized upper incomplete gamma."""
    if stat <= 0:
        return 1.0
    return _gammq(dof / 2.0, stat / 2.0)


def _gammq(a: float, x: float) -> float:
    # near x = a both expansions need on the order of sqrt(a) terms, so their
    # term caps grow with sqrt(a); 500 terms alone are too few from dof ~ 10^4
    if x < a + 1.0:
        return 1.0 - _gamma_series(a, x)
    return _gamma_cf(a, x)


def _gamma_series(a: float, x: float) -> float:
    gln = math.lgamma(a)
    ap = a
    total = 1.0 / a
    delta = total
    for _ in range(500 + 20 * int(math.sqrt(a))):
        ap += 1.0
        delta *= x / ap
        total += delta
        if abs(delta) < abs(total) * 1e-15:
            break
    return total * math.exp(-x + a * math.log(x) - gln)


def _gamma_cf(a: float, x: float) -> float:
    gln = math.lgamma(a)
    tiny = 1e-300
    b = x + 1.0 - a
    c = 1.0 / tiny
    d = 1.0 / b
    h = d
    for i in range(1, 500 + 20 * int(math.sqrt(a))):
        an = -i * (i - a)
        b += 2.0
        d = an * d + b
        if abs(d) < tiny:
            d = tiny
        c = b + an / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < 1e-15:
            break
    return math.exp(-x + a * math.log(x) - gln) * h
