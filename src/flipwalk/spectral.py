"""Chain analysis for lazy flip walks: transition operators, exact mixing
times, spectral gaps, Cheeger-style expansion brackets, the shortest-side
central cut, and the seeded walk.

The lazy operator P is a `CSRMatrix`: three numpy arrays whose products run
in scipy's compiled `csr_matvec` and `csr_matvecs`, the kernels behind
scipy's own CSR product.  They are loaded from scipy's `sparse/_sparsetools`
extension file alone, so no scipy package `__init__` runs: `import
scipy.sparse` costs about 0.23 s, more than the rest of the package, and
loading the extension under 1 ms.  `flipwalk.decomposition` is imported
inside `shortest_side_cut`, so `sample` and `analyze` at k >= 4 never load
it.  The gap is a deflated Lanczos on P in numpy ufuncs and Python floats:
no BLAS or LAPACK routine is called, so no scipy module and no second
OpenBLAS is loaded, and no BLAS worker thread wakes beside the mixing loop.
Its start vector is made from fixed splitmix64 words, so `analyze` never
imports numpy's random module (5.3 MB of resident memory); only
`sample_walk` does, to replay `default_rng(seed)`.
"""

from __future__ import annotations

import functools
import importlib.machinery
import importlib.util
import math
import os
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations

import numpy as np

from .combinatorics import catalan
from .errors import EnumerationTooLargeError, InvalidParameterError, NumericFailureError
from .graph import splitmix64
from .kangulation import FlipGraph, orbit_representatives

EXACT_ANALYSIS_CAP = 300_000  # beyond this, mixing analysis is refused
# point-mass columns stepped together by _mixing_block; at k = 3 n = 10 and 11
# 64 was the fastest of 32..512, with a quarter of 256's block memory
MIXING_CHUNK = 64
TVD_BAND = 2048  # rows of a block that _tvd_to_uniform transposes at a time
LANCZOS_TOL = 1e-13  # residual bound |beta_j s_j| at which the Ritz pair is taken
LANCZOS_CHECK = 8  # Lanczos steps between residual checks
LANCZOS_MAX_STEPS = 2000  # about 17 times the 120 steps k = 3 n = 12 takes
WALK_CHUNK = 1 << 16  # coins sample_walk draws at a time; chunks replay one draw's stream
# the largest n the `cut` command takes: shortest_side_cut grows about as
# n^3.7 (4.5 s at n = 100, 57 s and 189 MB at n = 200 on a 2-vCPU host)
CUT_N_CAP = 100


@functools.cache
def _sparsetools():
    """scipy's compiled `_sparsetools` extension, loaded from its file in
    scipy's `sparse` directory; neither `scipy` nor `scipy.sparse` is
    imported, so none of their `__init__`s runs.  The extension registers
    itself in `sys.modules` as the bare top-level `_sparsetools`, not under
    a scipy name.  Its file name and the positional signatures of
    `csr_matvec`, `csr_matvecs` and `csr_plus_csr` are scipy internals,
    checked against scipy 1.17 (pyproject.toml bounds scipy to match)."""
    root = importlib.util.find_spec("scipy")
    where = [os.path.join(d, "sparse") for d in (root and root.submodule_search_locations or [])]
    spec = importlib.machinery.PathFinder.find_spec("_sparsetools", where)
    if spec is None:
        raise ImportError(f"scipy's _sparsetools extension not found in {where}")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class CSRMatrix:
    """A square matrix in CSR form: row i holds data[indptr[i]:indptr[i + 1]]
    in the columns indices[indptr[i]:indptr[i + 1]].  `p @ x`, for a vector
    or an N x c block, runs scipy's `csr_matvec` or `csr_matvecs`, the
    kernels of scipy's own CSR product, so it sums in the same order; x of
    another length is refused before the kernel reads it."""

    __slots__ = ("indptr", "indices", "data")

    def __init__(self, indptr: np.ndarray, indices: np.ndarray, data: np.ndarray):
        self.indptr, self.indices, self.data = indptr, indices, data

    @property
    def shape(self) -> tuple:
        n = self.indptr.size - 1
        return (n, n)

    @property
    def dtype(self) -> np.dtype:
        return self.data.dtype

    def astype(self, dtype) -> CSRMatrix:
        """The same matrix with its entries in dtype (not copied if they are)."""
        return CSRMatrix(self.indptr, self.indices, self.data.astype(dtype, copy=False))

    def __matmul__(self, x) -> np.ndarray:
        n = self.shape[0]
        x = np.asarray(x)
        if x.shape[:1] != (n,) or x.ndim > 2:
            raise ValueError(f"cannot multiply a {n} x {n} matrix by a {x.shape} array")
        p = self.astype(np.result_type(self.data, x))
        x = np.ascontiguousarray(x, dtype=p.dtype)
        out = np.zeros_like(x)
        if x.ndim == 1:
            _sparsetools().csr_matvec(n, n, p.indptr, p.indices, p.data, x, out)
        else:
            _sparsetools().csr_matvecs(
                n, n, x.shape[1], p.indptr, p.indices, p.data, x.ravel(), out.ravel())
        return out


def _lazy_operator(graph, delta: int) -> CSRMatrix:
    """P = A/(2 Delta) + diag(1 - deg/(2 Delta)), summed by scipy's compiled
    `csr_plus_csr`, the row merge that scipy's `(moves + diags).tocsr()`
    runs: each row's diagonal entry goes into its sorted place without a
    sort, and the arrays are scipy's entry for entry, so a product sums in
    scipy's order (`tests/reference_spectral.py` keeps that build)."""
    indptr, indices = graph.csr()
    n, size = indptr.size - 1, indices.size + indptr.size - 1
    off = 1.0 / (2 * delta)
    diag = np.arange(n + 1, dtype=indptr.dtype)
    out = np.empty(n + 1, dtype=indptr.dtype), np.empty(size, dtype=indices.dtype), np.empty(size)
    _sparsetools().csr_plus_csr(
        n, n, indptr, indices, np.full(indices.size, off),
        diag, diag[:-1], 1.0 - off * np.diff(indptr), *out)
    nnz = out[0][-1]  # below size only where a row repeats a neighbour
    return CSRMatrix(out[0], out[1][:nnz], out[2][:nnz])


@dataclass
class ChainAnalysis:
    """Lazy uniform walk on a graph: P = I/2 + A/(2*Delta), pi uniform.

    P is held as one `CSRMatrix`, built on first use.  The second
    eigenpair (by `_lanczos_second`, deflated of the constant vector) is
    computed on demand and cached.
    """

    graph: object
    delta: int
    _P: CSRMatrix | None = field(default=None, repr=False)
    _eig: tuple | None = field(default=None, repr=False)

    @property
    def num_states(self) -> int:
        return self.graph.num_vertices

    def operator(self) -> CSRMatrix:
        """P as a `CSRMatrix`; symmetric, so P @ x steps a distribution."""
        if self._P is None:
            self._P = _lazy_operator(self.graph, self.delta)
        return self._P

    def _second_eigenpair(self) -> tuple:
        """(lambda_2, unit eigenvector) by `_lanczos_second`; lambda_2 is the
        Rayleigh quotient of the eigenvector, which is closer to exact than
        the Ritz value.  The quotient is within (w + 2N + 8) 2^-53 of its
        exact value (gamma_{w+3} for the product and gamma_N for each sum,
        Higham 3.1; w the most stored entries in a row of P), and lambda_2
        is at most 1, so a quotient that close to 1 is taken as 1: the
        chain is disconnected, and the gap is 0.0."""
        if self._eig is None:
            p = self.operator()
            vec = _lanczos_second(p)
            lam = float((vec * (p @ vec)).sum() / (vec * vec).sum())
            w = int(np.diff(p.indptr).max())
            if lam >= 1 - (w + 2 * p.shape[0] + 8) * 2.0 ** -53:
                lam = 1.0
            self._eig = (lam, vec)
        return self._eig

    def spectral_gap(self) -> float:
        return 1.0 - self._second_eigenpair()[0]

    def second_eigenvector(self) -> np.ndarray:
        return self._second_eigenpair()[1]


def _lanczos(p, q):
    """Plain Lanczos on P restricted to the mean-zero vectors, from the
    unit, mean-zero q: yields (q_j, alpha_j, beta_j) for j = 0, 1, ...,
    the basis vectors and the entries of the tridiagonal T.  A yielded q_j
    is overwritten when the generator resumes.

    P is symmetric and doubly stochastic, so the constant vector is its top
    eigenvector; taking the mean off every product deflates it, and T's top
    eigenvalue converges to lambda_2.  There is no reorthogonalization: the
    extreme Ritz value converges although orthogonality is lost (Paige,
    LAA 34, 1980).  The sparse product runs in sparsetools and every other
    step is a ufunc, a sum or a two-operand `einsum` (its own loop, not
    BLAS), so no BLAS routine is called."""
    q, prev, beta = q.copy(), np.zeros_like(q), 0.0
    while True:
        w = p @ q
        w -= w.mean()
        prev *= beta
        w -= prev
        alpha = float(np.einsum("i,i", w, q))
        w -= np.multiply(q, alpha, out=prev)
        beta = math.sqrt(float(np.einsum("i,i", w, w)))
        yield q, alpha, beta
        w /= beta
        prev, q = q, w


def _sturm_count(alpha: list, beta: list, x: float) -> int:
    """Eigenvalues of the tridiagonal T below x: the negative pivots of
    T - xI (Golub and Van Loan, 8.4)."""
    count, d, b2 = 0, 1.0, 0.0
    for a, b in zip(alpha, beta):
        d = a - x - b2 / d
        if d < 0:
            count += 1
        elif d == 0:
            d = -1e-300
        b2 = b * b
    return count


def _top_eigenvalue(alpha: list, beta: list, lo: float) -> float:
    """An upper bound, to the last bit, on T's top eigenvalue, which is at
    least lo; bisection on Sturm counts, within Gershgorin's bound."""
    off = [abs(b) for b in beta[:-1]]
    hi = max(a + b0 + b1 for a, b0, b1 in zip(alpha, [0.0, *off], [*off, 0.0]))
    lo = min(lo, hi)
    while True:
        mid = (lo + hi) / 2
        if not lo < mid < hi:
            return hi
        if _sturm_count(alpha, beta, mid) == len(alpha):
            hi = mid
        else:
            lo = mid


def _top_eigenvector(alpha: list, beta: list, theta: float) -> list:
    """Unit eigenvector of T for its top eigenvalue, by two inverse
    iterations with the shift theta from `_top_eigenvalue`; T - theta I is
    negative semidefinite, so the Thomas solve needs no pivoting."""
    m = len(alpha)
    s = [1.0] * m
    for _ in range(2):
        c, d = [0.0] * m, [0.0] * m
        cp = dp = b = 0.0
        for i in range(m):
            piv = alpha[i] - theta - b * cp or -1e-300
            cp = c[i] = beta[i] / piv
            dp = d[i] = (s[i] - b * dp) / piv
            b = beta[i]
        x = d[-1]
        s[-1] = x
        for i in range(m - 2, -1, -1):
            x = s[i] = d[i] - c[i] * x
        big = max(map(abs, s))
        s = [v / big for v in s]
        norm = math.sqrt(sum(v * v for v in s))
        s = [v / norm for v in s]
    return s


def _lanczos_start(n: int) -> np.ndarray:
    """The Lanczos start vector on n states, unnormalised: the first n
    splitmix64 words, each scaled exactly by its top 53 bits into
    [-1/2, 1/2), less their mean (P's top eigenvector is constant)."""
    q0 = (splitmix64(n) >> np.uint64(11)) * 2.0 ** -53 - 0.5
    q0 -= q0.mean()
    return q0


def _lanczos_second(p) -> np.ndarray:
    """Unit eigenvector of P for lambda_2, deflated Lanczos from the fixed
    splitmix64 start vector of `_lanczos_start`.  Every LANCZOS_CHECK steps,
    or when beta_j falls to LANCZOS_TOL, T's top Ritz pair (theta, s) is
    taken with the residual bound |beta_j s_j| = ||P y - theta y||; at
    LANCZOS_TOL the run stops.  The Ritz vector y = sum_j s_j q_j comes
    from a second pass that replays the recurrence, so no N x m basis is held, and reruns are identical."""
    n = p.shape[0]
    q0 = _lanczos_start(n)
    q0 /= math.sqrt(float((q0 * q0).sum()))
    alpha, beta, theta = [], [], -math.inf
    for j, (_, a, b) in enumerate(_lanczos(p, q0), 1):
        alpha.append(a)
        beta.append(b)
        if j % LANCZOS_CHECK and b > LANCZOS_TOL:
            continue
        theta = _top_eigenvalue(alpha, beta, max(theta, max(alpha)))
        s = _top_eigenvector(alpha, beta, theta)
        if abs(b * s[-1]) <= LANCZOS_TOL:
            break
        if j >= LANCZOS_MAX_STEPS:
            raise NumericFailureError(
                f"Lanczos residual {abs(b * s[-1])!r} above {LANCZOS_TOL} "
                f"after {j} steps on {n} states"
            )
    y, term = np.zeros(n), np.empty(n)
    for sj, (q, _, _) in zip(s, _lanczos(p, q0)):
        y += np.multiply(q, sj, out=term)
    return y / math.sqrt(float((y * y).sum()))


def build_chain(graph) -> ChainAnalysis:
    """Lazy flip-walk chain: half-stay, otherwise uniform over the
    (n-1)(k-2) moves (max degree for irregular graphs)."""
    delta = graph.degree
    if delta < 1:
        raise InvalidParameterError("graph has no edges; chain is degenerate")
    return ChainAnalysis(graph, delta)


def _tvd_to_uniform(x: np.ndarray):
    """TVD to uniform of a distribution, or of each column of a block; the
    difference block, in x's dtype, is the only temporary, and it is summed
    in float64.  The block is written transposed, so every column is summed
    as one contiguous row, in the same order as a lone vector: a start's TVD
    does not depend on how many columns are still live beside it.  It is
    written TVD_BAND rows of x at a time: on a 2-vCPU host one strided
    transposed write of the whole block took 4-5x as long as the plain
    difference, and bands of 1024-4096 rows about 2x."""
    d = np.empty(x.shape[::-1], dtype=x.dtype)
    for lo in range(0, x.shape[0], TVD_BAND):
        np.subtract(x[lo:lo + TVD_BAND].T, 1.0 / x.shape[0], out=d[..., lo:lo + TVD_BAND])
    np.abs(d, out=d)
    return 0.5 * d.sum(axis=-1, dtype=np.float64)


def mixing_time(chain: ChainAnalysis, eps: float = 0.25, cap: int = EXACT_ANALYSIS_CAP) -> tuple:
    """(tau, "exact-orbit-starts"): the least t with worst-start TVD below
    eps, on the lazy walk of a flip graph.

    One start per orbit of the polygon's dihedral group is stepped: the
    group acts by automorphisms of the chain, so the TVD from a start is
    constant on its orbit and tau is exact.  A chain on any other graph is
    refused (`_mixing_block` takes explicit starts), and so are more than
    `cap` states.
    """
    if not isinstance(chain.graph, FlipGraph):
        raise InvalidParameterError(
            f"mixing_time needs a flip graph's orbit starts; got a {type(chain.graph).__name__}"
        )
    n = chain.num_states
    if n > cap:
        raise EnumerationTooLargeError(n, cap)
    return _mixing_block(chain, orbit_representatives(chain.graph), eps), "exact-orbit-starts"


def _mixing_floor(gap: float, eps: float) -> int:
    """A step count below the mixing time, so TVD checks can start there.

    For a reversible lazy chain with second eigenvalue 1 - gap, the start
    x where the second eigenvector f peaks in |f| has TVD at least
    (1 - gap)^t / 2 after t steps, so nothing mixes before
    (1/gap - 1) log(1/(2 eps)) steps (Levin-Peres-Wilmer, Thm 12.5).
    `mixing_time` steps one start per dihedral orbit, and the TVD is
    constant on an orbit, so x's orbit start is no more mixed than x.  One
    step is taken off for the rounding of the float gap.
    """
    if gap <= 1e-12:
        return 0
    return max(0, math.floor((1 / gap - 1) * -math.log(2 * eps)) - 1)


def _tvd_bound(w: int, n: int, t: int) -> float:
    """delta_t: a bound on |T32 - T64|, where T32 is a start's TVD to uniform
    after t steps stepped and differenced in float32, T64 the same in
    float64, both by `_tvd_to_uniform` and the CSR product in any summation
    order; w is the most stored entries in a row of P, n the state count.

    With unit roundoff r (u = 2^-24 for float32, v = 2^-53 for float64) and
    gamma_k = k r / (1 - k r) (Higham, Accuracy and Stability of Numerical
    Algorithms, 2nd ed., 3.1): a row of the product is an inner product of
    w terms (gamma_w), and a stored entry of P is off by at most gamma_3 in
    float64 (the diagonal is 1 - deg * fl(1/(2 Delta))) and by at most 2u
    after its rounding to float32.  So each product term is off by at most
    c times itself, c = gamma_{w+2} in float32 and gamma_{w+3} in float64.
    P is nonnegative and doubly stochastic, so a step adds to the l1 error
    at most c times the mass, 1 + e_t, plus mu = n w 2^-149 (2^-1074 in
    float64) for products that underflow, and ||x_t' - x_t||_1 <= e_t with

        e_t = ((1 + c)^t - 1) (1 + mu / c).

    The difference x_i - 1/n is rounded once in r, from 1/n off by at most
    2r / n, so the l1 sum A of the differenced column is off by at most
    a_t = e_t + r (4 + e_t + 2r), and the float64 sum of A <= 2 + a_t adds
    at most gamma_{n-1}(v) (2 + a_t).  Halving is exact, so each TVD is
    within

        D_t(r) = (a_t + gamma_{n-1}(v) (2 + a_t)) / 2

    of the exact TVD, and delta_t = D_t(u) + D_t(v).  The factor 1 + 2^-20
    covers the rounding of this formula and of eps +- delta_t.
    """
    return (_tvd_error(w, n, t, 2.0 ** -24) + _tvd_error(w, n, t, 2.0 ** -53)) * (1 + 2.0 ** -20)


def _tvd_error(w: int, n: int, t: int, r: float) -> float:
    """D_t(r) of `_tvd_bound`: how far a TVD after t steps in unit roundoff
    r (2^-24 or 2^-53) can be from the exact TVD."""
    v = 2.0 ** -53
    k, tiny = (w + 2, 2.0 ** -149) if r > v else (w + 3, 2.0 ** -1074)
    c = k * r / (1 - k * r)
    grow = t * math.log1p(c)
    if grow > 700:
        return math.inf
    e = math.expm1(grow) * (1 + n * w * tiny / c)
    a = e + r * (4 + e + 2 * r)
    return (a + (n - 1) * v / (1 - (n - 1) * v) * (2 + a)) / 2


def _mixing_block(chain: ChainAnalysis, starts: list, eps: float) -> int:
    """Least t at which every start's TVD to uniform is below eps, exactly
    as stepping in float64 decides it.

    The starts go MIXING_CHUNK at a time through `_step_starts`, first with
    P in float32.  A start whose float32 TVD lies within `_tvd_bound` of
    eps is undecided; only those are stepped again with the float64 P, from
    step 0, and first checked where they were undecided (every earlier
    check found them above eps, in float64 too).  The chunk's tau is the
    later of the two.  No TVD is checked before `_mixing_floor`, and a
    later chunk is first checked at the running maximum.

    tau is checked against the gap from both sides, so a wrong gap raises
    NumericFailureError instead of giving a wrong tau:
    - Below: the start where the second eigenvector peaks is not mixed at
      the floor (see `_mixing_floor`), so tau equal to a positive floor
      (every start mixed at the first check) means the gap was
      underestimated.
    - Above: a lazy chain's eigenvalues lie in [0, 1], so a start's TVD
      after t steps is at most (N/2) exp(-gap t) (Levin-Peres-Wilmer, Thm
      12.4 and (12.13)); from t = log(N/eps)/gap on it is at most eps/2.
      Stepping past floor(log(N/eps)/gap (1 + 2^-20)) + 1 means an
      eigenvalue above 1 - gap was missed, or the chain is disconnected.
      The factor covers the rounding of the gap and the logarithm.  The
      halved eps covers the TVD's: in float32 a column is kept only at
      eps + delta_t or above, and in float64 at eps, within `_tvd_error`
      of the exact TVD.  An eps at or below twice that error at the bound
      raises InvalidParameterError before any step.
    """
    n = chain.num_states
    p = chain.operator()
    p32 = p.astype(np.float32)
    w = int(np.diff(p.indptr).max())
    gap = chain.spectral_gap()
    limit = (
        math.floor((math.log(n) - math.log(eps)) / gap * (1 + 2.0 ** -20)) + 1
        if gap > 1e-12 else 0
    )
    if eps <= 2 * _tvd_error(w, n, limit, 2.0 ** -53) * (1 + 2.0 ** -20):
        raise InvalidParameterError(
            f"epsilon {eps!r} is at most twice the float64 TVD rounding error at "
            f"step {limit}, the bound from the gap: the mixing time cannot be decided"
        )
    floor = tau = _mixing_floor(gap, eps)
    for lo in range(0, len(starts), MIXING_CHUNK):
        cols = starts[lo:lo + MIXING_CHUNK]
        t, redo, first = _step_starts(
            p32, cols, tau, eps, limit, lambda s: _tvd_bound(w, n, s))
        if redo:
            t = max(t, _step_starts(p, redo, first, eps, limit, lambda s: 0.0)[0])
        tau = t
    if floor and tau == floor:
        raise NumericFailureError(
            f"every start is mixed at the floor {floor} of gap {gap!r}: the gap is underestimated"
        )
    return tau


def _step_starts(p, starts, first: int, eps: float, limit: float, delta) -> tuple:
    """Step point masses at the starts as the columns of an N x len(starts)
    block in P's dtype, X <- P @ X; with the one temporary of a TVD check,
    at most two such blocks are held at once.

    From step `first` on, a column whose TVD is below eps - delta(t) is
    mixed and one at or above eps + delta(t) is not; the rest are
    undecided and are set aside.  The TVD from a fixed start never rises,
    so mixed columns are dropped.  Returns the step at which no column is
    left, the undecided starts, and the first step at which one was found.
    """
    n = p.shape[0]
    starts = np.asarray(starts)
    x = np.zeros((n, starts.size), dtype=p.dtype)
    x[starts, np.arange(starts.size)] = 1.0
    undecided, found = [], None
    t = 0
    while True:
        if t >= first:
            tv = _tvd_to_uniform(x)
            d = delta(t)
            live = tv >= eps + d
            open_ = ~live & (tv >= eps - d)
            if open_.any():
                undecided += starts[open_].tolist()
                found = t if found is None else found
            if not live.any():
                break
            if not live.all():
                # one C-ordered copy: x[:, live] is F-ordered, and `p @ x`
                # would copy it again, a third block
                x = x.compress(live, axis=1)
                starts = starts[live]
        if t >= limit:
            raise NumericFailureError(
                f"a start is not mixed after {t} steps, the bound from the gap: "
                "an eigenvalue was missed, or the chain is disconnected"
            )
        x = p @ x
        t += 1
    return t, undecided, found


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
    side_size: int
    other_size: int
    boundary_size: object  # int (edge count); exact
    ratio: Fraction
    degenerate: bool = False

    def to_json_dict(self) -> dict:
        return {
            "side_size": self.side_size,
            "other_size": self.other_size,
            "boundary_size": self.boundary_size,
            "ratio_num": self.ratio.numerator,
            "ratio_den": self.ratio.denominator,
            "construction": "central-shortest-side",
            "degenerate": self.degenerate,
        }


def cut_gap_bound(cut: CutReport, delta: int) -> Fraction:
    """|dS| N / (2 Delta |S| |S^c|), the Rayleigh quotient of the side's
    centred indicator under I - P: an exact upper bound on the lazy walk's
    spectral gap, by the variational formula (Levin, Peres and Wilmer,
    Markov Chains and Mixing Times).  It is symmetric in the two sides, so
    the side need not be the smaller one; both must be nonempty."""
    n = cut.side_size + cut.other_size
    return Fraction(cut.boundary_size * n, 2 * delta * cut.side_size * cut.other_size)


# ---------------------------------------------------------------------------
# central shortest-side cut (class-level; sizes are Catalan products)


def _tri_arcs(tri: tuple, m: int) -> tuple:
    a, b, c = tri
    return (b - a, c - b, m - (c - a))


def shortest_side_cut(n: int) -> CutReport:
    """The central-class cut S = all classes whose central triangle's
    shortest side spans at most m/6 polygon edges (m = n + 2).

    Computed entirely at class level: class sizes and inter-class matching
    sizes are closed-form Catalan products, so no enumeration is needed.
    Emits a degenerate-cut notice for n < 7.
    """
    from .decomposition import _central_faces, _region_count

    if n < 2:
        raise InvalidParameterError("need n >= 2")
    m = n + 2
    tris = _central_faces(3, m).tolist()
    total = sum(_region_count(3, m, t) for t in tris)
    if total != catalan(n):
        raise InvalidParameterError(
            f"central classes sum to {total}, expected {catalan(n)}"
        )
    in_cut = lambda t: 6 * min(_tri_arcs(t, m)) <= m
    side = [t for t in tris if in_cut(t)]
    other = [t for t in tris if not in_cut(t)]
    s_size = sum(_region_count(3, m, t) for t in side)
    o_size = total - s_size
    # two central classes are matched when their triangles share a side,
    # by the triangulations that hold the quadrilateral they make up
    by_side = {}
    for t in other:
        for e in combinations(t, 2):
            by_side.setdefault(e, []).append(t)
    boundary = sum(
        _region_count(3, m, sorted(set(t1) | set(t2)))
        for t1 in side for e in combinations(t1, 2) for t2 in by_side.get(e, ())
    )
    degenerate = n < 7 or s_size == 0 or o_size == 0
    ratio = Fraction(boundary, s_size) if s_size else Fraction(0)
    return CutReport(s_size, o_size, boundary, ratio, degenerate)


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

    Step i draws a coin in [0, 2 Delta) and moves to the state's coin-th
    neighbour if it has one, else holds.  A coin of Delta or more holds at
    every vertex, so only the coins below Delta are stepped in Python (one
    still holds at a vertex of smaller degree), and one `searchsorted` over
    their positions gives the state at each recorded step.
    """
    if start < 0 or start >= graph.num_vertices:
        raise InvalidParameterError(f"invalid start vertex {start}")
    if steps < 0:
        raise InvalidParameterError(f"steps must be >= 0, got {steps}")
    if thin < 1:
        raise InvalidParameterError(f"thin must be >= 1, got {thin}")
    delta = graph.degree
    if delta < 1:
        raise InvalidParameterError("graph has no edges; the walk cannot move")
    rng = np.random.default_rng(seed)
    n = graph.num_vertices
    counts = np.zeros(n, dtype=np.int64)
    state = start
    counts[state] += 1
    # memoryviews index like lists (a Python int per item) without the copy
    # that tolist() makes, which costs more than a short walk (6 ms at k = 3
    # n = 10, against about 1 ms for 10,000 steps)
    indptr, indices = map(memoryview, graph.csr())
    for lo in range(0, steps, WALK_CHUNK):
        size = min(WALK_CHUNK, steps - lo)
        coins = rng.integers(0, 2 * delta, size=size)
        at = np.flatnonzero(coins < delta)
        # trail[j] is the state after the first j coins below delta
        trail = [state]
        for coin in coins[at].tolist():
            move = indptr[state] + coin
            if move < indptr[state + 1]:
                state = indices[move]
            trail.append(state)
        # chunk offsets of the recorded steps i, those with (i + 1) % thin == 0
        rec = np.arange(-(lo + 1) % thin, size, thin)
        np.add.at(counts, np.array(trail)[np.searchsorted(at, rec, side="right")], 1)
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
