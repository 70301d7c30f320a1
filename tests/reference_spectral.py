"""scipy references for the lazy operator and the spectral gap, and the
per-step walk.

`scipy_operator` is the lazy operator as scipy builds it, the sum of the
moves and the diagonal as `scipy.sparse` CSR matrices; the package's
`CSRMatrix` must hold the same arrays entry for entry.
`eigsh_second_eigenpair` is the earlier solver: `scipy.sparse.linalg.eigsh` for the top two
eigenpairs of the lazy operator (dense `eigh` for N <= 2, where ARPACK
cannot return two), from the package's fixed splitmix64 start vector
(`spectral._lanczos_start`), with lambda_2 taken as the Rayleigh quotient
of its eigenvector, summed in long double.  The package runs a deflated
Lanczos without BLAS instead; the two gaps must agree to rounding.
`transition_matrix` is the dense P that the exact small-graph checks
compare against.  `step_starts_indexed` is the package's mixing loop as it
dropped mixed columns before, by a boolean column index made contiguous
(three blocks live at once).  `sample_walk_per_step` is the walk loop the
package ran before it stepped only the coins that can move.
"""

import numpy as np
import scipy.sparse as sp

from flipwalk import spectral


def scipy_operator(chain) -> sp.csr_matrix:
    """The chain's lazy operator P = moves + diag(1 - off * degs), off =
    1/(2 Delta), summed by scipy."""
    n = chain.num_states
    indptr, indices = chain.graph.csr()
    degs = np.diff(indptr)
    off = 1.0 / (2 * chain.delta)
    moves = sp.csr_matrix((np.full(indices.size, off), indices, indptr), shape=(n, n))
    return (moves + sp.diags(1.0 - off * degs)).tocsr()


def transition_matrix(chain) -> np.ndarray:
    """The chain's lazy transition matrix P, dense."""
    return scipy_operator(chain).toarray()


def eigsh_second_eigenpair(chain) -> tuple:
    """(lambda_2, unit eigenvector) of the chain's operator, by ARPACK."""
    n = chain.num_states
    if n <= 2:
        evals, evecs = np.linalg.eigh(transition_matrix(chain))
        return float(evals[-2]), evecs[:, -2]
    from scipy.sparse.linalg import eigsh

    p = scipy_operator(chain)
    v0 = spectral._lanczos_start(n)
    evals, evecs = eigsh(p, k=2, which="LA", v0=v0, tol=0)
    vec = evecs[:, int(np.argmin(evals))]
    # the quotient in long double: the float64 dot products summed 58,786
    # terms 2.4e-15 off at k = 3 n = 11, against 1.3e-16 for numpy's sums
    ld = vec.astype(np.longdouble)
    return float(ld @ (p @ vec) / (ld @ ld)), vec


def eigsh_gap(chain) -> float:
    return 1.0 - eigsh_second_eigenpair(chain)[0]


def step_starts_indexed(p, starts, first: int, eps: float, limit: float, delta) -> tuple:
    """`spectral._step_starts` with mixed columns dropped by
    `np.ascontiguousarray(x[:, live])`: (the step at which no column is
    left, the undecided starts, the first step at which one was found)."""
    n = p.shape[0]
    starts = np.asarray(starts)
    x = np.zeros((n, starts.size), dtype=p.dtype)
    x[starts, np.arange(starts.size)] = 1.0
    undecided, found = [], None
    t = 0
    while True:
        if t >= first:
            tv = spectral._tvd_to_uniform(x)
            d = delta(t)
            live = tv >= eps + d
            open_ = ~live & (tv >= eps - d)
            if open_.any():
                undecided += starts[open_].tolist()
                found = t if found is None else found
            if not live.any():
                break
            if not live.all():
                x = np.ascontiguousarray(x[:, live])
                starts = starts[live]
        if t >= limit:
            raise spectral.NumericFailureError(f"a start is not mixed after {t} steps")
        x = p @ x
        t += 1
    return t, undecided, found


def sample_walk_per_step(graph, steps: int, seed: int, start: int, thin: int = 1) -> dict:
    """The walk of `spectral.sample_walk` stepped one coin at a time: the
    histogram of the thinned trajectory, the final state and the chi-square
    statistic.  Coins come `WALK_CHUNK` at a time from one seeded generator,
    as in the package, and every coin, moving or not, is looked at."""
    delta = graph.degree
    rng = np.random.default_rng(seed)
    counts = np.zeros(graph.num_vertices, dtype=np.int64)
    state = start
    counts[state] += 1
    indptr, indices = (a.tolist() for a in graph.csr())
    for lo in range(0, steps, spectral.WALK_CHUNK):
        coins = rng.integers(0, 2 * delta, size=min(spectral.WALK_CHUNK, steps - lo)).tolist()
        for i, coin in enumerate(coins, lo):
            at = indptr[state] + coin
            if at < indptr[state + 1]:
                state = indices[at]
            # else: lazy hold (covers the coin's tails half and any
            # missing moves of an irregular vertex)
            if (i + 1) % thin == 0:
                counts[state] += 1
    expected = counts.sum() / graph.num_vertices
    return {
        "histogram": counts.tolist(),
        "final_state": state,
        "chi_square": float(((counts - expected) ** 2 / expected).sum()),
    }
