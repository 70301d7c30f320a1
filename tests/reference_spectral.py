"""ARPACK reference for the spectral gap.

This is the earlier solver: `scipy.sparse.linalg.eigsh` for the top two
eigenpairs of the lazy operator (dense `eigh` for N <= 2, where ARPACK
cannot return two), from the same fixed start vector, with lambda_2 taken
as the Rayleigh quotient of its eigenvector, summed in long double.  The
package runs a deflated Lanczos without BLAS instead; the two gaps must
agree to rounding.  `transition_matrix` is the dense P that the exact
small-graph checks compare against.
"""

import numpy as np

from flipwalk.spectral import LANCZOS_SEED


def transition_matrix(chain) -> np.ndarray:
    """The chain's lazy transition matrix P, dense."""
    return chain.operator().toarray()


def eigsh_second_eigenpair(chain) -> tuple:
    """(lambda_2, unit eigenvector) of the chain's operator, by ARPACK."""
    n = chain.num_states
    if n <= 2:
        evals, evecs = np.linalg.eigh(transition_matrix(chain))
        return float(evals[-2]), evecs[:, -2]
    from scipy.sparse.linalg import eigsh

    p = chain.operator()
    v0 = np.random.default_rng(LANCZOS_SEED).standard_normal(n)
    evals, evecs = eigsh(p, k=2, which="LA", v0=v0, tol=0)
    vec = evecs[:, int(np.argmin(evals))]
    # the quotient in long double: the float64 dot products summed 58,786
    # terms 2.4e-15 off at k = 3 n = 11, against 1.3e-16 for numpy's sums
    ld = vec.astype(np.longdouble)
    return float(ld @ (p @ vec) / (ld @ ld)), vec


def eigsh_gap(chain) -> float:
    return 1.0 - eigsh_second_eigenpair(chain)[0]
