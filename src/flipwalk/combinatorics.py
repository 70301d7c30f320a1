"""Exact binomial, Catalan and Fuss-Catalan counts, as arbitrary-precision
integers."""

from __future__ import annotations

from functools import lru_cache

from .errors import InvalidParameterError


def binomial(n: int, k: int) -> int:
    """Exact binomial coefficient by the multiplicative running product.

    Each intermediate division is exact (the running product after step i
    is binomial(n - k + i, i)), so no factorial-sized values appear.
    """
    if k < 0 or k > n:
        return 0
    k = min(k, n - k)
    result = 1
    for i in range(1, k + 1):
        result = result * (n - k + i) // i
    return result


@lru_cache(maxsize=None)
def catalan(n: int) -> int:
    """The n-th Catalan number, (1/(n+1)) * binomial(2n, n)."""
    if n < 0:
        raise InvalidParameterError(f"catalan: n must be >= 0, got {n}")
    return binomial(2 * n, n) // (n + 1)


@lru_cache(maxsize=None)
def fuss_catalan(k: int, n: int) -> int:
    """Number of k-angulations of the convex (k-2)n+2-gon.

    Equals (1/((k-2)n+1)) * binomial((k-1)n, n); specializes to catalan(n)
    at k = 3.
    """
    if k < 3:
        raise InvalidParameterError(f"fuss_catalan: k must be >= 3, got {k}")
    if n < 0:
        raise InvalidParameterError(f"fuss_catalan: n must be >= 0, got {n}")
    return binomial((k - 1) * n, n) // ((k - 2) * n + 1)
