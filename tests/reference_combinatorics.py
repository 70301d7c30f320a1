"""The Stirling-style bracket around the Fuss-Catalan numbers, in a float
flavor and a log-space flavor for large arguments.  No command reports it;
the tests check that it holds the exact counts."""

import math

from flipwalk.errors import FlipwalkError, InvalidParameterError


class RangeExceededError(FlipwalkError, OverflowError):
    """A real-valued result overflows the floating representation."""


def _log_f(k: int, n: int) -> float:
    """log of the Stirling-style estimate f(k, n)."""
    return (
        0.5 * math.log(k - 1)
        - 0.5 * math.log(2.0 * math.pi)
        - 1.5 * math.log((k - 2) * n)
        + (k - 1) * n * math.log(k - 1)
        - (k - 2) * n * math.log(k - 2)
    )


def fuss_catalan_bounds_log(k: int, n: int) -> tuple[float, float]:
    """Natural logs of the guaranteed bracket around fuss_catalan(k, n).

    Returns (log lower, log upper) with
      lower = e^(-1/6) * ((k-2)/(k-1)) * f(k, n),
      upper = e^(1/12) * f(k, n),
    where f(k, n) = sqrt(k-1) / (sqrt(2 pi) ((k-2) n)^(3/2))
                    * (k-1)^((k-1) n) / (k-2)^((k-2) n).
    """
    if k < 3:
        raise InvalidParameterError(f"fuss_catalan_bounds: k must be >= 3, got {k}")
    if n < 1:
        raise InvalidParameterError(f"fuss_catalan_bounds: n must be >= 1, got {n}")
    log_f = _log_f(k, n)
    lo = -1.0 / 6.0 + math.log(k - 2) - math.log(k - 1) + log_f
    hi = 1.0 / 12.0 + log_f
    return lo, hi


def fuss_catalan_bounds(k: int, n: int) -> tuple[float, float]:
    """Float bracket (lower, upper) guaranteed to contain fuss_catalan(k, n).

    Raises RangeExceededError when the values overflow float range; callers
    should fall back to fuss_catalan_bounds_log.
    """
    lo, hi = fuss_catalan_bounds_log(k, n)
    if hi > math.log(1.7976931348623157e308):
        raise RangeExceededError(
            f"fuss_catalan_bounds({k}, {n}) overflows float; use the log variant"
        )
    return math.exp(lo), math.exp(hi)
