"""Exact count formulas and their closed-form brackets."""

from fractions import Fraction

import pytest
from reference_combinatorics import (
    RangeExceededError,
    fuss_catalan_bounds,
    fuss_catalan_bounds_log,
)

from flipwalk.combinatorics import binomial, catalan, fuss_catalan
from flipwalk.errors import InvalidParameterError


def test_catalan_values():
    assert catalan(0) == 1
    assert catalan(5) == 42
    assert catalan(12) == 208012
    assert catalan(20) == 6564120420


def test_catalan_recurrence_cross_validates_binomial():
    for n in range(31):
        assert catalan(n + 1) * (n + 2) == catalan(n) * 2 * (2 * n + 1)


def test_binomial_edge_cases():
    assert binomial(10, 0) == 1
    assert binomial(10, 11) == 0
    assert binomial(10, -1) == 0
    assert binomial(52, 5) == 2598960


def test_fuss_catalan_specializes_to_catalan():
    for n in range(12):
        assert fuss_catalan(3, n) == catalan(n)
    assert fuss_catalan(3, 7) == 429


def test_fuss_catalan_small_values():
    # brute-force hexagon quadrangulation count is 3 (see test_kangulation)
    assert fuss_catalan(4, 2) == 3
    assert fuss_catalan(5, 2) == 4  # (1/7) * binomial(8, 2)
    for k in range(3, 11):
        assert fuss_catalan(k, 1) == 1
        assert fuss_catalan(k, 0) == 1


def test_fuss_catalan_rejects_bad_k():
    with pytest.raises(InvalidParameterError):
        fuss_catalan(2, 3)
    with pytest.raises(InvalidParameterError):
        fuss_catalan(3, -1)


def test_bounds_sandwich_exact():
    for k in (3, 4, 5, 6):
        for n in range(1, 21):
            lo, hi = fuss_catalan_bounds(k, n)
            exact = fuss_catalan(k, n)
            assert Fraction(lo) <= exact <= Fraction(hi), (k, n)


def test_bounds_examples():
    lo, hi = fuss_catalan_bounds(3, 1)
    assert lo <= 1 <= hi
    lo, hi = fuss_catalan_bounds(4, 10)
    assert Fraction(lo) <= fuss_catalan(4, 10) <= Fraction(hi)
    lo, hi = fuss_catalan_bounds(3, 20)
    assert Fraction(lo) <= 6564120420 <= Fraction(hi)


def test_bounds_overflow_falls_back_to_log():
    with pytest.raises(RangeExceededError):
        fuss_catalan_bounds(3, 2000)
    lo, hi = fuss_catalan_bounds_log(3, 2000)
    assert lo < hi
    # ln C_{3,2000} ~ 2000 ln 4 - 1.5 ln 2000; sanity-position the bracket
    import math

    est = 4000 * math.log(2) - 1.5 * math.log(2000) - 0.5 * math.log(math.pi)
    assert lo <= est <= hi
