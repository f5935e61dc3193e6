"""Coefficients of series powers via multinomial sums over partitions."""

import random
from fractions import Fraction
from itertools import product

import pytest

from fps_iterate.domains import RATIONALS, PolynomialRing
from fps_iterate.multinomial import (
    PowerCoefficientTable,
    enumerate_partitions,
    multinomial_coeff,
    variable_support_bound,
)
from fps_iterate.series import TruncatedSeries


def generic_series(order):
    ring = PolynomialRing(order)
    return TruncatedSeries(
        ring, order, [ring.variable(j) for j in range(1, order + 1)]
    )


def test_partitions_examples():
    assert enumerate_partitions(4, 2) == [(0, 2, 0, 0), (1, 0, 1, 0)]
    assert enumerate_partitions(3, 3) == [(3, 0, 0)]
    assert enumerate_partitions(5, 1) == [(0, 0, 0, 0, 1)]
    assert enumerate_partitions(2, 3) == []
    assert enumerate_partitions(2, 5) == []
    assert enumerate_partitions(1, 1) == [(1,)]


def test_partitions_match_exhaustive_filter():
    # independent oracle: filter the full grid of candidate tuples
    for k in range(1, 7):
        for i in range(1, 7):
            expected = sorted(
                r
                for r in product(range(i + 1), repeat=k)
                if sum(r) == i and sum((j + 1) * rj for j, rj in enumerate(r)) == k
            )
            assert enumerate_partitions(k, i) == expected


def test_partitions_sorted_and_distinct():
    for k in range(1, 9):
        for i in range(1, 9):
            parts = enumerate_partitions(k, i)
            assert parts == sorted(set(parts))


def test_multinomial_against_series_pow_rational():
    rng = random.Random(29)
    for _ in range(10):
        order = 8
        coeffs = [
            Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(order)
        ]
        f = TruncatedSeries(RATIONALS, order, coeffs)
        power = f
        for i in range(1, order + 1):
            for k in range(1, order + 1):
                assert multinomial_coeff(f, k, i) == power.coefficient(k)
            if i < order:
                power = power.mul(f)


def test_multinomial_against_series_pow_symbolic():
    f = generic_series(6)
    power = f
    for i in range(1, 7):
        for k in range(1, 7):
            assert multinomial_coeff(f, k, i) == power.coefficient(k)
        if i < 6:
            power = power.mul(f)


def test_multinomial_frozen_symbolic_values():
    f = generic_series(4)
    ring = f.domain
    a1, a2, a3 = (ring.variable(j) for j in (1, 2, 3))
    two, three = ring.from_int(2), ring.from_int(3)
    assert multinomial_coeff(f, 3, 2) == two * a1 * a2
    assert multinomial_coeff(f, 4, 2) == two * a1 * a3 + a2 * a2
    assert multinomial_coeff(f, 4, 3) == three * a1 ** 2 * a2


def test_multinomial_square_is_convolution():
    # second powers expand by the Cauchy product directly
    f = generic_series(10)
    ring = f.domain
    for k in range(2, 11):
        direct = ring.zero
        for j in range(1, k):
            direct = direct + f.coefficient(j) * f.coefficient(k - j)
        assert multinomial_coeff(f, k, 2) == direct


def test_vanishing_below_the_diagonal():
    f = generic_series(6)
    for i in range(2, 7):
        for k in range(1, i):
            assert multinomial_coeff(f, k, i) == f.domain.zero
    f5 = generic_series(5)
    assert multinomial_coeff(f5, 5, 7) == f5.domain.zero


def test_support_bound():
    assert variable_support_bound(5, 2) == 4
    assert variable_support_bound(4, 4) == 1
    assert variable_support_bound(3, 2) == 2
    with pytest.raises(ValueError):
        variable_support_bound(3, 0)
    with pytest.raises(ValueError):
        variable_support_bound(2, 3)
    # a_k^[i] never involves a_j for j above k-i+1
    f = generic_series(6)
    for k in range(1, 7):
        for i in range(1, k + 1):
            value = multinomial_coeff(f, k, i)
            bound = variable_support_bound(k, i)
            for j in range(bound + 1, 7):
                assert value.degree_in(j) == 0


def test_multinomial_errors():
    f = generic_series(4)
    with pytest.raises(ValueError):
        multinomial_coeff(f, 0, 1)
    with pytest.raises(ValueError):
        multinomial_coeff(f, 1, 0)
    with pytest.raises(ValueError):
        multinomial_coeff(f, 5, 1)


def test_power_coefficient_table():
    f = generic_series(5)
    table = PowerCoefficientTable(f)
    for k in range(1, 6):
        for i in range(1, 6):
            if k < i:
                assert table.get(k, i) == f.domain.zero
            else:
                assert table.get(k, i) == multinomial_coeff(f, k, i)
    # memo returns the identical object on a repeat lookup
    assert table.get(5, 2) is table.get(5, 2)
