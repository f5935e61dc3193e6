"""Coefficient formulas: recurrence, closed form, small k, a_1 = 1, f_2."""

import math
import random
from fractions import Fraction
from itertools import product

import pytest

from fps_iterate.domains import RATIONALS, PolynomialRing, PrimeField
from fps_iterate.formulas import (
    ClosedFormTerm,
    DecreasingSubset,
    coeff_closed,
    coeff_explicit_small_k,
    coeff_recursive,
    coeff_schroder,
    closed_form_level,
    closed_form_terms,
    count_closed_form_summands,
    enumerate_subsets,
    geometric_factor,
    muckenhoupt_f2,
    nested_geometric_sum,
    nested_sum_binomial,
    rising_product_sum,
)
from fps_iterate.multinomial import PowerCoefficientTable
from fps_iterate.series import TruncatedSeries


def series(*values, order=None):
    coeffs = [Fraction(v) for v in values]
    return TruncatedSeries.from_coefficients(RATIONALS, coeffs, order)


def generic_series(order, a1_is_one=False):
    ring = PolynomialRing(order)
    first = ring.one if a1_is_one else ring.variable(1)
    coeffs = [first] + [ring.variable(j) for j in range(2, order + 1)]
    return TruncatedSeries(ring, order, coeffs)


def random_series(rng, order):
    pool = (1, -1, 2, 3, Fraction(1, 2))
    coeffs = [Fraction(rng.choice(pool))]
    coeffs += [Fraction(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(order - 1)]
    return TruncatedSeries(RATIONALS, order, coeffs)


def test_geometric_factor_examples():
    g = series(2, 1, 0)
    assert geometric_factor(g, 3, 2) == 10
    assert geometric_factor(g, 1, 3) == 3 * 4
    neg = series(-1, 0, 0, 1)
    assert geometric_factor(neg, 4, 2) == 0
    ones = series(1, 1, 1, 1, 1)
    for k in range(1, 6):
        for n in range(1, 6):
            assert geometric_factor(ones, k, n) == n
    # the factor depends only on a_1, so k may exceed the truncation order
    assert geometric_factor(g, 4, 1) == 1
    with pytest.raises(ValueError):
        geometric_factor(g, 1, 0)
    with pytest.raises(ValueError):
        geometric_factor(g, 0, 1)


def test_geometric_factor_is_literal_sum():
    rng = random.Random(37)
    for _ in range(30):
        f = random_series(rng, 6)
        a1 = f.coefficient(1)
        k = rng.randint(1, 6)
        n = rng.randint(1, 7)
        expected = sum(
            (a1 ** (n - 1 + (k - 1) * i) for i in range(n)), Fraction(0)
        )
        assert geometric_factor(f, k, n) == expected


def test_recursive_frozen_examples():
    g = series(2, 1, 0, 0)
    assert coeff_recursive(g, 1, 2) == 4
    assert coeff_recursive(g, 2, 2) == 6
    assert coeff_recursive(g, 3, 2) == 4
    assert coeff_recursive(g, 4, 2) == 1
    quartic = series(1, 1, 1, 1)
    assert coeff_recursive(quartic, 4, 2) == 8
    saw = series(1, 1, 0, 0, 0)
    assert coeff_recursive(saw, 5, 3) == 10


def test_recursive_base_cases():
    f = series(2, 3, 5)
    assert coeff_recursive(f, 1, 5) == 32
    for k in range(1, 4):
        assert coeff_recursive(f, k, 1) == f.coefficient(k)
    ident = series(1, 0, 0)
    for k in (2, 3):
        for n in (1, 2, 5):
            assert coeff_recursive(ident, k, n) == 0
    with pytest.raises(ValueError):
        coeff_recursive(f, 4, 1)
    with pytest.raises(ValueError):
        coeff_recursive(f, 2, 0)


def test_recursive_matches_oracle_random():
    rng = random.Random(41)
    for _ in range(12):
        f = random_series(rng, 7)
        current = f
        for n in range(1, 6):
            if n > 1:
                current = current.compose(f)
            for k in range(1, 8):
                assert coeff_recursive(f, k, n) == current.coefficient(k)


def test_muckenhoupt():
    g = series(2, 1)
    assert muckenhoupt_f2(g, 2) == 6
    assert muckenhoupt_f2(series(3, 0), 4) == 0
    rng = random.Random(43)
    for _ in range(20):
        f = random_series(rng, 2)
        if f.coefficient(1) in (0, 1):
            continue
        current = f
        for n in range(1, 7):
            if n > 1:
                current = current.compose(f)
            assert muckenhoupt_f2(f, n) == current.coefficient(2)


def test_muckenhoupt_errors():
    with pytest.raises(ValueError, match="a_1 in .0, 1."):
        muckenhoupt_f2(series(1, 1), 2)
    with pytest.raises(ValueError, match="coeff_recursive"):
        muckenhoupt_f2(series(0, 1), 2)
    ring = PolynomialRing(2)
    sym = TruncatedSeries(ring, 2, [ring.variable(1), ring.variable(2)])
    with pytest.raises(ValueError, match="field"):
        muckenhoupt_f2(sym, 2)
    with pytest.raises(ValueError):
        muckenhoupt_f2(series(2, 1), 0)


def test_subset_validation():
    s = DecreasingSubset(5, (4, 2))
    assert s.alpha == 3
    assert s.chain == (5, 4, 2)
    with pytest.raises(ValueError):
        DecreasingSubset(2, (1,))
    with pytest.raises(ValueError):
        DecreasingSubset(5, ())
    with pytest.raises(ValueError):
        DecreasingSubset(5, (2, 4))
    with pytest.raises(ValueError):
        DecreasingSubset(5, (5,))
    with pytest.raises(ValueError):
        DecreasingSubset(5, (4, 1))


def test_enumerate_subsets_examples():
    assert [s.js for s in enumerate_subsets(5, 2)] == [(4,), (3,), (2,)]
    assert [s.js for s in enumerate_subsets(5, 3)] == [(4, 3), (4, 2), (3, 2)]
    assert [s.js for s in enumerate_subsets(5, 4)] == [(4, 3, 2)]
    assert [s.js for s in enumerate_subsets(4, 2)] == [(3,), (2,)]
    assert [s.js for s in enumerate_subsets(3, 2)] == [(2,)]
    with pytest.raises(ValueError):
        enumerate_subsets(2, 2)
    with pytest.raises(ValueError):
        enumerate_subsets(5, 5)
    with pytest.raises(ValueError):
        enumerate_subsets(5, 1)


def test_subset_counts():
    assert count_closed_form_summands(3) == 1
    assert count_closed_form_summands(4) == 3
    assert count_closed_form_summands(5) == 7
    for k in range(3, 13):
        total = sum(len(enumerate_subsets(k, a)) for a in range(2, k))
        assert total == count_closed_form_summands(k) == 2 ** (k - 2) - 1
    with pytest.raises(ValueError):
        count_closed_form_summands(2)


def test_nested_geometric_sum_small_cases():
    f = series(2, 1, 1, 1, 1)
    a1 = f.coefficient(1)
    sub = DecreasingSubset(5, (3,))
    # depth 2, bases a1^4 and a1^2, budget n - 2
    for n in range(2, 7):
        direct = Fraction(0)
        for i1 in range(n - 1):
            for i2 in range(n - 1 - i1):
                direct += a1 ** (4 * i1) * a1 ** (2 * i2)
        assert nested_geometric_sum(f, n, sub) == direct
    assert nested_geometric_sum(f, 1, sub) == 0
    deep = DecreasingSubset(5, (4, 3, 2))
    assert nested_geometric_sum(f, 3, deep) == 0
    assert nested_geometric_sum(f, 4, deep) == 1
    assert nested_geometric_sum(series(2, 1, 1), 2, DecreasingSubset(3, (2,))) == 1


def test_nested_geometric_sum_collapses_to_binomial():
    f = series(1, 1, 1, 1, 1, 1)
    for k, js in ((5, (3,)), (5, (4, 2)), (6, (5, 3, 2))):
        sub = DecreasingSubset(k, js)
        for n in range(1, 9):
            expected = Fraction(math.comb(n, sub.alpha))
            assert nested_geometric_sum(f, n, sub) == expected


def _brute_nested_sum(dom, a1, n, subset):
    # sum of prod_m b_m^(i_m) over i_0 + ... + i_(alpha-1) <= n - alpha
    budget = n - subset.alpha  # no index tuples when negative
    total = dom.zero
    powers = [
        [a1 ** ((j - 1) * i) for i in range(budget + 1)] for j in subset.chain
    ]
    for index in product(range(budget + 1), repeat=subset.alpha):
        if sum(index) <= budget:
            term = dom.one
            for row, i in zip(powers, index):
                term = term * row[i]
            total = total + term
    return total


def test_nested_geometric_sum_exhaustive_against_brute_force():
    ring = PolynomialRing(7)
    z7 = PrimeField(7)
    cases = [(RATIONALS, Fraction(a)) for a in (0, 1, -1, 2, Fraction(1, 2))]
    cases += [(z7, z7.from_int(a)) for a in range(7)]
    cases.append((ring, ring.variable(1)))
    subsets = [
        subset
        for k in range(3, 8)
        for alpha in range(2, k)
        for subset in enumerate_subsets(k, alpha)
    ]
    for dom, a1 in cases:
        f = TruncatedSeries(dom, 7, [a1] + [dom.one] * 6)
        for subset, n in product(subsets, range(1, 9)):
            expected = _brute_nested_sum(dom, a1, n, subset)
            assert nested_geometric_sum(f, n, subset) == expected, (
                dom, a1, subset, n,
            )


def test_closed_form_terms_structure():
    f = generic_series(5)
    table = PowerCoefficientTable(f)
    for alpha in range(2, 5):
        terms = closed_form_terms(f, 5, 5, alpha, table)
        assert len(terms) == math.comb(3, alpha - 1)
        assert all(isinstance(t, ClosedFormTerm) for t in terms)
        assert all(t.value == t.prefactor * t.nested_sum for t in terms)
        assert closed_form_terms(f, 5, alpha - 1, alpha, table) == []
    with pytest.raises(ValueError):
        closed_form_terms(f, 5, 3, 5)


def test_closed_frozen_examples():
    g = series(2, 1, 0, 0)
    assert coeff_closed(g, 3, 2) == 4
    quartic = series(1, 1, 1, 1)
    assert coeff_closed(quartic, 4, 2) == 8
    saw = series(1, 1, 0, 0, 0)
    assert coeff_closed(saw, 5, 3) == 10


def test_closed_matches_oracle_random():
    rng = random.Random(47)
    for _ in range(12):
        f = random_series(rng, 7)
        current = f
        for n in range(1, 6):
            if n > 1:
                current = current.compose(f)
            for k in range(1, 8):
                assert coeff_closed(f, k, n) == current.coefficient(k)


def test_closed_equals_recursive_symbolically():
    f = generic_series(5)
    table = PowerCoefficientTable(f)
    for n in range(1, 5):
        for k in range(1, 6):
            assert coeff_closed(f, k, n, table) == coeff_recursive(f, k, n, table)


def test_small_k_equals_closed_symbolically():
    # polynomial identity in a_1..a_5, not just numeric agreement
    f = generic_series(5)
    table = PowerCoefficientTable(f)
    for k in range(1, 6):
        for n in range(1, 6):
            assert coeff_explicit_small_k(f, k, n) == coeff_closed(f, k, n, table)


def test_small_k_frozen_examples():
    g = series(2, 1, 0)
    assert coeff_explicit_small_k(g, 1, 5) == 32
    quartic = series(1, 1, 1, 1)
    assert coeff_explicit_small_k(quartic, 4, 2) == 8
    saw = series(1, 1, 0, 0, 0)
    assert coeff_explicit_small_k(saw, 5, 3) == 10


def test_small_k_rejects_large_k():
    f = series(1, 1, 1, 1, 1, 1)
    with pytest.raises(ValueError, match="coeff_closed"):
        coeff_explicit_small_k(f, 6, 2)
    with pytest.raises(ValueError):
        coeff_explicit_small_k(f, 2, 0)


def test_schroder_frozen_example():
    saw = series(1, 1, 0, 0, 0)
    assert coeff_schroder(saw, 5, 3) == 10
    with pytest.raises(ValueError, match="a_1 = 1"):
        coeff_schroder(series(2, 1, 0), 3, 2)
    with pytest.raises(ValueError):
        coeff_schroder(series(1, 1, 0), 3, 0)


def test_schroder_reference_k4():
    # reference expansion: f_4 = a4*C(n,1) + (5*a2*a3 + a2^3)*C(n,2) + 6*a2^3*C(n,3)
    f = generic_series(4, a1_is_one=True)
    ring = f.domain
    a2, a3, a4 = (f.coefficient(j) for j in (2, 3, 4))
    for n in range(1, 8):
        expected = (
            a4 * ring.from_int(math.comb(n, 1))
            + (ring.from_int(5) * a2 * a3 + a2 ** 3)
            * ring.from_int(math.comb(n, 2))
            + ring.from_int(6) * a2 ** 3 * ring.from_int(math.comb(n, 3))
        )
        assert coeff_schroder(f, 4, n) == expected


def test_schroder_matches_oracle_symbolically():
    f = generic_series(6, a1_is_one=True)
    current = f
    for n in range(1, 6):
        if n > 1:
            current = current.compose(f)
        for k in range(1, 7):
            assert coeff_schroder(f, k, n) == current.coefficient(k)


def test_residual_vanishes_without_middle_coefficients():
    # everything beyond a_k * geometric factor needs some a_j with 2 <= j < k
    for k in range(3, 6):
        f = generic_series(k)
        ring = f.domain
        for n in range(1, 5):
            residual = coeff_closed(f, k, n) - f.coefficient(k) * geometric_factor(
                f, k, n
            )
            assert residual.degree_in(k) == 0
            values = [ring.variable(1)] + [ring.zero] * (k - 2) + [ring.variable(k)]
            collapsed = ring.substitute(residual, values, target=ring)
            assert collapsed == ring.zero


def test_prime_field_methods_agree():
    gf5 = PrimeField(5)
    f = TruncatedSeries(gf5, 5, [gf5.from_int(c) for c in (4, 1, 2, 3, 1)])
    current = f
    for n in range(1, 5):
        if n > 1:
            current = current.compose(f)
        for k in range(1, 6):
            want = current.coefficient(k)
            assert coeff_recursive(f, k, n) == want
            assert coeff_closed(f, k, n) == want
            assert coeff_explicit_small_k(f, k, n) == want
    assert muckenhoupt_f2(f, 3) == f.iterate(3).series.coefficient(2)


def test_closed_form_level_sums_terms():
    f = generic_series(5)
    table = PowerCoefficientTable(f)
    for alpha in range(2, 5):
        total = f.domain.zero
        for term in closed_form_terms(f, 5, 4, alpha, table):
            total = total + term.value
        assert closed_form_level(f, 5, 4, alpha, table) == total


def test_nested_sum_binomial():
    for n in range(0, 26):
        for alpha in range(1, 9):
            assert nested_sum_binomial(n, alpha) == math.comb(n, alpha)
    assert nested_sum_binomial(3, 5) == 0
    assert nested_sum_binomial(4, 4) == 1
    with pytest.raises(ValueError):
        nested_sum_binomial(-1, 2)
    with pytest.raises(ValueError):
        nested_sum_binomial(3, 0)


def test_rising_product_sum():
    assert rising_product_sum(3, 2) == 20
    assert rising_product_sum(5, 1) == 15
    assert rising_product_sum(1, 4) == 24
    for n in range(1, 31):
        for alpha in range(1, 7):
            direct = sum(
                math.prod(range(p, p + alpha)) for p in range(1, n + 1)
            )
            assert rising_product_sum(n, alpha) == direct
    with pytest.raises(ValueError):
        rising_product_sum(0, 2)
    with pytest.raises(ValueError):
        rising_product_sum(2, 0)
