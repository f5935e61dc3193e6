"""Coefficient formulas: recurrence, closed form, small k, a_1 = 1, f_2."""

import math
import random
from fractions import Fraction
from itertools import count, product

import pytest

from fps_iterate.domains import RATIONALS, PolynomialRing, PrimeField
from fps_iterate.formulas import (
    _SMALL_K_CHAIN_PRODUCTS,
    NotApplicable,
    _chain_product,
    coeff_closed,
    coeff_explicit_small_k,
    coeff_recursive,
    coeff_schroder,
    closed_form_level,
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
from fps_iterate.verify import A1_POOL, METHODS, REGISTRY


def series(*values, order=None):
    coeffs = [Fraction(v) for v in values]
    return TruncatedSeries.from_coefficients(RATIONALS, coeffs, order)


def cell(route, f, k, n):
    """f_k^(n) from ``route`` asked for that cell alone."""
    return route(f, range(k, k + 1), range(n, n + 1))[k, n]


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
    assert cell(coeff_recursive, g, 1, 2) == 4
    assert cell(coeff_recursive, g, 2, 2) == 6
    assert cell(coeff_recursive, g, 3, 2) == 4
    assert cell(coeff_recursive, g, 4, 2) == 1
    quartic = series(1, 1, 1, 1)
    assert cell(coeff_recursive, quartic, 4, 2) == 8
    saw = series(1, 1, 0, 0, 0)
    assert cell(coeff_recursive, saw, 5, 3) == 10


def test_recursive_base_cases():
    f = series(2, 3, 5)
    assert cell(coeff_recursive, f, 1, 5) == 32
    for k in range(1, 4):
        assert cell(coeff_recursive, f, k, 1) == f.coefficient(k)
    ident = series(1, 0, 0)
    for k in (2, 3):
        for n in (1, 2, 5):
            assert cell(coeff_recursive, ident, k, n) == 0
    with pytest.raises(ValueError):
        cell(coeff_recursive, f, 4, 1)
    with pytest.raises(ValueError):
        cell(coeff_recursive, f, 2, 0)


def test_recursive_matches_oracle_random():
    rng = random.Random(41)
    for _ in range(12):
        f = random_series(rng, 7)
        current = f
        for n in range(1, 6):
            if n > 1:
                current = current.compose(f)
            for k in range(1, 8):
                assert cell(coeff_recursive, f, k, n) == current.coefficient(k)


def _contract_series():
    """Over Q, Z/1000003 and Q[a1..a5], a series with a generic a_1 and one
    with a_1 = 1, so that each route applies to some cells of each."""
    rng = random.Random(89)
    field = PrimeField(1000003)
    out = []
    for q_a1, p_a1, ring_a1_is_one in ((Fraction(-3, 2), 5, False), (1, 1, True)):
        out.append(series(q_a1, *(Fraction(rng.randint(-9, 9), rng.randint(1, 9))
                                  for _ in range(6))))
        out.append(TruncatedSeries(field, 7, [field.from_int(p_a1)]
                                   + [field.from_int(rng.randrange(1000003)) for _ in range(6)]))
        out.append(generic_series(5, ring_a1_is_one))
    return out


@pytest.mark.parametrize("name", METHODS)
def test_route_returns_exactly_the_asked_cells_it_applies_to(name):
    # one call over ranges of k and n, some starting above 1, returns each
    # cell that the route, asked for that cell alone, does not refuse, and
    # no other; each value is the single-cell answer and the oracle's
    route = REGISTRY[name]
    for f in _contract_series():
        iterates = [f]
        for _ in range(7):
            iterates.append(iterates[-1].compose(f))
        for ks, ns in (
            (range(1, f.order + 1), range(1, 7)),
            (range(3, f.order + 1), range(4, 9)),
            (range(2, 3), range(5, 7)),
            (range(f.order - 1, f.order + 1), range(2, 4)),
        ):
            single = {}
            for k, n in product(ks, ns):
                try:
                    single[k, n] = cell(route, f, k, n)
                except NotApplicable:
                    pass
            try:
                got = route(f, ks, ns)
            except NotApplicable:
                got = {}
            assert got == single, (f.domain, ks, ns)
            for (k, n), value in got.items():
                assert value == iterates[n - 1].coefficient(k), (f.domain, k, n)


def test_recursive_matches_oracle_at_scale():
    # every k at orders 32 and 60 over Z/1000003, where a wrong index bound,
    # truncation or row length would show that k <= 9 can hide; at order 32
    # each route is called on an n window from 1 and one from 31
    p = 1000003
    field = PrimeField(p)
    rng = random.Random(59)

    def draw(order, a1):
        rest = [field.from_int(rng.randrange(p)) for _ in range(order - 1)]
        return TruncatedSeries(field, order, [field.from_int(a1)] + rest)

    for a1 in (0, 1, p - 1):
        f = draw(32, a1)
        iterates = {1: f, 2: f.compose(f), 31: f.iterate(31)}
        iterates[32] = iterates[31].compose(f)
        for route, ns in product((coeff_recursive, coeff_closed), (range(1, 3), range(31, 33))):
            got = route(f, range(1, 33), ns)
            for k, n in product(range(1, 33), ns):
                assert got[k, n] == iterates[n].coefficient(k), (a1, route.__name__, k, n)
    f = draw(60, rng.randrange(p))
    got = coeff_recursive(f, range(1, 61), range(1, 3))
    for n, g in ((1, f), (2, f.compose(f))):
        for k in range(1, 61):
            assert got[k, n] == g.coefficient(k), (k, n)


def test_recursive_and_closed_match_oracle_at_scale_over_q():
    # every k at order 16 over Q, where coefficients grow to over a hundred
    # digits and int and Fraction elements mix; each route is called on an
    # n window from 1 and one from 15
    rng = random.Random(61)
    for a1 in (1, -1, Fraction(1, 2)):
        rest = [
            Fraction(rng.randint(-9, 9), rng.randint(1, 9))
            for _ in range(15)
        ]
        f = TruncatedSeries.from_coefficients(
            RATIONALS, [a1] + [RATIONALS.from_fraction(q) for q in rest]
        )
        iterates = {1: f, 2: f.compose(f), 15: f.iterate(15)}
        iterates[16] = iterates[15].compose(f)
        for route, ns in product((coeff_recursive, coeff_closed), (range(1, 3), range(15, 17))):
            got = route(f, range(1, 17), ns)
            for k, n in product(range(1, 17), ns):
                assert got[k, n] == iterates[n].coefficient(k), (a1, route.__name__, k, n)


def _top_series(p, order=48, below_top=lambda j: 0):
    field = PrimeField(p)
    coeffs = [field.from_int(p - 1 - below_top(j)) for j in range(1, order + 1)]
    return TruncatedSeries(field, order, coeffs)


@pytest.mark.parametrize(
    "f",
    [
        _top_series(2),
        _top_series(2**61 - 1),
        _top_series(2**61 - 1, below_top=lambda j: (37 * j * j + 11 * j + 5) % 64),
    ],
    ids=["prime-2-top", "prime-2^61-1-top", "prime-2^61-1-near-top"],
)
def test_recursive_and_closed_match_oracle_on_top_residues(f):
    # every entry p - 1 or just below it: each Domain.combine of the table,
    # the recurrence and the closed DP sums products of residues near
    # (p - 1)^2 before it reduces them once, the carry edge over Z/2 and
    # the width edge over Z/(2^61 - 1). With every entry p - 1 the series
    # is -x/(1 - x), an involution, over Z/(2^61 - 1) and x/(1 - x), whose
    # n-fold iterate is x/(1 - n*x), over Z/2, so the 96-fold iterate is x;
    # the near-top series has nonzero answers
    want = f.iterate(96)
    for route in (coeff_recursive, coeff_closed):
        got = route(f, range(1, 49), range(96, 97))
        for k in range(1, 49):
            assert got[k, 96] == want.coefficient(k), (route.__name__, k)


def test_routes_over_q_reduce_mod_p_to_the_field_oracle():
    # reduction Q -> Z/p is a ring homomorphism where the denominators are
    # units, so a route's answer over Q, reduced mod p, is the Z/p oracle's
    # coefficient for the reduced series: order 32 over Q, with answers of
    # hundreds of digits, checked without the Q oracle
    rng = random.Random(79)
    fields = [PrimeField(1000003), PrimeField(2**61 - 1)]
    windows = [
        (coeff_recursive, range(1, 3)),
        (coeff_recursive, range(31, 33)),
        (coeff_closed, range(2, 3)),
        (coeff_closed, range(16, 17)),
    ]
    for a1 in (Fraction(1, 2), Fraction(-3, 2), 7):
        rest = [Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(31)]
        f = series(a1, *rest)
        oracles = []
        for field in fields:
            g = TruncatedSeries(field, 32, [field.from_fraction(c) for c in f.coeffs])
            iterates = [g]
            for _ in range(31):
                iterates.append(iterates[-1].compose(g))
            oracles.append((field, iterates))
        for route, ns in windows:
            for (k, n), got in route(f, range(1, 33), ns).items():
                for field, iterates in oracles:
                    want = iterates[n - 1].coefficient(k)
                    assert field.from_fraction(got) == want, (a1, route, k, n)


def test_symbolic_routes_substitute_to_the_rational_routes():
    # substitution Q[a1..a6] -> Q is a ring homomorphism, so the symbolic
    # answer evaluated at a point is the same route's answer over Q there
    f = generic_series(6)
    ring = f.domain
    points = [
        [Fraction(1, 2), 3, Fraction(-2, 3), 1, 0, Fraction(5, 7)],
        [1, Fraction(-1, 2), 2, Fraction(3, 4), -1, 4],
        [-1, 0, Fraction(1, 3), -2, Fraction(7, 5), Fraction(-1, 9)],
        [0, 1, 1, 1, 1, 1],
    ]
    ks, ns = range(1, 7), range(1, 6)
    for route in (coeff_closed, coeff_recursive):
        rational = [route(series(*point), ks, ns) for point in points]
        for (k, n), answer in route(f, ks, ns).items():
            for point, want in zip(points, rational):
                got = ring.substitute(answer, point, target=RATIONALS)
                assert got == want[k, n], (route, point, k, n)


def _char_poly(dom, a1, k):
    """c_0..c_k, lowest first, of chi_k(x) = prod_{m <= k} (x - a_1^m), on
    the element operators."""
    c = [dom.one]
    for m in range(1, k + 1):
        root = a1 ** m
        c = [
            (c[j - 1] if j else dom.zero) - (root * c[j] if j < len(c) else dom.zero)
            for j in range(len(c) + 1)
        ]
    return c


def _assert_cayley_hamilton(f, cells):
    """sum_j c_j * f_k^(n+j) = 0 for the c_j of chi_k, over the cells
    {(k, n): f_k^(n)} of one call on a range of n, at each k and each n
    whose n..n+k they hold.

    The coefficients of f's n-th iterate are row 1 of M^n, M the upper
    triangular iteration matrix of f with diagonal a_1, a_1^2, ...;
    f_k^(n) reads only its leading k x k block, whose characteristic
    polynomial is chi_k, so the sum is row 1 of M^n chi_k(M), which is zero
    (Cayley-Hamilton). It holds over every commutative ring and needs no
    oracle."""
    dom, a1 = f.domain, f.coefficient(1)
    ks = sorted({k for k, _ in cells})
    ns = sorted({n for _, n in cells})
    assert len(ns) > ks[-1]
    for k in ks:
        c = _char_poly(dom, a1, k)
        for n in ns[: len(ns) - k]:
            total = dom.zero
            for j, cj in enumerate(c):
                total = total + cj * cells[k, n + j]
            assert total == dom.zero, (dom, a1, k, n)


# p -> the primes that divide p - 1
_PRIME_FACTORS = {
    1000003: (2, 3, 166667),
    2**61 - 1: (2, 3, 5, 7, 11, 13, 31, 41, 61, 151, 331, 1321),
}


def _primitive_root(p):
    # the least one, found from the prime factors of p - 1
    rest = p - 1
    for q in _PRIME_FACTORS[p]:
        while rest % q == 0:
            rest //= q
    assert rest == 1
    return next(g for g in count(2) if all(pow(g, (p - 1) // q, p) != 1 for q in _PRIME_FACTORS[p]))


@pytest.mark.parametrize("p", list(_PRIME_FACTORS), ids=["prime-1000003", "prime-2^61-1"])
def test_routes_satisfy_the_cayley_hamilton_recurrence_over_z_p(p):
    # at K = 24, recursive on n windows from 1 and from 1,000 and closed
    # from 1, with a_1 in {0, 1, -1, a primitive root, an element of order
    # 3, a random residue}
    root = _primitive_root(p)
    rng = random.Random(p)
    field = PrimeField(p)
    ks = range(1, 25)
    for a1 in (0, 1, p - 1, root, pow(root, (p - 1) // 3, p), rng.randrange(2, p - 1)):
        f = TruncatedSeries(field, 24, [field.from_int(a1)]
                            + [field.from_int(rng.randrange(p)) for _ in range(23)])
        for route, start in ((coeff_recursive, 1), (coeff_recursive, 1000), (coeff_closed, 1)):
            _assert_cayley_hamilton(f, route(f, ks, range(start, start + 32)))


def test_closed_satisfies_the_cayley_hamilton_recurrence_from_n_1000():
    # closed's dynamic program at budgets up to 1,024, at K = 24 over
    # Z/1000003 with a_1 a primitive root; kept apart from the test above,
    # since it takes about as long as all of that test's cases
    p = 1000003
    field = PrimeField(p)
    rng = random.Random(1000)
    f = TruncatedSeries(field, 24, [field.from_int(_primitive_root(p))]
                        + [field.from_int(rng.randrange(p)) for _ in range(23)])
    _assert_cayley_hamilton(f, coeff_closed(f, range(1, 25), range(1000, 1025)))


@pytest.mark.parametrize("p", list(_PRIME_FACTORS), ids=["prime-1000003", "prime-2^61-1"])
def test_recursive_satisfies_the_cayley_hamilton_recurrence_from_n_10000(p):
    # rows 2..10,024 at K = 24, a_1 a primitive root: packed over
    # Z/1000003, the base map of combine calls over Z/(2^61 - 1)
    field = PrimeField(p)
    rng = random.Random(p + 10000)
    f = TruncatedSeries(field, 24, [field.from_int(_primitive_root(p))]
                        + [field.from_int(rng.randrange(p)) for _ in range(23)])
    _assert_cayley_hamilton(f, coeff_recursive(f, range(1, 25), range(10000, 10025)))


@pytest.mark.parametrize("p", list(_PRIME_FACTORS), ids=["prime-1000003", "prime-2^61-1"])
def test_oracle_satisfies_the_cayley_hamilton_recurrence_over_z_p(p):
    # the oracle's iterates at K = 24 on n = 1..25 and 1,000..1,024, with
    # the six a_1 of the routes' test above: over a thousand compositions
    # on Domain.horner per series, and no route. With a_1 = 0, f^(n) is
    # O(x^(2^(n-1))), zero to order 24 from n = 6, so it skips n = 1,000
    root = _primitive_root(p)
    rng = random.Random(p + 1)
    field = PrimeField(p)
    for a1 in (0, 1, p - 1, root, pow(root, (p - 1) // 3, p), rng.randrange(2, p - 1)):
        f = TruncatedSeries(field, 24, [field.from_int(a1)]
                            + [field.from_int(rng.randrange(p)) for _ in range(23)])
        for start in (1, 1000) if a1 else (1,):
            g, cells = f.iterate(start), {}
            for n in range(start, start + 25):
                cells.update(((k, n), g.coefficient(k)) for k in range(1, 25))
                g = g.compose(f)
            _assert_cayley_hamilton(f, cells)


@pytest.mark.parametrize("p", list(_PRIME_FACTORS), ids=["prime-1000003", "prime-2^61-1"])
def test_recursive_matches_oracle_past_row_100(p):
    # every k at K = 24 and n = 150: a step of the recurrence skipped or
    # repeated past row 100 shifts n, which the Cayley-Hamilton identity
    # cannot see
    field = PrimeField(p)
    rng = random.Random(p + 150)
    f = TruncatedSeries(field, 24, [field.from_int(rng.randrange(2, p - 1)) for _ in range(24)])
    got = coeff_recursive(f, range(1, 25), range(150, 151))
    assert [got[k, 150] for k in range(1, 25)] == list(f.iterate(150).coeffs)


def test_routes_satisfy_the_cayley_hamilton_recurrence_over_q():
    # at K = 8 for each a_1 a rational sweep draws, n from 1 to 16
    rng = random.Random(83)
    for a1 in A1_POOL:
        f = series(a1, *(Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(7)))
        routes = [coeff_recursive, coeff_closed, coeff_explicit_small_k]
        if a1 == 1:
            routes.append(coeff_schroder)
        for route in routes:
            _assert_cayley_hamilton(f, route(f, range(1, 9), range(1, 17)))


def test_muckenhoupt():
    g = series(2, 1)
    assert cell(muckenhoupt_f2, g, 2, 2) == 6
    assert cell(muckenhoupt_f2, series(3, 0), 2, 4) == 0
    rng = random.Random(43)
    for _ in range(20):
        f = random_series(rng, 2)
        if f.coefficient(1) in (0, 1):
            continue
        got = muckenhoupt_f2(f, range(1, 3), range(1, 7))
        assert sorted(got) == [(2, n) for n in range(1, 7)]
        current = f
        for n in range(1, 7):
            if n > 1:
                current = current.compose(f)
            assert got[2, n] == current.coefficient(2)


def test_muckenhoupt_errors():
    # the three refusals in this order: no k = 2 asked, no field, a_1 in {0, 1}
    ring = PolynomialRing(3)
    sym = TruncatedSeries(ring, 3, [ring.zero, ring.variable(2), ring.variable(3)])
    with pytest.raises(NotApplicable, match="only k = 2"):
        muckenhoupt_f2(sym, range(3, 4), range(1, 3))
    with pytest.raises(NotApplicable, match="field"):
        muckenhoupt_f2(sym, range(1, 4), range(2, 3))
    with pytest.raises(NotApplicable, match="a_1 in .0, 1."):
        cell(muckenhoupt_f2, series(1, 1), 2, 2)
    with pytest.raises(NotApplicable, match="coeff_recursive"):
        cell(muckenhoupt_f2, series(0, 1), 2, 2)
    for k, n in ((2, 0), (0, 2), (3, 2)):  # a bad index is no route's to skip
        with pytest.raises(ValueError) as caught:
            cell(muckenhoupt_f2, series(0, 1), k, n)
        assert not isinstance(caught.value, NotApplicable), (k, n)


def test_enumerate_subsets_examples():
    assert enumerate_subsets(5, 2) == [(5, 4), (5, 3), (5, 2)]
    assert enumerate_subsets(5, 3) == [(5, 4, 3), (5, 4, 2), (5, 3, 2)]
    assert enumerate_subsets(5, 4) == [(5, 4, 3, 2)]
    assert enumerate_subsets(4, 2) == [(4, 3), (4, 2)]
    assert enumerate_subsets(3, 2) == [(3, 2)]
    assert enumerate_subsets(5, 1) == [(5,)]
    assert enumerate_subsets(2, 1) == [(2,)]
    for k, alpha in ((1, 1), (2, 2), (5, 5), (5, 0)):
        with pytest.raises(ValueError):
            enumerate_subsets(k, alpha)


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
    chain = (5, 3)
    # depth 2, bases a1^4 and a1^2, budget n - 2
    for n in range(2, 7):
        direct = Fraction(0)
        for i1 in range(n - 1):
            for i2 in range(n - 1 - i1):
                direct += a1 ** (4 * i1) * a1 ** (2 * i2)
        assert nested_geometric_sum(f, n, chain) == direct
    assert nested_geometric_sum(f, 1, chain) == 0
    deep = (5, 4, 3, 2)
    assert nested_geometric_sum(f, 3, deep) == 0
    assert nested_geometric_sum(f, 4, deep) == 1
    assert nested_geometric_sum(series(2, 1, 1), 2, (3, 2)) == 1


def test_nested_geometric_sum_collapses_to_binomial():
    f = series(1, 1, 1, 1, 1, 1)
    for chain in ((5, 3), (5, 4, 2), (6, 5, 3, 2)):
        for n in range(1, 9):
            expected = Fraction(math.comb(n, len(chain)))
            assert nested_geometric_sum(f, n, chain) == expected


def _brute_nested_sum(dom, a1, n, chain):
    # sum of prod_m b_m^(i_m) over i_0 + ... + i_(alpha-1) <= n - alpha
    budget = n - len(chain)  # no index tuples when negative
    total = dom.zero
    powers = [[a1 ** ((j - 1) * i) for i in range(budget + 1)] for j in chain]
    for index in product(range(budget + 1), repeat=len(chain)):
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
    chains = [
        chain
        for k in range(3, 8)
        for alpha in range(2, k)
        for chain in enumerate_subsets(k, alpha)
    ]
    for dom, a1 in cases:
        f = TruncatedSeries(dom, 7, [a1] + [dom.one] * 6)
        for chain, n in product(chains, range(1, 9)):
            expected = _brute_nested_sum(dom, a1, n, chain)
            assert nested_geometric_sum(f, n, chain) == expected, (
                dom, a1, chain, n,
            )


def test_closed_form_terms_structure():
    # level alpha of the closed form has one summand per decreasing chain
    # k > j_1 > ... > j_(alpha-1) >= 2; it is zero for n < alpha, level 1
    # is a_k times the geometric factor, and alpha outside [1, k - 1] is
    # refused
    f = generic_series(5)
    for alpha in range(2, 5):
        chains = enumerate_subsets(5, alpha)
        assert len(chains) == math.comb(3, alpha - 1)
        for chain in chains:
            assert len(chain) == alpha and chain[0] == 5 and chain[-1] >= 2
            assert all(a > b for a, b in zip(chain, chain[1:]))
        for n in range(1, alpha):
            assert closed_form_level(f, 5, n, alpha) == f.domain.zero
    for n in range(1, 6):
        want = f.coefficient(5) * geometric_factor(f, 5, n)
        assert closed_form_level(f, 5, n, 1) == want
    for alpha in (0, 5):
        with pytest.raises(ValueError):
            closed_form_level(f, 5, 3, alpha)


def test_closed_form_level_sums_terms():
    # a1^(n - alpha) * sum over chains of chain product * nested sum, with
    # the chain product built here from the power-coefficient table
    f = generic_series(6)
    dom = f.domain
    table = PowerCoefficientTable(f, 6)
    for alpha in range(1, 6):
        for n in range(alpha, 7):
            total = dom.zero
            for chain in enumerate_subsets(6, alpha):
                product_ = f.coefficient(chain[-1])
                for m in range(1, len(chain)):
                    product_ = product_ * table.get(chain[m - 1], chain[m])
                total = total + product_ * nested_geometric_sum(f, n, chain)
            want = f.coefficient(1) ** (n - alpha) * total
            assert closed_form_level(f, 6, n, alpha) == want
        for n in range(1, alpha):
            assert closed_form_level(f, 6, n, alpha) == dom.zero
    for alpha in (0, 6):
        with pytest.raises(ValueError):
            closed_form_level(f, 6, 3, alpha)


def test_closed_frozen_examples():
    g = series(2, 1, 0, 0)
    assert cell(coeff_closed, g, 3, 2) == 4
    quartic = series(1, 1, 1, 1)
    assert cell(coeff_closed, quartic, 4, 2) == 8
    saw = series(1, 1, 0, 0, 0)
    assert cell(coeff_closed, saw, 5, 3) == 10


def test_closed_matches_oracle_random():
    rng = random.Random(47)
    for _ in range(12):
        f = random_series(rng, 7)
        current = f
        for n in range(1, 6):
            if n > 1:
                current = current.compose(f)
            for k in range(1, 8):
                assert cell(coeff_closed, f, k, n) == current.coefficient(k)


def test_closed_equals_the_literal_chain_sum():
    # the dynamic program, called once per series over k from 2, against
    # closed_form_level, which walks the chains one by one
    rng = random.Random(61)
    cases = []
    for a1 in (0, 1, -1, 2, Fraction(1, 2)):
        rest = [Fraction(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(8)]
        cases.append((series(a1, *rest), 9, 7))
    for p in (5, 97):
        field = PrimeField(p)
        for a1 in (0, 1, p - 1, rng.randrange(2, p - 1)):
            rest = [field.from_int(rng.randrange(p)) for _ in range(8)]
            cases.append((TruncatedSeries(field, 9, [field.from_int(a1)] + rest), 9, 7))
    cases.append((generic_series(8), 8, 5))
    for f, k_max, n_max in cases:
        got = coeff_closed(f, range(2, k_max + 1), range(1, n_max + 1))
        for k, n in product(range(2, k_max + 1), range(1, n_max + 1)):
            levels = [closed_form_level(f, k, n, alpha) for alpha in range(1, k)]
            want = sum(levels[1:], levels[0])
            assert got[k, n] == want, (f.domain, k, n)


def test_closed_cold_rational_cell_at_k_and_n_20():
    # 2^18 chains if summed one by one; the dynamic program takes a fraction
    # of a second
    rng = random.Random(67)
    f = series(*(Fraction(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(20)))
    assert cell(coeff_closed, f, 20, 20) == cell(coeff_recursive, f, 20, 20)


def test_closed_equals_recursive_symbolically():
    f = generic_series(5)
    ks, ns = range(1, 6), range(1, 5)
    assert coeff_closed(f, ks, ns) == coeff_recursive(f, ks, ns)


def test_small_k_equals_closed_symbolically():
    # polynomial identity in a_1..a_5, not just numeric agreement
    f = generic_series(5)
    ks, ns = range(1, 6), range(1, 6)
    want = coeff_closed(f, ks, ns)
    assert coeff_explicit_small_k(f, ks, ns) == want
    for k, n in product(ks, ns):
        assert cell(coeff_explicit_small_k, f, k, n) == want[k, n], (k, n)


def test_small_k_equals_closed_at_large_n():
    # the nested sums at n from 16 to 64, over Q with a_1 in {1/2, -3/2} and
    # over Z/1000003 with a_1 in {0, 1, random}
    rng = random.Random(73)
    field = PrimeField(1000003)

    def draw():
        return field.from_int(rng.randrange(1000003))

    cases = [
        series(a1, *(Fraction(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(4)))
        for a1 in (Fraction(1, 2), Fraction(-3, 2))
    ]
    cases += [
        TruncatedSeries(field, 5, [a1] + [draw() for _ in range(4)])
        for a1 in (field.zero, field.one, draw())
    ]
    ks, ns = range(1, 6), range(16, 65)
    for f in cases:
        want = coeff_closed(f, ks, ns)
        assert coeff_explicit_small_k(f, ks, ns) == want, f.domain
        for k in ks:
            assert cell(coeff_explicit_small_k, f, k, 33) == want[k, 33], (f.domain, k)


def test_small_k_chain_products_are_the_multinomial_chain_products():
    # the hand-expanded table covers every chain of every level once, and
    # each entry is that chain's product of power coefficients
    for k in range(2, 6):
        products = _SMALL_K_CHAIN_PRODUCTS[k]
        chains = [c for alpha in range(1, k) for c in enumerate_subsets(k, alpha)]
        assert sorted(products) == sorted(chains)
        f = generic_series(k)
        table = PowerCoefficientTable(f, k)
        for chain, text in products.items():
            assert f.domain.parse(text) == _chain_product(f, chain, table), chain


def test_small_k_frozen_examples():
    g = series(2, 1, 0)
    assert cell(coeff_explicit_small_k, g, 1, 5) == 32
    quartic = series(1, 1, 1, 1)
    assert cell(coeff_explicit_small_k, quartic, 4, 2) == 8
    saw = series(1, 1, 0, 0, 0)
    assert cell(coeff_explicit_small_k, saw, 5, 3) == 10


def test_small_k_rejects_large_k():
    f = series(1, 1, 1, 1, 1, 1)
    with pytest.raises(ValueError, match="coeff_closed"):
        cell(coeff_explicit_small_k, f, 6, 2)
    with pytest.raises(ValueError):
        cell(coeff_explicit_small_k, f, 2, 0)


def test_schroder_frozen_example():
    saw = series(1, 1, 0, 0, 0)
    assert cell(coeff_schroder, saw, 5, 3) == 10
    with pytest.raises(ValueError, match="a_1 = 1"):
        cell(coeff_schroder, series(2, 1, 0), 3, 2)
    with pytest.raises(ValueError):
        cell(coeff_schroder, series(1, 1, 0), 3, 0)


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
        assert cell(coeff_schroder, f, 4, n) == expected


def test_schroder_matches_oracle_symbolically():
    f = generic_series(6, a1_is_one=True)
    current = f
    for n in range(1, 6):
        if n > 1:
            current = current.compose(f)
        for k in range(1, 7):
            assert cell(coeff_schroder, f, k, n) == current.coefficient(k)


def test_schroder_forward_differences_in_n():
    # with a_1 = 1, f_k^(n) = sum_alpha C(n, alpha) * (chain sum at level
    # alpha) is a polynomial in n of degree k - 1 whose top level has the one
    # chain (k, k-1, ..., 2), of product (k-1)! * a_2^(k-1); so the (k-1)-th
    # forward difference is that constant and the k-th vanishes, with no
    # oracle needed: over Z/p to order 32, and over Q[a2..a8] as a
    # polynomial identity
    p = 1000003
    field = PrimeField(p)
    rng = random.Random(71)
    over_field = TruncatedSeries(
        field, 32, [field.one] + [field.from_int(rng.randrange(p)) for _ in range(31)]
    )
    for f, routes in (
        (over_field, (coeff_closed, coeff_recursive)),
        (
            generic_series(8, a1_is_one=True),
            (coeff_closed, coeff_recursive, coeff_schroder),
        ),
    ):
        dom = f.domain
        for route in routes:
            cells = route(f, range(1, f.order + 1), range(1, 2 * f.order + 1))
            for k in range(1, f.order + 1):
                values = [cells[k, n] for n in range(1, 2 * k + 1)]
                for _ in range(k - 1):
                    values = [b - a for a, b in zip(values, values[1:])]
                top = dom.from_int(math.factorial(k - 1)) * f.coefficient(2) ** (k - 1)
                assert values == [top] * (k + 1), (dom, route.__name__, k)


def test_residual_vanishes_without_middle_coefficients():
    # everything beyond a_k * geometric factor needs some a_j with 2 <= j < k
    for k in range(3, 6):
        f = generic_series(k)
        ring = f.domain
        for n in range(1, 5):
            residual = cell(coeff_closed, f, k, n) - f.coefficient(k) * geometric_factor(
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
            assert cell(coeff_recursive, f, k, n) == want
            assert cell(coeff_closed, f, k, n) == want
            assert cell(coeff_explicit_small_k, f, k, n) == want
    assert cell(muckenhoupt_f2, f, 2, 3) == f.iterate(3).coefficient(2)


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
