"""Coefficients of series powers: the power table, the multinomial walk and
the oracle's series powers check each other."""

import ast
import random
from fractions import Fraction
from pathlib import Path

import pytest

import fps_iterate.multinomial as multinomial
from fps_iterate.domains import RATIONALS, PolynomialRing, PrimeField
from fps_iterate.multinomial import PowerCoefficientTable, multinomial_coeff
from fps_iterate.series import TruncatedSeries


def generic_series(order):
    ring = PolynomialRing(order)
    return TruncatedSeries(
        ring, order, [ring.variable(j) for j in range(1, order + 1)]
    )


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
    # a_k^[i] never involves a_j for j above k-i+1
    f = generic_series(6)
    for k in range(1, 7):
        for i in range(1, k + 1):
            value = multinomial_coeff(f, k, i)
            for j in range(k - i + 2, 7):
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
    table = PowerCoefficientTable(f, 5)
    filled = [list(row) for row in table.rows]
    for k in range(1, 6):
        for i in range(1, 6):
            if k < i:
                assert table.get(k, i) == f.domain.zero
            else:
                assert table.get(k, i) == multinomial_coeff(f, k, i)
    # a lookup reads the table's own entry, and no lookup changes the table
    assert table.get(5, 2) is table.rows[5][1]
    assert table.rows == filled
    # the rows are a list, so a bad index must raise rather than wrap around
    for k in (0, -1):
        with pytest.raises(ValueError, match="index k must be >= 1"):
            table.get(k, 1)
    with pytest.raises(ValueError, match="power i must be >= 1"):
        table.get(3, 0)
    with pytest.raises(ValueError, match="insufficient truncation: k=6"):
        table.get(6, 7)
    # every entry three ways: the table's product recurrence, the literal
    # multinomial sum and the oracle's powering by convolution, over Q and
    # Z/1000003 with a_1 in {0, 1, random} and zero middle coefficients, over
    # Z/7 and over Q[a1..a8]
    rng = random.Random(31)
    cases = []
    for dom in (RATIONALS, PrimeField(1000003)):
        def draw():
            return dom.from_fraction(Fraction(rng.randint(-9, 9), rng.randint(1, 3)))
        for a1 in (dom.zero, dom.one, draw()):
            coeffs = [a1] + [draw() for _ in range(11)]
            coeffs[3] = coeffs[6] = coeffs[7] = dom.zero
            cases.append(TruncatedSeries(dom, 12, coeffs))
    field = PrimeField(7)
    ring = PolynomialRing(8)
    symbolic = [ring.variable(j) for j in range(1, 9)]
    symbolic += [ring.variable(1) - ring.variable(2), ring.from_int(3)]
    cases += [
        TruncatedSeries(field, 10, [field.from_int(rng.randint(0, 6)) for _ in range(10)]),
        TruncatedSeries(ring, 10, symbolic),
    ]
    for f in cases:
        table = PowerCoefficientTable(f, f.order)
        power = f
        for i in range(1, f.order + 2):
            for k in range(1, f.order + 1):
                expected = power.coefficient(k)
                assert table.get(k, i) == expected, (f.domain, k, i)
                assert multinomial_coeff(f, k, i) == expected, (f.domain, k, i)
            power = power.mul(f)
        # bad indices raise as the multinomial walk does
        for bad in (
            lambda: table.get(5, 0),
            lambda: table.get(5, -1),
            lambda: multinomial_coeff(f, 5, 0),
        ):
            with pytest.raises(ValueError, match="power i must be >= 1"):
                bad()
        # k beyond the order raises for k < i too, on both lookup paths
        k = f.order + 1
        for bad in (
            lambda: table.get(k, 3),
            lambda: multinomial_coeff(f, k, 3),
            lambda: table.get(k, k + 1),
            lambda: multinomial_coeff(f, k, k + 1),
        ):
            with pytest.raises(ValueError, match=f"insufficient truncation: k={k}"):
                bad()


def test_table_filled_by_powers_matches_the_walk_through_k_12():
    """Every a_k^[i] with i <= k <= 12, the table filled up to row 12 and,
    in a table per k, up to row k, against the multinomial walk: over Q,
    Z/1000003 and Q[a1..a12], with a_1 = 0 and with a_1 a unit or a
    variable."""
    rng = random.Random(35)
    ring = PolynomialRing(12)
    variables = [ring.variable(j) for j in range(1, 13)]
    cases = [(ring, [ring.zero] + variables[1:]), (ring, variables)]
    for dom in (RATIONALS, PrimeField(1000003)):
        higher = [dom.from_fraction(Fraction(rng.randint(-9, 9), rng.randint(1, 5))) for _ in range(11)]
        cases += [(dom, [dom.zero] + higher), (dom, [dom.from_int(-2)] + higher)]
    for dom, coeffs in cases:
        f = TruncatedSeries(dom, 12, coeffs)
        whole = PowerCoefficientTable(f, 12).rows
        assert len(whole) == 13, f.domain
        for k in range(1, 13):
            assert whole[k] == [multinomial_coeff(f, k, i) for i in range(1, k + 1)], (f.domain, k)
            assert PowerCoefficientTable(f, k).rows == whole[: k + 1], (f.domain, k)


@pytest.mark.parametrize("p", [1000003, 2**61 - 1], ids=["packed-1000003", "base-2^61-1"])
def test_table_matches_the_walk_at_k_24_on_top_residues(p):
    """Every a_k^[i] with i <= k <= 24 of the series with every
    coefficient p - 1, against the multinomial walk: the fill's map is
    packed over Z/1000003, (p-1)^2 * 23 < 2^64, and the base map of
    ``combine`` calls over Z/(2^61 - 1)."""
    field = PrimeField(p)
    f = TruncatedSeries(field, 24, [field.from_int(-1)] * 24)
    rows = PowerCoefficientTable(f, 24).rows
    for k in range(1, 25):
        assert rows[k] == [multinomial_coeff(f, k, i) for i in range(1, k + 1)], (p, k)


def test_table_fills_only_up_to_its_top_row():
    """The table holds rows 1..top and no more: a lookup past the top row
    raises, and a top row outside 1..order raises with the walk's texts."""
    f = generic_series(6)
    table = PowerCoefficientTable(f, 3)
    assert [len(row) for row in table.rows] == [0, 1, 2, 3]
    assert table.get(3, 5) == f.domain.zero  # k < i within the order
    for k in (4, 6):
        with pytest.raises(ValueError, match=f"row k={k} is past the table's top row 3"):
            table.get(k, 2)
    with pytest.raises(ValueError, match="index k must be >= 1"):
        PowerCoefficientTable(f, 0)
    with pytest.raises(ValueError, match="insufficient truncation: k=7"):
        PowerCoefficientTable(f, 7)
    with pytest.raises(TypeError):
        PowerCoefficientTable(f)  # the top row has no default


def test_table_and_multinomial_walk_share_no_code():
    """The table and ``multinomial_coeff`` check each other, so neither
    reads the other; the table sums on ``linear_map``, not on ``combine``
    directly, series ``mul`` or the oracle's ``horner``, and the walk keeps
    the element operators."""
    tree = ast.parse(Path(multinomial.__file__).read_text(encoding="utf-8"))

    def names(name):
        (node,) = [n for n in tree.body if getattr(n, "name", None) == name]
        return {
            n.id if isinstance(n, ast.Name) else n.attr
            for n in ast.walk(node)
            if isinstance(n, (ast.Name, ast.Attribute))
        }

    assert not names("multinomial_coeff") & {
        "PowerCoefficientTable", "get", "rows", "combine", "linear_map", "horner"
    }
    assert "linear_map" in names("PowerCoefficientTable")
    assert not names("PowerCoefficientTable") & {"multinomial_coeff", "combine", "horner", "mul"}
