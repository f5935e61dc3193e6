"""Domain layer: rationals, prime fields, polynomial rings."""

import random
from fractions import Fraction

import pytest

from fps_iterate.domains import (
    FpElement,
    Polynomial,
    PolynomialRing,
    PrimeField,
    RATIONALS,
    domain_from_json,
    is_prime,
)


def test_is_prime_spot_checks():
    assert is_prime(2)
    assert is_prime(3)
    assert is_prime(97)
    assert is_prime(2305843009213693951)
    assert not is_prime(1)
    assert not is_prime(0)
    assert not is_prime(-7)
    assert not is_prime(4)
    # Carmichael number, trips Fermat-only tests
    assert not is_prime(561)
    assert not is_prime(2305843009213693951 * 3)
    # strong pseudoprime to every base 2..37 (399165290221 * 798330580441)
    assert is_prime(318665857834031151167461) is False


def test_rationals_basic():
    dom = RATIONALS
    a = dom.parse("1/2")
    b = dom.parse("1/3")
    assert a + b == Fraction(5, 6)
    assert dom.format(a + b) == "5/6"
    assert dom.format(dom.from_int(-3)) == "-3"
    assert dom.inv(Fraction(2, 7)) == Fraction(7, 2)
    assert Fraction(1, 2) ** 3 == Fraction(1, 8)
    assert dom.from_fraction(Fraction(9, 12)) == Fraction(3, 4)


def test_rationals_parse_errors():
    with pytest.raises(ValueError):
        RATIONALS.parse("1.5")
    with pytest.raises(ValueError):
        RATIONALS.parse("1/2/3")
    with pytest.raises(ValueError):
        RATIONALS.parse("x")
    with pytest.raises(ValueError):
        RATIONALS.parse("1/0")
    with pytest.raises(ZeroDivisionError):
        RATIONALS.inv(Fraction(0))


def test_rationals_membership():
    with pytest.raises(ValueError):
        RATIONALS.check(0.5)
    with pytest.raises(ValueError):
        RATIONALS.check(1)


def test_prime_field_basic():
    gf5 = PrimeField(5)
    a = gf5.from_int(3)
    b = gf5.from_int(4)
    assert a * b == gf5.from_int(2)
    assert gf5.inv(a) == gf5.from_int(2)
    assert a ** 4 == gf5.one
    assert gf5.format(gf5.from_int(12)) == "2"
    assert gf5.parse("-1") == gf5.from_int(4)
    assert gf5.from_fraction(Fraction(1, 2)) == gf5.from_int(3)


def test_prime_field_errors():
    with pytest.raises(ValueError):
        PrimeField(4)
    with pytest.raises(ValueError):
        PrimeField(1)
    # a Mersenne prime, but above the bound where is_prime is exact
    with pytest.raises(ValueError, match="too large"):
        PrimeField(2**89 - 1)
    gf5 = PrimeField(5)
    with pytest.raises(ZeroDivisionError):
        gf5.inv(gf5.zero)
    with pytest.raises(ValueError):
        gf5.from_fraction(Fraction(1, 5))
    with pytest.raises(ValueError):
        gf5.parse("1/2")
    with pytest.raises(ValueError):
        gf5.check(FpElement(1, 7))


def test_fp_element_strictness():
    a = FpElement(2, 5)
    b = FpElement(3, 7)
    with pytest.raises(ValueError):
        a + b
    with pytest.raises(TypeError):
        a + 1
    with pytest.raises(TypeError):
        1 + a
    with pytest.raises(ValueError):
        a ** -1
    assert a != FpElement(2, 7)
    assert hash(FpElement(2, 5)) == hash(FpElement(7, 5))


def test_polynomial_canonicalization():
    # trailing zero exponents are stripped from keys
    p = Polynomial(3, {(1, 0, 0): Fraction(2)})
    q = Polynomial(3, {(1,): Fraction(2)})
    assert p == q
    # zero coefficients are dropped
    assert Polynomial(3, {(1, 1): Fraction(0)}).is_zero
    # duplicate keys after stripping are merged
    merged = Polynomial(2, {(1, 0): Fraction(2)}) + Polynomial(2, {(1,): Fraction(3)})
    assert merged == Polynomial(2, {(1,): Fraction(5)})


def test_polynomial_validation():
    with pytest.raises(ValueError):
        Polynomial(2, {(1, 2, 3): Fraction(1)})
    with pytest.raises(ValueError):
        Polynomial(2, {(-1,): Fraction(1)})
    with pytest.raises(ValueError):
        Polynomial(2, {(1.0,): Fraction(1)})


def test_polynomial_printing():
    ring = PolynomialRing(4)
    p = Polynomial(
        4, {(3, 1): Fraction(2), (0, 0, 0, 1): Fraction(1, 2)}
    )
    assert str(p) == "2*a1^3*a2 + 1/2*a4"
    assert str(ring.zero) == "0"
    assert str(ring.one) == "1"
    assert str(ring.variable(1)) == "a1"
    minus = ring.zero - ring.variable(1)
    assert str(minus) == "-a1"
    assert str(minus + ring.variable(2)) == "-a1 + a2"
    assert str(ring.variable(2) - ring.one) == "a2 - 1"


def test_polynomial_ordering_graded_lex():
    ring = PolynomialRing(2)
    a1, a2 = ring.variable(1), ring.variable(2)
    p = a2 + a1 * a1 + a1 * a2 + ring.one
    # degree first, then lex on exponents, both descending
    assert str(p) == "a1^2 + a1*a2 + a2 + 1"


def test_polynomial_parse_round_trip():
    ring = PolynomialRing(4)
    rng = random.Random(11)
    for _ in range(200):
        terms = {}
        for _ in range(rng.randint(0, 5)):
            key = tuple(rng.randint(0, 3) for _ in range(4))
            terms[key] = Fraction(rng.randint(-6, 6), rng.choice((1, 2, 3)))
        p = Polynomial(4, terms)
        assert ring.parse(str(p)) == p
    assert ring.parse("2*a1^3*a2 + 1/2*a4") == Polynomial(
        4, {(3, 1): Fraction(2), (0, 0, 0, 1): Fraction(1, 2)}
    )
    assert ring.parse("0").is_zero


def test_polynomial_parse_errors():
    ring = PolynomialRing(2)
    with pytest.raises(ValueError):
        ring.parse("a3")
    with pytest.raises(ValueError):
        ring.parse("a1^")
    with pytest.raises(ValueError):
        ring.parse("b1")
    with pytest.raises(ValueError):
        ring.parse("1/0")
    with pytest.raises(ValueError):
        ring.parse("")


def test_polynomial_strictness():
    p = Polynomial(2, {(1,): Fraction(1)})
    q = Polynomial(3, {(1,): Fraction(1)})
    with pytest.raises(ValueError):
        p + q
    with pytest.raises(TypeError):
        p + 1
    with pytest.raises(TypeError):
        hash(p)
    with pytest.raises(ValueError):
        p ** -2


def test_polynomial_degrees():
    ring = PolynomialRing(3)
    a1, a2, a3 = (ring.variable(j) for j in (1, 2, 3))
    p = a1 * a1 * a2 + a3
    assert p.total_degree() == 3
    assert p.degree_in(1) == 2
    assert p.degree_in(2) == 1
    assert p.degree_in(3) == 1
    assert ring.zero.total_degree() == 0
    assert ring.zero.degree_in(1) == 0


def test_polynomial_pow():
    ring = PolynomialRing(2)
    a1, a2 = ring.variable(1), ring.variable(2)
    p = a1 + a2
    assert p ** 2 == a1 * a1 + ring.from_int(2) * a1 * a2 + a2 * a2
    assert p ** 0 == ring.one
    assert ring.zero ** 0 == ring.one
    assert (ring.from_int(2) * a1) ** 3 == ring.from_int(8) * a1 * a1 * a1


def test_polynomial_exponent_guard():
    ring = PolynomialRing(2)
    big = ring.variable(1) ** 2**30
    assert big.degree_in(1) == 2**30 and big.degree_in(2) == 0
    # 2^31 would set the guard bit, never carry into a2's field
    with pytest.raises(ValueError, match="exponent too large"):
        big * big
    with pytest.raises(ValueError, match="exponent too large"):
        ring.variable(1) ** 2**31
    with pytest.raises(ValueError, match="exponent too large"):
        Polynomial(2, {(2**31,): 1})
    with pytest.raises(ValueError, match="exponent too large"):
        ring.parse("a1^2147483648")


def test_polynomial_coefficients_canonical():
    ring = PolynomialRing(2)
    p = Polynomial(2, {(1,): Fraction(1, 2)}) * Polynomial(2, {(1,): 2})
    assert p == ring.variable(1) ** 2
    assert str(p) == "a1^2"
    assert all(type(c) is int for c in p.terms.values())
    half = Polynomial(2, {(1,): Fraction(1, 2)})
    assert all(type(c) is int for c in (half + half).terms.values())
    text = "1/2*a1^2*a2 - 3/4"
    assert str(ring.parse(text)) == text


def test_polynomial_degrees_and_substitution_multi_field():
    ring = PolynomialRing(4)
    p = ring.parse("3*a1^5*a3^2 - 1/2*a2*a4^7 + a4 + 2")
    assert p.total_degree() == 8
    assert [p.degree_in(j) for j in (1, 2, 3, 4)] == [5, 1, 2, 7]
    q_values = [Fraction(2), Fraction(-1, 3), Fraction(1, 2), Fraction(-1)]
    # 3*2^5*(1/2)^2 - 1/2*(-1/3)*(-1)^7 + (-1) + 2
    assert ring.substitute(p, q_values) == 24 - Fraction(1, 6) - 1 + 2
    gf = PrimeField(11)
    got = ring.substitute(p, [gf.from_int(v) for v in (2, 3, 4, 5)], target=gf)
    want = 3 * 2**5 * 4**2 - 3 * 5**7 * pow(2, -1, 11) + 5 + 2
    assert got == gf.from_int(want)


def _random_elements(domain, rng, count):
    if domain.kind == "rational":
        return [
            Fraction(rng.randint(-20, 20), rng.randint(1, 12))
            for _ in range(count)
        ]
    if domain.kind == "prime_field":
        return [FpElement(rng.randrange(domain.p), domain.p) for _ in range(count)]
    out = []
    for _ in range(count):
        terms = {}
        for _ in range(rng.randint(0, 3)):
            key = tuple(rng.randint(0, 2) for _ in range(domain.num_vars))
            terms[key] = Fraction(rng.randint(-4, 4))
        out.append(Polynomial(domain.num_vars, terms))
    return out


@pytest.mark.parametrize(
    "domain", [RATIONALS, PrimeField(5), PrimeField(97), PolynomialRing(3)]
)
def test_ring_axioms_random(domain):
    rng = random.Random(f"axioms:{domain!r}")
    rounds = 60 if domain.kind == "polynomial_ring" else 300
    for _ in range(rounds):
        x, y, z = _random_elements(domain, rng, 3)
        assert x + y == y + x
        assert x * y == y * x
        assert (x + y) + z == x + (y + z)
        assert (x * y) * z == x * (y * z)
        assert x * (y + z) == x * y + x * z
        assert x + domain.zero == x
        assert x * domain.one == x
        assert x + -x == domain.zero
        assert x - y == x + -y
        if domain.is_field and x != domain.zero:
            assert x * domain.inv(x) == domain.one


@pytest.mark.parametrize("domain", [RATIONALS, PrimeField(5), PrimeField(97)])
def test_pow_matches_repeated_product(domain):
    rng = random.Random(f"pow:{domain!r}")
    for _ in range(100):
        (x,) = _random_elements(domain, rng, 1)
        acc = domain.one
        for e in range(6):
            assert x ** e == acc
            acc = acc * x


def test_substitution_is_homomorphism():
    ring = PolynomialRing(3)
    rng = random.Random(31)
    for _ in range(200):
        p, q = _random_elements(ring, rng, 2)
        values = [Fraction(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(3)]
        sp = ring.substitute(p, values)
        sq = ring.substitute(q, values)
        assert ring.substitute(p + q, values) == sp + sq
        assert ring.substitute(p * q, values) == sp * sq


def test_substitution_targets():
    ring = PolynomialRing(2)
    p = ring.variable(1) * ring.variable(1) + ring.from_int(3) * ring.variable(2)
    gf7 = PrimeField(7)
    got = ring.substitute(p, [gf7.from_int(2), gf7.from_int(4)], target=gf7)
    assert got == gf7.from_int(2)
    # ints are promoted to exact rationals
    assert ring.substitute(p, [2, 4]) == Fraction(16)
    bigger = PolynomialRing(3)
    lifted = ring.substitute(
        p, [bigger.variable(3), bigger.one], target=bigger
    )
    assert lifted == bigger.variable(3) * bigger.variable(3) + bigger.from_int(3)


def test_substitution_errors():
    ring = PolynomialRing(2)
    p = ring.variable(1)
    with pytest.raises(ValueError):
        ring.substitute(p, [Fraction(1)])
    with pytest.raises(ValueError):
        ring.substitute(p, [Fraction(1), 0.5])


def test_polynomial_ring_api():
    ring = PolynomialRing(3)
    assert not ring.is_field
    with pytest.raises(ValueError):
        ring.variable(0)
    with pytest.raises(ValueError):
        ring.variable(4)
    with pytest.raises(ValueError):
        ring.inv(ring.one)
    assert ring.from_fraction(Fraction(2, 3)) == Polynomial(
        3, {(): Fraction(2, 3)}
    )


def test_domain_json_round_trip():
    for domain in (RATIONALS, PrimeField(13), PolynomialRing(4)):
        assert domain_from_json(domain.to_json()) == domain
    assert domain_from_json("rational") == RATIONALS
    with pytest.raises(ValueError):
        domain_from_json({"prime": 15})
    with pytest.raises(ValueError):
        domain_from_json({"weird": 1})
    with pytest.raises(ValueError):
        domain_from_json(3.5)
