"""Domain layer: rationals, prime fields, polynomial rings."""

import ast
import math
import random
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import pytest

import fps_iterate
from fps_iterate import domains
from fps_iterate.domains import (
    _MILLER_RABIN_WITNESSES,
    Domain,
    FpElement,
    Polynomial,
    PolynomialRing,
    PrimeField,
    QFraction,
    RATIONALS,
    Rationals,
    domain_from_json,
    is_prime,
)


def test_miller_rabin_witnesses_are_the_primes_up_to_41():
    # the Sorenson-Webster bound holds for exactly these bases
    primes = [n for n in range(2, 42) if all(n % d for d in range(2, n))]
    assert _MILLER_RABIN_WITNESSES == tuple(primes)


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


def test_is_prime_agrees_with_a_sieve_below_two_million():
    # every n here is below the bound where the witnesses 2, 3, 5, 7 suffice
    limit = 2 * 10**6
    sieve = bytearray([0, 0]) + bytearray([1]) * (limit - 2)
    for i in range(2, math.isqrt(limit) + 1):
        if sieve[i]:
            sieve[i * i :: i] = bytes(len(range(i * i, limit, i)))
    assert [n for n in range(limit) if is_prime(n)] == [
        n for n in range(limit) if sieve[n]
    ]


def test_is_prime_refuses_the_least_strong_pseudoprimes():
    # to the bases 2, 3, 5 (Jaeschke's psi_3); to 2, 3, 5, 7 (psi_4, the
    # least n that takes all the witnesses); to every prime through 17
    for n in (25326001, 3215031751, 341550071728321):
        assert not is_prime(n), n


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


@pytest.mark.parametrize("text", [
    "0", "-0", "+0", "7", "-7", "+7", "007", "-007/014", "0/7", "-0/7",
    "+3/4", "6/4", "-6/4", "10/5", "1/1", " 5/10 ", "\t-12\n",
    "9" * 400 + "/" + "6" * 400, "-" + "1" * 400 + "/" + "7" * 399, "2" * 400,
])
def test_rationals_parse_gives_what_fraction_reads(text):
    # the value Fraction(text) has, an int exactly when it is integral
    got, want = RATIONALS.parse(text), Fraction(text)
    assert got == want
    assert type(got) is (int if want.denominator == 1 else QFraction)
    assert (got.numerator, got.denominator) == (want.numerator, want.denominator)


@pytest.mark.parametrize("text, message", [
    ("3/0", "zero denominator in '3/0'"),
    ("-3/000", "zero denominator in '-3/000'"),
    (" 0/0", "zero denominator in ' 0/0'"),
    ("1.5", "bad rational literal '1.5'"),
    ("1/-2", "bad rational literal '1/-2'"),
    ("1_000", "bad rational literal '1_000'"),
    ("+-1", "bad rational literal '+-1'"),
    ("", "bad rational literal ''"),
    ("\u0661", "bad rational literal '\u0661'"),
])
def test_rationals_parse_errors_name_the_text(text, message):
    with pytest.raises(ValueError) as info:
        RATIONALS.parse(text)
    assert str(info.value) == message


def test_rationals_membership():
    # a rational is an int or a Fraction; bool and float are refused
    for bad in (0.5, True, 1.0):
        with pytest.raises(ValueError):
            RATIONALS.check(bad)
    for good in (1, Fraction(1, 2), Fraction(2), RATIONALS.parse("1/2")):
        RATIONALS.check(good)


def _float_leaks(node, where, found):
    # each true division and each power to a negated exponent under node
    if isinstance(node, (ast.ClassDef, ast.FunctionDef)):
        where = f"{where}.{node.name}"
    if isinstance(node, (ast.BinOp, ast.AugAssign)):
        exponent = node.right if isinstance(node, ast.BinOp) else node.value
        if isinstance(node.op, ast.Div):
            found.append((where, "/"))
        elif isinstance(node.op, ast.Pow) and isinstance(exponent, ast.UnaryOp):
            found.append((where, "**"))
    for child in ast.iter_child_nodes(node):
        _float_leaks(child, where, found)


def test_the_only_true_division_is_rationals_inv():
    """A rational may be an int, and an int / int or int ** -m is a float
    that compares equal to the exact value, so only the output bytes would
    show it. The one true division turns its int into a Fraction first."""
    found = []
    for path in sorted(Path(fps_iterate.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        _float_leaks(tree, path.stem, found)
    assert found == [("domains.Rationals.inv", "/")]


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
    # so are two exponent tuples of one constructor call that pack to one
    # key, down to a zero sum and an integral one
    assert Polynomial(2, {(1, 0): 2, (1,): 3}) == Polynomial(2, {(1,): 5})
    assert Polynomial(2, {(1, 0): Fraction(1, 2), (1,): Fraction(-1, 2)}).is_zero
    assert type(Polynomial(2, {(): Fraction(1, 2), (0, 0): Fraction(3, 2)}).terms[0]) is int


def test_polynomial_validation():
    with pytest.raises(ValueError):
        Polynomial(2, {(1, 2, 3): Fraction(1)})
    with pytest.raises(ValueError):
        Polynomial(2, {(-1,): Fraction(1)})
    with pytest.raises(ValueError):
        Polynomial(2, {(1.0,): Fraction(1)})
    # a zero coefficient does not excuse its exponents
    with pytest.raises(ValueError, match="nonnegative"):
        Polynomial(2, {(-1, 0): 0})
    with pytest.raises(ValueError, match="longer than num_vars"):
        Polynomial(2, {(0, 0, 1): 0})


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


def _raises(fn):
    """Whether ``fn()`` raises the exponent guard's ValueError."""
    try:
        fn()
    except ValueError as exc:
        assert str(exc) == "exponent too large"
        return True
    return False


_RING2 = PolynomialRing(2)
_BIG_A1 = _RING2.variable(1) ** 2**30
_BIG_A2 = _RING2.variable(2) ** 2**30


@pytest.mark.parametrize(
    "coeffs, ys, raises",
    [
        pytest.param([_BIG_A1], [_BIG_A1], True, id="overflow"),
        pytest.param(
            [_BIG_A1], [_RING2.variable(1) ** (2**30 - 1)], False, id="just-below"
        ),
        # the last step's entry 1 is a1*a1^(2^31 - 1) - a1^(2^30)*a1^(2^30):
        # the sum cancels, but each of its products alone overflows; its
        # entry 0 is a1^(2^30 + 1), and the first step's a_2*g_1 is -a1^(2^30)
        pytest.param(
            [_RING2.variable(1), -_RING2.one],
            [_BIG_A1, _RING2.variable(1) ** (2**31 - 1)],
            True,
            id="cancelled",
        ),
        # the zero meets a1^(2^30), which a1^(2^30) in its place would overflow
        pytest.param(
            [_BIG_A2, _RING2.zero], [_BIG_A1, _RING2.one], False, id="zero-factor"
        ),
        pytest.param(
            [_BIG_A1 * _RING2.variable(2), _BIG_A2],
            [_BIG_A2, _RING2.variable(2) ** (2**30 - 1)],
            True,
            id="second-variable",
        ),
        # (a1^H + a2^H)(a1^H - a2^H): the cross terms cancel inside one product
        pytest.param(
            [_BIG_A1 + _BIG_A2], [_BIG_A1 - _BIG_A2], True, id="difference-of-squares"
        ),
        # combine sums a1^(2^31) - a1^(2^31): the key cancels across two pairs
        pytest.param(
            [_BIG_A1, _BIG_A1], [_BIG_A1, -_BIG_A1], True, id="cancelled-across-pairs"
        ),
        pytest.param([], [], False, id="empty"),
    ],
)
def test_polynomial_kernels_guard_exponents_like_mul(coeffs, ys, raises):
    """Each step of ``horner`` sums, per entry, the products of a_j and acc
    with g_1, g_2, ..., and ``combine`` those of x_i with y_i; each kernel
    raises exactly where one of the products it sums would."""

    def products_one_at_a_time():
        # the truncated Horner steps, each product formed alone
        acc = []
        for j in range(len(ys), 0, -1):
            x = [coeffs[j - 1], *acc]
            acc = [
                sum([x[i] * ys[s - i] for i in range(s + 1)], _RING2.zero)
                for s in range(len(x))
            ]
        return acc

    assert _raises(products_one_at_a_time) is raises
    assert _raises(lambda: _RING2.horner(coeffs, ys)) is raises
    assert _raises(lambda: _RING2.combine(coeffs, ys)) is _raises(
        lambda: [x * y for x, y in zip(coeffs, ys)]
    )


@pytest.mark.parametrize(
    "domain", [RATIONALS, PrimeField(7), PolynomialRing(2)], ids=repr
)
def test_dot_of_no_terms_and_one_term(domain):
    # the one entry of a length-1 horner is the one-term dot product a_1*g_1
    x, y = domain.from_fraction(Fraction(2, 3)), domain.from_int(6)
    if isinstance(domain, PolynomialRing):
        x = x + domain.variable(2)
    assert domain.horner([], []) == []
    assert domain.horner((x,), (y,)) == [x * y]
    (z,) = domain.horner([x], [y])
    assert domain.format(z) == domain.format(x * y)


@pytest.mark.parametrize(
    "domain", [RATIONALS, PrimeField(1000003), PolynomialRing(2)], ids=repr
)
def test_combine_sums_up_to_the_shorter_sequence(domain):
    # linear_map, so coeff_recursive and the table, passes a longer
    # sequence beside a shorter one
    rng = random.Random(35)

    def draw():
        x = domain.from_fraction(Fraction(rng.randint(-9, 9), rng.randint(1, 4)))
        return x + domain.variable(rng.randint(1, 2)) if isinstance(domain, PolynomialRing) else x

    for length in range(6):
        xs, ys, extra = [draw() for _ in range(length)], [draw() for _ in range(length)], [draw(), draw()]
        want = sum((x * y for x, y in zip(xs, ys)), domain.zero)
        assert domain.combine(xs, ys) == want
        assert domain.combine(xs + extra, ys) == want
        assert domain.combine(xs, ys + extra) == want


def test_the_base_domain_defines_no_kernel():
    # each domain implements both kernels; the base class has no fallback,
    # and its linear map runs on combine, once per row up to len(xs): none
    # for an empty xs
    base = Domain()
    for kernel in (base.horner, base.combine, lambda xs, row: base.linear_map([row])(xs)):
        with pytest.raises(NotImplementedError):
            kernel([1], [1])
    assert base.linear_map([[1], [1, 1]])([]) == []


# the least primes, 1000003, the largest below 2^32, 2^61 - 1 and the
# largest that PrimeField takes
_EXTREME_PRIMES = pytest.mark.parametrize(
    "p", [2, 3, 1000003, 4294967291, 2**61 - 1,
          next(q for q in range(domains._PRIME_BOUND - 1, 0, -1) if is_prime(q))],
    ids=["2", "3", "1000003", "4294967291", "2^61-1", "top"],
)


@pytest.mark.parametrize("m, packed", [(1, True), (2, False)])
def test_prime_field_horner_packs_residues_only_below_2_to_the_64(monkeypatch, m, packed):
    """Over the largest prime below 2^32, m*(p-1)^2 < 2^64 holds for m = 1
    alone (``packed``): a slot's sum of products fits 8 bytes there and not
    at m = 2. ``horner`` packs both sides one way, in slots wider than 8
    bytes, since acc's slots run to 2p and Barrett's quotient shares the
    slot; each side builds its m elements from residues, once each."""
    field = PrimeField(4294967291)
    assert (m * (field.p - 1) ** 2 < 1 << 64) == packed
    assert domains._horner_layout(m, field.p)[1] > 8
    a = g = [field.from_int(-1)] * m
    # f(g) to order m <= 2: a_1 g_1 x + (a_1 g_2 + a_2 g_1^2) x^2
    expected = [a[0] * g[0]]
    if m == 2:
        expected.append(a[0] * g[1] + a[1] * g[0] * g[0])
    built, residue = [], domains._residue
    monkeypatch.setattr(domains, "_residue", lambda v, p: built.append(v) or residue(v, p))
    got = field.horner(a, g)
    monkeypatch.undo()
    assert len(built) == m and all(0 <= v < field.p for v in built)
    assert got == expected


@_EXTREME_PRIMES
def test_prime_field_horner_equals_the_operator_fold_at_the_extremes(p):
    """``horner`` packs every prime the same way, its slots and Barrett
    quotient sized by m and p. With every input p - 1, each slot's sum of
    products is as large as residues make it; with 0 and p - 1 alternating
    in both operands, every other slot sums nothing, in one order and the
    other. Each against the truncated Horner steps on the element
    operators, for m up to 45."""
    field = PrimeField(p)
    top = field.from_int(-1)

    def fold(coeffs, ys):
        acc = []
        for j in range(len(ys), 0, -1):
            x = [coeffs[j - 1], *acc]
            acc = [sum((x[i] * ys[s - i] for i in range(s + 1)), field.zero) for s in range(len(x))]
        return acc

    for m in (0, 1, 2, 24, 45):
        alternating = [top if i % 2 else field.zero for i in range(m)]
        shifted = [field.zero if i % 2 else top for i in range(m)]
        for coeffs, ys in (([top] * m, [top] * m), (alternating, shifted), (shifted, alternating)):
            got = field.horner(coeffs, ys)
            assert got == fold(coeffs, ys), (p, m)
            assert all(0 <= v.value < p for v in got)


def test_prime_field_horner_takes_one_path():
    """``PrimeField.horner`` packs every prime one way: it has no ``if``
    statement, and its Horner loop packs and unpacks nothing, acc staying
    one int for the whole call."""
    tree = ast.parse(Path(domains.__file__).read_text(encoding="utf-8"))
    (field,) = [n for n in tree.body if isinstance(n, ast.ClassDef) and n.name == "PrimeField"]
    (horner,) = [n for n in field.body if isinstance(n, ast.FunctionDef) and n.name == "horner"]
    assert not [n for n in ast.walk(horner) if isinstance(n, ast.If)]
    (loop,) = [n for n in ast.walk(horner)
               if isinstance(n, ast.For) and ast.unparse(n.iter) == "range(m, 0, -1)"]
    called = {n.func.attr for n in ast.walk(loop)
              if isinstance(n, ast.Call) and isinstance(n.func, ast.Attribute)}
    assert not called & {"pack", "unpack", "unpack_from", "to_bytes", "from_bytes"}


@_EXTREME_PRIMES
def test_prime_field_horner_slots_hold_the_bound(p):
    """The bound argument of ``PrimeField.horner``, on its layout: with
    acc's slots below 2p and the inputs below p, a slot's sum of products
    is at most z = m*(2p-1)*(p-1), which must be below 2^s, and z times
    2^s // p must fit in a slot. Inputs rarely bring a slot near z, so a
    layout one bit short passes the operator-fold checks; this reads the
    layout itself, for every m up to 45."""
    for m in range(1, 46):
        s, size = domains._horner_layout(m, p)
        z = m * (2 * p - 1) * (p - 1)
        assert z < 1 << s, (m, s)
        assert z * ((1 << s) // p) < 1 << 8 * size, (m, size)


@pytest.mark.parametrize("p, width, packed", [
    (4294967291, 1, True), (4294967291, 2, False), (2**31 - 1, 4, True), (2**31 - 1, 5, False),
])
def test_prime_field_linear_map_packs_columns_only_below_2_to_the_64(monkeypatch, p, width, packed):
    """width*(p-1)^2 < 2^64 holds for width 1 alone at the largest prime
    below 2^32, and up to width 4 at 2^31 - 1. Below the bound each of the
    ``width`` columns is packed once, when the map is prepared, and each
    apply unpacks once; at or above it nothing is packed. With every
    entry and x_j at p - 1, slot i sums (i+1)*(p-1)^2, the last slot the
    bound's width*(p-1)^2, and no slot carries. An xs one shorter than the
    rows gives one entry fewer: the map cuts its output at len(xs)."""
    field = PrimeField(p)
    top = field.from_int(-1)
    rows = [[top] * (i + 1) for i in range(width)]
    xs = [top] * width
    packs, unpacks = [], []
    slots = domains._slots

    def counted(n):
        layout = slots(n)
        return SimpleNamespace(pack=lambda *args: packs.append(1) or layout.pack(*args),
                               unpack=lambda z: unpacks.append(1) or layout.unpack(z))

    monkeypatch.setattr(domains, "_slots", counted)
    apply = field.linear_map(rows)
    assert len(packs) == (width if packed else 0)
    got = [apply(xs), apply(xs[:-1])]
    monkeypatch.undo()
    assert len(unpacks) == (2 if packed else 0)
    assert got == [[field.combine(v, row) for row in rows[: len(v)]] for v in (xs, xs[:-1])]
    assert got[0] == [field.from_int((i + 1) * (p - 1) ** 2) for i in range(width)]
    assert len(got[1]) == width - 1


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
    assert ring.substitute(p, q_values, RATIONALS) == 24 - Fraction(1, 6) - 1 + 2
    gf = PrimeField(11)
    got = ring.substitute(p, [gf.from_int(v) for v in (2, 3, 4, 5)], target=gf)
    want = 3 * 2**5 * 4**2 - 3 * 5**7 * pow(2, -1, 11) + 5 + 2
    assert got == gf.from_int(want)


def test_substitute_takes_ints_as_rationals_and_refuses_bool():
    ring = PolynomialRing(2)
    p = ring.parse("1/2*a1^3*a2 - a2^2 + 3")
    ints = ring.substitute(p, [2, -3], RATIONALS)
    assert ints == ring.substitute(p, [Fraction(2), Fraction(-3)], RATIONALS)
    assert ints == -18
    assert ring.substitute(p, [Fraction(2), 3], target=RATIONALS) == 6
    for values in ([True, 2], [2, True]):
        with pytest.raises(ValueError):
            ring.substitute(p, values, RATIONALS)


def _random_elements(domain, rng, count):
    if domain == RATIONALS:
        return [
            Fraction(rng.randint(-20, 20), rng.randint(1, 12))
            for _ in range(count)
        ]
    if isinstance(domain, PrimeField):
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
    # a bool is an int to Python; from_int(True) must still give the element 1
    assert domain.from_int(True) == domain.one
    domain.check(domain.from_int(True))
    rng = random.Random(f"axioms:{domain!r}")
    rounds = 60 if isinstance(domain, PolynomialRing) else 300
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
        sp = ring.substitute(p, values, RATIONALS)
        sq = ring.substitute(q, values, RATIONALS)
        assert ring.substitute(p + q, values, RATIONALS) == sp + sq
        assert ring.substitute(p * q, values, RATIONALS) == sp * sq


def test_substitution_targets():
    ring = PolynomialRing(2)
    p = ring.variable(1) * ring.variable(1) + ring.from_int(3) * ring.variable(2)
    gf7 = PrimeField(7)
    got = ring.substitute(p, [gf7.from_int(2), gf7.from_int(4)], target=gf7)
    assert got == gf7.from_int(2)
    # ints are exact rationals
    assert ring.substitute(p, [2, 4], RATIONALS) == Fraction(16)
    bigger = PolynomialRing(3)
    lifted = ring.substitute(
        p, [bigger.variable(3), bigger.one], target=bigger
    )
    assert lifted == bigger.variable(3) * bigger.variable(3) + bigger.from_int(3)


def test_substitution_errors():
    ring = PolynomialRing(2)
    p = ring.variable(1)
    with pytest.raises(ValueError):
        ring.substitute(p, [Fraction(1)], RATIONALS)
    with pytest.raises(ValueError):
        ring.substitute(p, [Fraction(1), 0.5], RATIONALS)


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


def test_domain_equality_is_the_descriptor():
    domains = [
        RATIONALS, PrimeField(2), PrimeField(13), PolynomialRing(1), PolynomialRing(2)
    ]
    for domain in domains:
        again = domain_from_json(domain.to_json())
        assert again == domain and not again != domain
        assert hash(again) == hash(domain)
    # across types and parameters; {"prime": 2} and {"symbolic": 2} differ
    # only in their key
    for i, a in enumerate(domains):
        for b in domains[i + 1 :]:
            assert a != b and not a == b
    assert RATIONALS == Rationals() and hash(RATIONALS) == hash(Rationals())
    assert RATIONALS != "rational" and PrimeField(2) != {"prime": 2}
    for cls in (Rationals, PrimeField, PolynomialRing):
        assert "__eq__" not in vars(cls) and "__hash__" not in vars(cls)
