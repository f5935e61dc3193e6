"""Property tests over randomly drawn series and CLI inputs.

Every applicable route equals the oracle, composition is associative,
series JSON round-trips byte-exactly, and fuzzed JSON through the CLI exits
0 or 2. Examples are derandomized and bounded, so a run is reproducible and
takes about as long each time.
"""

import io
import json
import math
import operator
import sys
from contextlib import redirect_stderr, redirect_stdout
from decimal import Decimal
from fractions import Fraction
from unittest import mock

from hypothesis import example, given, settings
from hypothesis import strategies as st

from fps_iterate import cli
from fps_iterate.domains import RATIONALS, PolynomialRing, PrimeField, QFraction
from fps_iterate.formulas import NotApplicable
from fps_iterate.series import TruncatedSeries
from fps_iterate.verify import GENERATOR_KINDS, METHODS, REGISTRY

_DOMAINS = (RATIONALS, PrimeField(5), PrimeField(7), PrimeField(97))
_RING = PolynomialRing(4)
_RING3 = PolynomialRing(3)


def _values(dom):
    """Small elements of ``dom``: ints and p/q Fractions over Q, any residue
    over Z/p, and q + m*a_i over a polynomial ring."""
    if dom is RATIONALS:
        return st.one_of(
            st.integers(-3, 3),
            st.builds(Fraction, st.integers(-3, 3), st.integers(1, 3)),
        )
    if isinstance(dom, PrimeField):
        return st.builds(dom.from_int, st.integers(0, dom.p - 1))
    return st.builds(
        lambda q, m, i: dom.from_fraction(q) + dom.from_int(m) * dom.variable(i),
        st.builds(Fraction, st.integers(-2, 2), st.integers(1, 2)),
        st.integers(-2, 2),
        st.integers(1, dom.num_vars),
    )


@st.composite
def cells(draw):
    """A series of order <= 7 over Q (small p/q) or Z/p, with k <= order, n <= 6."""
    dom = draw(st.sampled_from(_DOMAINS))
    k = draw(st.sampled_from(range(7, 0, -1)))
    order = draw(st.integers(k, 7))
    coeffs = draw(st.lists(_values(dom), min_size=order, max_size=order))
    n = draw(st.integers(1, 6))
    return TruncatedSeries(dom, order, coeffs), k, n


@st.composite
def symbolic_cells(draw):
    """A series of order <= 4 over Q[a1..a4] with k <= order, n <= 4."""
    k = draw(st.sampled_from(range(4, 0, -1)))
    order = draw(st.integers(k, 4))
    coeffs = draw(st.lists(_values(_RING), min_size=order, max_size=order))
    if draw(st.booleans()):
        coeffs[0] = _RING.one  # so that the schroder route applies
    n = draw(st.integers(1, 4))
    return TruncatedSeries(_RING, order, coeffs), k, n


def _assert_routes_equal_oracle(f, k, n):
    expected = f.iterate(n).coefficient(k)
    for name, route in REGISTRY.items():
        try:
            got = route(f, range(k, k + 1), range(n, n + 1))
        except NotApplicable:
            continue
        assert got == {(k, n): expected}, name


@settings(derandomize=True, database=None, deadline=None, max_examples=100)
@given(cells())
def test_applicable_routes_equal_oracle(cell):
    _assert_routes_equal_oracle(*cell)


@settings(derandomize=True, database=None, deadline=None, max_examples=100)
@given(symbolic_cells())
def test_applicable_routes_equal_oracle_symbolic(cell):
    _assert_routes_equal_oracle(*cell)


@st.composite
def series_triples(draw):
    """Three series of one order <= 5 over Z/5, Z/97 or Q[a1..a3]."""
    dom = draw(st.sampled_from((PrimeField(5), PrimeField(97), _RING3)))
    order = draw(st.integers(1, 5))
    coeffs = st.lists(_values(dom), min_size=order, max_size=order)
    return tuple(TruncatedSeries(dom, order, draw(coeffs)) for _ in range(3))


@settings(derandomize=True, database=None, deadline=None, max_examples=60)
@given(series_triples())
def test_composition_is_associative(triple):
    f, g, h = triple
    assert f.compose(g.compose(h)).coeffs == f.compose(g).compose(h).coeffs


def _all_top(p, size):
    """``size`` copies of p - 1 on both sides: every product entry is as
    large as it can be, the carry edge of a packed Z/p product."""
    dom = PrimeField(p)
    return dom, [dom.from_int(p - 1)] * size, [dom.from_int(p - 1)] * size


_Z97 = PrimeField(97)

# pairwise coprime denominators of 22 digits; the composition's entries
# have denominators of 43, 84 and 128 digits
_LARGE_DENOMINATORS = (
    [Fraction(1, 2**70), Fraction(-5, 3**45), 7],
    [Fraction(2**69 + 1, 5**31), 3, Fraction(1, 7**25)],
)


@st.composite
def horner_inputs(draw):
    """Two equally long lists of at most 6 elements of Q, Z/5, Z/97,
    Z/1000003, Z/(2^61 - 1) or Q[a1..a3], for ``horner``."""
    dom = draw(st.sampled_from(
        (RATIONALS, PrimeField(5), _Z97, PrimeField(1000003), PrimeField(2**61 - 1), _RING3)
    ))
    size = draw(st.integers(0, 6))
    coeffs = draw(st.lists(_values(dom), min_size=size, max_size=size))
    ys = draw(st.lists(_values(dom), min_size=size, max_size=size))
    return dom, coeffs, ys


def _horner_fold(dom, coeffs, ys):
    """Horner's rule on the elements' operators, each step's product at full
    length: entry s of (a_j + acc)*g is the fold of x_i*g_(s-i) over i = 0..s,
    with x the list a_j, acc_1, ..., acc_(m-1)."""
    acc = [dom.zero] * len(coeffs)
    for a in reversed(coeffs):
        x = [a, *acc[:-1]]
        acc = []
        for s in range(len(x)):
            total = dom.zero
            for i in range(s + 1):
                total = total + x[i] * ys[s - i]
            acc.append(total)
    return acc


# the largest prime below 2^32: w*(p-1)^2 < 2^64 holds for w = 1 alone, so
# linear_map packs rows of one entry only
_P32 = PrimeField(4294967291)


@settings(derandomize=True, database=None, deadline=None, max_examples=100)
@given(horner_inputs())
@example((RATIONALS, [], []))
@example((PrimeField(5), [], []))
@example((_RING3, [], []))
@example(_all_top(2, 1))
@example(_all_top(2, 33))
@example(_all_top(3, 1))
@example(_all_top(3, 33))
@example(_all_top(1000003, 1))
@example(_all_top(1000003, 33))
@example(_all_top(2**61 - 1, 1))
@example(_all_top(2**61 - 1, 33))
@example(_all_top(_P32.p, 1))
@example(_all_top(_P32.p, 2))
# the first step leaves acc_0 = p - 1, so the second step's x^1 entry is
# 2*(p-1)^2, above 2^64: more than an 8-byte slot holds
@example((_P32, [_P32.from_int(-1), _P32.one], [_P32.from_int(-1)] * 2))
# length 33 in each domain
@example((RATIONALS, [Fraction(j, 7) for j in range(33)], list(range(-16, 17))))
@example((_Z97, [_Z97.from_int(j * j) for j in range(33)], [_Z97.one] * 33))
@example(
    (_RING3, [_RING3.variable(j % 3 + 1) for j in range(33)], [_RING3.one] * 33)
)
@example((RATIONALS, [Fraction(1, 2), Fraction(-2, 3), 5], [Fraction(3, 4), 1, Fraction(-1, 6)]))
@example((_RING3, [_RING3.variable(1), _RING3.variable(2)], [_RING3.one, _RING3.variable(3)]))
# m = 1: one step, one entry
@example((RATIONALS, [Fraction(2, 3)], [Fraction(-3, 4)]))
@example((_Z97, [_Z97.from_int(50)], [_Z97.from_int(60)]))
@example((_RING3, [_RING3.variable(1)], [_RING3.variable(2) + _RING3.one]))
@example((_RING3, [_RING3.variable(1) + _RING3.one], [_RING3.variable(3)]))
# m = 2 with a denominator in one operand only, or in both
@example((RATIONALS, [2, Fraction(1, 2)], [Fraction(1, 3), 3]))
@example((RATIONALS, [Fraction(1, 2), Fraction(1, 3)], [Fraction(1, 3), Fraction(5, 2)]))
@example((RATIONALS, [Fraction(1, 2), Fraction(1, 3)], [3, 2]))
@example((RATIONALS, *_LARGE_DENOMINATORS))
# g_1 = 0: every step's product starts at x^2
@example((RATIONALS, [Fraction(1, 2), 3, Fraction(-2, 5)], [0, Fraction(1, 3), 2]))
@example((_Z97, [_Z97.from_int(5), _Z97.from_int(96), _Z97.one], [_Z97.zero, _Z97.from_int(3), _Z97.one]))
# denominators near 10^30 on both sides, a new one at every step
@example((
    RATIONALS,
    [Fraction(10**30 - 1, 10**30 + 1), Fraction(-7, 10**30 + 3), Fraction(10**29, 10**30 + 7)],
    [Fraction(3, 10**30 + 9), Fraction(10**30 - 3, 10**30 + 11), Fraction(-2, 10**30 - 1)],
))
# fractions on both sides whose common denominator cancels: -4, -9, -14
@example((RATIONALS, [2, Fraction(-3, 2), Fraction(3, 4)], [-2, Fraction(-3, 2), Fraction(1, 2)]))
def test_horner_equals_the_operator_fold(case):
    dom, coeffs, ys = case
    # the kernels form fewer entries per step, on their own arithmetic,
    # and must still agree with the full-length fold
    expected = _horner_fold(dom, coeffs, ys)
    got = dom.horner(coeffs, ys)
    assert got == expected
    assert [dom.format(z) for z in got] == [dom.format(z) for z in expected]
    assert all(dom.contains(z) for z in got)
    if dom is RATIONALS:  # an integral entry is an int
        assert [type(z) is int for z in got] == [z.denominator == 1 for z in got]
    if isinstance(dom, PolynomialRing):  # ints stay ints, Fractions are reduced
        assert [{e: type(c) for e, c in z.terms.items()} for z in got] == [
            {e: type(c) for e, c in z.terms.items()} for z in expected
        ]


@st.composite
def combine_inputs(draw):
    """Two equally long lists of at most 40 elements of Q (ints and
    Fractions mixed), Z/5, Z/97 or Q[a1..a4], for ``combine``."""
    dom = draw(st.sampled_from((RATIONALS, PrimeField(5), PrimeField(97), _RING)))
    size = draw(st.integers(0, 40))
    xs = draw(st.lists(_values(dom), min_size=size, max_size=size))
    ys = draw(st.lists(_values(dom), min_size=size, max_size=size))
    return dom, xs, ys


@settings(derandomize=True, database=None, deadline=None, max_examples=100)
@given(combine_inputs())
@example((RATIONALS, [], []))
@example((_Z97, [], []))
@example((_RING, [], []))
@example((RATIONALS, [Fraction(2, 3)], [Fraction(-3, 4)]))
@example((_Z97, [_Z97.from_int(50)], [_Z97.from_int(60)]))
@example((_RING, [_RING.variable(4) + _RING.one], [_RING.variable(2)]))
@example((RATIONALS, [Fraction(1, 2), 3, Fraction(1, 2)], [1, Fraction(1, 3), -1]))
@example((RATIONALS, [Fraction(j, 7) if j % 2 else j for j in range(40)], list(range(-20, 20))))
@example((RATIONALS, [Fraction(1, 2), Fraction(1, 3)], [2, 3]))
@example((RATIONALS, [3, Fraction(6, 3), -1, Fraction(1, 2)], [Fraction(-8, 4), 5, Fraction(7), 4]))
@example((RATIONALS, *_LARGE_DENOMINATORS))
@example(_all_top(2, 1))
@example(_all_top(2, 40))
@example(_all_top(2**61 - 1, 1))
@example(_all_top(2**61 - 1, 40))
def test_combine_equals_operator_fold(case):
    dom, xs, ys = case
    expected = dom.zero
    for x, y in zip(xs, ys):
        expected = expected + x * y
    got = dom.combine(xs, ys)
    assert got == expected
    assert dom.contains(got)
    assert dom.format(got) == dom.format(expected)
    if dom is RATIONALS:  # an integral sum is an int, even where the fold's is not
        assert (type(got) is int) == (got.denominator == 1)
    if isinstance(dom, PolynomialRing):  # ints stay ints, Fractions are reduced
        assert {e: type(c) for e, c in got.terms.items()} == {
            e: type(c) for e, c in expected.terms.items()
        }


@st.composite
def linear_map_inputs(draw):
    """Lower-triangular rows, row i holding at most i + 1 elements and
    ragged below that, and two vectors of up to two more elements than the
    longest row, over Q, Q[a1..a4], Z/1000003, Z/(2^61 - 1) or
    Z/4294967291, for ``linear_map``."""
    dom = draw(st.sampled_from((RATIONALS, _RING, PrimeField(1000003), PrimeField(2**61 - 1), _P32)))
    values = _values(dom)
    rows = [draw(st.lists(values, max_size=i + 1)) for i in range(draw(st.integers(0, 10)))]
    vectors = st.lists(values, max_size=max(map(len, rows), default=0) + 2)
    return dom, rows, draw(vectors), draw(vectors)


def _power_shaped(p, size):
    # the power table's shape, rows 1..size, every entry and x_j p - 1
    dom = PrimeField(p)
    top = dom.from_int(p - 1)
    return dom, [[top] * (i + 1) for i in range(size)], [top] * size, [top] * (size - 1)


@settings(derandomize=True, database=None, deadline=None, max_examples=100)
@given(linear_map_inputs())
@example((RATIONALS, [], [], [1]))
@example((_RING, [[_RING.variable(1)], [_RING.one, _RING.variable(3)]], [_RING.variable(2)], []))
@example(_power_shaped(1000003, 24))
@example(_power_shaped(2**61 - 1, 24))
@example(_power_shaped(4294967291, 1))
@example(_power_shaped(4294967291, 2))
def test_linear_map_equals_combine_per_row(case):
    # one prepared map applied to two vectors, each shorter or longer than
    # the rows, and cut to the rows the vector reaches; packed over
    # Z/1000003 and Z/4294967291 at width 1
    dom, rows, xs, ys = case
    apply = dom.linear_map(rows)
    for vector in (xs, ys):
        expected = [dom.combine(vector, row) for row in rows[: len(vector)]]
        got = apply(vector)
        assert got == expected
        assert all(map(dom.contains, got))
        assert list(map(dom.format, got)) == list(map(dom.format, expected))
        assert list(map(type, got)) == list(map(type, expected))


@st.composite
def equal_values(draw):
    """An element x of Q, Z/5, Z/97 or Q[a1..a4] and (x + z) - z for a drawn
    z: over Q an int x and a Fraction z give an integral Fraction."""
    dom = draw(st.sampled_from((RATIONALS, PrimeField(5), _Z97, _RING)))
    x, z = draw(_values(dom)), draw(_values(dom))
    return dom, x, (x + z) - z


@settings(derandomize=True, database=None, deadline=None, max_examples=100)
@given(equal_values())
@example((RATIONALS, 3, Fraction(7, 2) - Fraction(1, 2)))
@example((RATIONALS, -2, Fraction(-2, 3) * 3))
@example((PrimeField(5), PrimeField(5).from_int(2), PrimeField(5).from_int(7)))
@example((_Z97, _Z97.from_int(49), _Z97.from_fraction(Fraction(1, 2))))
@example(
    (
        _RING,
        _RING.parse("1/2 - 2*a3 + a1^2*a4"),
        _RING.variable(1) ** 2 * _RING.variable(4)
        - _RING.from_int(2) * _RING.variable(3)
        + _RING.from_fraction(Fraction(1, 2)),
    )
)
def test_equal_values_format_alike(case):
    # a sweep reports a route value equal to the oracle's with the oracle's
    # text, which is right only because equal values print alike
    dom, x, y = case
    assert x == y
    text = dom.format(x)
    assert dom.format(y) == text
    assert dom.format(dom.parse(text)) == text


# numerators and denominators of about 1, 12 and 30 digits
_HEIGHTS = st.one_of(
    st.integers(-9, 9), st.integers(-10**12, 10**12), st.integers(-10**30, 10**30)
)
_OPERANDS = st.one_of(
    st.sampled_from([0, 1, -1]),
    _HEIGHTS,
    st.builds(Fraction, _HEIGHTS, _HEIGHTS.filter(bool)),
    st.builds(lambda n, d: RATIONALS.from_fraction(Fraction(n, d)), _HEIGHTS, _HEIGHTS.filter(bool)),
    st.builds(QFraction, _HEIGHTS),  # integral, as only the constructor makes one
    st.booleans(),
    st.floats(),
    st.sampled_from([Decimal("1.5"), 1j]),
)
_RATIONAL_CLASSES = (int, Fraction, QFraction)


def _stdlib(x):
    """``x`` with a QFraction replaced by the equal stdlib Fraction."""
    return Fraction(x) if x.__class__ is QFraction else x


def _outcome(op, *args):
    try:
        return "value", op(*args)
    except Exception as exc:  # noqa: BLE001 - the exception's type is compared
        return "raise", type(exc)


def _assert_like_stdlib(op, *args, fast):
    """``op(*args)`` as stdlib Fraction gives it on the same values: the same
    exception type, or an equal result that hashes alike. On a fast path (all
    operands int, Fraction or QFraction, one of them a QFraction) the result
    is an int exactly when it is integral, and a QFraction in lowest terms
    with a denominator above 1 otherwise; off it, it has stdlib's type."""
    got_kind, got = _outcome(op, *args)
    want_kind, want = _outcome(op, *map(_stdlib, args))
    assert got_kind == want_kind, (args, got, want)
    if got_kind == "raise":
        assert got is want
        return
    if isinstance(want, complex) or isinstance(want, float) and math.isnan(want):
        assert type(got) is type(want) and repr(got) == repr(want)
        return
    assert got == want and want == got and hash(got) == hash(want), (args, got, want)
    if not fast:
        assert type(got) is type(want)
    elif type(got) is QFraction:
        assert got._denominator > 1 and math.gcd(got._numerator, got._denominator) == 1
    else:
        assert type(got) is int


@settings(derandomize=True, database=None, deadline=None, max_examples=400)
@given(_OPERANDS, _OPERANDS, st.one_of(st.integers(0, 6), st.sampled_from([-2, True, 0.5, Fraction(1, 2)])))
@example(Fraction(1, 2), 2, 3)
@example(RATIONALS.parse("1/2"), RATIONALS.parse("-3/2"), 0)
@example(RATIONALS.parse("1/6"), RATIONALS.parse("1/3"), 2)  # the sum's second gcd
@example(RATIONALS.parse("2/3"), RATIONALS.parse("3/4"), 1)  # cancelled on both sides
@example(RATIONALS.parse("3/2"), 1, 1)  # equal numerators, unequal values
@example(RATIONALS.parse("1/2"), True, -2)
@example(RATIONALS.parse("1/2"), float("nan"), 0.5)
@example(RATIONALS.parse("1/2"), Decimal("1.5"), Fraction(1, 2))
@example(QFraction(0), 0, -2)
def test_rational_element_operators_equal_stdlib_fraction(a, b, exponent):
    rational = a.__class__ in _RATIONAL_CLASSES and b.__class__ in _RATIONAL_CLASSES
    fast = rational and QFraction in (a.__class__, b.__class__)
    for op in (operator.add, operator.sub, operator.mul):
        _assert_like_stdlib(op, a, b, fast=fast)
    assert (a == b) is (_stdlib(a) == _stdlib(b))
    assert (a != b) is (_stdlib(a) != _stdlib(b))
    for x in (a, b):
        power_is_fast = x.__class__ is QFraction and exponent.__class__ is int and exponent >= 0
        _assert_like_stdlib(operator.pow, x, exponent, fast=power_is_fast)
        if x.__class__ is QFraction:
            _assert_like_stdlib(operator.neg, x, fast=True)
            assert hash(x) == hash(_stdlib(x))
            assert repr(x) == f"Fraction({x.numerator}, {x.denominator})" == repr(_stdlib(x))


@st.composite
def any_series(draw):
    """A series of order <= 6 over Q, Z/5, Z/97 or Q[a1..a3]."""
    dom = draw(st.sampled_from((RATIONALS, PrimeField(5), PrimeField(97), _RING3)))
    order = draw(st.integers(1, 6))
    coeffs = draw(st.lists(_values(dom), min_size=order, max_size=order))
    return TruncatedSeries(dom, order, coeffs)


@settings(derandomize=True, database=None, deadline=None, max_examples=100)
@given(any_series())
def test_series_json_round_trips(f):
    text = json.dumps(f.to_json())
    back = TruncatedSeries.from_json(json.loads(text))
    assert json.dumps(back.to_json()) == text
    assert back.domain == f.domain and back.coeffs == f.coeffs


# Fuzzed CLI input: JSON values built around the real keys, method names
# and domain descriptors, any part of which may be arbitrary JSON instead.
# Every int is in -2..4, so k, n, orders and counts stay small and no
# example runs long.
_INTS = st.sampled_from((2, 1, 3, 4, 0, -1, -2))
_COEFFS = ("1", "2", "-1", "0", "1/2", "-3/4", "a1", "2*a1^2 + 1/2*a3", "a9", "x")
_WORDS = (
    ("rational", "prime", "symbolic", "domain", "order", "coeffs", "k_range")
    + ("k_max", "n_range", "n_max", "domains", "methods", "generator", "kind")
    + ("seed", "count", "a1", "series", "generic", "one", "explicit_small_k")
    + METHODS
    + GENERATOR_KINDS
    + _COEFFS
)
_JSON = st.recursive(
    st.none()
    | st.booleans()
    | _INTS
    | st.sampled_from((1.5, 1e300))
    | st.sampled_from(_WORDS),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.sampled_from(_WORDS), inner, max_size=4),
    max_leaves=6,
)


def _mostly(strategy):
    """``strategy`` three times in four, arbitrary JSON otherwise."""
    return st.sampled_from((strategy, strategy, strategy, _JSON)).flatmap(lambda s: s)


_DOMAIN = _mostly(
    st.sampled_from(("rational", "rational"))
    | st.builds(lambda p: {"prime": p}, _INTS)
    | st.builds(lambda K: {"symbolic": K}, _INTS)
)
_SERIES = _mostly(
    st.fixed_dictionaries(
        {"coeffs": st.lists(st.sampled_from(_COEFFS), min_size=1, max_size=4)},
        optional={"domain": _DOMAIN, "order": _INTS, "extra": _JSON},
    )
)
_GENERATOR = _mostly(
    st.fixed_dictionaries(
        {"kind": _mostly(st.sampled_from(GENERATOR_KINDS))},
        optional={
            "seed": _INTS,
            "count": _INTS,
            "order": _INTS,
            "a1": _mostly(st.sampled_from(("generic", "one"))),
            "series": st.lists(_SERIES, max_size=3),
        },
    )
)
_SPEC = _mostly(
    st.fixed_dictionaries(
        {
            "k_max": _INTS,
            "n_max": _INTS,
            "methods": _mostly(
                st.lists(
                    st.sampled_from(METHODS + ("explicit_small_k",)),
                    min_size=2,
                    max_size=4,
                    unique=True,
                )
            ),
            "generator": _GENERATOR,
        },
        optional={
            "k_range": _mostly(st.lists(_INTS, min_size=2, max_size=2)),
            "n_range": _mostly(st.lists(_INTS, min_size=2, max_size=2)),
            "domains": _mostly(st.lists(_DOMAIN, min_size=1, max_size=2)),
        },
    )
)


def _run_cli(argv, value):
    out, err = io.StringIO(), io.StringIO()
    stdin = mock.patch.object(sys, "stdin", io.StringIO(json.dumps(value)))
    with stdin, redirect_stdout(out), redirect_stderr(err):
        code = cli.main(argv)
    return code, err.getvalue()


@settings(derandomize=True, database=None, deadline=None, max_examples=150)
@given(
    _SERIES, _SPEC, _INTS, _INTS, st.sampled_from(METHODS), st.none() | _INTS
)
def test_cli_exits_0_or_2_on_fuzzed_json(series, spec, k, n, method, order):
    pad = [] if order is None else ["--order", str(order)]
    for argv, value in (
        (["iterate", "-", "-n", str(n), *pad], series),
        (["coeff", "-", "-k", str(k), "-n", str(n), "--method", method, *pad], series),
        (["verify", "--sweep-spec", "-"], spec),
    ):
        code, err = _run_cli(argv, value)
        assert code in (0, 2), (argv, value, err)
        if code == 2:
            assert sum("error:" in line for line in err.splitlines()) == 1, err
            assert "Traceback" not in err, err
