"""Property tests over randomly drawn series and CLI inputs.

Every applicable route equals the oracle, composition is associative,
series JSON round-trips byte-exactly, and fuzzed JSON through the CLI exits
0 or 2. Examples are derandomized and bounded, so a run is reproducible and
takes about as long each time.
"""

import io
import json
import sys
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

from fps_iterate import cli
from fps_iterate.domains import RATIONALS, PolynomialRing, PrimeField
from fps_iterate.formulas import NotApplicable
from fps_iterate.series import TruncatedSeries
from fps_iterate.verify import GENERATOR_KINDS, METHODS, REGISTRY

_DOMAINS = (RATIONALS, PrimeField(5), PrimeField(7), PrimeField(97))
_RING = PolynomialRing(4)
_RING3 = PolynomialRing(3)


def _values(dom):
    """Small elements of ``dom``: p/q over Q, any residue over Z/p, and
    q + m*a_i over a polynomial ring."""
    if dom is RATIONALS:
        return st.builds(Fraction, st.integers(-3, 3), st.integers(1, 3))
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
    for name, evaluate in REGISTRY.items():
        try:
            got = evaluate(f, k, n, None, None)
        except NotApplicable:
            continue
        assert got == expected, name


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
