"""Property tests over randomly drawn series.

Every applicable route equals the oracle, composition is associative, and
series JSON round-trips byte-exactly. Examples are derandomized and
bounded, so a run is reproducible and takes about as long each time.
"""

import json
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from fps_iterate.domains import RATIONALS, PolynomialRing, PrimeField
from fps_iterate.series import TruncatedSeries
from fps_iterate.verify import REGISTRY

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
    for name, (applies, evaluate) in REGISTRY.items():
        if applies(f, k, n):
            assert evaluate(f, k, n, None, None) == expected, name


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
