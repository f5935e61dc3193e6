"""Property tests: randomly drawn series, every applicable route equals the oracle.

Examples are derandomized and bounded, so a run is reproducible and takes
about as long each time.
"""

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from fps_iterate.domains import RATIONALS, PolynomialRing, PrimeField
from fps_iterate.series import TruncatedSeries
from fps_iterate.verify import REGISTRY

_DOMAINS = (RATIONALS, PrimeField(5), PrimeField(7), PrimeField(97))
_RING = PolynomialRing(4)


@st.composite
def cells(draw):
    """A series of order <= 7 over Q (small p/q) or Z/p, with k <= order, n <= 6."""
    dom = draw(st.sampled_from(_DOMAINS))
    k = draw(st.sampled_from(range(7, 0, -1)))
    order = draw(st.integers(k, 7))
    if dom is RATIONALS:
        value = st.builds(Fraction, st.integers(-3, 3), st.integers(1, 3))
    else:
        value = st.builds(dom.from_int, st.integers(0, dom.p - 1))
    coeffs = draw(st.lists(value, min_size=order, max_size=order))
    n = draw(st.integers(1, 6))
    return TruncatedSeries(dom, order, coeffs), k, n


@st.composite
def symbolic_cells(draw):
    """A series of order <= 4 over Q[a1..a4] with k <= order, n <= 4.

    Each coefficient is q + m*a_i with small q in Q and m in Z.
    """
    k = draw(st.sampled_from(range(4, 0, -1)))
    order = draw(st.integers(k, 4))
    value = st.builds(
        lambda q, m, i: _RING.from_fraction(q) + _RING.from_int(m) * _RING.variable(i),
        st.builds(Fraction, st.integers(-2, 2), st.integers(1, 2)),
        st.integers(-2, 2),
        st.integers(1, 4),
    )
    coeffs = draw(st.lists(value, min_size=order, max_size=order))
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
