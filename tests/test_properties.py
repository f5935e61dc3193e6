"""Property tests: randomly drawn series, every applicable route equals the oracle.

Examples are derandomized and bounded, so a run is reproducible and takes
about as long each time.
"""

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from fps_iterate.domains import RATIONALS, PrimeField
from fps_iterate.series import TruncatedSeries
from fps_iterate.verify import REGISTRY

_DOMAINS = (RATIONALS, PrimeField(5), PrimeField(7), PrimeField(97))


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


@settings(derandomize=True, database=None, deadline=None, max_examples=100)
@given(cells())
def test_applicable_routes_equal_oracle(cell):
    f, k, n = cell
    expected = f.iterate(n).series.coefficient(k)
    for name, (applies, evaluate) in REGISTRY.items():
        if applies(f, k, n):
            assert evaluate(f, k, n, None, None) == expected, name
