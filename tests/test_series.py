"""Truncated series: arithmetic, composition, iteration, JSON round trips."""

import ast
import json
import random
from fractions import Fraction
from pathlib import Path

import pytest

import fps_iterate
from fps_iterate.domains import RATIONALS, PolynomialRing, PrimeField
from fps_iterate.series import TruncatedSeries


def series(*values, order=None):
    coeffs = [Fraction(v) for v in values]
    return TruncatedSeries.from_coefficients(RATIONALS, coeffs, order)


def random_series(rng, order):
    coeffs = [Fraction(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(order)]
    return TruncatedSeries(RATIONALS, order, coeffs)


def fractions(*values):
    return tuple(Fraction(v) for v in values)


def power(f, i):
    # the i-th power as an i-fold product, i >= 1
    result = f
    for _ in range(i - 1):
        result = result.mul(f)
    return result


def truncate(f, order):
    return TruncatedSeries(f.domain, order, f.coeffs[:order])


def test_construction_validation():
    with pytest.raises(ValueError):
        TruncatedSeries(RATIONALS, 0, [])
    with pytest.raises(ValueError):
        TruncatedSeries(RATIONALS, 2, [Fraction(1)])
    with pytest.raises(ValueError):
        TruncatedSeries(RATIONALS, 1, [0.5])
    with pytest.raises(ValueError):
        TruncatedSeries.from_coefficients(RATIONALS, [Fraction(1)] * 3, 2)
    padded = TruncatedSeries.from_coefficients(RATIONALS, [Fraction(1)], 3)
    assert padded.coeffs == fractions(1, 0, 0)


def test_coefficient_indexing():
    f = series(1, 2, 3)
    assert f.coefficient(1) == 1
    assert f.coefficient(3) == 3
    with pytest.raises(ValueError):
        f.coefficient(0)
    with pytest.raises(ValueError):
        f.coefficient(4)


def test_mul():
    # product of two order-1 terms lands at x^2
    x = series(1, 0)
    assert x.mul(x).coeffs == fractions(0, 1)
    h = series(1, 1, 0, 0).mul(series(1, 1, 0, 0))
    assert h.coeffs == fractions(0, 1, 2, 1)
    assert series(2, 1, 0).mul(series(3, 0, 0)).coeffs == fractions(0, 6, 3)


def test_domain_and_order_mismatch():
    f = series(1, 2)
    gf5 = PrimeField(5)
    g = TruncatedSeries(gf5, 2, [gf5.one, gf5.one])
    for combine in (f.mul, f.compose):
        with pytest.raises(ValueError, match="domain mismatch"):
            combine(g)
        with pytest.raises(ValueError, match="order mismatch"):
            combine(series(1, 2, 3))
        with pytest.raises(ValueError, match="expected a TruncatedSeries"):
            combine([Fraction(1), Fraction(2)])


@pytest.mark.parametrize(
    "dom", [RATIONALS, PrimeField(97), PolynomialRing(3)], ids=repr
)
def test_mul_is_the_truncated_convolution(dom):
    def element(j):
        c = dom.from_fraction(Fraction(j + 1, 2 if j % 2 else 1))
        return c + dom.variable(j % 3 + 1) if isinstance(dom, PolynomialRing) else c

    one_term = TruncatedSeries(dom, 1, [element(0)])
    assert one_term.mul(one_term).coeffs == (dom.zero,)
    a = [element(j) for j in range(5)]
    b = [element(j + 5) for j in range(5)]
    product = TruncatedSeries(dom, 5, a).mul(TruncatedSeries(dom, 5, b))
    # the x^1 coefficient is the empty sum: the m = 1 slice takes no terms
    assert product.coeffs[0] == dom.zero
    for m in range(2, 6):
        expected = dom.zero
        for j in range(1, m):
            expected = expected + a[j - 1] * b[m - j - 1]
        assert product.coeffs[m - 1] == expected


# what a domain may define besides its two kernels: element checks,
# constants, conversions and descriptors, none of them a sum of products
_ELEMENT_LEVEL = {
    "__init__", "__repr__", "__eq__", "__hash__", "contains", "check", "inv",
    "from_int", "from_fraction", "parse", "format", "to_json", "variable",
    "substitute",
}


def test_only_the_oracle_calls_horner():
    """``Domain.horner`` is the oracle's arithmetic alone: only series
    ``compose`` calls it. Each of ``Rationals`` and ``PolynomialRing``
    defines exactly two kernels, ``horner`` and ``combine``, and
    ``PrimeField`` those two and ``linear_map``, the routes' prepared sums;
    the base class declares all three, raises in ``horner`` and
    ``combine``, and no module defines or names a ``convolve`` or ``dot``.
    The routes sum on ``Domain.combine``, ``Domain.linear_map`` and the
    elements' operators instead, so the cross-check covers both
    implementations."""
    package = Path(fps_iterate.__file__).parent
    callers, names, methods = set(), set(), {}
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, (ast.Attribute, ast.FunctionDef)):
                names.add(node.attr if isinstance(node, ast.Attribute) else node.name)
        # module functions by name, methods as Class.method
        functions = []
        for node in tree.body:
            if isinstance(node, ast.FunctionDef):
                functions.append((node.name, node))
            elif isinstance(node, ast.ClassDef):
                defs = [item for item in node.body if isinstance(item, ast.FunctionDef)]
                methods[path.name, node.name] = {item.name: item for item in defs}
                functions += [(f"{node.name}.{item.name}", item) for item in defs]
        callers |= {
            (path.name, name)
            for name, node in functions
            for call in ast.walk(node)
            if isinstance(call, ast.Call)
            and isinstance(call.func, ast.Attribute)
            and call.func.attr == "horner"
        }
    assert not names & {"convolve", "dot"}
    assert callers == {("series.py", "TruncatedSeries.compose")}
    kernels = {"horner", "combine"}
    for cls, more in (("Domain", {"linear_map"}), ("Rationals", set()),
                      ("PrimeField", {"linear_map"}), ("PolynomialRing", set())):
        assert set(methods["domains.py", cls]) - _ELEMENT_LEVEL == kernels | more, cls
    for kernel in kernels:
        # a docstring, then ``raise NotImplementedError``
        body = methods["domains.py", "Domain"][kernel].body
        assert len(body) == 2 and isinstance(body[1], ast.Raise), kernel
        assert ast.unparse(body[1]) == "raise NotImplementedError", kernel


def _functions(tree, prefix=""):
    # (qualified name, node) of every function and method, nested ones too
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, ast.FunctionDef):
            yield prefix + node.name, node
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield from _functions(node, f"{prefix}{node.name}.")


def test_only_the_routes_call_combine():
    """``Domain.combine`` is the routes' sum of products, which the base
    class leaves to the ``Rationals``, ``PrimeField`` and ``PolynomialRing``
    kernels, named only by ``coeff_closed`` and the base
    ``Domain.linear_map``. ``linear_map``, defined by the base class and
    packed by ``PrimeField``, is named only by ``coeff_recursive``, the
    power table's constructor and ``PrimeField.linear_map``, which falls
    back to the base map. No
    kernel names ``horner``, and only series ``compose`` names it, so the
    oracle, the partition walk, the chain walks and ``small``, which name
    no kernel, check them on code they do not run; series ``mul`` names no
    kernel either."""
    package = Path(fps_iterate.__file__).parent
    defined, naming = {}, {}
    for path in sorted(package.glob("*.py")):
        for name, node in _functions(ast.parse(path.read_text(encoding="utf-8"))):
            kernel = name.rsplit(".", 1)[-1]
            if name.count(".") == 1 and kernel in {"combine", "linear_map"}:
                defined.setdefault(kernel, []).append(name.split(".")[0])
            naming[path.name, name] = {
                n.id if isinstance(n, ast.Name) else n.attr
                for n in ast.walk(node)
                if isinstance(n, (ast.Name, ast.Attribute))
            } & {"combine", "horner", "linear_map"}
    assert defined == {
        "combine": ["Domain", "Rationals", "PrimeField", "PolynomialRing"],
        "linear_map": ["Domain", "PrimeField"],
    }
    for cls in ("Domain", "Rationals", "PrimeField", "PolynomialRing"):
        assert naming["domains.py", f"{cls}.combine"] == set(), cls
        assert naming["domains.py", f"{cls}.horner"] == set(), cls
    assert {key for key, names in naming.items() if "combine" in names} == {
        ("formulas.py", "coeff_closed"),
        ("domains.py", "Domain.linear_map"),
    }
    assert {key for key, names in naming.items() if "linear_map" in names} == {
        ("formulas.py", "coeff_recursive"),
        ("multinomial.py", "PowerCoefficientTable.__init__"),
        ("domains.py", "PrimeField.linear_map"),
    }
    assert {key for key, names in naming.items() if "horner" in names} == {
        ("series.py", "TruncatedSeries.compose"),
    }
    checks = [key for key in naming if key[0] == "series.py"] + [
        ("multinomial.py", "multinomial_coeff"),
        ("formulas.py", "closed_form_level"),
        ("formulas.py", "_chain_product"),
        ("formulas.py", "nested_geometric_sum"),
        ("formulas.py", "coeff_schroder"),
        ("formulas.py", "coeff_explicit_small_k"),
    ]
    oracle = {("series.py", "TruncatedSeries.compose"): {"horner"}}
    assert ("series.py", "TruncatedSeries.mul") in checks
    for key in checks:
        assert naming[key] == oracle.get(key, set()), key


def _names_in_route(name):
    # every name and attribute the body of formulas.<name> reads
    path = Path(fps_iterate.__file__).parent / "formulas.py"
    tree = ast.parse(path.read_text(encoding="utf-8"))
    (route,) = [
        node
        for node in tree.body
        if isinstance(node, ast.FunctionDef) and node.name == name
    ]
    return {
        node.id if isinstance(node, ast.Name) else node.attr
        for node in ast.walk(route)
        if isinstance(node, (ast.Name, ast.Attribute))
    }


def test_small_route_shares_no_code_with_the_closed_form():
    """``coeff_explicit_small_k`` is cross-checked against the closed form
    and the oracle, so its body names none of the closed form's pieces,
    not the oracle's ``horner`` and not the routes' ``combine`` or
    ``linear_map``."""
    names = _names_in_route("coeff_explicit_small_k")
    assert "_SMALL_K_TERMS" in names
    assert not names & {
        "PowerCoefficientTable",
        "nested_geometric_sum",
        "_chain_product",
        "enumerate_subsets",
        "closed_form_level",
        "coeff_closed",
        "horner",
        "combine",
        "linear_map",
    }


def test_closed_dynamic_program_shares_no_code_with_the_chain_walks():
    """``coeff_closed`` sums the chains by a dynamic program, and is checked
    against ``closed_form_level`` and ``coeff_schroder``, which walk them
    one by one, and against ``coeff_recursive``. So the program names none
    of them, the walks still name theirs, and the recurrence names nothing
    of the closed form."""
    assert not _names_in_route("coeff_closed") & {
        "closed_form_level",
        "nested_geometric_sum",
        "enumerate_subsets",
        "_chain_product",
        "coeff_recursive",
        "coeff_schroder",
    }
    assert {"enumerate_subsets", "_chain_product"} <= _names_in_route("coeff_schroder")
    assert {"enumerate_subsets", "_chain_product", "nested_geometric_sum"} <= (
        _names_in_route("closed_form_level")
    )
    assert not [n for n in _names_in_route("coeff_recursive") if "closed" in n]


def test_pow():
    f = series(1, 1, 0, 0)
    assert power(f, 1).coeffs == f.coeffs
    assert power(f, 2).coeffs == fractions(0, 1, 2, 1)
    assert power(f, 3).coeffs == fractions(0, 0, 1, 3)
    assert power(series(1, 1, 1, 1), 2).coeffs == fractions(0, 1, 2, 3)


def test_pow_matches_repeated_mul():
    # the monomial x^i composed with f is f^i: Horner's convolutions reach
    # the same power as the i-fold product
    rng = random.Random(7)
    for _ in range(20):
        f = random_series(rng, rng.randint(2, 8))
        for i in range(1, f.order + 1):
            monomial = series(*[int(m == i) for m in range(1, f.order + 1)])
            assert monomial.compose(f) == power(f, i)


def test_compose_frozen_examples():
    f = series(1, 1, 0, 0)
    assert f.compose(f).coeffs == fractions(1, 2, 2, 1)
    g = series(2, 1, 0, 0)
    assert g.compose(g).coeffs == fractions(4, 6, 4, 1)


def test_iterate_frozen_example():
    f = series(1, 1, 0, 0, 0)
    result = f.iterate(3)
    assert isinstance(result, TruncatedSeries)
    assert result.coeffs == fractions(1, 3, 6, 9, 10)
    assert f.iterate(1) == f
    # pure scaling iterates to the power of the leading coefficient
    d = series(2, 0, 0)
    assert d.iterate(5).coeffs == fractions(32, 0, 0)
    ident = series(1, 0)
    assert ident.iterate(4) == ident
    with pytest.raises(ValueError):
        f.iterate(0)


def test_iterate_matches_compose_fold():
    rng = random.Random(13)
    for _ in range(10):
        f = random_series(rng, 6)
        assert f.iterate(2) == f.compose(f)
        assert f.iterate(3) == f.compose(f).compose(f)


def test_compose_associativity():
    rng = random.Random(17)
    for _ in range(25):
        order = rng.randint(2, 10)
        f = random_series(rng, order)
        g = random_series(rng, order)
        h = random_series(rng, order)
        assert f.compose(g).compose(h) == f.compose(g.compose(h))


def test_compose_identity():
    rng = random.Random(19)
    ident = series(*([1] + [0] * 5))
    for _ in range(10):
        f = random_series(rng, 6)
        assert f.compose(ident) == f
        assert ident.compose(f) == f


def test_truncation_consistency():
    # composing then truncating equals truncating then composing, because
    # every series has zero constant term
    rng = random.Random(23)
    for _ in range(15):
        f = random_series(rng, 8)
        g = random_series(rng, 8)
        assert truncate(f.compose(g), 5) == truncate(f, 5).compose(truncate(g, 5))
        assert truncate(f.iterate(3), 4) == truncate(f, 4).iterate(3)


def test_symbolic_composition():
    ring = PolynomialRing(3)
    a1, a2, a3 = (ring.variable(j) for j in (1, 2, 3))
    f = TruncatedSeries(ring, 3, [a1, a2, a3])
    ff = f.compose(f)
    assert ff.coefficient(1) == a1 * a1
    assert ff.coefficient(2) == a1 * a2 + a2 * a1 * a1
    assert ff.coefficient(3) == a1 * a3 + ring.from_int(2) * a2 * a2 * a1 + a3 * a1 ** 3
    # leading coefficients of a generic cube
    ring4 = PolynomialRing(4)
    b1, b2 = ring4.variable(1), ring4.variable(2)
    g = TruncatedSeries(ring4, 4, [ring4.variable(j) for j in (1, 2, 3, 4)])
    cube = power(g, 3)
    assert cube.coefficient(3) == b1 ** 3
    assert cube.coefficient(4) == ring4.from_int(3) * b1 ** 2 * b2


def test_prime_field_composition():
    gf5 = PrimeField(5)
    f = TruncatedSeries(gf5, 4, [gf5.from_int(c) for c in (2, 1, 0, 0)])
    # same series as the rational [4, 6, 4, 1] example, reduced mod 5
    assert f.compose(f).coeffs == tuple(gf5.from_int(c) for c in (4, 1, 4, 1))


def test_json_round_trip_rational():
    f = series("1", "1/2", "-3")
    blob = json.dumps(f.to_json())
    assert blob == '{"domain": "rational", "order": 3, "coeffs": ["1", "1/2", "-3"]}'
    again = TruncatedSeries.from_json(json.loads(blob))
    assert again == f
    assert json.dumps(again.to_json()) == blob


def test_json_round_trip_other_domains():
    gf7 = PrimeField(7)
    f = TruncatedSeries(gf7, 2, [gf7.from_int(3), gf7.from_int(6)])
    assert TruncatedSeries.from_json(f.to_json()) == f
    ring = PolynomialRing(2)
    g = TruncatedSeries(ring, 2, [ring.variable(1), ring.variable(2)])
    assert TruncatedSeries.from_json(g.to_json()) == g
    blob = json.dumps(g.to_json())
    assert blob == (
        '{"domain": {"symbolic": 2}, "order": 2, "coeffs": ["a1", "a2"]}'
    )


def test_from_json_defaults_and_errors():
    f = TruncatedSeries.from_json({"coeffs": ["1", "2"]})
    assert f.domain == RATIONALS
    assert f.order == 2
    with pytest.raises(ValueError):
        TruncatedSeries.from_json({"coeffs": []})
    with pytest.raises(ValueError):
        TruncatedSeries.from_json({"coeffs": "11"})
    with pytest.raises(ValueError):
        TruncatedSeries.from_json({})
    with pytest.raises(ValueError):
        TruncatedSeries.from_json({"coeffs": ["1"], "order": 2})
    with pytest.raises(ValueError):
        TruncatedSeries.from_json({"coeffs": ["1"], "domain": "float"})
    with pytest.raises(ValueError):
        TruncatedSeries.from_json(["1"])
