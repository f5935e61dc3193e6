"""Sweep engine: spec validation, determinism, reports, adjudication."""

import json
from fractions import Fraction
from itertools import product
from random import Random

import pytest

from fps_iterate import NotApplicable, verify
from fps_iterate.domains import RATIONALS, PolynomialRing, PrimeField
from fps_iterate.series import TruncatedSeries
from fps_iterate.verify import (
    DiscrepancyReport,
    GeneratorSpec,
    METHODS,
    Mismatch,
    PRESET_NAMES,
    REGISTRY,
    SweepSpec,
    adjudicate_typo_cases,
    preset_spec,
    run_preset,
    run_sweep,
)


def small_spec(methods=("oracle", "recursive", "closed"), count=6, seed=3):
    return SweepSpec(
        (1, 5),
        (1, 4),
        (RATIONALS,),
        tuple(methods),
        GeneratorSpec("random-rational", seed=seed, count=count, order=5),
    )


def test_spec_validation_errors():
    good = small_spec()
    good.validate()
    with pytest.raises(ValueError, match="oracle"):
        small_spec(methods=("recursive", "closed")).validate()
    with pytest.raises(ValueError, match="two methods"):
        small_spec(methods=("oracle",)).validate()
    with pytest.raises(ValueError, match="unknown method"):
        small_spec(methods=("oracle", "magic")).validate()
    with pytest.raises(ValueError, match="range"):
        SweepSpec((3, 2), (1, 2), (RATIONALS,), METHODS, good.generator).validate()
    with pytest.raises(ValueError, match="domain"):
        SweepSpec((1, 3), (1, 2), (), METHODS, good.generator).validate()
    with pytest.raises(ValueError, match="order"):
        SweepSpec(
            (1, 9),
            (1, 2),
            (RATIONALS,),
            METHODS,
            GeneratorSpec("random-rational", order=5),
        ).validate()
    with pytest.raises(ValueError, match="polynomial-ring"):
        SweepSpec(
            (1, 3),
            (1, 2),
            (RATIONALS,),
            ("oracle", "closed"),
            GeneratorSpec("symbolic-generic", order=3),
        ).validate()
    with pytest.raises(ValueError, match="numeric"):
        SweepSpec(
            (1, 3),
            (1, 2),
            (PolynomialRing(3),),
            ("oracle", "closed"),
            GeneratorSpec("random-rational", order=3),
        ).validate()
    with pytest.raises(ValueError, match="variables"):
        SweepSpec(
            (1, 5),
            (1, 2),
            (PolynomialRing(3),),
            ("oracle", "closed"),
            GeneratorSpec("symbolic-generic", order=5),
        ).validate()


def _prime_two_spec(count, order):
    return SweepSpec(
        (1, 1),
        (1, 1),
        (RATIONALS, PrimeField(2)),
        ("oracle", "recursive"),
        GeneratorSpec("random-rational", count=count, order=order),
    )


def test_random_rational_redraw_budget():
    # over Z/2 a series of order 29 takes about 19,300 draws and one of
    # order 30 about 27,200; the limit is 20,000
    _prime_two_spec(1, 29).validate()
    _prime_two_spec(0, 10**6).validate()
    with pytest.raises(ValueError, match="'prime:2' need about 27,245 draws"):
        _prime_two_spec(1, 30).validate()
    with pytest.raises(ValueError, match="about 27,2"):
        _prime_two_spec(2, 28).validate()
    with pytest.raises(ValueError, match="about inf draws"):
        _prime_two_spec(1, 10**6).validate()
    # Q and primes above 9 hold every draw: the count alone is the estimate
    SweepSpec(
        (1, 1),
        (1, 1),
        (RATIONALS, PrimeField(11)),
        ("oracle", "recursive"),
        GeneratorSpec("random-rational", count=20_000, order=10**6),
    ).validate()
    for name in ("acceptance", "prime-field"):
        preset_spec(name).validate()


def _exhaustive_spec(count, order):
    return SweepSpec(
        (1, 1),
        (1, 1),
        (RATIONALS, PrimeField(2)),
        ("oracle", "recursive"),
        GeneratorSpec("exhaustive-small", count=count, order=order),
    )


def test_exhaustive_small_draw_budget():
    # count 0 takes the whole 3^order grid: 19,683 points at order 9,
    # 59,049 at order 10; the limit is 20,000
    _exhaustive_spec(0, 9).validate()
    _exhaustive_spec(20_000, 10).validate()
    _exhaustive_spec(5, 10**6).validate()
    with pytest.raises(ValueError) as info:
        _exhaustive_spec(0, 10).validate()
    assert str(info.value) == (
        "exhaustive-small series over 'rational' need about 59,049 draws "
        "(all series of order 10), above the limit of 20,000"
    )
    with pytest.raises(ValueError, match=r"about 1,000,000,000 draws \(1000000000 "):
        _exhaustive_spec(10**9, 30).validate()
    with pytest.raises(ValueError, match="about inf draws"):
        _exhaustive_spec(0, 10**6).validate()


def test_spec_json_round_trip():
    spec = small_spec()
    again = SweepSpec.from_json(spec.to_json())
    assert again.to_json() == spec.to_json()
    # scalar shorthand for the ranges
    short = SweepSpec.from_json(
        {
            "k_max": 4,
            "n_max": 3,
            "domains": ["rational"],
            "methods": ["oracle", "recursive"],
            "generator": {"kind": "random-rational", "order": 4},
        }
    )
    assert short.k_range == (1, 4)
    assert short.n_range == (1, 3)
    with pytest.raises(ValueError):
        SweepSpec.from_json({"n_max": 3})
    with pytest.raises(ValueError):
        SweepSpec.from_json("nope")
    with pytest.raises(ValueError):
        GeneratorSpec.from_json({"seed": 1})


def test_duplicate_methods_are_refused():
    # a method listed twice would be compared with itself, so an
    # oracle-only sweep would compare nothing and still pass
    with pytest.raises(ValueError, match="'oracle' is listed more than once"):
        run_sweep(small_spec(methods=("oracle", "oracle"), count=2))
    spec = {"k_max": 4, "n_max": 3, "methods": ["oracle", "small", "explicit_small_k"]}
    with pytest.raises(ValueError, match="'small' is listed more than once"):
        SweepSpec.from_json(spec)


def test_every_documented_spec_key_is_accepted():
    # unknown keys are refused (test_cli.py::test_malformed_json_exits_2);
    # the documented ones all pass, and count 0 stays valid
    SweepSpec.from_json(
        {
            "k_range": [1, 2],
            "n_range": [1, 2],
            "domains": ["rational"],
            "methods": ["oracle", "recursive"],
            "generator": {
                "kind": "random-rational",
                "seed": 1,
                "count": 0,
                "order": 2,
                "a1": "generic",
                "series": [],
            },
        }
    )


def test_method_alias_accepted():
    spec = SweepSpec.from_json(
        {
            "k_max": 4,
            "n_max": 3,
            "domains": ["rational"],
            "methods": ["oracle", "explicit_small_k"],
            "generator": {"kind": "random-rational", "order": 4},
        }
    )
    assert spec.methods == ("oracle", "small")


def test_sweep_passes_and_is_deterministic():
    report_a = run_sweep(small_spec())
    report_b = run_sweep(small_spec())
    assert report_a.passed
    assert report_a.to_json() == report_b.to_json()
    assert run_sweep(small_spec(seed=4)).to_json() != report_a.to_json()


def test_sweep_cell_coverage():
    report = run_sweep(small_spec(count=4))
    # 4 series, k in 1..5, n in 1..4
    assert len(report.cells) == 4 * 5 * 4
    assert all(c.status == "pass" for c in report.cells)
    assert all(set(c.methods) == {"oracle", "recursive", "closed"} for c in report.cells)
    assert report.cells == sorted(
        report.cells, key=lambda c: (c.domain, c.series, c.k, c.n)
    )


def test_not_applicable_cells():
    spec = small_spec(methods=("oracle", "muckenhoupt"), count=8)
    report = run_sweep(spec)
    assert report.passed
    for cell in report.cells:
        if cell.k != 2:
            assert cell.status == "n/a"
            assert cell.methods == ("oracle",)
    k2 = [c for c in report.cells if c.k == 2]
    assert any(c.status == "pass" for c in k2)
    # a_1 = 1 and a_1 = 0 draws leave muckenhoupt out
    assert any(c.status == "n/a" for c in k2)


def test_schroder_only_applies_to_unit_series():
    spec = SweepSpec(
        (1, 4),
        (1, 3),
        (RATIONALS,),
        ("oracle", "schroder"),
        GeneratorSpec("random-rational", seed=11, count=12, order=4),
    )
    report = run_sweep(spec)
    assert report.passed
    statuses = {c.status for c in report.cells}
    assert "fail" not in statuses
    assert "pass" in statuses and "n/a" in statuses


def test_user_supplied_series():
    blob = {
        "domain": "rational",
        "order": 4,
        "coeffs": ["2", "1", "0", "0"],
    }
    spec = SweepSpec(
        (1, 4),
        (1, 4),
        (RATIONALS,),
        ("oracle", "recursive", "muckenhoupt"),
        GeneratorSpec("user-supplied", series=(blob,)),
    )
    report = run_sweep(spec)
    assert report.passed
    assert len(report.cells) == 16
    # a series over a domain that is not swept is refused, not skipped
    other = SweepSpec(
        (1, 4),
        (1, 4),
        (PrimeField(5),),
        ("oracle", "recursive"),
        GeneratorSpec("user-supplied", series=(blob,)),
    )
    with pytest.raises(ValueError, match="'rational' is not in the swept domains"):
        run_sweep(other)
    short = dict(blob, order=2, coeffs=["2", "1"])
    with pytest.raises(ValueError, match="k range"):
        run_sweep(
            SweepSpec(
                (1, 4),
                (1, 2),
                (RATIONALS,),
                ("oracle", "recursive"),
                GeneratorSpec("user-supplied", series=(short,)),
            )
        )


def test_exhaustive_small_generator():
    spec = SweepSpec(
        (1, 3),
        (1, 3),
        (RATIONALS,),
        ("oracle", "recursive", "closed", "small"),
        GeneratorSpec("exhaustive-small", count=0, order=3),
    )
    report = run_sweep(spec)
    assert report.passed
    # 3 choices for a_1, 3 each for a_2 and a_3
    assert len({c.series for c in report.cells}) == 27


def test_prime_field_sweep():
    spec = SweepSpec(
        (1, 5),
        (1, 4),
        (PrimeField(5), PrimeField(97)),
        METHODS,
        GeneratorSpec("random-rational", seed=19, count=8, order=5),
    )
    report = run_sweep(spec)
    assert report.passed
    labels = {c.domain for c in report.cells}
    assert labels == {"prime:5", "prime:97"}


def test_report_json_schema():
    report = run_sweep(small_spec(count=2))
    blob = json.loads(json.dumps(report.to_json()))
    assert set(blob) == {"spec", "cells", "mismatches", "mismatch_details"}
    assert blob["mismatches"] == 0
    cell = blob["cells"][0]
    assert set(cell) == {
        "k", "n", "domain", "series", "methods", "status", "values",
    }
    assert "result: PASS" in report.summary()


def test_failing_report_rendering():
    report = DiscrepancyReport(
        {"what": "synthetic"},
        [],
        [
            Mismatch(
                k=3, n=2, domain="rational", series=0, methods=("oracle", "closed"),
                values={"oracle": "4", "closed": "5"}, difference="1",
            )
        ],
    )
    assert not report.passed
    text = report.summary()
    assert "result: FAIL" in text
    assert "k=3" in text and "difference=1" in text
    assert report.to_json()["mismatches"] == 1


def _applies(name, f, k):
    """The "applies when" column of the README's methods table."""
    dom, a1 = f.domain, f.coefficient(1)
    if name == "small":
        return k <= 5
    if name == "schroder":
        return a1 == dom.one
    if name == "muckenhoupt":
        return k == 2 and dom.is_field and a1 != dom.zero and a1 != dom.one
    return True


def test_registry_preconditions_match_routes():
    """Asked for one cell, each route raises NotApplicable exactly where the
    README says it does not apply, and no other error on a valid index;
    asked for all of them, it returns exactly the cells it applies to."""
    assert METHODS == tuple(REGISTRY)
    ring = PolynomialRing(6)
    ks, ns = range(1, 7), range(1, 4)
    for dom in (RATIONALS, PrimeField(5), ring):
        for a1 in (0, 1, 2):
            if dom is ring:
                rest = [ring.variable(j) for j in range(2, 7)]
            else:
                rest = [dom.from_fraction(Fraction(q)) for q in (3, -1, 2, 1, -2)]
            f = TruncatedSeries(dom, 6, [dom.from_int(a1)] + rest)
            for name, route in REGISTRY.items():
                applied = set()
                for k, n in product(ks, ns):
                    try:
                        route(f, range(k, k + 1), range(n, n + 1))
                        applied.add((k, n))
                    except NotApplicable:
                        pass
                    assert _applies(name, f, k) is ((k, n) in applied), (dom, a1, name, k, n)
                try:
                    assert set(route(f, ks, ns)) == applied, (dom, a1, name)
                except NotApplicable:
                    assert not applied, (dom, a1, name)
    for name, route in REGISTRY.items():  # a bad k or n is no route's to skip
        with pytest.raises(ValueError, match="n must be >= 1"):
            route(f, range(2, 3), range(0, 1))
        with pytest.raises(ValueError, match="k must be >= 1"):
            route(f, range(0, 1), range(2, 3))


def test_sweep_stops_on_a_plain_value_error(monkeypatch):
    """Only NotApplicable marks a method n/a; any other error ends the sweep."""
    spec = small_spec(methods=("oracle", "closed"), count=2)

    def refuse(error):
        def route(*args):
            raise error("refused")

        return route

    monkeypatch.setitem(verify.REGISTRY, "closed", refuse(ValueError))
    with pytest.raises(ValueError, match="refused"):
        run_sweep(spec)
    monkeypatch.setitem(verify.REGISTRY, "closed", refuse(NotApplicable))
    report = run_sweep(spec)
    assert report.passed
    assert len(report.cells) == 2 * 5 * 4
    assert all(c.status == "n/a" and c.methods == ("oracle",) for c in report.cells)


def test_sweep_stops_on_a_value_outside_the_domain_equal_to_the_oracle(monkeypatch):
    """A value equal to the oracle's is reported with the oracle's text, but
    it must still be an element of the domain: a float over Q stops the
    sweep even where it compares equal."""

    def as_float(f, ks, ns):
        return {(k, n): float(f.iterate(n).coefficient(k)) for k in ks for n in ns}

    spec = small_spec(methods=("oracle", "closed"), count=2)
    # the first cell is k = n = 1 of a series with a_1 = -1, where -1.0 == -1
    assert verify._generate_series(spec, RATIONALS)[0].coefficient(1) == -1
    monkeypatch.setitem(verify.REGISTRY, "closed", as_float)
    with pytest.raises(ValueError, match=r"^-1\.0 is not an element of Rationals\(\)$"):
        run_sweep(spec)


def test_adjudication():
    report = adjudicate_typo_cases()
    assert report.passed
    assert report.notes["f4_formula"] == "confirmed"
    assert report.notes["f5_second_binomial_term"] == "5*a2^2*a3"
    assert report.notes["f5_rejected"] == "5*a2^2"
    assert report.notes["f5_cn3_term"].endswith("confirmed")
    assert "n=2" in report.notes["f5_evidence"]
    assert all(c.status == "pass" for c in report.cells)
    with pytest.raises(ValueError):
        adjudicate_typo_cases(1)


def test_adjudication_refutes_a_broken_transcription(monkeypatch):
    def broken(name):
        first, *rest = verify._PRINTED[name]
        return (first + " + 1", *rest)

    monkeypatch.setitem(verify._PRINTED, "f4:6*a2^3-form", broken("f4:6*a2^3-form"))
    report = adjudicate_typo_cases()
    assert report.passed is False
    assert report.notes["f4_formula"] == "refuted"
    assert report.notes["f5_second_binomial_term"] == "5*a2^2*a3"
    failed = [c.k for c in report.cells if c.status == "fail"]
    assert failed == [4] * 6
    assert {m.k for m in report.mismatches} == {4}
    monkeypatch.undo()
    for name in ("f5:5*a2^2*a3", "f5:5*a2^2"):
        monkeypatch.setitem(verify._PRINTED, name, broken(name))
    report = adjudicate_typo_cases()
    assert report.passed is False
    assert report.notes["f4_formula"] == "confirmed"
    assert report.notes["f5_second_binomial_term"] == "undecided"
    assert report.notes["f5_rejected"] == "5*a2^2*a3, 5*a2^2"
    assert "f5_evidence" not in report.notes
    failed = [c.k for c in report.cells if c.status == "fail"]
    assert failed == [5] * 6
    assert {m.k for m in report.mismatches} == {5}


@pytest.mark.parametrize("domain", [RATIONALS, PrimeField(97)], ids=["Q", "Z/97"])
def test_printed_candidates_on_numeric_series(domain):
    # the candidates are functions of the series in its own domain, not only
    # of the generic one the adjudication runs them on
    rng = Random(f"printed:{domain!r}")
    for _ in range(4):
        coeffs = [domain.one, domain.zero, domain.one]
        # a2 != 0 and a3 != 1 keep the two f5 printings apart from n = 2 on
        while coeffs[1] == domain.zero or coeffs[2] == domain.one:
            coeffs[1:] = (
                domain.from_fraction(Fraction(rng.randint(-9, 9), rng.randint(1, 9)))
                for _ in range(4)
            )
        f = TruncatedSeries(domain, 5, coeffs)
        for name in verify._PRINTED:
            evaluate = verify._printed(name)
            k = len(verify._PRINTED[name]) + 1
            with pytest.raises(NotApplicable):
                evaluate(f, range(9 - k, 10 - k), range(2, 3))  # the other k of 4 and 5
            got_cells = evaluate(f, range(4, 6), range(1, 7))
            assert set(got_cells) == {(k, n) for n in range(1, 7)}
            for n in range(1, 7):
                got = got_cells[k, n]
                want = f.iterate(n).coefficient(k)
                if name == "f5:5*a2^2" and n >= 2:
                    assert got != want, (n, coeffs)
                else:
                    assert got == want, (name, n, coeffs)


def test_presets():
    # argparse prints the choices in this order, in --help and in its errors
    assert PRESET_NAMES == (
        "acceptance",
        "symbolic",
        "schroder-equivalence",
        "prime-field",
        "typo-adjudication",
    )
    for name in PRESET_NAMES:
        if name == "typo-adjudication":
            continue
        preset_spec(name).validate()
    for name in ("nope", "typo-adjudication"):
        with pytest.raises(ValueError, match="unknown preset"):
            preset_spec(name)
    report = run_preset("typo-adjudication")
    assert report.passed


def test_symbolic_preset_runs():
    report = run_preset("symbolic")
    assert report.passed
    assert all(c.domain == "symbolic:6" for c in report.cells)
