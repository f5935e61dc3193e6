"""Acceptance gate: every criterion at its stated tolerance, one line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines. All arithmetic is exact, so "tolerance" means equality everywhere;
the only budgets are the stated wall-clock limits.
"""

import hashlib
import io
import json
import math
import random
import sys
import time
from contextlib import contextmanager
from fractions import Fraction

import fps_iterate.cli as cli
from fps_iterate.domains import RATIONALS, PolynomialRing, PrimeField
from fps_iterate.formulas import (
    coeff_closed,
    coeff_schroder,
    closed_form_level,
    count_closed_form_summands,
    enumerate_subsets,
    geometric_factor,
    nested_sum_binomial,
    rising_product_sum,
)
from fps_iterate.multinomial import PowerCoefficientTable
from fps_iterate.series import TruncatedSeries
from fps_iterate.verify import DiscrepancyReport, Mismatch, run_preset


@contextmanager
def criterion(number: int, name: str):
    try:
        yield
    except BaseException:
        print(f"[acceptance] criterion {number:02d} {name}: FAIL")
        raise
    print(f"[acceptance] criterion {number:02d} {name}: PASS")


def generic_series(order, a1_is_one=False):
    ring = PolynomialRing(order)
    first = ring.one if a1_is_one else ring.variable(1)
    coeffs = [first] + [ring.variable(j) for j in range(2, order + 1)]
    return TruncatedSeries(ring, order, coeffs)


def test_criterion_01_rational_sweep():
    with criterion(1, "rational sweep, 100 series, all methods"):
        start = time.monotonic()
        report = run_preset("acceptance")
        elapsed = time.monotonic() - start
        assert report.passed
        assert len(report.cells) == 100 * 8 * 6
        assert not any(c.status == "fail" for c in report.cells)
        assert elapsed < 60.0
        digest = hashlib.sha256(json.dumps(report.to_json()).encode()).hexdigest()
        assert digest == (
            "3fc83da16f7f17874f02c856a7d1cc837de08f01805acac7b5a011007de6d429"
        )


def test_criterion_02_symbolic_identity():
    with criterion(2, "symbolic polynomial identity, k <= 6, n <= 5"):
        start = time.monotonic()
        report = run_preset("symbolic")
        elapsed = time.monotonic() - start
        assert report.passed
        assert len(report.cells) == 6 * 5
        covered = {(c.k, c.n) for c in report.cells}
        assert {(k, n) for k in range(3, 7) for n in range(2, 6)} <= covered
        assert elapsed < 120.0


def test_criterion_03_schroder_equivalence():
    with criterion(3, "binomial form equals closed form for a_1 = 1"):
        report = run_preset("schroder-equivalence")
        assert report.passed
        assert len(report.cells) == 7 * 7
        for cell in report.cells:
            assert "schroder" in cell.methods and "closed" in cell.methods
            assert cell.values["schroder"] == cell.values["closed"]


def test_criterion_04_typo_adjudication():
    with criterion(4, "printed f_5 variants adjudicated by the oracle"):
        report = run_preset("typo-adjudication")
        assert report.passed
        assert report.notes["f4_formula"] == "confirmed"
        assert report.notes["f5_second_binomial_term"] == "5*a2^2*a3"
        assert report.notes["f5_rejected"] == "5*a2^2"
        saw = TruncatedSeries.from_coefficients(
            RATIONALS, [Fraction(1), Fraction(1)], 5
        )
        assert saw.iterate(3).series.coefficient(5) == Fraction(10)
        assert coeff_schroder(saw, 5, 3) == Fraction(10)


def test_criterion_05_residual_vanishing():
    with criterion(5, "residual vanishes without middle coefficients"):
        for k in range(3, 7):
            f = generic_series(k)
            ring = f.domain
            for n in range(1, 6):
                residual = coeff_closed(f, k, n) - f.coefficient(
                    k
                ) * geometric_factor(f, k, n)
                assert residual.degree_in(k) == 0
                values = (
                    [ring.variable(1)]
                    + [ring.zero] * (k - 2)
                    + [ring.variable(k)]
                )
                assert ring.substitute(residual, values, target=ring).is_zero


def test_criterion_06_integer_identities():
    with criterion(6, "nested sums are binomials, rising products telescope"):
        for n in range(0, 26):
            for alpha in range(1, 9):
                assert nested_sum_binomial(n, alpha) == math.comb(n, alpha)
        for n in range(1, 51):
            for alpha in range(1, 9):
                # asserts internally that both evaluations agree
                rising_product_sum(n, alpha)


def test_criterion_07_chain_enumeration():
    with criterion(7, "chain counts, gap bound, and support bound"):
        for k in range(3, 13):
            total = 0
            for alpha in range(2, k):
                subsets = enumerate_subsets(k, alpha)
                total += len(subsets)
                for s in subsets:
                    chain = s.chain
                    assert all(
                        chain[m - 1] - chain[m] <= k - alpha
                        for m in range(1, len(chain))
                    )
            assert total == count_closed_form_summands(k) == 2 ** (k - 2) - 1
        # level alpha never involves a_j beyond k - alpha + 1
        for k in range(3, 7):
            f = generic_series(k)
            table = PowerCoefficientTable(f)
            for alpha in range(2, k):
                level = closed_form_level(f, k, 5, alpha, table)
                for j in range(k - alpha + 2, k + 1):
                    assert level.degree_in(j) == 0


def test_criterion_08_degenerate_geometric_factors():
    with criterion(8, "degenerate a_1 values in the geometric factor"):
        neg = TruncatedSeries.from_coefficients(RATIONALS, [Fraction(-1)], 4)
        for k in (2, 4, 6):
            for n in (2, 4, 6):
                # k-1 odd: the inner sum alternates 1, -1, ... and cancels
                assert geometric_factor(neg, k, n) == 0
        gf97 = PrimeField(97)
        root = None
        for g in range(2, 97):
            if all(pow(g, 96 // q, 97) != 1 for q in (2, 3)):
                root = g
                break
        assert root is not None
        f = TruncatedSeries(gf97, 2, [gf97.from_int(root), gf97.one])
        for k in range(1, 9):
            for n in range(1, 8):
                got = geometric_factor(f, k, n)
                step = pow(root, k - 1, 97)
                if step != 1:
                    quotient = (pow(step, n, 97) - 1) * pow(step - 1, -1, 97)
                    expected = pow(root, n - 1, 97) * quotient
                else:
                    expected = pow(root, n - 1, 97) * n
                assert got == gf97.from_int(expected)
        # root^32 is a primitive cube root of unity, so three steps cancel
        assert geometric_factor(f, 33, 3) == gf97.zero
        ones = TruncatedSeries.from_coefficients(RATIONALS, [Fraction(1)], 3)
        for k in range(1, 4):
            for n in range(1, 9):
                assert geometric_factor(ones, k, n) == n


def test_criterion_09_composition_algebra():
    with criterion(9, "composition associativity and iterate semigroup"):
        rng = random.Random(101)
        for _ in range(100):
            order = rng.randint(2, 10)
            f, g, h = (
                TruncatedSeries(
                    RATIONALS,
                    order,
                    [
                        Fraction(rng.randint(-5, 5), rng.randint(1, 4))
                        for _ in range(order)
                    ],
                )
                for _ in range(3)
            )
            assert f.compose(g).compose(h) == f.compose(g.compose(h))
        for seed in range(4):
            srng = random.Random(200 + seed)
            f = TruncatedSeries(
                RATIONALS,
                8,
                [Fraction(srng.randint(-3, 3), srng.randint(1, 3)) for _ in range(8)],
            )
            for m in range(1, 6):
                for n in range(1, 6):
                    combined = f.iterate(m + n).series
                    split = f.iterate(m).series.compose(f.iterate(n).series)
                    assert combined == split


def test_criterion_10_cli_contract(tmp_path, capsys, monkeypatch):
    with criterion(10, "CLI byte-exact output and exit codes"):
        path = tmp_path / "s.json"
        path.write_text('{"coeffs": ["1", "1"]}')
        code = cli.main(["iterate", str(path), "-n", "2", "--order", "4"])
        out = capsys.readouterr().out
        assert code == 0
        assert out == (
            '{"domain": "rational", "order": 4, "coeffs": ["1", "2", "2", "1"]}\n'
        )
        code = cli.main(
            ["coeff", str(path), "-k", "5", "-n", "3", "--method", "schroder",
             "--order", "5"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert json.loads(out)["value"] == "10"
        quad = tmp_path / "g.json"
        quad.write_text('{"coeffs": ["2", "1"]}')
        code = cli.main(
            ["coeff", str(quad), "-k", "2", "-n", "2", "--method", "muckenhoupt"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert out == '{"k": 2, "n": 2, "method": "muckenhoupt", "value": "6"}\n'
        code = cli.main(["formula", "-k", "3", "-n", "2", "--a1", "one"])
        out = capsys.readouterr().out
        assert code == 0
        assert out == "2*a2^2 + 2*a3\n"
        monkeypatch.setattr(sys, "stdin", io.StringIO("{bad"))
        assert cli.main(["iterate", "-", "-n", "2"]) == 2
        capsys.readouterr()
        assert cli.main(["iterate", str(path), "-n", "0"]) == 2
        capsys.readouterr()
        failing = DiscrepancyReport(
            {}, [],
            [Mismatch("rational", 0, 2, 2, ("oracle", "closed"),
                      {"oracle": "1", "closed": "2"}, "1")],
        )
        monkeypatch.setattr(cli, "run_preset", lambda name: failing)
        assert cli.main(["verify"]) == 1
        capsys.readouterr()
