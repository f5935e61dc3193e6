"""Command-line interface: outputs are byte-exact, exit codes are stable."""

import argparse
import hashlib
import io
import json
import re
import shlex
import subprocess
import sys
import time
from contextlib import redirect_stdout
from pathlib import Path

import pytest

import fps_iterate.cli as cli
import fps_iterate.verify as verify
from fps_iterate.domains import PrimeField
from fps_iterate.series import TruncatedSeries
from fps_iterate.verify import (
    METHODS,
    DiscrepancyReport,
    GeneratorSpec,
    Mismatch,
    _refuse_long_draws,
)


def write_series(tmp_path, name, coeffs, **extra):
    path = tmp_path / name
    path.write_text(json.dumps({"coeffs": coeffs, **extra}))
    return str(path)


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_iterate_exact_output(tmp_path, capsys):
    path = write_series(tmp_path, "s.json", ["1", "1"])
    code, out, err = run_cli(capsys, "iterate", path, "-n", "2", "--order", "4")
    assert code == 0
    assert out == '{"domain": "rational", "order": 4, "coeffs": ["1", "2", "2", "1"]}\n'
    assert err == ""


def test_iterate_identity_padding(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(sys, "stdin", io.StringIO('{"coeffs": ["1"]}'))
    code, out, _ = run_cli(capsys, "iterate", "-", "-n", "9", "--order", "3")
    assert code == 0
    assert out == '{"domain": "rational", "order": 3, "coeffs": ["1", "0", "0"]}\n'


def test_iterate_truncates(tmp_path, capsys):
    path = write_series(tmp_path, "s.json", ["2", "1", "0", "0"])
    code, out, _ = run_cli(capsys, "iterate", path, "-n", "2", "--order", "2")
    assert code == 0
    assert out == '{"domain": "rational", "order": 2, "coeffs": ["4", "6"]}\n'


def test_without_order_the_parsed_series_is_used_as_is():
    # from_json has checked every coefficient; a copy would check them again
    f = TruncatedSeries.from_json({"coeffs": ["2", "1", "0"]})
    assert cli._with_order(f, None) is f
    assert cli._with_order(f, 2).coeffs == (2, 1)
    assert cli._with_order(f, 4).coeffs == (2, 1, 0, 0)


@pytest.mark.parametrize("order", [[], ["--order", "24"], ["--order", "30"]],
                         ids=["as-parsed", "same-order", "padded"])
def test_coeff_checks_only_its_answer(tmp_path, capsys, monkeypatch, order):
    # from_json checks each coefficient as it parses it, and --order copies
    # them without a second check, so Domain.check runs once: on the answer
    # that fps coeff formats
    field = PrimeField(1000003)
    path = write_series(tmp_path, "z.json", [str(37 * j * j + 11 * j + 5) for j in range(1, 25)],
                        domain={"prime": 1000003})
    checked = []
    check = PrimeField.check
    monkeypatch.setattr(PrimeField, "check", lambda self, x: checked.append(x) or check(self, x))
    code, out, _ = run_cli(capsys, "coeff", path, "-k", "10", "-n", "32", *order)
    assert code == 0
    assert len(checked) == 1
    assert field.format(checked[0]) == json.loads(out)["value"]


def test_coeff_muckenhoupt(tmp_path, capsys):
    path = write_series(tmp_path, "g.json", ["2", "1"])
    code, out, _ = run_cli(
        capsys, "coeff", path, "-k", "2", "-n", "2", "--method", "muckenhoupt"
    )
    assert code == 0
    assert out == '{"k": 2, "n": 2, "method": "muckenhoupt", "value": "6"}\n'


def test_coeff_schroder(tmp_path, capsys):
    path = write_series(tmp_path, "s.json", ["1", "1"])
    code, out, _ = run_cli(
        capsys,
        "coeff", path, "-k", "5", "-n", "3", "--method", "schroder", "--order", "5",
    )
    assert code == 0
    assert json.loads(out) == {"k": 5, "n": 3, "method": "schroder", "value": "10"}


def test_coeff_all_methods_agree(tmp_path, capsys):
    path = write_series(tmp_path, "s.json", ["2", "1", "-1", "1/2"])
    values = {}
    for method in ("oracle", "recursive", "closed", "small"):
        code, out, _ = run_cli(
            capsys, "coeff", path, "-k", "4", "-n", "3", "--method", method
        )
        assert code == 0
        values[method] = json.loads(out)["value"]
    assert len(set(values.values())) == 1


def test_coeff_default_method(tmp_path, capsys):
    path = write_series(tmp_path, "g.json", ["2", "1"])
    code, out, _ = run_cli(capsys, "coeff", path, "-k", "2", "-n", "2")
    assert code == 0
    assert json.loads(out)["method"] == "recursive"
    assert json.loads(out)["value"] == "6"


def test_formula_outputs(capsys):
    code, out, _ = run_cli(capsys, "formula", "-k", "1", "-n", "4")
    assert code == 0
    assert out == "a1^4\n"
    code, out, _ = run_cli(capsys, "formula", "-k", "3", "-n", "2", "--a1", "one")
    assert code == 0
    assert out == "2*a2^2 + 2*a3\n"
    code, out, _ = run_cli(capsys, "formula", "-k", "2", "-n", "3")
    assert code == 0
    assert out == "a1^4*a2 + a1^3*a2 + a1^2*a2\n"


@pytest.mark.parametrize("a1, route", [("one", "coeff_schroder"), ("generic", "coeff_closed")])
def test_formula_takes_its_route_from_the_registry(capsys, monkeypatch, a1, route):
    # fps formula reaches its route through verify.REGISTRY, as fps coeff
    # and the sweeps do, so a route set there is the one it prints
    method = route.removeprefix("coeff_")
    assert verify.REGISTRY[method] is getattr(verify, route)

    def sevens(f, ks, ns):
        return {(k, n): f.domain.from_int(7) for k in ks for n in ns}

    monkeypatch.setitem(verify.REGISTRY, method, sevens)
    assert run_cli(capsys, "formula", "-k", "3", "-n", "2", "--a1", a1) == (0, "7\n", "")


def test_formula_json(capsys):
    code, out, _ = run_cli(capsys, "formula", "-k", "2", "-n", "2", "--json")
    assert code == 0
    assert json.loads(out) == {
        "k": 2,
        "n": 2,
        "a1": "generic",
        "formula": "a1^2*a2 + a1*a2",
    }


def test_formula_guardrail(capsys):
    code, _, err = run_cli(capsys, "formula", "-k", "9", "-n", "2")
    assert code == 2
    assert "--allow-large" in err
    code, out, _ = run_cli(capsys, "formula", "-k", "9", "-n", "2", "--allow-large")
    assert code == 0
    assert out.startswith("a1^")


@pytest.mark.parametrize(
    "argv, digest",
    [
        (
            ("formula", "-k", "8", "-n", "8"),
            "5a5491039a5a8017836673934601abb206fe7a0656d5d23166bb37dafd60d2f4",
        ),
        (
            ("formula", "-k", "8", "-n", "8", "--a1", "one"),
            "6a89026a8de65904eb9e2a9042701a9cfac5c24d2cb30c75304ba6fa9d2c96d5",
        ),
        (
            ("verify", "--preset", "symbolic", "--json"),
            "c6b812acf97201b1a1cb8aaaea5c5a1da47cf198ba856751f5a92cc992923c50",
        ),
        (
            ("verify", "--preset", "prime-field", "--json"),
            "01fe6998b3e3e8a37c0aa98a121df4e75e99adcd0f12f6f65b770d6edf69da28",
        ),
        (
            ("verify", "--preset", "typo-adjudication", "--json"),
            "7d39805e4fbd9b2cf2f87676a26d36d0b557fcebd64d3db27bdadec5ce3a9193",
        ),
        (
            ("verify", "--preset", "schroder-equivalence", "--json"),
            "3b35d14685f506a6badfb84dce0f77e6bc74c6fc6ed92c3181af6ac646486a46",
        ),
        (
            ("formula", "-k", "10", "-n", "9", "--allow-large", "--json"),
            "0f10406f4b21c7a41db858d884a72b52da59c1339aac1795660dc1594f715a49",
        ),
        (
            ("formula", "-k", "10", "-n", "12", "--a1", "one", "--allow-large"),
            "e91009b21069676cbbd103252a5705a5c77e974df7ff160fb9f55fc005e02919",
        ),
        (
            ("identities", "--json"),
            "c77ef54937ba8d54db1ef26181f2670bbd26d2f619f5126f0db4dc4165e179fe",
        ),
    ],
)
def test_symbolic_output_golden(capsys, argv, digest):
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


# `fps iterate` runs the composition oracle, the path that every other
# route is checked against; these digests were taken before its Cauchy
# product moved onto a per-domain kernel (now ``Domain.horner``), and the
# two order-16 ones before it moved onto a packed integer product over Z/p.
# Over Z/2 (every entry p - 1) the kernel packs 8-byte slots, and over
# Z/(2^61 - 1) it sums plain ints. The Z/2 answer is f^(16) = x, but
# f^(15) is not.
@pytest.mark.parametrize(
    "series, n, digest",
    [
        pytest.param(
            {
                "domain": {"prime": 1000003},
                "coeffs": [
                    str((37 * j * j + 11 * j + 5) % 1000003) for j in range(1, 25)
                ],
            },
            48,
            "f3a1c346b0115f09fe66734ccb668ac6b5ed1ee0b38d7233280020dd2a48de17",
            id="prime-order-24",
        ),
        pytest.param(
            {"domain": {"prime": 2}, "coeffs": ["1"] * 16},
            16,
            "f992e0372bbadb008540d6d89aa34805707e87b016a0d76dbd2dea10205b5bf7",
            id="prime-2-order-16",
        ),
        pytest.param(
            {
                "domain": {"prime": 2**61 - 1},
                "coeffs": [
                    str(2**61 - 1 - (37 * j * j + 11 * j + 5) % 64)
                    for j in range(1, 17)
                ],
            },
            16,
            "84dcc93577d8ab251b7a976e130f2530b3e0cad10071593988a5f6bce27b205b",
            id="prime-2^61-1-order-16",
        ),
        pytest.param(
            {
                "coeffs": [
                    "2", "-1/3", "5/7", "0", "-9/4", "1/8",
                    "3", "-2/9", "7/5", "-1", "4/3", "-5/6",
                ]
            },
            10,
            "39a0e2e7e933e95f4f76a6cf0c92d48067d8c5cd0648093098d61427df312961",
            id="rational-order-12",
        ),
    ],
)
def test_iterate_output_golden(tmp_path, capsys, series, n, digest):
    path = tmp_path / "s.json"
    path.write_text(json.dumps(series))
    code, out, _ = run_cli(capsys, "iterate", str(path), "-n", str(n))
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


# `fps coeff -k 48 -n 96` by the two routes whose sums of products run on
# Domain.combine, digests taken before they did. Every entry p - 1 (or
# just below it) makes each unreduced sum as large as it gets: one-bit
# residues over Z/2, 61-bit ones over Z/(2^61 - 1). The all-top series are
# Moebius maps whose 96-fold iterate is x, so their answer is 0; the
# near-top one's is not.
_TOP = {
    "prime-2-top": {"domain": {"prime": 2}, "coeffs": ["1"] * 48},
    "prime-2^61-1-top": {
        "domain": {"prime": 2**61 - 1}, "coeffs": [str(2**61 - 2)] * 48
    },
    "prime-2^61-1-near-top": {
        "domain": {"prime": 2**61 - 1},
        "coeffs": [
            str(2**61 - 2 - (37 * j * j + 11 * j + 5) % 64) for j in range(1, 49)
        ],
    },
}


@pytest.mark.parametrize(
    "name, method, digest",
    [
        pytest.param(
            "prime-2-top", "recursive",
            "dd4a5acc670903e4d8a9a5a34dc34078322b40ed05b9f9efd046ec2632f17159",
            id="prime-2-top-recursive",
        ),
        pytest.param(
            "prime-2-top", "closed",
            "62bcb4f92efdf7a963e80b2486b44d52bcef074e183f9f32d3f5f52535569dee",
            id="prime-2-top-closed",
        ),
        pytest.param(
            "prime-2^61-1-top", "recursive",
            "dd4a5acc670903e4d8a9a5a34dc34078322b40ed05b9f9efd046ec2632f17159",
            id="prime-2^61-1-top-recursive",
        ),
        pytest.param(
            "prime-2^61-1-top", "closed",
            "62bcb4f92efdf7a963e80b2486b44d52bcef074e183f9f32d3f5f52535569dee",
            id="prime-2^61-1-top-closed",
        ),
        pytest.param(
            "prime-2^61-1-near-top", "recursive",
            "9a2a0fceffc8ff7aa737f2571fead90635d05e85e0df23cc18f08162a4b70d3e",
            id="prime-2^61-1-near-top-recursive",
        ),
        pytest.param(
            "prime-2^61-1-near-top", "closed",
            "f81d0e330aa370a80ae25e2a8e0c09154d54f71c29cda2673e41776bcf9ca4ec",
            id="prime-2^61-1-near-top-closed",
        ),
    ],
)
def test_coeff_output_golden_on_top_residues(tmp_path, capsys, name, method, digest):
    path = tmp_path / "s.json"
    path.write_text(json.dumps(_TOP[name]))
    code, out, _ = run_cli(
        capsys, "coeff", str(path), "-k", "48", "-n", "96", "--method", method
    )
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_identities_command(capsys):
    code, out, _ = run_cli(capsys, "identities", "--n-max", "10", "--alpha-max", "3")
    assert code == 0
    assert "all identities hold" in out
    code, out, _ = run_cli(
        capsys, "identities", "--n-max", "8", "--alpha-max", "2", "--json"
    )
    assert code == 0
    blob = json.loads(out)
    assert blob["ok"] is True
    assert [row["alpha"] for row in blob["rows"]] == [1, 2]
    # n = 0..8 for the first identity and n = 1..8 for the second
    assert all(row["checks"] == 17 for row in blob["rows"])


def test_identities_command_compares_rising_product_sum(capsys, monkeypatch):
    # the verdict is a comparison in the command, not an assert in the helper
    right = cli.rising_product_sum
    monkeypatch.setattr(cli, "rising_product_sum", lambda n, alpha: right(n, alpha) + 1)
    code, out, _ = run_cli(capsys, "identities", "--n-max", "4", "--alpha-max", "2")
    assert code == 1
    assert "identity check FAILED" in out


def test_verify_preset(capsys):
    code, out, _ = run_cli(capsys, "verify", "--preset", "typo-adjudication")
    assert code == 0
    assert "result: PASS" in out
    # the text summary byte for byte; CI also runs this test under python -O
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "687a258ee911ca73e0fd25f3be8b8bf9fe1c3a7b879de67bc7e29ed78841ff9a"
    )


def test_verify_sweep_spec_file(tmp_path, capsys):
    spec = {
        "k_max": 4,
        "n_max": 3,
        "domains": ["rational"],
        "methods": ["oracle", "recursive", "closed"],
        "generator": {"kind": "random-rational", "seed": 5, "count": 4, "order": 4},
    }
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    code, out, _ = run_cli(capsys, "verify", "--sweep-spec", str(path), "--json")
    assert code == 0
    blob = json.loads(out)
    assert blob["mismatches"] == 0
    assert len(blob["cells"]) == 4 * 4 * 3


def test_verify_failure_exit_code(capsys, monkeypatch):
    failing = DiscrepancyReport(
        {},
        [],
        [
            Mismatch(
                k=2, n=2, domain="rational", series=0, methods=("oracle", "closed"),
                values={"oracle": "1", "closed": "2"}, difference="1",
            )
        ],
    )
    monkeypatch.setattr(cli, "run_preset", lambda name: failing)
    code, out, _ = run_cli(capsys, "verify")
    assert code == 1
    assert "result: FAIL" in out


@pytest.mark.parametrize("order, refused", [(29, False), (30, True)])
def test_draw_budget_boundary_over_z2(order, refused):
    # one random-rational series over Z/2 takes about 19,279 draws at order
    # 29 and 27,245 at order 30, either side of the 20,000 limit
    generator = GeneratorSpec("random-rational", count=1)
    if not refused:
        _refuse_long_draws(generator, PrimeField(2), order)
        return
    with pytest.raises(ValueError) as info:
        _refuse_long_draws(generator, PrimeField(2), order)
    assert str(info.value) == (
        "random-rational series over 'prime:2' need about 27,245 draws "
        "(1 series of order 30), above the limit of 20,000"
    )


def test_random_rational_spec_that_would_redraw_for_minutes_is_refused(
    tmp_path, capsys
):
    path = tmp_path / "spec.json"
    path.write_text(
        json.dumps(
            {
                "k_max": 1,
                "n_max": 1,
                "domains": [{"prime": 2}],
                "methods": ["oracle", "recursive"],
                "generator": {"kind": "random-rational", "count": 1, "order": 36},
            }
        )
    )
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "verify", "--sweep-spec", str(path))
    assert time.perf_counter() - start < 1
    assert code == 2 and out == ""
    assert err == (
        "error: random-rational series over 'prime:2' need about 217,049 "
        "draws (1 series of order 36), above the limit of 20,000\n"
    )


def test_exhaustive_small_full_grid_that_would_run_for_hours_is_refused(
    tmp_path, capsys
):
    path = tmp_path / "spec.json"
    path.write_text(
        json.dumps(
            {
                "k_max": 2,
                "n_max": 1,
                "methods": ["oracle", "recursive"],
                "generator": {"kind": "exhaustive-small", "order": 30, "count": 0},
            }
        )
    )
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "verify", "--sweep-spec", str(path))
    assert time.perf_counter() - start < 1
    assert code == 2 and out == ""
    # 3^30 = 205,891,132,094,649, estimated on logarithms
    assert re.fullmatch(
        r"error: exhaustive-small series over 'rational' need about "
        r"205,891,132,09\d,\d{3} draws \(all series of order 30\), above the "
        r"limit of 20,000\n",
        err,
    )


def test_round_trip_fixed_point(tmp_path, capsys):
    path = write_series(tmp_path, "s.json", ["1", "1"])
    code, out, _ = run_cli(capsys, "iterate", path, "-n", "2", "--order", "5")
    assert code == 0
    again = tmp_path / "t.json"
    again.write_text(out)
    code, once_more, _ = run_cli(capsys, "iterate", str(again), "-n", "1")
    assert code == 0
    assert once_more == out


def _int_str_limit():
    # Python >= 3.11 (and 3.10 security releases) refuse int/str
    # conversions of more than 4300 digits by default
    return getattr(sys, "get_int_max_str_digits", lambda: None)()


def test_coeff_prints_answers_over_4300_digits(capsys, monkeypatch):
    limit = _int_str_limit()
    values = set()
    for method in ("recursive", "closed"):
        monkeypatch.setattr(sys, "stdin", io.StringIO('{"coeffs": ["2", "1"]}'))
        code, out, err = run_cli(capsys, "coeff", "-", "-k", "12", "-n", "2000",
                                 "--order", "12", "--method", method)
        assert (code, err) == (0, "")
        values.add(json.loads(out)["value"])
    (value,) = values
    assert len(value) == 7217
    assert _int_str_limit() == limit  # restored after each call


def test_iterate_output_over_4300_digits_reads_back(tmp_path, capsys):
    limit = _int_str_limit()
    path = write_series(tmp_path, "s.json", ["10", "1"])
    code, out, _ = run_cli(capsys, "iterate", path, "-n", "4400", "--order", "2")
    assert code == 0
    assert json.loads(out)["coeffs"][0] == "1" + "0" * 4400
    again = tmp_path / "t.json"
    again.write_text(out)
    code, once_more, _ = run_cli(capsys, "iterate", str(again), "-n", "1")
    assert code == 0
    assert once_more == out
    assert _int_str_limit() == limit


def test_usage_errors(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("not json")
    code, _, err = run_cli(capsys, "iterate", str(bad), "-n", "2")
    assert code == 2 and "error:" in err
    code, _, err = run_cli(capsys, "iterate", str(bad) + ".missing", "-n", "2")
    assert code == 2 and "error:" in err
    path = write_series(tmp_path, "g.json", ["2", "1", "0"])
    code, _, err = run_cli(
        capsys, "coeff", path, "-k", "3", "-n", "2", "--method", "schroder"
    )
    assert code == 2 and "a_1 = 1" in err
    code, _, err = run_cli(
        capsys, "coeff", path, "-k", "3", "-n", "2", "--method", "muckenhoupt"
    )
    assert code == 2 and "k = 2" in err
    code, _, err = run_cli(capsys, "coeff", path, "-k", "9", "-n", "2")
    assert code == 2 and "order" in err


def test_coeff_beyond_order_same_error_for_every_method(tmp_path, capsys, monkeypatch):
    path = write_series(tmp_path, "s.json", ["1", "1", "1"])
    # k = 9 is also past small's k <= 5: the index is checked first
    for k in ("4", "9"):
        errors = set()
        for method in METHODS:
            if method == "oracle":
                # the index is checked before the iterate is computed
                def no_iterate(self, n):
                    raise AssertionError("iterate called")

                monkeypatch.setattr(TruncatedSeries, "iterate", no_iterate)
            code, out, err = run_cli(
                capsys, "coeff", path, "-k", k, "-n", "2", "--method", method
            )
            monkeypatch.undo()
            assert code == 2 and out == "", (k, method)
            errors.add(err)
        assert errors == {f"error: k={k} exceeds the truncation order 3\n"}


_SPEC = {"k_max": 2, "n_max": 2, "methods": ["oracle", "recursive"]}


@pytest.mark.parametrize(
    "command, obj, message",
    [
        pytest.param("iterate", {"domain": {"prime": "97"}, "coeffs": ["1"]},
                     "prime must be an integer, got '97'", id="prime-string"),
        pytest.param("iterate", {"domain": {"symbolic": "2"}, "coeffs": ["a1"]},
                     "symbolic must be an integer, got '2'", id="symbolic-string"),
        pytest.param("iterate", {"domain": {"prime": 2.5}, "coeffs": ["1"]},
                     "prime must be an integer, got 2.5", id="prime-float"),
        pytest.param("iterate", {"order": True, "coeffs": ["2"]},
                     "'order' must be an integer, got True", id="order-bool"),
        pytest.param("iterate", {"domain": {"prime": 618970019642690137449562111},
                                 "coeffs": ["1"]},
                     "modulus 618970019642690137449562111 is too large: primality"
                     " is exact only below 3317044064679887385961981",
                     id="prime-too-large"),
        pytest.param("iterate", {"domain": {"symbolic": 10 ** 12}, "coeffs": ["1"]},
                     "symbolic ring of 1000000000000 variables is above the limit"
                     " 1024", id="symbolic-too-large"),
        pytest.param("iterate", {"coeffs": ["\u0661"]},
                     "bad rational literal '\u0661'", id="unicode-digit"),
        pytest.param("iterate", {"domain": {"prime": 97}, "coeffs": ["\u0661"]},
                     "bad integer literal '\u0661'", id="unicode-digit-prime"),
        pytest.param("iterate", {"domain": {"symbolic": 2}, "coeffs": ["a\u0661"]},
                     "bad polynomial factor 'a\u0661'", id="unicode-variable"),
        pytest.param("iterate", {"domian": {"prime": 5}, "coeffs": ["2", "3"]},
                     "unknown series key 'domian'", id="series-unknown-key"),
        pytest.param("verify", {**_SPEC, "domains": [{"symbolic": "2"}],
                                "generator": {"kind": "symbolic-generic"}},
                     "symbolic must be an integer, got '2'",
                     id="spec-symbolic-string"),
        # without k_max and n_max, so the bad range is the spec's only fault
        pytest.param("verify", {"k_range": 5, "n_max": 2, "methods": ["oracle"]},
                     "k_range must be a [lo, hi] pair", id="spec-k-range-int"),
        pytest.param("verify", {"k_max": 2, "n_range": [1, 2, 3], "methods": ["oracle"]},
                     "n_range must be a [lo, hi] pair", id="spec-n-range-triple"),
        pytest.param("verify", {**_SPEC, "generator": {
                         "kind": "random-rational", "count": "3"}},
                     "generator 'count' must be an integer, got '3'",
                     id="spec-count-string"),
        pytest.param("verify", {**_SPEC, "generator": {
                         "kind": "random-rational", "count": -1}},
                     "generator 'count' must be >= 0: -1", id="spec-count-negative"),
        pytest.param("verify", {**_SPEC, "domains": [{"symbolic": 2}],
                                "generator": {"kind": "symbolic-generic",
                                              "a1": "bogus"}},
                     "generator 'a1' must be 'generic' or 'one': 'bogus'",
                     id="spec-a1-bogus"),
        pytest.param("verify", {**_SPEC, "generator": {
                         "kind": "random-rational", "order": 0}},
                     "generator 'order' must be >= 1: 0", id="spec-order-zero"),
        pytest.param("verify", {**_SPEC, "domains": [{"symbolic": 10 ** 12}],
                                "generator": {"kind": "symbolic-generic"}},
                     "symbolic ring of 1000000000000 variables is above the limit"
                     " 1024", id="spec-symbolic-too-large"),
        pytest.param("verify", {**_SPEC, "methods": 5},
                     "'methods' must be an array of strings", id="spec-methods-int"),
        pytest.param("verify", {**_SPEC, "domains": 5},
                     "'domains' must be an array", id="spec-domains-int"),
        pytest.param("verify", {**_SPEC, "generator": {
                         "kind": "user-supplied", "series": 5}},
                     "generator 'series' must be an array", id="spec-series-int"),
        pytest.param("verify", {**_SPEC, "domain": [{"prime": 5}]},
                     "unknown sweep spec key 'domain'", id="spec-unknown-key"),
        pytest.param("verify", {**_SPEC, "generator": {
                         "kind": "random-rational", "cuont": 5}},
                     "unknown generator key 'cuont'",
                     id="spec-generator-unknown-key"),
        pytest.param("verify", {**_SPEC, "generator": {
                         "kind": "user-supplied",
                         "series": [{"coeffs": ["2", "3"], "ordr": 2}]}},
                     "unknown series key 'ordr'", id="spec-series-unknown-key"),
        pytest.param("verify", {**_SPEC, "methods": ["oracle", "oracle"]},
                     "method 'oracle' is listed more than once",
                     id="spec-methods-duplicate"),
        pytest.param("verify", {**_SPEC, "methods": [
                         "oracle", "small", "explicit_small_k"]},
                     "method 'small' is listed more than once",
                     id="spec-methods-duplicate-alias"),
        pytest.param("verify", {**_SPEC, "domains": ["rational", "rational"]},
                     "domain 'rational' is listed more than once",
                     id="spec-domains-duplicate"),
        pytest.param("verify", {**_SPEC, "generator": {
                         "kind": "user-supplied",
                         "series": [{"domain": {"prime": 5}, "coeffs": ["2", "3"]}]}},
                     "user-supplied series over 'prime:5' is not in the swept"
                     " domains", id="spec-series-domain-not-swept"),
        pytest.param("verify", {**_SPEC, "k_range": [1, 2]},
                     "sweep spec gives both k_range and k_max",
                     id="spec-k-range-and-k-max"),
        pytest.param("verify", {**_SPEC, "n_range": [1, 2]},
                     "sweep spec gives both n_range and n_max",
                     id="spec-n-range-and-n-max"),
        pytest.param("verify", {**_SPEC, "generator": {
                         "kind": "random-rational", "a1": "one"}},
                     "generator 'a1' is not read by kind 'random-rational'",
                     id="spec-a1-unread"),
        pytest.param("verify", {**_SPEC, "generator": {
                         "kind": "random-rational",
                         "series": [{"coeffs": ["1", "1"]}]}},
                     "generator 'series' is not read by kind 'random-rational'",
                     id="spec-series-unread"),
    ],
)
def test_malformed_json_exits_2(tmp_path, capsys, command, obj, message):
    """Each case fails on its own check: the exact message keeps a check
    added later from shadowing an earlier one."""
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(obj))
    if command == "iterate":
        argv = ("iterate", str(path), "-n", "2")
    else:
        argv = ("verify", "--json", "--sweep-spec", str(path))
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err == f"error: {message}\n"


@pytest.mark.parametrize("command", ["iterate", "verify"])
def test_deeply_nested_json_exits_2(tmp_path, capsys, monkeypatch, command):
    text = "[" * 100000 + "]" * 100000
    if command == "iterate":
        path = tmp_path / "deep.json"
        path.write_text(text)
        argv = ("iterate", str(path), "-n", "2")
    else:
        monkeypatch.setattr(sys, "stdin", io.StringIO(text))
        argv = ("verify", "--sweep-spec", "-")
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err == "error: JSON input is nested too deeply\n"


def test_argparse_errors(tmp_path, capsys):
    path = write_series(tmp_path, "s.json", ["1", "1"])
    assert run_cli(capsys, "iterate", path, "-n", "0")[0] == 2
    assert run_cli(capsys, "iterate", path, "-n", "x")[0] == 2
    assert run_cli(capsys, "coeff", path, "-k", "1", "-n", "1", "--method", "m")[0] == 2
    assert run_cli(capsys)[0] == 2
    assert run_cli(capsys, "nosuchcommand")[0] == 2
    assert run_cli(capsys, "--help")[0] == 0


def test_subcommand_parser_answers_as_the_full_parse(tmp_path, capsys, monkeypatch):
    """``main`` hands argv[1:] to the parser of the subcommand that argv[0]
    names; every argv below gives the same exit code and the same stdout
    and stderr bytes when the full parser reads all of it instead."""
    path = write_series(tmp_path, "s.json", ["2", "1", "-1/3"])
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({
        "k_max": 2, "n_max": 2, "domains": ["rational"], "methods": ["oracle", "recursive"],
        "generator": {"kind": "random-rational", "seed": 5, "count": 1, "order": 2},
    }))
    corpus = [
        [], ["-h"], ["--help"], ["--version"], ["cofe", path], ["Coeff", path], ["--", "coeff"],
        ["iterate", path, "-n", "2"], ["iterate", "-h"], ["iterate", path, "-n", "0"],
        ["iterate", path, "-n", "2", "--order=5"], ["iterate", path, "-n", "2", "--ord", "2"],
        ["iterate", path + ".missing", "-n", "2"], ["iterate", path],
        ["coeff", path, "-k", "3", "-n", "2"], ["coeff", "--help"], ["coeff", path, "-n", "2"],
        ["coeff", path, "-k", "2", "-n", "2", "--method", "bogus"],
        ["coeff", path, "-k", "2", "-n", "2", "--meth", "closed", "--ord", "4"],
        ["coeff", path, "-k3", "-n2"], ["coeff", path, "-k", "3", "-n", "2", "--order=5"],
        ["coeff", "-k", "2", "-n", "2", "--", path], ["coeff", "--", path, "-k", "2", "-n", "2"],
        ["coeff", path, "-k", "2", "-n", "2", "--bogus"], ["coeff", path, "-k", "2", "-n", "2", "extra"],
        ["coeff", path, "-k", "2", "-n", "2", "--method"], ["coeff", path, "-k", "9", "-n", "2"],
        ["coeff", path, "-k", "x", "-n", "2"], ["coeff", path, path, "-k", "1", "-n", "1"],
        ["formula", "-k", "3", "-n", "2"], ["formula", "-k", "2", "-n", "2", "--json", "--a1", "one"],
        ["formula", "-k", "9", "-n", "2"], ["formula", "-h"], ["formula", "-k", "2"],
        ["verify", "--preset", "symbolic"], ["verify", "--preset", "nope"],
        ["verify", "--sweep-spec", str(spec), "--json"],
        ["verify", "--preset", "symbolic", "--sweep-spec", str(spec)],
        ["identities", "--n-max", "3", "--alpha-max", "2"], ["identities", "--n-max", "0"],
        ["identities", "--json", "--al", "2", "--n-m", "4"], ["identities", "extra"],
    ]
    parser, subcommands = cli._build_parser()
    shortcut = []
    for argv in corpus:
        full_parses = []
        monkeypatch.setattr(parser, "parse_args",
                            lambda args, parse=parser.parse_args: full_parses.append(1) or parse(args))
        got = run_cli(capsys, *argv)
        if not full_parses:
            shortcut.append(argv)
        monkeypatch.setattr(cli, "_build_parser", lambda: (parser, {}))
        assert run_cli(capsys, *argv) == got, argv
        monkeypatch.undo()
    # the subcommand's parser alone answers each argv it reads to the end
    assert ["coeff", path, "-k", "3", "-n", "2"] in shortcut
    assert ["coeff", path, "-n", "2"] in shortcut
    assert not [argv for argv in shortcut if argv[-1] in ("--bogus", "extra")]


def test_successive_calls_share_no_state(tmp_path, capsys):
    # the parser is built once per process and reused by every call
    path = write_series(tmp_path, "s.json", ["1", "1"])
    code, out, _ = run_cli(capsys, "coeff", path, "-k", "2", "-n", "2",
                           "--method", "closed")
    assert code == 0 and '"method": "closed"' in out
    code, out, _ = run_cli(capsys, "coeff", path, "-k", "2", "-n", "2")
    assert code == 0 and '"method": "recursive"' in out
    code, out, _ = run_cli(capsys, "formula", "-k", "2", "-n", "2", "--json")
    assert code == 0 and out.startswith("{")
    assert run_cli(capsys, "formula", "-k", "2", "-n", "2") == (
        0, "a1^2*a2 + a1*a2\n", ""
    )
    assert run_cli(capsys, "coeff", path, "-k", "x", "-n", "2")[0] == 2
    assert run_cli(capsys, "coeff", path, "-k", "2", "-n", "2")[0] == 0


def test_coeff_method_choices_are_the_registry():
    parser, subcommands = cli._build_parser()
    (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    assert sub.choices is subcommands
    method = subcommands["coeff"]._option_string_actions["--method"]
    assert tuple(method.choices) == METHODS


def test_module_entry_point(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-m", "fps_iterate.cli", "formula", "-k", "2", "-n", "2"],
        capture_output=True,
        text=True,
        # -m finds the package from the directory that holds it
        cwd=Path(cli.__file__).parents[1],
    )
    assert proc.returncode == 0
    assert proc.stdout == "a1^2*a2 + a1*a2\n"


def test_every_exported_name_resolves():
    import fps_iterate
    from fps_iterate import domains, formulas, multinomial, verify

    for module in (fps_iterate, domains, formulas, multinomial, verify, cli):
        for name in module.__all__:
            assert hasattr(module, name), (module.__name__, name)


def test_readme_examples_run_as_shown(capsys, monkeypatch):
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    # each `$ [echo JSON |] fps ...` line prints exactly the line under it
    shell = re.findall(r"^\$ (.*)\n(.*)$", readme, flags=re.M)
    assert len(shell) >= 5
    for command, expected in shell:
        words = shlex.split(command)
        stdin = ""
        if words[0] == "echo":
            stdin, words = words[1], words[3:]
        assert words[0] == "fps", command
        monkeypatch.setattr(sys, "stdin", io.StringIO(stdin))
        assert run_cli(capsys, *words[1:]) == (0, expected + "\n", ""), command
    # each print in the library example prints its trailing comment
    (code,) = re.findall(r"## Library example\n\n```python\n(.*?)```", readme, re.S)
    comments = re.findall(r"^print\(.*#\s*(.*)$", code, flags=re.M)
    buffer = io.StringIO()
    with redirect_stdout(buffer):
        exec(code, {})
    assert buffer.getvalue().splitlines() == comments
