"""Command-line interface: outputs are byte-exact, exit codes are stable."""

import argparse
import hashlib
import io
import json
import re
import shlex
import subprocess
import sys
from contextlib import redirect_stdout
from pathlib import Path

import pytest

import fps_iterate.cli as cli
from fps_iterate.series import TruncatedSeries
from fps_iterate.verify import METHODS, DiscrepancyReport, Mismatch


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
    ],
)
def test_symbolic_output_golden(capsys, argv, digest):
    code, out, _ = run_cli(capsys, *argv)
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
                "rational", 0, 2, 2, ("oracle", "closed"),
                {"oracle": "1", "closed": "2"}, "1",
            )
        ],
    )
    monkeypatch.setattr(cli, "run_preset", lambda name: failing)
    code, out, _ = run_cli(capsys, "verify")
    assert code == 1
    assert "result: FAIL" in out


def test_round_trip_fixed_point(tmp_path, capsys):
    path = write_series(tmp_path, "s.json", ["1", "1"])
    code, out, _ = run_cli(capsys, "iterate", path, "-n", "2", "--order", "5")
    assert code == 0
    again = tmp_path / "t.json"
    again.write_text(out)
    code, once_more, _ = run_cli(capsys, "iterate", str(again), "-n", "1")
    assert code == 0
    assert once_more == out


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
    errors = set()
    for method in METHODS:
        if method == "oracle":
            # the index is checked before the iterate is computed
            def no_iterate(self, n):
                raise AssertionError("iterate called")

            monkeypatch.setattr(TruncatedSeries, "iterate", no_iterate)
        code, out, err = run_cli(
            capsys, "coeff", path, "-k", "4", "-n", "2", "--method", method
        )
        monkeypatch.undo()
        assert code == 2 and out == "", method
        errors.add(err)
    assert errors == {"error: k=4 exceeds the truncation order 3\n"}


_SPEC = {"k_max": 2, "n_max": 2, "methods": ["oracle", "recursive"]}


@pytest.mark.parametrize(
    "command, obj",
    [
        pytest.param("iterate", {"domain": {"prime": "97"}, "coeffs": ["1"]},
                     id="prime-string"),
        pytest.param("iterate", {"domain": {"symbolic": "2"}, "coeffs": ["a1"]},
                     id="symbolic-string"),
        pytest.param("iterate", {"domain": {"prime": 2.5}, "coeffs": ["1"]},
                     id="prime-float"),
        pytest.param("iterate", {"order": True, "coeffs": ["2"]},
                     id="order-bool"),
        pytest.param("iterate", {"domain": {"prime": 618970019642690137449562111},
                                 "coeffs": ["1"]},
                     id="prime-too-large"),
        pytest.param("iterate", {"domain": {"symbolic": 10 ** 12}, "coeffs": ["1"]},
                     id="symbolic-too-large"),
        pytest.param("iterate", {"coeffs": ["\u0661"]}, id="unicode-digit"),
        pytest.param("iterate", {"domain": {"prime": 97}, "coeffs": ["\u0661"]},
                     id="unicode-digit-prime"),
        pytest.param("iterate", {"domain": {"symbolic": 2}, "coeffs": ["a\u0661"]},
                     id="unicode-variable"),
        pytest.param("iterate", {"domian": {"prime": 5}, "coeffs": ["2", "3"]},
                     id="series-unknown-key"),
        pytest.param("verify", {**_SPEC, "domains": [{"symbolic": "2"}],
                                "generator": {"kind": "symbolic-generic"}},
                     id="spec-symbolic-string"),
        pytest.param("verify", {**_SPEC, "k_range": 5}, id="spec-k-range-int"),
        pytest.param("verify", {**_SPEC, "generator": {
                         "kind": "random-rational", "count": "3"}},
                     id="spec-count-string"),
        pytest.param("verify", {**_SPEC, "generator": {
                         "kind": "random-rational", "count": -1}},
                     id="spec-count-negative"),
        pytest.param("verify", {**_SPEC, "domains": [{"symbolic": 2}],
                                "generator": {"kind": "symbolic-generic",
                                              "a1": "bogus"}},
                     id="spec-a1-bogus"),
        pytest.param("verify", {**_SPEC, "generator": {
                         "kind": "random-rational", "order": 0}},
                     id="spec-order-zero"),
        pytest.param("verify", {**_SPEC, "domains": [{"symbolic": 10 ** 12}],
                                "generator": {"kind": "symbolic-generic"}},
                     id="spec-symbolic-too-large"),
        pytest.param("verify", {**_SPEC, "methods": 5}, id="spec-methods-int"),
        pytest.param("verify", {**_SPEC, "domains": 5}, id="spec-domains-int"),
        pytest.param("verify", {**_SPEC, "generator": {
                         "kind": "user-supplied", "series": 5}},
                     id="spec-series-int"),
        pytest.param("verify", {**_SPEC, "domain": [{"prime": 5}]},
                     id="spec-unknown-key"),
        pytest.param("verify", {**_SPEC, "generator": {
                         "kind": "random-rational", "cuont": 5}},
                     id="spec-generator-unknown-key"),
        pytest.param("verify", {**_SPEC, "generator": {
                         "kind": "user-supplied",
                         "series": [{"coeffs": ["2", "3"], "ordr": 2}]}},
                     id="spec-series-unknown-key"),
        pytest.param("verify", {**_SPEC, "methods": ["oracle", "oracle"]},
                     id="spec-methods-duplicate"),
        pytest.param("verify", {**_SPEC, "methods": [
                         "oracle", "small", "explicit_small_k"]},
                     id="spec-methods-duplicate-alias"),
        pytest.param("verify", {**_SPEC, "domains": ["rational", "rational"]},
                     id="spec-domains-duplicate"),
        pytest.param("verify", {**_SPEC, "generator": {
                         "kind": "user-supplied",
                         "series": [{"domain": {"prime": 5}, "coeffs": ["2", "3"]}]}},
                     id="spec-series-domain-not-swept"),
        pytest.param("verify", {**_SPEC, "k_range": [1, 2]},
                     id="spec-k-range-and-k-max"),
        pytest.param("verify", {**_SPEC, "n_range": [1, 2]},
                     id="spec-n-range-and-n-max"),
        pytest.param("verify", {**_SPEC, "generator": {
                         "kind": "random-rational", "a1": "one"}},
                     id="spec-a1-unread"),
        pytest.param("verify", {**_SPEC, "generator": {
                         "kind": "random-rational",
                         "series": [{"coeffs": ["1", "1"]}]}},
                     id="spec-series-unread"),
    ],
)
def test_malformed_json_exits_2(tmp_path, capsys, command, obj):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(obj))
    if command == "iterate":
        argv = ("iterate", str(path), "-n", "2")
    else:
        argv = ("verify", "--json", "--sweep-spec", str(path))
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:")


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
    parser = cli._build_parser()
    (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    method = sub.choices["coeff"]._option_string_actions["--method"]
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
