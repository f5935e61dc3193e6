"""Command-line interface.

Subcommands: iterate (full composition), coeff (one coefficient by a chosen
method), formula (symbolic closed form), verify (cross-method sweeps),
identities (integer identity checks). Exit codes: 0 success, 1 verification
failure, 2 usage or input error.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys

from .domains import PolynomialRing
from .formulas import nested_sum_binomial, rising_product_sum
from .series import TruncatedSeries
from .verify import (
    METHODS,
    PRESET_NAMES,
    REGISTRY,
    SweepSpec,
    _generic_series,
    run_preset,
    run_sweep,
)

__all__ = ["main", "run"]

_FORMULA_LIMIT = 8


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} is not an integer") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"{text!r} is not a positive integer")
    return value


def _read_json(path: str):
    """The JSON value in the file at ``path``, or on stdin for ``-``."""
    try:
        if path == "-":
            return json.load(sys.stdin)
        with open(path, "r", encoding="utf-8") as handle:
            return json.load(handle)
    except RecursionError:
        raise ValueError("JSON input is nested too deeply") from None


def _with_order(f: TruncatedSeries, order: int | None) -> TruncatedSeries:
    # sliced or zero-padded, unchecked since from_json checked each coefficient
    if order is None:
        return f
    pad = [f.domain.zero] * (order - f.order)
    return TruncatedSeries._trusted(f.domain, [*f.coeffs[:order], *pad])


def cmd_iterate(args) -> int:
    f = _with_order(TruncatedSeries.from_json(_read_json(args.series)), args.order)
    print(json.dumps(f.iterate(args.n).to_json()))
    return 0


def _cell(method: str, f: TruncatedSeries, k: int, n: int):
    """f_k^(n) by ``REGISTRY[method]``, asked for that cell alone."""
    return REGISTRY[method](f, range(k, k + 1), range(n, n + 1))[k, n]


def cmd_coeff(args) -> int:
    f = _with_order(TruncatedSeries.from_json(_read_json(args.series)), args.order)
    value = _cell(args.method, f, args.k, args.n)
    print(
        json.dumps(
            {
                "k": args.k,
                "n": args.n,
                "method": args.method,
                "value": f.domain.format(value),
            }
        )
    )
    return 0


def cmd_formula(args) -> int:
    if not args.allow_large and (args.k > _FORMULA_LIMIT or args.n > _FORMULA_LIMIT):
        raise ValueError(
            f"k and n above {_FORMULA_LIMIT} need --allow-large; "
            "symbolic output grows quickly"
        )
    f = _generic_series(PolynomialRing(args.k), args.k, args.a1)
    value = _cell("schroder" if args.a1 == "one" else "closed", f, args.k, args.n)
    if args.json:
        print(
            json.dumps(
                {
                    "k": args.k,
                    "n": args.n,
                    "a1": args.a1,
                    "formula": str(value),
                }
            )
        )
    else:
        print(value)
    return 0


def cmd_verify(args) -> int:
    if args.sweep_spec is not None:
        report = run_sweep(SweepSpec.from_json(_read_json(args.sweep_spec)))
    else:
        report = run_preset(args.preset)
    if args.json:
        print(json.dumps(report.to_json()))
    else:
        print(report.summary())
    return 0 if report.passed else 1


def cmd_identities(args) -> int:
    # per alpha, the first identity at n = 0..n_max and the second at 1..n_max
    checks = 2 * args.n_max + 1
    rows = []
    for alpha in range(1, args.alpha_max + 1):
        ok = all(
            nested_sum_binomial(n, alpha) == math.comb(n, alpha)
            for n in range(0, args.n_max + 1)
        ) and all(
            rising_product_sum(n, alpha) * (alpha + 1) == math.prod(range(n, n + alpha + 1))
            for n in range(1, args.n_max + 1)
        )
        rows.append({"alpha": alpha, "checks": checks, "ok": ok})
    all_ok = all(row["ok"] for row in rows)
    if args.json:
        print(json.dumps({"n_max": args.n_max, "rows": rows, "ok": all_ok}))
    else:
        for row in rows:
            state = "ok" if row["ok"] else "FAIL"
            print(
                f"alpha={row['alpha']:2d}  checks={row['checks']:3d}  {state}"
            )
        print("all identities hold" if all_ok else "identity check FAILED")
    return 0 if all_ok else 1


@functools.cache  # parse_args leaves the parsers as it found them
def _build_parser() -> tuple[argparse.ArgumentParser, dict]:
    """The ``fps`` parser and its subcommands' parsers by name."""
    parser = argparse.ArgumentParser(
        prog="fps",
        description="Exact coefficients of iterated formal power series.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser(
        "iterate", help="compose a series with itself n times"
    )
    p.add_argument("series", help="series JSON file, or - for stdin")
    p.add_argument("-n", type=_positive_int, required=True, help="iteration count")
    p.add_argument(
        "--order", type=_positive_int, help="pad or truncate to this order first"
    )
    p.set_defaults(handler=cmd_iterate)

    p = sub.add_parser("coeff", help="one coefficient of the n-th iterate")
    p.add_argument("series", help="series JSON file, or - for stdin")
    p.add_argument("-k", type=_positive_int, required=True, help="coefficient index")
    p.add_argument("-n", type=_positive_int, required=True, help="iteration count")
    p.add_argument(
        "--method",
        default="recursive",
        choices=METHODS,
        help="computation route (default: recursive)",
    )
    p.add_argument(
        "--order", type=_positive_int, help="pad or truncate to this order first"
    )
    p.set_defaults(handler=cmd_coeff)

    p = sub.add_parser(
        "formula", help="print f_k of the n-th iterate symbolically"
    )
    p.add_argument("-k", type=_positive_int, required=True)
    p.add_argument("-n", type=_positive_int, required=True)
    p.add_argument(
        "--a1",
        default="generic",
        choices=("generic", "one"),
        help="leave a_1 symbolic or pin it to 1",
    )
    p.add_argument("--json", action="store_true", help="wrap the formula in JSON")
    p.add_argument(
        "--allow-large",
        action="store_true",
        help=f"permit k or n above {_FORMULA_LIMIT}",
    )
    p.set_defaults(handler=cmd_formula)

    p = sub.add_parser("verify", help="run a cross-method equivalence sweep")
    group = p.add_mutually_exclusive_group()
    group.add_argument(
        "--preset",
        default="acceptance",
        choices=PRESET_NAMES,
        help="built-in sweep (default: acceptance)",
    )
    group.add_argument(
        "--sweep-spec", help="sweep spec JSON file, or - for stdin"
    )
    p.add_argument("--json", action="store_true", help="full report as JSON")
    p.set_defaults(handler=cmd_verify)

    p = sub.add_parser(
        "identities", help="check the supporting integer identities"
    )
    p.add_argument("--n-max", type=_positive_int, default=25)
    p.add_argument("--alpha-max", type=_positive_int, default=8)
    p.add_argument("--json", action="store_true")
    p.set_defaults(handler=cmd_identities)
    return parser, sub.choices


def _parse(argv: list[str]) -> argparse.Namespace:
    parser, subcommands = _build_parser()
    sub = subcommands.get(argv[0]) if argv else None
    if sub is not None:
        args, rest = sub.parse_known_args(argv[1:])
        if not rest:
            args.command = argv[0]
            return args
    return parser.parse_args(argv)


def main(argv=None) -> int:
    """Run the subcommand that ``argv`` (default ``sys.argv[1:]``) names and
    return its exit code.

    When argv[0] names a subcommand, that subcommand's parser reads the
    rest: the parser object the ``fps`` parser would hand it to, so the
    namespace is the same. If it leaves an argument over, or argv[0] names
    no subcommand, the ``fps`` parser reads all of argv, so every usage,
    help and error text stays that parser's own.
    """
    if argv is None:
        argv = sys.argv[1:]
    # exact answers outgrow the 4300-digit int/str limit of Python >= 3.11;
    # lift it for this call only
    limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
    if limit is not None:
        sys.set_int_max_str_digits(0)
    try:
        args = _parse(list(argv))
        return args.handler(args)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    except (ValueError, ZeroDivisionError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        if limit is not None:
            sys.set_int_max_str_digits(limit)


def run() -> None:
    sys.exit(main(sys.argv[1:]))


if __name__ == "__main__":
    run()
