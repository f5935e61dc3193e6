"""Layer timings of fps-iterate: kernels, the power table, routes, oracle.

    python3 tools/layers.py --src src --out BENCH_<pr>.json [--repeat N]

Imports the package from ``--src`` (the ``src`` directory of any checkout),
times each row of a fixed grid ``--repeat`` times, and writes one JSON
object: per row the best and median of the runs in seconds, their spread
as the distance between the quartiles (0 for fewer than two runs), the
Python version, ``nproc`` and the commit of the checkout (``-dirty`` when
its tracked files differ from it). A row counts as moved between two files
only if the best times differ by more than both spreads. Each cold row
builds a new table and memo per run; the last answers are cross-checked,
and a wrong one exits 1. Standard library only.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

P = 1000003
KERNEL_CALLS = 200


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--src", required=True, type=Path, help="directory holding fps_iterate/")
    parser.add_argument("--out", required=True, type=Path)
    parser.add_argument("--repeat", type=int, default=7, help="runs per row (default 7)")
    return parser.parse_args(argv)


def commit(src: Path) -> str:
    try:
        git = subprocess.run(
            ["git", "describe", "--always", "--dirty", "--abbrev=40"],
            cwd=src, capture_output=True, text=True,
        )
    except OSError:
        return "unknown"
    return git.stdout.strip() if git.returncode == 0 else "unknown"


def timed(fn, repeat: int, calls: int = 1):
    """Seconds per call of ``fn`` in each of ``repeat`` runs, and its last
    result; the collector runs between runs, not inside them."""
    times, result = [], None
    for _ in range(repeat):
        gc.collect()
        gc.disable()
        try:
            start = time.perf_counter()
            for _ in range(calls):
                result = fn()
            times.append((time.perf_counter() - start) / calls)
        finally:
            gc.enable()
    return times, result


def load(src: Path):
    sys.path.insert(0, str(src.resolve()))
    pkg = importlib.import_module("fps_iterate")
    if not Path(pkg.__file__).resolve().is_relative_to(src.resolve()):
        raise SystemExit(f"fps_iterate imported from {pkg.__file__}, not from {src}")


def grid():
    """(name, fn, calls, check) per row; ``check`` takes the last result and
    says whether it is right."""
    from fps_iterate import formulas
    from fps_iterate.domains import RATIONALS, PolynomialRing, PrimeField
    from fps_iterate.multinomial import PowerCoefficientTable, multinomial_coeff
    from fps_iterate.series import TruncatedSeries

    field, ring = PrimeField(P), PolynomialRing(4)

    def residues(order):
        return TruncatedSeries(
            field, order, [field.from_int(37 * j * j + 11 * j + 5) for j in range(1, order + 1)]
        )

    rational = TruncatedSeries(
        RATIONALS, 14, [Fraction((-1) ** j * (j + 1), j + 2) for j in range(14)]
    )
    samples = {
        "Q": (RATIONALS, lambda j: Fraction(3 * j + 1, j % 5 + 2) if j % 2 else j - 7),
        f"Z/{P}": (field, lambda j: field.from_int(7919 * j + 3)),
        "Q[a1..a4]": (ring, lambda j: ring.variable(j % 4 + 1) + ring.from_int(j)),
    }

    def fold(dom, xs, ys):
        total = dom.zero
        for x, y in zip(xs, ys):
            total = total + x * y
        return total

    rows = []
    for label, (dom, element) in samples.items():
        for m in (8, 32, 100):
            xs = [element(j) for j in range(m)]
            ys = [element(j + m) for j in range(m)]
            want = fold(dom, xs, ys)
            rows.append((f"fold/{label}/m={m}", lambda d=dom, x=xs, y=ys: fold(d, x, y),
                         KERNEL_CALLS, lambda got, w=want: got == w))
            if hasattr(dom, "combine"):
                rows.append((f"combine/{label}/m={m}", lambda d=dom, x=xs, y=ys: d.combine(x, y),
                             KERNEL_CALLS, lambda got, w=want: got == w))

    big = residues(100)

    def table(k):
        t = PowerCoefficientTable(big)
        t.get(k, 1)
        return t

    for k in (10, 20, 40, 100):
        rows.append((f"table/Z/{P}/k={k}", lambda k=k: table(k), 1,
                     lambda got, k=k: got.get(k, 2) == multinomial_coeff(big, k, 2)))

    for k, n in ((24, 48), (45, 90)):
        f = residues(k)
        want = f.iterate(n).coefficient(k)
        rows.append((f"recursive/Z/{P}/k={k},n={n}",
                     lambda f=f, k=k, n=n: formulas.coeff_recursive(f, k, n),
                     1, lambda got, w=want: got == w))

    sweep_series = residues(24)

    def closed_sweep():
        t, memo = PowerCoefficientTable(sweep_series), {}
        return [
            formulas.coeff_closed(sweep_series, k, n, t, memo)
            for n in range(1, 25)
            for k in range(1, 25)
        ]

    rows.append((f"closed-sweep/Z/{P}/k,n<=24", closed_sweep, 1,
                 lambda got: got[-1] == sweep_series.iterate(24).coefficient(24)))
    oracle = residues(45).iterate(90)
    rows.append((f"oracle/Z/{P}/K=45,n=90", lambda: residues(45).iterate(90), 1,
                 lambda got: got == oracle))
    want_q = rational.iterate(14).coefficient(14)
    for route in ("closed", "recursive"):
        fn = getattr(formulas, f"coeff_{route}")
        rows.append((f"{route}/Q/K=n=14", lambda fn=fn: fn(rational, 14, 14), 1,
                     lambda got: got == want_q))
    return rows


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.repeat < 1:
        raise SystemExit("--repeat must be >= 1")
    load(args.src)
    host = {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "commit": commit(args.src),
    }
    out, wrong = [], []
    for name, fn, calls, check in grid():
        times, result = timed(fn, args.repeat, calls)
        if not check(result):
            wrong.append(name)
        quartiles = statistics.quantiles(times, n=4) if len(times) > 1 else [times[0]] * 3
        out.append({
            "name": name,
            "unit": "s",
            "best": min(times),
            "median": statistics.median(times),
            "iqr": quartiles[2] - quartiles[0],
            "runs": len(times),
            **host,
        })
        print(f"{name:36} best {min(times):.6f} s  iqr {out[-1]['iqr']:.6f} s", file=sys.stderr)
    args.out.write_text(json.dumps({"rows": out}, indent=1) + "\n")
    if wrong:
        print(f"wrong answers: {', '.join(wrong)}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
