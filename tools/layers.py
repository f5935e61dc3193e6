"""Layer timings of fps-iterate: Q arithmetic, kernels, table, routes, oracle, CLI, presets.

    python3 tools/layers.py --src src --out BENCH_<pr>.json [--repeat N]
    python3 tools/layers.py --src <parent>/src --src src --out BENCH_<pr>.json
    python3 tools/layers.py --src src --src src --out <A/A file>.json

Imports the package from each ``--src`` (the ``src`` directory of a
checkout; give it twice to compare two checkouts) into this one process:
the package's modules are dropped from ``sys.modules`` before each import,
and each checkout's grid of rows keeps the modules it was built from. Each
row runs ``--repeat`` times per checkout, the checkouts alternating run by
run, so host drift reaches both alike. The JSON object written holds the
Python version, ``nproc``, each checkout's commit (``-dirty`` when its
tracked files differ from it) and, per row and per checkout, the best and
median of the runs in seconds and their spread as the distance between the
quartiles (0 for fewer than two runs); with two checkouts also
``best_ratio`` and ``median_ratio``, the second's best and median over the
first's; the median ratio is the steadier reading for rows under 1 ms.
By these a row moved only if the times differ by more than both spreads.
The same checkout given twice is an A/A run: its paired readings show how
far rows that cannot have moved still read. Two checkouts also give the
paired reading, which cancels most of the host's drift: ``paired_ratio``,
the median of the per-run ratios (run i of the second over run i of the
first), and ``paired_interval``, the sign test's interval for it, with its
``paired_coverage`` (see ``paired``); the stderr line prints both readings.
Each route row calls the route as ``REGISTRY`` holds it, ``route(f, ks,
ns)``, which returns {(k, n): f_k^(n)}: a cold row asks for one cell, a
sweep row for all of one series' cells at once. A table row fills a new
power table up to row k, ``PowerCoefficientTable(f, k)``. The last answers
of every checkout are cross-checked, and a wrong one exits 1: the Q
arithmetic rows against stdlib ``Fraction``, the table rows against
``multinomial_coeff``, the kernel and series ``compose`` rows and the
rational and symbolic oracle rows against the elements' operator fold, the
CLI row against the Z/p oracle, the Z/p oracle rows against ``recursive``
at every k, the Z/p ``recursive`` rows, the symbolic routes and the route
sweeps against the oracle. A kernel, compose, CLI, sweep or Q or Q[a] table
row makes as many calls per run as take ``KERNEL_RUN_S`` on the first
checkout, timed once before its runs, and every checkout makes that many;
each row records its count as ``calls``. Standard library only.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import importlib
import io
import json
import math
import operator
import os
import platform
import random
import statistics
import subprocess
import sys
import tempfile
import time
from fractions import Fraction
from pathlib import Path

P = 1000003
KERNEL_RUN_S = 0.005  # seconds per run of a kernel or sweep row
PAIRED_COVERAGE = 0.95  # least coverage of a paired interval


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--src", required=True, type=Path, action="append",
                        help="directory holding fps_iterate/; once, or twice to compare")
    parser.add_argument("--out", required=True, type=Path)
    parser.add_argument("--repeat", type=int, default=7, help="runs per row (default 7)")
    args = parser.parse_args(argv)
    if len(args.src) > 2:
        parser.error("--src is given once or twice")
    if args.repeat < 1:
        parser.error("--repeat must be >= 1")
    return args


def commit(src: Path) -> str:
    try:
        git = subprocess.run(
            ["git", "describe", "--always", "--dirty", "--abbrev=40"],
            cwd=src, capture_output=True, text=True,
        )
    except OSError:
        return "unknown"
    return git.stdout.strip() if git.returncode == 0 else "unknown"


def timed(fn, calls: int):
    """Seconds per call of ``fn`` over ``calls`` calls, and its last result;
    the collector runs before the run, not inside it."""
    gc.collect()
    gc.disable()
    try:
        start = time.perf_counter()
        for _ in range(calls):
            result = fn()
        return (time.perf_counter() - start) / calls, result
    finally:
        gc.enable()


def calibrate(fn) -> int:
    """Calls of ``fn`` that take about ``KERNEL_RUN_S``, from the time of ten
    after one warm-up call; one, without the ten, when that call alone takes
    longer."""
    seconds, _ = timed(fn, 1)
    if seconds < KERNEL_RUN_S:
        seconds, _ = timed(fn, 10)
    return max(1, round(KERNEL_RUN_S / seconds))


def load(src: Path, tmp: str):
    """The grid of the package imported afresh from ``src``; its series
    files go to the directory ``tmp``."""
    for name in [m for m in sys.modules if m.split(".")[0] == "fps_iterate"]:
        del sys.modules[name]
    path = str(src.resolve())
    sys.path.insert(0, path)
    try:
        pkg = importlib.import_module("fps_iterate")
        if not Path(pkg.__file__).resolve().is_relative_to(src.resolve()):
            raise SystemExit(f"fps_iterate imported from {pkg.__file__}, not from {src}")
        return grid(tmp)
    finally:
        sys.path.remove(path)


def grid(tmp: str):
    """(name, fn, calls, check) per row; ``check`` takes the last result and
    says whether it is right. ``calls`` is None for a kernel, compose, CLI,
    sweep or Q or Q[a] table row, whose count is calibrated."""
    from fps_iterate import cli
    from fps_iterate.domains import RATIONALS, PolynomialRing, PrimeField
    from fps_iterate.multinomial import PowerCoefficientTable, multinomial_coeff
    from fps_iterate.series import TruncatedSeries
    from fps_iterate.verify import REGISTRY, A1_POOL, _generic_series, run_preset

    field, ring = PrimeField(P), PolynomialRing(4)

    def cell(name, f, k, n):
        return REGISTRY[name](f, range(k, k + 1), range(n, n + 1))[k, n]

    def residues(order, dom=field):
        return TruncatedSeries(
            dom, order, [dom.from_int(37 * j * j + 11 * j + 5) for j in range(1, order + 1)]
        )

    rational = TruncatedSeries(
        RATIONALS, 14, [Fraction((-1) ** j * (j + 1), j + 2) for j in range(14)]
    )
    # label -> (domain, element j, the largest horner m). Over Q[a1..a4] the
    # composition's entries reach 1,591 terms at m = 24; at m = 32 they
    # reach 4,020, and one call took about 1.5 s and its operator-fold
    # reference about 6 s (Python 3.11, 2 cores)
    samples = {
        "Q": (RATIONALS, lambda j: Fraction(3 * j + 1, j % 5 + 2) if j % 2 else j - 7, 32),
        f"Z/{P}": (field, lambda j: field.from_int(7919 * j + 3), 32),
        "Q[a1..a4]": (ring, lambda j: ring.variable(j % 4 + 1) + ring.from_int(j), 24),
    }

    def fold(dom, xs, ys):
        total = dom.zero
        for x, y in zip(xs, ys):
            total = total + x * y
        return total

    def fold_horner(dom, coeffs, ys):
        # Horner's rule, each step's product at full length and each of its
        # entries an operator fold
        acc = [dom.zero] * len(coeffs)
        for a in reversed(coeffs):
            x = [a, *acc[:-1]]
            acc = [fold(dom, x[: s + 1], ys[s::-1]) for s in range(len(ys))]
        return acc

    def fold_iterate(f, n):
        # the oracle's composition on the operator fold
        coeffs = f.coeffs
        for _ in range(n - 1):
            coeffs = fold_horner(f.domain, coeffs, f.coeffs)
        return list(coeffs)

    rows = []
    # Q element arithmetic: 32 seeded pairs of rationals as the package makes
    # them, numerators and denominators of about 1, 12 and 30 digits, each
    # with a rational or an int right operand; checked against stdlib
    # Fraction on the same values
    rng = random.Random(34)
    for digits in (1, 12, 30):
        def height():
            return rng.randint(1, 10**digits - 1) * rng.choice((1, -1))

        def noninteger():
            q = Fraction(height(), abs(height()) + 1)
            return RATIONALS.from_fraction(q) if q.denominator > 1 else noninteger()

        qs = [noninteger() for _ in range(64)]
        for right, ys in (("q", qs[32:]), ("int", [height() for _ in range(32)])):
            pairs = list(zip(qs[:32], ys))
            for symbol, op in (("+", operator.add), ("*", operator.mul)):
                want = [op(Fraction(x), Fraction(y)) for x, y in pairs]
                rows.append((f"arith/Q/q{symbol}{right}/{digits}-digit",
                             lambda op=op, pairs=pairs: [op(x, y) for x, y in pairs],
                             None, lambda got, w=want: got == w))
    for label, (dom, element, top) in samples.items():
        for m in (8, 32, 100):
            xs = [element(j) for j in range(m)]
            ys = [element(j + m) for j in range(m)]
            want = fold(dom, xs, ys)
            rows.append((f"fold/{label}/m={m}", lambda d=dom, x=xs, y=ys: fold(d, x, y),
                         None, lambda got, w=want: got == w))
            rows.append((f"combine/{label}/m={m}", lambda d=dom, x=xs, y=ys: d.combine(x, y),
                         None, lambda got, w=want: got == w))
        folds = {}  # m -> fold_horner of the elements 0..m-1 and m..2m-1
        for m in (8, 16, top):
            coeffs = [element(j) for j in range(m)]
            ys = [element(j + m) for j in range(m)]
            want = folds[m] = fold_horner(dom, coeffs, ys)
            rows.append((f"horner/{label}/m={m}",
                         lambda d=dom, c=coeffs, y=ys: d.horner(c, y),
                         None, lambda got, w=want: list(got) == w))
        # series compose: the horner kernel plus the series built around it
        for m in (8, 16, 24):
            f = TruncatedSeries(dom, m, [element(j) for j in range(m)])
            g = TruncatedSeries(dom, m, [element(j + m) for j in range(m)])
            want = folds.get(m) or fold_horner(dom, f.coeffs, g.coeffs)
            rows.append((f"compose/{label}/order={m}", lambda f=f, g=g: f.compose(g),
                         None, lambda got, w=want: list(got.coeffs) == w))

    big = residues(100)
    for k in (10, 20, 40, 100):
        rows.append((f"table/Z/{P}/k={k}", lambda k=k: PowerCoefficientTable(big, k), 1,
                     lambda got, k=k: got.get(k, 2) == multinomial_coeff(big, k, 2)))
    # the table over Q and Q[a1..a8], each row k against the multinomial walk
    for label, f, k in (("Q", rational, 14),
                        ("Q[a1..a8]", _generic_series(PolynomialRing(8), 8, "generic"), 8)):
        want = [multinomial_coeff(f, k, i) for i in range(1, k + 1)]
        rows.append((f"table/{label}/k={k}", lambda f=f, k=k: PowerCoefficientTable(f, k), None,
                     lambda got, k=k, w=want: got.rows[k] == w))

    # over Z/(2^61 - 1), w*(p-1)^2 >= 2^64 already at w = 1, so the
    # recursive step takes the base map, not packed
    for label, dom, k, n in ((f"Z/{P}", field, 24, 48), (f"Z/{P}", field, 45, 90),
                             ("Z/(2^61-1)", PrimeField(2**61 - 1), 24, 48)):
        f = residues(k, dom)
        want = f.iterate(n).coefficient(k)
        rows.append((f"recursive/{label}/k={k},n={n}",
                     lambda f=f, k=k, n=n: cell("recursive", f, k, n),
                     1, lambda got, w=want: got == w))

    sweep_series = residues(24)

    def closed_sweep():
        return REGISTRY["closed"](sweep_series, range(1, 25), range(1, 25))

    # one cold `fps coeff` through cli.main, output captured: argv parse,
    # JSON read, series parse, table, recursive route and formatting
    cli_series = residues(24)
    path = os.path.join(tmp, "z.json")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(cli_series.to_json(), handle)
    want_cli = cli_series.domain.format(cli_series.iterate(32).coefficient(10))

    def cli_coeff():
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(["coeff", path, "-k", "10", "-n", "32"])
        return code, out.getvalue()

    rows.append((f"cli/coeff/Z/{P}/order=24,k=10,n=32", cli_coeff, None,
                 lambda got: got[0] == 0 and json.loads(got[1])["value"] == want_cli))

    rows.append((f"closed-sweep/Z/{P}/k,n<=24", closed_sweep, 1,
                 lambda got: got[24, 24] == sweep_series.iterate(24).coefficient(24)))
    # the Z/p oracle against recursive at every k, in one call; the oracle's
    # horner packs every prime, in slots sized by m and p
    for dom, label, K, n in ((field, f"Z/{P}", 24, 48), (field, f"Z/{P}", 45, 90),
                             (PrimeField(2**61 - 1), "Z/(2^61-1)", 24, 48)):
        f = residues(K, dom)
        got = REGISTRY["recursive"](f, range(1, K + 1), range(n, n + 1))
        want = [got[k, n] for k in range(1, K + 1)]
        rows.append((f"oracle/{label}/K={K},n={n}", lambda f=f, n=n: f.iterate(n), 1,
                     lambda got, w=want: list(got.coeffs) == w))
    want_oracle = fold_iterate(rational, 14)
    rows.append(("oracle/Q/K=n=14", lambda: rational.iterate(14), 1,
                 lambda got: list(got.coeffs) == want_oracle))
    want_q = want_oracle[13]
    for name in ("closed", "recursive"):
        rows.append((f"{name}/Q/K=n=14", lambda name=name: cell(name, rational, 14, 14), 1,
                     lambda got: got == want_q))

    for K in (8, 10):
        f = _generic_series(PolynomialRing(K), K, "generic")
        want_sym = f.iterate(K).coefficient(K)
        for name in ("closed", "recursive"):
            rows.append((f"{name}/Q[a1..a{K}]/K=n={K}",
                         lambda name=name, f=f, K=K: cell(name, f, K, K),
                         1, lambda got, w=want_sym: got == w))
    one = _generic_series(PolynomialRing(11), 11, "one")
    want_one = one.iterate(11).coefficient(11)
    rows.append(("schroder/Q[a1..a11],a1=1/K=n=11", lambda: cell("schroder", one, 11, 11),
                 1, lambda got: got == want_one))
    sym8 = _generic_series(PolynomialRing(8), 8, "generic")
    want_sym8 = fold_iterate(sym8, 8)
    rows.append(("oracle/Q[a1..a8]/K=n=8", lambda: sym8.iterate(8), 1,
                 lambda got: list(got.coeffs) == want_sym8))
    # every cell k <= 8, n <= 6 (small: k <= 5) of one seeded rational
    # series, drawn as `acceptance` draws them, with a_1 = 1 for schroder;
    # each route called once per run, as a sweep calls it; and the oracle's
    # iterates 2..6 of the first series, checked against the operator fold
    rng = random.Random(27)
    digits = [d for d in range(-9, 10) if d]
    higher = [Fraction(rng.randint(-9, 9), rng.choice(digits)) for _ in range(7)]
    for a1, names in ((rng.choice(A1_POOL), ("small", "closed", "recursive")), (1, ("schroder",))):
        f = TruncatedSeries(RATIONALS, 8, [RATIONALS.from_fraction(q) for q in [a1] + higher])

        def oracle_sweep(f=f):
            # iterates 1..6, composed as a sweep composes them
            iterates = [f]
            for _ in range(5):
                iterates.append(iterates[-1].compose(f))
            return iterates

        iterates = oracle_sweep()
        if "small" in names:
            want_iterates = [fold_iterate(f, n) for n in range(2, 7)]
            rows.append(("oracle/Q/sweep-like/K=8,n=6", oracle_sweep, None,
                         lambda got, w=want_iterates: [list(g.coeffs) for g in got[1:]] == w))
        for name in names:
            ks, ns = range(1, 9), range(1, 7)
            top = 5 if name == "small" else 8
            want = {(k, n): iterates[n - 1].coefficient(k) for k in range(1, top + 1) for n in ns}

            def sweep(f=f, fn=REGISTRY[name], ks=ks, ns=ns):
                return fn(f, ks, ns)

            rows.append((f"sweep/{name}/Q/k<={top},n<=6", sweep, None,
                         lambda got, w=want: got == w))
    for preset in ("symbolic", "acceptance"):
        rows.append((f"preset/{preset}", lambda p=preset: run_preset(p), 1,
                     lambda got: got.passed))
    return rows


def spread(times) -> dict:
    quartiles = statistics.quantiles(times, n=4) if len(times) > 1 else [times[0]] * 3
    return {"best": min(times), "median": statistics.median(times),
            "iqr": quartiles[2] - quartiles[0]}


def paired(first, second) -> dict:
    """The median of the per-run ratios ``second[i] / first[i]`` and the sign
    test's interval for it: the ratios of ranks j and n + 1 - j of the n
    sorted ones, for the largest j whose coverage 1 - 2 P(Bin(n, 1/2) < j)
    is at least ``PAIRED_COVERAGE``, and that coverage (for 21 runs, the
    6th and 16th: 97.3%); the interval and its coverage are null below 6
    runs, where no j reaches it."""
    ratios = sorted(b / a for a, b in zip(first, second))
    n = len(ratios)
    out = {"paired_ratio": statistics.median(ratios), "paired_interval": None,
           "paired_coverage": None}
    below = 0  # runs drawn under rank j: 2^n P(Bin(n, 1/2) < j)
    for j in range(1, (n + 1) // 2 + 1):
        below += math.comb(n, j - 1)
        coverage = 1 - 2 * below / 2**n
        if coverage < PAIRED_COVERAGE:
            break
        out["paired_interval"] = [ratios[j - 1], ratios[n - j]]
        out["paired_coverage"] = coverage
    return out


def main(argv=None) -> int:
    args = parse_args(argv)
    with tempfile.TemporaryDirectory() as tmp:
        return measure(args, [load(src, tmp) for src in args.src])


def measure(args, grids) -> int:
    """Time the rows of ``grids``, one grid per checkout, and write
    ``args.out``; 1 if a checkout answered a row wrong."""
    sides = range(len(grids))
    out = {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "commits": [commit(src) for src in args.src],
        "rows": [],
    }
    wrong = []
    for rows in zip(*grids):
        name, _, calls, _ = rows[0]
        if calls is None:
            calls = calibrate(rows[0][1])
        times, results = [[] for _ in sides], [None for _ in sides]
        for run in range(args.repeat):
            for side in sides if run % 2 == 0 else reversed(sides):
                seconds, results[side] = timed(rows[side][1], calls)
                times[side].append(seconds)
        for src, (_, _, _, check), result in zip(args.src, rows, results):
            if not check(result):
                wrong.append(f"{name} (--src {src})")
        row = {"name": name, "unit": "s", "runs": args.repeat, "calls": calls,
               "sides": [spread(t) for t in times]}
        best = [s["best"] for s in row["sides"]]
        median = [s["median"] for s in row["sides"]]
        shown = "  ".join(f"best {b:.6f} s" for b in best)
        if len(best) == 2:
            row["best_ratio"] = best[1] / best[0]
            row["median_ratio"] = median[1] / median[0]
            row.update(paired(*times))
            shown += (f"  ratio {row['best_ratio']:.3f} (median {row['median_ratio']:.3f})"
                      f"  paired {row['paired_ratio']:.3f}")
            if row["paired_interval"]:
                shown += " [{:.3f}, {:.3f}]".format(*row["paired_interval"])
        out["rows"].append(row)
        print(f"{name:36} {shown}", file=sys.stderr)
    args.out.write_text(json.dumps(out, indent=1) + "\n")
    if wrong:
        print(f"wrong answers: {', '.join(wrong)}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
