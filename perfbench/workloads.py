"""Seeded request passes for the benchmark workloads.

The seed makes one pass: a list of requests plus a few malformed requests
(probes) that ride along with them. The runner repeats the pass. Every
request checks its own answer, either against a value computed here
without the package or against another request of the same pass, so a
wrong answer is caught where it happens.

Requests go through the public entry points only: ``verify.run_sweep``
and ``cli.main``. Both are looked up on their module at call time, so the
tracer can wrap them from outside.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
from fractions import Fraction
from random import Random
from typing import Callable, NamedTuple

from fps_iterate import cli, verify
from fps_iterate.domains import RATIONALS, PolynomialRing
from fps_iterate.verify import A1_POOL, METHODS, GeneratorSpec, SweepSpec

PRIMES = (999953, 999983, 1000003, 1000033, 1000039, 1000081)


class Request(NamedTuple):
    """One call into the package. ``run`` returns True when the answer was
    checked and right (for a probe: when the input was cleanly refused);
    ``cells`` is the number of values it verifies."""

    kind: str
    run: Callable[[], bool]
    cells: int = 0


class Pass(NamedTuple):
    requests: list[Request]
    probes: list[Request]


def call_cli(argv: list[str]) -> tuple[int, str, str]:
    """cli.main in-process with stdout and stderr captured."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def probe(argv: list[str]) -> Request:
    """A malformed request: clean only if it exits 2 with one `error:` line."""

    def run() -> bool:
        code, out, err = call_cli(argv)
        lines = err.splitlines()
        return code == 2 and not out and len(lines) == 1 and lines[0].startswith("error:")

    return Request("probe", run)


def spec_probes(workdir: str, specs) -> list[Request]:
    """`fps verify --sweep-spec` on each malformed spec."""
    return [
        probe(["verify", "--json", "--sweep-spec", write_json(os.path.join(workdir, f"bad{i}.json"), spec)])
        for i, spec in enumerate(specs)
    ]


def write_json(path: str, obj) -> str:
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(obj if isinstance(obj, str) else json.dumps(obj))
    return path


def draw_rational(rng: Random, first: bool) -> Fraction:
    """a_1 from the unit pool, higher coefficients single-digit p/q: the
    distribution of the `acceptance` preset."""
    if first:
        return rng.choice(A1_POOL)
    return Fraction(rng.randint(-9, 9), rng.choice([d for d in range(-9, 10) if d]))


def low_coefficients(a1, a2, n: int, zero, one):
    """f_1^(n) = a1^n and f_2^(n) = a2 * a1^(n-1) * (1 + a1 + ... + a1^(n-1)),
    computed here without the package, to check its answers."""
    geometric = zero
    power = one
    for _ in range(n):
        geometric = geometric + power
        power = power * a1
    return a1 ** n, a2 * a1 ** (n - 1) * geometric


def spaced(order: int, count: int) -> list[int]:
    """``count`` coefficient indices spread evenly over 1..order, ending at order."""
    return [order * (m + 1) // count for m in range(count)]


# -- sweep-rational ----------------------------------------------------------

SWEEP_SERIES, SWEEP_K, SWEEP_N = 100, 8, 6


def sweep_rational(rng: Random, workdir: str) -> Pass:
    """100 user-supplied rational series, one run_sweep each, k <= 8, n <= 6,
    all six methods: the default `fps verify` traffic."""
    requests = [
        rational_sweep([draw_rational(rng, j == 0) for j in range(SWEEP_K)])
        for _ in range(SWEEP_SERIES)
    ]
    probes = spec_probes(
        workdir,
        (
            {"k_range": 5, "n_max": 2, "methods": ["oracle", "recursive"]},
            {"k_max": 2, "n_max": 2, "methods": ["oracle", "recursive"],
             "generator": {"kind": "random-rational", "count": "3"}},
            {"k_max": 0, "n_max": 2, "methods": ["oracle", "recursive"]},
            {"k_max": 2, "n_max": 2, "methods": ["oracle", "bogus"]},
            "[1, 2]",
        ),
    )
    return Pass(requests, probes)


def rational_sweep(coeffs: list[Fraction]) -> Request:
    spec = SweepSpec(
        (1, SWEEP_K),
        (1, SWEEP_N),
        (RATIONALS,),
        METHODS,
        GeneratorSpec("user-supplied", series=({"coeffs": [str(c) for c in coeffs]},)),
    )
    expected = {}
    for n in range(1, SWEEP_N + 1):
        f1, f2 = low_coefficients(coeffs[0], coeffs[1], n, Fraction(0), Fraction(1))
        expected[(1, n)], expected[(2, n)] = str(f1), str(f2)

    def run() -> bool:
        report = verify.run_sweep(spec)
        if not report.passed or len(report.cells) != SWEEP_K * SWEEP_N:
            return False
        return all(
            c.status == "pass" and c.values["oracle"] == expected[(c.k, c.n)]
            for c in report.cells
            if c.k <= 2
        )

    return Request("sweep", run, SWEEP_K * SWEEP_N)


# -- symbolic ----------------------------------------------------------------

SYMBOLIC_K = 8


def symbolic(rng: Random, workdir: str) -> Pass:
    """Two symbolic-generic sweeps at K = n = 8 (a1 generic, and a1 = 1 with
    schroder), plus one `fps formula` request per k, n <= 8 and --a1 choice,
    each checked against the oracle value of its sweep. The inputs are fixed;
    the seed only orders the formula requests."""
    oracle: dict[str, dict] = {}
    formulas = [
        formula(a1, k, n, oracle)
        for a1 in ("generic", "one")
        for k in range(1, SYMBOLIC_K + 1)
        for n in range(1, SYMBOLIC_K + 1)
    ]
    rng.shuffle(formulas)
    # a formula is checked against the sweep of the same pass: sweeps first
    requests = [symbolic_sweep(a1, oracle) for a1 in ("generic", "one")] + formulas
    probes = spec_probes(
        workdir,
        (
            {"k_max": 2, "n_max": 2, "domains": [{"symbolic": "2"}],
             "methods": ["oracle", "recursive"], "generator": {"kind": "symbolic-generic"}},
            {"k_max": 2, "n_max": 2, "domains": ["rational"],
             "methods": ["oracle", "recursive"], "generator": {"kind": "symbolic-generic"}},
            {"k_max": 3, "n_max": 2, "domains": [{"symbolic": 2}],
             "methods": ["oracle", "recursive"], "generator": {"kind": "symbolic-generic"}},
        ),
    )
    probes.append(probe(["formula", "-k", "9", "-n", "2"]))
    return Pass(requests, probes)


def symbolic_sweep(a1: str, oracle: dict) -> Request:
    methods = ("oracle", "recursive", "closed", "small")
    if a1 == "one":
        methods += ("schroder",)
    spec = SweepSpec(
        (1, SYMBOLIC_K),
        (1, SYMBOLIC_K),
        (PolynomialRing(SYMBOLIC_K),),
        methods,
        GeneratorSpec("symbolic-generic", order=SYMBOLIC_K, a1=a1),
    )
    # f_1^(n) = a1^n
    first_row = ["1" if a1 == "one" else "a1" if n == 1 else f"a1^{n}" for n in range(1, SYMBOLIC_K + 1)]

    def run() -> bool:
        report = verify.run_sweep(spec)
        values = {(c.k, c.n): c.values["oracle"] for c in report.cells}
        oracle[a1] = values
        return (
            report.passed
            and len(values) == SYMBOLIC_K * SYMBOLIC_K
            and [values[(1, n)] for n in range(1, SYMBOLIC_K + 1)] == first_row
        )

    return Request("sweep", run, SYMBOLIC_K * SYMBOLIC_K)


def formula(a1: str, k: int, n: int, oracle: dict) -> Request:
    argv = ["formula", "-k", str(k), "-n", str(n), "--a1", a1]

    def run() -> bool:
        code, out, _ = call_cli(argv)
        return code == 0 and a1 in oracle and out.rstrip("\n") == oracle[a1][(k, n)]

    return Request("formula", run, 1)


# -- coeff-queries -----------------------------------------------------------

ZP_ORDERS, ZP_NS, ZP_COEFFS = (16, 20, 24), (16, 32, 48), 6
Q_ORDERS, Q_NS, Q_COEFFS = (4, 8, 12), (2, 6, 10), 4


def coeff_queries(rng: Random, workdir: str) -> Pass:
    """`fps iterate -n N` then several `fps coeff -k K -n N` on the same series
    file, in-process through cli.main. Half the series are over Z/p
    (p ~ 1e6, order 16-24, n 16-48), half over Q (order 4-12, n 2-10).

    There is one series per point of a fixed 3 x 3 grid over (order, n) in
    each domain, with coeff requests at evenly spaced k, so the cost of a
    pass hardly depends on the seed; the seed draws the prime, the
    coefficients and the order of the series.
    """
    grid = [(prime_series, order, n) for order in ZP_ORDERS for n in ZP_NS]
    grid += [(rational_series, order, n) for order in Q_ORDERS for n in Q_NS]
    rng.shuffle(grid)
    requests = []
    for index, (series, order, n) in enumerate(grid):
        requests += series(rng, os.path.join(workdir, f"s{index}.json"), order, n)
    probes = []
    for i, text in enumerate(
        (
            '{"domain": {"prime": "97"}, "coeffs": ["1", "2"]}',
            '{"domain": {"symbolic": "2"}, "coeffs": ["a1", "a2"]}',
            '{"domain": {"prime": 2.5}, "coeffs": ["1", "2"]}',
            '{"order": true, "coeffs": ["2"]}',
            '{"coeffs": [',
            '{"coeffs": []}',
            '{"domain": {"prime": 4}, "coeffs": ["1"]}',
            '{"coeffs": ["1/0", "1"]}',
        )
    ):
        path = write_json(os.path.join(workdir, f"bad{i}.json"), text)
        probes.append(probe(["iterate", path, "-n", "2"] if i % 2 else ["coeff", path, "-k", "1", "-n", "2"]))
    return Pass(requests, probes)


def prime_series(rng: Random, path: str, order: int, n: int) -> list[Request]:
    p = rng.choice(PRIMES)
    coeffs = [rng.randrange(1, p)] + [rng.randrange(p) for _ in range(order - 1)]
    write_json(path, {"domain": {"prime": p}, "coeffs": [str(c) for c in coeffs]})
    f1, f2 = low_coefficients(coeffs[0], coeffs[1], n, 0, 1)
    return series_requests(path, order, n, spaced(order, ZP_COEFFS), [str(f1 % p), str(f2 % p)])


def rational_series(rng: Random, path: str, order: int, n: int) -> list[Request]:
    coeffs = [draw_rational(rng, m == 0) for m in range(order)]
    write_json(path, {"coeffs": [str(c) for c in coeffs]})
    f1, f2 = low_coefficients(coeffs[0], coeffs[1], n, Fraction(0), Fraction(1))
    return series_requests(path, order, n, spaced(order, Q_COEFFS), [str(f1), str(f2)])


def series_requests(path: str, order: int, n: int, ks: list[int], low: list[str]) -> list[Request]:
    """The iterate request, checked on its first two coefficients, then the
    coeff requests, checked against what iterate returned."""
    result: list[str] = []

    def iterate() -> bool:
        result.clear()
        code, out, _ = call_cli(["iterate", path, "-n", str(n)])
        if code != 0:
            return False
        got = json.loads(out)
        result.extend(got["coeffs"])
        return got["order"] == order and len(result) == order and result[:2] == low

    def coeff(k: int):
        def run() -> bool:
            code, out, _ = call_cli(["coeff", path, "-k", str(k), "-n", str(n)])
            return code == 0 and bool(result) and json.loads(out)["value"] == result[k - 1]

        return run

    return [Request("iterate", iterate)] + [Request("coeff", coeff(k), 1) for k in ks]


WORKLOADS = {
    "sweep-rational": sweep_rational,
    "symbolic": symbolic,
    "coeff-queries": coeff_queries,
}


def build(name: str, seed: int, workdir: str) -> Pass:
    return WORKLOADS[name](Random(f"{name}:{seed}"), workdir)
