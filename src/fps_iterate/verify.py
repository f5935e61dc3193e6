"""Cross-method equivalence sweeps with structured discrepancy reports.

A sweep evaluates every requested method on every (series, k, n) cell and
compares each one against the brute-force oracle. Methods whose
preconditions fail on a cell are skipped and the cell marked n/a, never
failed. Reports are deterministic for a fixed seed and sorted cell order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import product
from random import Random

from .domains import (
    Domain,
    PolynomialRing,
    PrimeField,
    RATIONALS,
    Rationals,
    domain_from_json,
    json_int,
)
from .formulas import (
    _check_index,
    coeff_closed,
    coeff_explicit_small_k,
    coeff_recursive,
    coeff_schroder,
    muckenhoupt_f2,
)
from .multinomial import PowerCoefficientTable
from .series import TruncatedSeries

__all__ = [
    "METHODS",
    "REGISTRY",
    "GENERATOR_KINDS",
    "PRESET_NAMES",
    "GeneratorSpec",
    "SweepSpec",
    "CellResult",
    "Mismatch",
    "DiscrepancyReport",
    "run_sweep",
    "adjudicate_typo_cases",
    "preset_spec",
    "run_preset",
]


def _always(f, k, n):
    return True


def _muckenhoupt_applies(f, k, n):
    dom, a1 = f.domain, f.coefficient(1)
    return k == 2 and dom.is_field and a1 != dom.zero and a1 != dom.one


def _oracle(f, k, n, table, memo):
    _check_index(f, k)  # before the whole iterate is computed
    return f.iterate(n).series.coefficient(k)


def _muckenhoupt(f, k, n, table, memo):
    _check_index(f, k)
    if k != 2:
        raise ValueError("muckenhoupt computes only k = 2")
    return muckenhoupt_f2(f, n)


# name -> (applies(f, k, n), evaluate(f, k, n, table, memo)), in report
# order. evaluate raises ValueError exactly where applies is False. Each
# evaluate calls one route, named in its body so that the name is looked up
# in this module at call time (perfbench/tracing.py rebinds it to count and
# time the route). The oracle ignores the table, keeping it independent.
REGISTRY = {
    "oracle": (_always, _oracle),
    "recursive": (
        _always,
        lambda f, k, n, table, memo: coeff_recursive(f, k, n, table, memo),
    ),
    "closed": (
        _always,
        lambda f, k, n, table, memo: coeff_closed(f, k, n, table),
    ),
    "small": (
        lambda f, k, n: k <= 5,
        lambda f, k, n, table, memo: coeff_explicit_small_k(f, k, n),
    ),
    "schroder": (
        lambda f, k, n: f.coefficient(1) == f.domain.one,
        lambda f, k, n, table, memo: coeff_schroder(f, k, n, table),
    ),
    "muckenhoupt": (_muckenhoupt_applies, _muckenhoupt),
}
METHODS = tuple(REGISTRY)
GENERATOR_KINDS = (
    "random-rational",
    "exhaustive-small",
    "symbolic-generic",
    "user-supplied",
)

A1_POOL = (
    Fraction(1),
    Fraction(-1),
    Fraction(2),
    Fraction(1, 2),
    Fraction(3),
    Fraction(-2),
)
_NONZERO_DIGITS = tuple(d for d in range(-9, 10) if d)
_SMALL_A1 = (Fraction(1), Fraction(-1), Fraction(2))
_SMALL_HIGHER = (Fraction(-1), Fraction(0), Fraction(1))


@dataclass(frozen=True)
class GeneratorSpec:
    """How sweep series are produced.

    kind 'random-rational' draws seeded random coefficients (a_1 from a
    fixed pool of units, higher ones with single-digit numerator and
    denominator) and maps them into each swept domain. 'exhaustive-small'
    enumerates a small coefficient grid. 'symbolic-generic' yields the one
    series whose coefficients are the ring generators, with a_1 optionally
    pinned to 1. 'user-supplied' takes explicit series JSON objects.
    """

    kind: str
    seed: int = 0
    count: int = 20
    order: int | None = None
    a1: str = "generic"
    series: tuple = ()

    def to_json(self) -> dict:
        out = {"kind": self.kind, "seed": self.seed, "count": self.count}
        if self.order is not None:
            out["order"] = self.order
        if self.kind == "symbolic-generic":
            out["a1"] = self.a1
        if self.kind == "user-supplied":
            out["series"] = list(self.series)
        return out

    @classmethod
    def from_json(cls, obj) -> "GeneratorSpec":
        if not isinstance(obj, dict) or "kind" not in obj:
            raise ValueError("generator spec must be an object with 'kind'")
        order = obj.get("order")
        if order is not None:
            order = json_int(order, "generator 'order'")
        series = obj.get("series", [])
        if not isinstance(series, list):
            raise ValueError("generator 'series' must be an array")
        return cls(
            kind=obj["kind"],
            seed=json_int(obj.get("seed", 0), "generator 'seed'"),
            count=json_int(obj.get("count", 20), "generator 'count'"),
            order=order,
            a1=obj.get("a1", "generic"),
            series=tuple(series),
        )


@dataclass(frozen=True)
class SweepSpec:
    """What to sweep: index ranges, domains, methods, and a series source."""

    k_range: tuple[int, int]
    n_range: tuple[int, int]
    domains: tuple[Domain, ...]
    methods: tuple[str, ...]
    generator: GeneratorSpec

    def validate(self) -> None:
        for name, (lo, hi) in (("k", self.k_range), ("n", self.n_range)):
            if not (isinstance(lo, int) and isinstance(hi, int) and 1 <= lo <= hi):
                raise ValueError(f"bad {name} range ({lo}, {hi})")
        if not self.domains:
            raise ValueError("at least one domain is required")
        if len(self.methods) < 2:
            raise ValueError("at least two methods are required")
        for m in self.methods:
            if m not in REGISTRY:
                raise ValueError(f"unknown method {m!r}")
        if "oracle" not in self.methods:
            raise ValueError("the oracle method must always be included")
        gen = self.generator
        if not isinstance(gen.kind, str) or gen.kind not in GENERATOR_KINDS:
            raise ValueError(f"unknown generator kind {gen.kind!r}")
        if gen.a1 not in ("generic", "one"):
            raise ValueError(f"generator 'a1' must be 'generic' or 'one': {gen.a1!r}")
        if gen.count < 0:
            raise ValueError(f"generator 'count' must be >= 0: {gen.count}")
        order = self.effective_order
        if order < self.k_range[1]:
            raise ValueError(
                f"series order {order} below the top of the k range"
            )
        if self.generator.kind == "symbolic-generic":
            for dom in self.domains:
                if not isinstance(dom, PolynomialRing):
                    raise ValueError(
                        "symbolic-generic sweeps need polynomial-ring domains"
                    )
                if dom.num_vars < order:
                    raise ValueError(
                        "polynomial ring has fewer variables than the order"
                    )
        if self.generator.kind in ("random-rational", "exhaustive-small"):
            for dom in self.domains:
                if isinstance(dom, PolynomialRing):
                    raise ValueError(
                        f"{self.generator.kind} sweeps need numeric domains"
                    )

    @property
    def effective_order(self) -> int:
        return self.generator.order or self.k_range[1]

    def to_json(self) -> dict:
        return {
            "k_range": list(self.k_range),
            "n_range": list(self.n_range),
            "domains": [d.to_json() for d in self.domains],
            "methods": list(self.methods),
            "generator": self.generator.to_json(),
        }

    @classmethod
    def from_json(cls, obj) -> "SweepSpec":
        if not isinstance(obj, dict):
            raise ValueError("sweep spec must be a JSON object")
        aliases = {"explicit_small_k": "small"}
        try:
            k_range = _range_from_json(obj, "k")
            n_range = _range_from_json(obj, "n")
            domains = obj.get("domains", ["rational"])
            methods = obj.get("methods", [])
            if not isinstance(domains, list):
                raise ValueError("'domains' must be an array")
            if not isinstance(methods, list) or not all(
                isinstance(m, str) for m in methods
            ):
                raise ValueError("'methods' must be an array of strings")
            domains = tuple(domain_from_json(d) for d in domains)
            methods = tuple(aliases.get(m, m) for m in methods)
            generator = GeneratorSpec.from_json(
                obj.get("generator", {"kind": "random-rational"})
            )
        except KeyError as exc:
            raise ValueError(f"sweep spec missing key {exc}") from None
        spec = cls(k_range, n_range, domains, methods, generator)
        spec.validate()
        return spec


def _range_from_json(obj, name: str) -> tuple[int, int]:
    if f"{name}_range" in obj:
        bounds = obj[f"{name}_range"]
        if not isinstance(bounds, list) or len(bounds) != 2:
            raise ValueError(f"{name}_range must be a [lo, hi] pair")
        return tuple(json_int(b, f"{name}_range bound") for b in bounds)
    if f"{name}_max" in obj:
        return (1, json_int(obj[f"{name}_max"], f"{name}_max"))
    raise ValueError(f"sweep spec needs {name}_range or {name}_max")


@dataclass
class CellResult:
    """Outcome of one (domain, series, k, n) cell."""

    domain: str
    series: int
    k: int
    n: int
    methods: tuple[str, ...]
    status: str
    values: dict[str, str]

    def to_json(self) -> dict:
        return {
            "k": self.k,
            "n": self.n,
            "domain": self.domain,
            "series": self.series,
            "methods": list(self.methods),
            "status": self.status,
            "values": dict(self.values),
        }


@dataclass
class Mismatch:
    """One disagreement between a method pair on one cell."""

    domain: str
    series: int
    k: int
    n: int
    methods: tuple[str, str]
    values: dict[str, str]
    difference: str

    def to_json(self) -> dict:
        return {
            "k": self.k,
            "n": self.n,
            "domain": self.domain,
            "series": self.series,
            "methods": list(self.methods),
            "values": dict(self.values),
            "difference": self.difference,
        }


@dataclass
class DiscrepancyReport:
    """All cells of a sweep plus every mismatch found. Empty mismatch list
    means the sweep passed."""

    spec: dict
    cells: list[CellResult]
    mismatches: list[Mismatch]
    notes: dict = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return not self.mismatches

    def to_json(self) -> dict:
        out = {
            "spec": self.spec,
            "cells": [c.to_json() for c in self.cells],
            "mismatches": len(self.mismatches),
            "mismatch_details": [m.to_json() for m in self.mismatches],
        }
        if self.notes:
            out["notes"] = dict(self.notes)
        return out

    def summary(self) -> str:
        by_status = {"pass": 0, "fail": 0, "n/a": 0}
        for cell in self.cells:
            by_status[cell.status] += 1
        lines = [
            f"cells: {len(self.cells)} "
            f"(pass {by_status['pass']}, fail {by_status['fail']}, "
            f"n/a {by_status['n/a']})",
            f"mismatches: {len(self.mismatches)}",
        ]
        for m in self.mismatches[:20]:
            lines.append(
                f"  {m.domain} series#{m.series} k={m.k} n={m.n} "
                f"{m.methods[0]}={m.values[m.methods[0]]} "
                f"{m.methods[1]}={m.values[m.methods[1]]} "
                f"difference={m.difference}"
            )
        if len(self.mismatches) > 20:
            lines.append(f"  ... and {len(self.mismatches) - 20} more")
        for key, value in self.notes.items():
            lines.append(f"note {key}: {value}")
        lines.append("result: " + ("PASS" if self.passed else "FAIL"))
        return "\n".join(lines)


def _domain_label(domain: Domain) -> str:
    if isinstance(domain, Rationals):
        return "rational"
    if isinstance(domain, PrimeField):
        return f"prime:{domain.p}"
    return f"symbolic:{domain.num_vars}"


def _draw_rational(rng: Random, first: bool) -> Fraction:
    if first:
        return rng.choice(A1_POOL)
    return Fraction(rng.randint(-9, 9), rng.choice(_NONZERO_DIGITS))


def _generate_series(spec: SweepSpec, domain: Domain) -> list[TruncatedSeries]:
    gen = spec.generator
    order = spec.effective_order
    if gen.kind == "user-supplied":
        parsed = [TruncatedSeries.from_json(obj) for obj in gen.series]
        out = [s for s in parsed if s.domain == domain]
        for s in out:
            if s.order < spec.k_range[1]:
                raise ValueError(
                    "user-supplied series is shorter than the k range"
                )
        return out
    if gen.kind == "symbolic-generic":
        ring = domain
        first = ring.one if gen.a1 == "one" else ring.variable(1)
        coeffs = [first] + [ring.variable(j) for j in range(2, order + 1)]
        return [TruncatedSeries(ring, order, coeffs)]
    rng = Random(f"{gen.seed}:{domain!r}")
    if gen.kind == "random-rational":
        out = []
        while len(out) < gen.count:
            draws = [_draw_rational(rng, j == 0) for j in range(order)]
            try:
                coeffs = [domain.from_fraction(q) for q in draws]
            except ValueError:
                continue
            out.append(TruncatedSeries(domain, order, coeffs))
        return out
    grids = [_SMALL_A1] + [_SMALL_HIGHER] * (order - 1)
    out = []
    for draws in product(*grids):
        try:
            coeffs = [domain.from_fraction(q) for q in draws]
        except ValueError:
            continue
        out.append(TruncatedSeries(domain, order, coeffs))
        if gen.count and len(out) >= gen.count:
            break
    return out


def _sweep_one(spec: SweepSpec, domain: Domain, index: int, f: TruncatedSeries):
    dom = f.domain
    label = _domain_label(domain)
    k_lo, k_hi = spec.k_range
    n_lo, n_hi = spec.n_range
    methods = {m: REGISTRY[m] for m in spec.methods if m != "oracle"}
    table = PowerCoefficientTable(f)
    memo: dict = {}
    iterates = {}
    current = f
    for n in range(1, n_hi + 1):
        if n > 1:
            current = current.compose(f)
        if n >= n_lo:
            iterates[n] = current
    cells = []
    mismatches = []
    for k in range(k_lo, k_hi + 1):
        for n in range(n_lo, n_hi + 1):
            oracle_value = iterates[n].coefficient(k)
            values = {"oracle": dom.format(oracle_value)}
            applied = ["oracle"]
            bad = []
            for method, (applies, evaluate) in methods.items():
                if not applies(f, k, n):
                    continue
                got = evaluate(f, k, n, table, memo)
                values[method] = dom.format(got)
                applied.append(method)
                if got != oracle_value:
                    bad.append(
                        Mismatch(
                            label,
                            index,
                            k,
                            n,
                            ("oracle", method),
                            {
                                "oracle": values["oracle"],
                                method: values[method],
                            },
                            dom.format(got - oracle_value),
                        )
                    )
            if len(applied) == 1:
                status = "n/a"
            else:
                status = "fail" if bad else "pass"
            cells.append(
                CellResult(label, index, k, n, tuple(applied), status, values)
            )
            mismatches.extend(bad)
    return cells, mismatches


def run_sweep(spec: SweepSpec) -> DiscrepancyReport:
    """Evaluate the sweep and collect every cell and mismatch.

    Every series is generated first, so a bad one fails before any cell
    is evaluated. Series are then swept one after another, and the report
    lists cells and mismatches in sorted cell order.
    """
    spec.validate()
    tasks = []
    for domain in spec.domains:
        for index, f in enumerate(_generate_series(spec, domain)):
            tasks.append((domain, index, f))
    cells: list[CellResult] = []
    mismatches: list[Mismatch] = []
    for task in tasks:
        got_cells, got_bad = _sweep_one(spec, *task)
        cells.extend(got_cells)
        mismatches.extend(got_bad)
    cells.sort(key=lambda c: (c.domain, c.series, c.k, c.n))
    mismatches.sort(key=lambda m: (m.domain, m.series, m.k, m.n, m.methods))
    return DiscrepancyReport(spec.to_json(), cells, mismatches)


def _binomial_chain(dom, n: int, coeffs: dict[int, object]):
    total = dom.zero
    for alpha, value in coeffs.items():
        total = total + dom.from_int(math.comb(n, alpha)) * value
    return total


def _f4_transcription(f: TruncatedSeries, n: int):
    dom = f.domain
    a2, a3, a4 = (f.coefficient(j) for j in (2, 3, 4))
    return _binomial_chain(
        dom,
        n,
        {
            1: a4,
            2: dom.from_int(5) * a2 * a3 + a2 ** 3,
            3: dom.from_int(6) * a2 ** 3,
        },
    )


def _f5_transcription(f: TruncatedSeries, n: int, with_a3: bool):
    dom = f.domain
    a2, a3, a4, a5 = (f.coefficient(j) for j in (2, 3, 4, 5))
    second = dom.from_int(5) * a2 ** 2
    if with_a3:
        second = second * a3
    second = second + dom.from_int(6) * a2 * a4 + dom.from_int(3) * a3 ** 2
    return _binomial_chain(
        dom,
        n,
        {
            1: a5,
            2: second,
            3: dom.from_int(10) * a2 ** 4 + dom.from_int(26) * a2 ** 2 * a3,
            4: dom.from_int(24) * a2 ** 4,
        },
    )


_CANDIDATES = {
    4: (("f4:6*a2^3-form", _f4_transcription),),
    5: (
        ("f5:5*a2^2*a3", lambda f, n: _f5_transcription(f, n, True)),
        ("f5:5*a2^2", lambda f, n: _f5_transcription(f, n, False)),
    ),
}


def adjudicate_typo_cases(n_max: int = 6) -> DiscrepancyReport:
    """Decide between the two printed variants of the a_1 = 1 formula for k = 5.

    The C(n,2) coefficient appears in print both as 5*a2^2*a3 + 6*a2*a4 +
    3*a3^2 and as 5*a2^2 + 6*a2*a4 + 3*a3^2. Both candidates (and the single
    printed k = 4 formula) are evaluated on the generic a_1 = 1 series and
    compared against the brute-force oracle for every n up to n_max; the
    report's notes name the variant that survives. The report passes when
    the adjudication reaches a decision: the k = 4 formula holds and exactly
    one k = 5 variant survives. The losing variant's disagreements are the
    evidence for the decision, not sweep failures; they are summarized in
    the notes instead of the mismatch list.
    """
    if n_max < 2:
        raise ValueError("n_max must be >= 2 to separate the candidates")
    ring = PolynomialRing(5)
    f = TruncatedSeries(
        ring, 5, [ring.one] + [ring.variable(j) for j in range(2, 6)]
    )
    label = _domain_label(ring)
    raw = []
    matched_all = {name: True for pairs in _CANDIDATES.values() for name, _ in pairs}
    current = f
    for n in range(1, n_max + 1):
        if n > 1:
            current = current.compose(f)
        for k, candidates in sorted(_CANDIDATES.items()):
            oracle_value = current.coefficient(k)
            values = {"oracle": ring.format(oracle_value)}
            disagreements = {}
            for name, fn in candidates:
                got = fn(f, n)
                values[name] = ring.format(got)
                if got != oracle_value:
                    matched_all[name] = False
                    disagreements[name] = ring.format(got - oracle_value)
            raw.append((k, n, values, disagreements))
    f5_names = [name for name, _ in _CANDIDATES[5]]
    winners = [name for name in f5_names if matched_all[name]]
    decided = len(winners) == 1
    # Binding candidates must match the oracle everywhere; a decided
    # adjudication leaves the losing variant out of this set.
    binding = {"f4:6*a2^3-form"}
    binding.update(winners if decided else f5_names)
    cells = []
    mismatches = []
    evidence = []
    for k, n, values, disagreements in raw:
        applied = ("oracle",) + tuple(name for name, _ in _CANDIDATES[k])
        bad = []
        for name, difference in disagreements.items():
            record = Mismatch(
                label,
                0,
                k,
                n,
                ("oracle", name),
                {"oracle": values["oracle"], name: values[name]},
                difference,
            )
            if name in binding:
                bad.append(record)
            else:
                evidence.append(
                    f"{name} fails at n={n}: difference {difference}"
                )
        cells.append(
            CellResult(
                label, 0, k, n, applied, "fail" if bad else "pass", values
            )
        )
        mismatches.extend(bad)
    notes = {
        "f4_formula": "confirmed"
        if matched_all["f4:6*a2^3-form"]
        else "refuted",
        "f5_candidates": ", ".join(f5_names),
        "f5_second_binomial_term": winners[0].split(":", 1)[1]
        if decided
        else "undecided",
        "f5_rejected": ", ".join(
            name.split(":", 1)[1] for name in f5_names if not matched_all[name]
        )
        or "none",
    }
    # the C(n,3) coefficient 10*a2^4 + 26*a2^2*a3 is shared by both
    # candidates, so a full-match winner confirms it as well
    notes["f5_cn3_term"] = "10*a2^4 + 26*a2^2*a3 " + (
        "confirmed" if decided else "unresolved"
    )
    if evidence:
        notes["f5_evidence"] = evidence[0]
    report = DiscrepancyReport(
        {
            "k_range": [4, 5],
            "n_range": [1, n_max],
            "domains": [ring.to_json()],
            "methods": ["oracle"] + [n for n, _ in _CANDIDATES[4] + _CANDIDATES[5]],
            "generator": {"kind": "symbolic-generic", "a1": "one", "order": 5},
        },
        cells,
        mismatches,
        notes,
    )
    return report


PRESET_NAMES = (
    "acceptance",
    "symbolic",
    "schroder-equivalence",
    "prime-field",
    "typo-adjudication",
)


def preset_spec(name: str) -> SweepSpec:
    """Built-in sweep configurations; 'typo-adjudication' has no SweepSpec."""
    if name == "acceptance":
        return SweepSpec(
            (1, 8),
            (1, 6),
            (RATIONALS,),
            METHODS,
            GeneratorSpec("random-rational", seed=42, count=100, order=8),
        )
    if name == "symbolic":
        return SweepSpec(
            (1, 6),
            (1, 5),
            (PolynomialRing(6),),
            ("oracle", "recursive", "closed", "small"),
            GeneratorSpec("symbolic-generic", order=6),
        )
    if name == "schroder-equivalence":
        return SweepSpec(
            (1, 7),
            (1, 7),
            (PolynomialRing(7),),
            ("oracle", "closed", "schroder"),
            GeneratorSpec("symbolic-generic", order=7, a1="one"),
        )
    if name == "prime-field":
        return SweepSpec(
            (1, 6),
            (1, 5),
            (PrimeField(5), PrimeField(97)),
            METHODS,
            GeneratorSpec("random-rational", seed=7, count=40, order=6),
        )
    raise ValueError(f"unknown preset {name!r}")


def run_preset(name: str) -> DiscrepancyReport:
    if name == "typo-adjudication":
        return adjudicate_typo_cases()
    return run_sweep(preset_spec(name))
