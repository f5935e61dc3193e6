"""Cross-method equivalence sweeps with structured discrepancy reports.

A sweep evaluates every requested method on every (series, k, n) cell and
compares each one against the brute-force oracle. A method that raises
``NotApplicable`` on a cell is skipped there, and a cell no method applies
to is marked n/a, never failed; any other error stops the sweep. Reports
are deterministic for a fixed seed and sorted cell order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import count, product
from random import Random

from .domains import (
    Domain,
    PolynomialRing,
    PrimeField,
    RATIONALS,
    Rationals,
    domain_from_json,
    json_int,
    refuse_unknown_keys,
)
from .formulas import (
    NotApplicable,
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


def _oracle(f, k, n, table, memo):
    _check_index(f, k, n)  # before the whole iterate is computed
    return f.iterate(n).coefficient(k)


def _muckenhoupt(f, k, n, table, memo):
    _check_index(f, k, n)
    if k != 2:
        raise NotApplicable("muckenhoupt computes only k = 2")
    return muckenhoupt_f2(f, n)


# name -> evaluate(f, k, n, table, memo), in report order. evaluate raises
# NotApplicable where its route's precondition fails, and a plain ValueError
# on input no route can take. Each evaluate calls one route, named in its
# body so that the name is looked up in this module at call time
# (perfbench/tracing.py rebinds it to count and time the route). The oracle
# ignores the table, keeping it independent.
REGISTRY = {
    "oracle": _oracle,
    "recursive": lambda f, k, n, table, memo: coeff_recursive(f, k, n, table, memo),
    "closed": lambda f, k, n, table, memo: coeff_closed(f, k, n, table),
    "small": lambda f, k, n, table, memo: coeff_explicit_small_k(f, k, n),
    "schroder": lambda f, k, n, table, memo: coeff_schroder(f, k, n, table),
    "muckenhoupt": _muckenhoupt,
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
        refuse_unknown_keys(obj, _GENERATOR_KEYS, "generator")
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
        for i, dom in enumerate(self.domains):
            if dom in self.domains[:i]:
                raise ValueError(
                    f"domain {_domain_label(dom)!r} is listed more than once"
                )
        if len(self.methods) < 2:
            raise ValueError("at least two methods are required")
        for i, m in enumerate(self.methods):
            if m not in REGISTRY:
                raise ValueError(f"unknown method {m!r}")
            if m in self.methods[:i]:
                raise ValueError(f"method {m!r} is listed more than once")
        if "oracle" not in self.methods:
            raise ValueError("the oracle method must always be included")
        gen = self.generator
        if not isinstance(gen.kind, str) or gen.kind not in GENERATOR_KINDS:
            raise ValueError(f"unknown generator kind {gen.kind!r}")
        if gen.a1 not in ("generic", "one"):
            raise ValueError(f"generator 'a1' must be 'generic' or 'one': {gen.a1!r}")
        if gen.a1 != "generic" and gen.kind != "symbolic-generic":
            raise ValueError(f"generator 'a1' is not read by kind {gen.kind!r}")
        if gen.series and gen.kind != "user-supplied":
            raise ValueError(f"generator 'series' is not read by kind {gen.kind!r}")
        if gen.count < 0:
            raise ValueError(f"generator 'count' must be >= 0: {gen.count}")
        if gen.order is not None and gen.order < 1:
            raise ValueError(f"generator 'order' must be >= 1: {gen.order}")
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
        if self.generator.order is None:
            return self.k_range[1]
        return self.generator.order

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
        refuse_unknown_keys(obj, _SPEC_KEYS, "sweep spec")
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


_SPEC_KEYS = frozenset(
    ("k_range", "k_max", "n_range", "n_max", "domains", "methods", "generator")
)
_GENERATOR_KEYS = frozenset(("kind", "seed", "count", "order", "a1", "series"))


def _range_from_json(obj, name: str) -> tuple[int, int]:
    if f"{name}_range" in obj:
        if f"{name}_max" in obj:
            raise ValueError(f"sweep spec gives both {name}_range and {name}_max")
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
        for s in parsed:
            if s.domain not in spec.domains:
                raise ValueError(
                    f"user-supplied series over {_domain_label(s.domain)!r} "
                    "is not in the swept domains"
                )
            if s.order < spec.k_range[1]:
                raise ValueError(
                    "user-supplied series is shorter than the k range"
                )
        return [s for s in parsed if s.domain == domain]
    if gen.kind == "symbolic-generic":
        ring = domain
        first = ring.one if gen.a1 == "one" else ring.variable(1)
        coeffs = [first] + [ring.variable(j) for j in range(2, order + 1)]
        return [TruncatedSeries(ring, order, coeffs)]
    if gen.kind == "random-rational":
        rng = Random(f"{gen.seed}:{domain!r}")
        draws = ([_draw_rational(rng, j == 0) for j in range(order)] for _ in count())
        limit = gen.count
    else:  # exhaustive-small: count 0 takes the whole grid
        draws = product(_SMALL_A1, *[_SMALL_HIGHER] * (order - 1))
        limit = gen.count or None
    out = []
    for draw in draws:
        if len(out) == limit:
            break
        try:
            coeffs = [domain.from_fraction(q) for q in draw]
        except ValueError:  # a denominator that is not a unit mod p
            continue
        out.append(TruncatedSeries(domain, order, coeffs))
    return out


def _sweep_one(label: str, index: int, f: TruncatedSeries, k_range, n_range, methods):
    """Every (k, n) cell of one series: each entry of ``methods`` (shaped
    like ``REGISTRY``, without the oracle) that does not raise
    ``NotApplicable``, against the oracle."""
    dom = f.domain
    k_lo, k_hi = k_range
    n_lo, n_hi = n_range
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
            for method, evaluate in methods.items():
                try:
                    got = evaluate(f, k, n, table, memo)
                except NotApplicable:
                    continue
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
    methods = {m: REGISTRY[m] for m in spec.methods if m != "oracle"}
    cells: list[CellResult] = []
    mismatches: list[Mismatch] = []
    for domain, index, f in tasks:
        got_cells, got_bad = _sweep_one(
            _domain_label(domain), index, f, spec.k_range, spec.n_range, methods
        )
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


# Shaped like REGISTRY; each evaluate looks its transcription up at call
# time. The prefix names the k that a candidate transcribes.
_CANDIDATES = {
    "f4:6*a2^3-form": lambda f, k, n, table, memo: _f4_transcription(f, n),
    "f5:5*a2^2*a3": lambda f, k, n, table, memo: _f5_transcription(f, n, True),
    "f5:5*a2^2": lambda f, k, n, table, memo: _f5_transcription(f, n, False),
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
    cells, found = [], []
    for k in (4, 5):
        named = {m: ev for m, ev in _CANDIDATES.items() if m.startswith(f"f{k}:")}
        got_cells, got_bad = _sweep_one(
            _domain_label(ring), 0, f, (k, k), (1, n_max), named
        )
        cells.extend(got_cells)
        found.extend(got_bad)
    refuted = {m.methods[1] for m in found}
    f5_names = [name for name in _CANDIDATES if name.startswith("f5:")]
    winners = [name for name in f5_names if name not in refuted]
    decided = len(winners) == 1
    # Binding candidates must match the oracle everywhere; a decided
    # adjudication leaves the losing variant out of this set.
    binding = {"f4:6*a2^3-form"}
    binding.update(winners if decided else f5_names)
    cells.sort(key=lambda c: (c.n, c.k))
    found.sort(key=lambda m: (m.n, m.k))
    mismatches = [m for m in found if m.methods[1] in binding]
    evidence = [
        f"{m.methods[1]} fails at n={m.n}: difference {m.difference}"
        for m in found
        if m.methods[1] not in binding
    ]
    failing = {(m.k, m.n) for m in mismatches}
    for cell in cells:
        cell.status = "fail" if (cell.k, cell.n) in failing else "pass"
    notes = {
        "f4_formula": "refuted" if "f4:6*a2^3-form" in refuted else "confirmed",
        "f5_candidates": ", ".join(f5_names),
        "f5_second_binomial_term": winners[0].split(":", 1)[1]
        if decided
        else "undecided",
        "f5_rejected": ", ".join(
            name.split(":", 1)[1] for name in f5_names if name in refuted
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
    return DiscrepancyReport(
        {
            "k_range": [4, 5],
            "n_range": [1, n_max],
            "domains": [ring.to_json()],
            "methods": ["oracle", *_CANDIDATES],
            "generator": {"kind": "symbolic-generic", "a1": "one", "order": 5},
        },
        cells,
        mismatches,
        notes,
    )


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
