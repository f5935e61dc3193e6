"""Cross-method equivalence sweeps with structured discrepancy reports.

A sweep calls every requested method once per series over the k and n
ranges and compares each cell it returns against the brute-force oracle.
A method skips the cells it does not apply to, and a cell no method
applies to is marked n/a, never failed; any other error stops the sweep.
Reports are deterministic for a fixed seed and sorted cell order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from fractions import Fraction
from itertools import count, product
from random import Random

from .domains import (
    Domain,
    PolynomialRing,
    PrimeField,
    RATIONALS,
    domain_from_json,
    json_int,
    refuse_unknown_keys,
)
from .formulas import (
    NotApplicable,
    _check_cells,
    coeff_closed,
    coeff_explicit_small_k,
    coeff_recursive,
    coeff_schroder,
    muckenhoupt_f2,
)
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


def _oracle(f, ks, ns):
    _check_cells(f, ks, ns)  # before any iterate is computed
    g, out = f.iterate(ns[0]), {}
    for n in ns:
        if n > ns[0]:
            g = g.compose(f)
        out.update(((k, n), g.coefficient(k)) for k in ks)
    return out


# name -> route(f, ks, ns), in report order: {(k, n): f_k^(n)} for every
# cell of the ranges ks x ns that the route applies to. A route raises
# NotApplicable where it applies to none of them, and a plain ValueError on
# input no route can take. The oracle builds no power table, keeping it
# independent.
REGISTRY = {
    "oracle": _oracle,
    "recursive": coeff_recursive,
    "closed": coeff_closed,
    "small": coeff_explicit_small_k,
    "schroder": coeff_schroder,
    "muckenhoupt": muckenhoupt_f2,
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
_NUMERATORS = range(-9, 10)
_NONZERO_DIGITS = tuple(d for d in _NUMERATORS if d)
# Every equally likely draw of a random-rational coefficient above a_1
_HIGHER_DRAWS = tuple(Fraction(n, d) for n in _NUMERATORS for d in _NONZERO_DIGITS)
# A random-rational or exhaustive-small spec whose series need more draws
# than this, in expectation, is refused: over Z/2, the 13,600 draws of one
# random-rational series of order 28 took 6 s.
_MAX_EXPECTED_DRAWS = 20_000
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
        refuse_unknown_keys(obj, frozenset(f.name for f in fields(cls)), "generator")
        given = dict(obj)
        if given.get("order") is not None:
            json_int(given["order"], "generator 'order'")
        if "series" in given:
            if not isinstance(given["series"], list):
                raise ValueError("generator 'series' must be an array")
            given["series"] = tuple(given["series"])
        for key in ("seed", "count"):
            if key in given:
                json_int(given[key], f"generator {key!r}")
        return cls(**given)


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
        if gen.kind == "exhaustive-small" or (
            gen.kind == "random-rational" and gen.count
        ):
            for dom in self.domains:
                _refuse_long_draws(gen, dom, order)

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
        spec = cls(k_range, n_range, domains, methods, generator)
        spec.validate()
        return spec


_SPEC_KEYS = frozenset(
    ("k_range", "k_max", "n_range", "n_max", "domains", "methods", "generator")
)


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
    """Outcome of one (domain, series, k, n) cell. The fields are declared
    in the order of the report's JSON keys."""

    k: int
    n: int
    domain: str
    series: int
    methods: tuple[str, ...]
    status: str
    values: dict[str, str]


@dataclass
class Mismatch:
    """One disagreement between a method pair on one cell. The fields are
    declared in the order of the report's JSON keys."""

    k: int
    n: int
    domain: str
    series: int
    methods: tuple[str, str]
    values: dict[str, str]
    difference: str


def _record(x) -> dict:
    """The fields of dataclass instance ``x`` by name, in declaration order,
    without copying their values."""
    return {f.name: getattr(x, f.name) for f in fields(x)}


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
        """The report as JSON-ready dicts, one per cell and per mismatch.

        The records are shallow: each shares its cell's or mismatch's
        ``values`` mapping (and ``spec`` is this report's own dict), so
        serialise the result rather than mutate it.
        """
        out = {
            "spec": self.spec,
            "cells": [_record(c) for c in self.cells],
            "mismatches": len(self.mismatches),
            "mismatch_details": [_record(m) for m in self.mismatches],
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
    """'rational', 'prime:p' or 'symbolic:K', read off the JSON descriptor."""
    desc = domain.to_json()
    if isinstance(desc, str):
        return desc
    ((name, size),) = desc.items()
    return f"{name}:{size}"


def _generic_series(ring: PolynomialRing, order: int, a1: str) -> TruncatedSeries:
    """a_1 x + ... + a_order x^order over the ring's generators, with a_1
    pinned to 1 when ``a1`` is 'one'."""
    first = ring.one if a1 == "one" else ring.variable(1)
    rest = [ring.variable(j) for j in range(2, order + 1)]
    return TruncatedSeries(ring, order, [first, *rest])


def _draw_rational(rng: Random, first: bool) -> Fraction:
    if first:
        return rng.choice(A1_POOL)
    return Fraction(rng.choice(_NUMERATORS), rng.choice(_NONZERO_DIGITS))


def _unit_share(domain: Domain, draws) -> Fraction:
    """The share of the fractions ``draws`` that ``domain`` holds, that is,
    whose denominator is a unit there."""
    held = 0
    for q in draws:
        try:
            domain.from_fraction(q)
        except ValueError:
            continue
        held += 1
    return Fraction(held, len(draws))


def _refuse_long_draws(gen: GeneratorSpec, domain: Domain, order: int) -> None:
    """Raise if the series that ``gen`` makes of ``order`` over ``domain``
    need more than _MAX_EXPECTED_DRAWS draws in expectation.

    random-rational keeps a draw only when ``domain`` holds all of its
    coefficients, so a series takes 1 / (s_1 * s^(order-1)) draws on
    average, with s_1 and s the exact shares of a_1 and of higher draws that
    it holds. Over Z/2, s = 0.7076, which makes 217,000 draws at order 36.
    exhaustive-small draws min(count, 3^order) points of its grid, or all
    3^order when count is 0, and every numeric domain holds each of them.
    The test runs on logarithms, so that no order or count is too large for
    it.
    """
    if gen.kind == "random-rational":
        log_draws = (
            math.log(gen.count)
            - math.log(_unit_share(domain, A1_POOL))
            - (order - 1) * math.log(_unit_share(domain, _HIGHER_DRAWS))
        )
    else:
        log_draws = math.log(len(_SMALL_A1)) + (order - 1) * math.log(
            len(_SMALL_HIGHER)
        )
        if gen.count:
            log_draws = min(log_draws, math.log(gen.count))
    if log_draws > math.log(_MAX_EXPECTED_DRAWS):
        estimate = math.exp(log_draws) if log_draws < 700 else math.inf
        raise ValueError(
            f"{gen.kind} series over {_domain_label(domain)!r} need about "
            f"{estimate:,.0f} draws ({gen.count or 'all'} series of order "
            f"{order}), above the limit of {_MAX_EXPECTED_DRAWS:,}"
        )


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
        return [_generic_series(domain, order, gen.a1)]
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
    like ``REGISTRY``, without the oracle), called once over the whole
    ranges, on each cell it returns, against the oracle. A method that
    raises ``NotApplicable`` applies to no cell.

    A cell prints the oracle's value once and reports each method value
    equal to it with that text, since every domain prints equal values alike
    (over Q an int and an integral Fraction too; see ``fps_iterate.domains``).
    Such a value still needs its membership check; ``dom.format`` checks and
    prints a differing one.
    """
    dom = f.domain
    ks = range(k_range[0], k_range[1] + 1)
    ns = range(n_range[0], n_range[1] + 1)
    oracle = _oracle(f, ks, ns)
    found = {}
    for method, route in methods.items():
        try:
            found[method] = route(f, ks, ns)
        except NotApplicable:
            continue
    cells = []
    mismatches = []
    for k in ks:
        for n in ns:
            want = oracle[k, n]
            text = dom.format(want)
            values = {"oracle": text}
            bad = []
            applied = [(method, out[k, n]) for method, out in found.items() if (k, n) in out]
            for method, got in applied:
                if got == want:
                    dom.check(got)
                    values[method] = text
                    continue
                values[method] = dom.format(got)
                pair = {"oracle": text, method: values[method]}
                diff = dom.format(got - want)
                bad.append(Mismatch(k, n, label, index, ("oracle", method), pair, diff))
            status = "n/a" if len(values) == 1 else "fail" if bad else "pass"
            cells.append(CellResult(k, n, label, index, tuple(values), status, values))
            mismatches.extend(bad)
    return cells, mismatches


def run_sweep(spec: SweepSpec) -> DiscrepancyReport:
    """Evaluate the sweep and collect every cell and mismatch.

    Every series is generated first, so a bad one fails before any cell
    is evaluated. Series are then swept one after another, and the report
    lists cells and mismatches in sorted cell order.
    """
    spec.validate()
    tasks = [(d, i, f) for d in spec.domains for i, f in enumerate(_generate_series(spec, d))]
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


# name -> the printed a_1 = 1 formula for f_k^(n), k = the number of terms
# + 1, as polynomial text in a2..a5: term alpha is the coefficient of
# C(n, alpha). The f5 entries are the two printings of the C(n, 2) term;
# the name prefix only labels the k a candidate was printed for.
_PRINTED = {
    "f4:6*a2^3-form": ("a4", "5*a2*a3 + a2^3", "6*a2^3"),
    "f5:5*a2^2*a3": (
        "a5",
        "5*a2^2*a3 + 6*a2*a4 + 3*a3^2",
        "10*a2^4 + 26*a2^2*a3",
        "24*a2^4",
    ),
    "f5:5*a2^2": (
        "a5",
        "5*a2^2 + 6*a2*a4 + 3*a3^2",
        "10*a2^4 + 26*a2^2*a3",
        "24*a2^4",
    ),
}


def _printed(name: str):
    """A route shaped like REGISTRY's for the printed formula ``name``:
    its _PRINTED terms, parsed once here, evaluated at the series' a1..a5 in
    the series' own domain."""
    ring = PolynomialRing(5)
    terms = [ring.parse(text) for text in _PRINTED[name]]
    only = len(terms) + 1

    def evaluate(f, ks, ns):
        if only not in ks:
            raise NotApplicable(f"{name} computes only k = {only}")
        dom = f.domain
        values = [ring.substitute(term, f.coeffs[:5], dom) for term in terms]
        out = {}
        for n in ns:
            binomials = [dom.from_int(math.comb(n, alpha)) for alpha in range(1, only)]
            out[only, n] = sum([b * v for b, v in zip(binomials, values)], dom.zero)
        return out

    return evaluate


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
    f = _generic_series(ring, 5, "one")
    candidates = {name: _printed(name) for name in _PRINTED}
    cells, found = _sweep_one(
        _domain_label(ring), 0, f, (4, 5), (1, n_max), candidates
    )
    refuted = {m.methods[1] for m in found}
    f5_names = [name for name in _PRINTED if name.startswith("f5:")]
    winners = [name for name in f5_names if name not in refuted]
    decided = len(winners) == 1
    # A decided adjudication's losing variants are its evidence; every other
    # disagreement is a sweep failure.
    losers = set(f5_names) - set(winners) if decided else set()
    cells.sort(key=lambda c: (c.n, c.k))
    found.sort(key=lambda m: (m.n, m.k))
    mismatches = [m for m in found if m.methods[1] not in losers]
    evidence = [
        f"{m.methods[1]} fails at n={m.n}: difference {m.difference}"
        for m in found
        if m.methods[1] in losers
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
    # the C(n,3) coefficient is shared by both candidates, so a full-match
    # winner confirms it as well
    verdict = "confirmed" if decided else "unresolved"
    notes["f5_cn3_term"] = f"{_PRINTED[f5_names[0]][2]} {verdict}"
    if evidence:
        notes["f5_evidence"] = evidence[0]
    return DiscrepancyReport(
        {
            "k_range": [4, 5],
            "n_range": [1, n_max],
            "domains": [ring.to_json()],
            "methods": ["oracle", *_PRINTED],
            "generator": {"kind": "symbolic-generic", "a1": "one", "order": 5},
        },
        cells,
        mismatches,
        notes,
    )


# The built-in sweeps by name; 'typo-adjudication' has no SweepSpec.
_PRESETS = {
    "acceptance": SweepSpec(
        (1, 8),
        (1, 6),
        (RATIONALS,),
        METHODS,
        GeneratorSpec("random-rational", seed=42, count=100, order=8),
    ),
    "symbolic": SweepSpec(
        (1, 6),
        (1, 5),
        (PolynomialRing(6),),
        ("oracle", "recursive", "closed", "small"),
        GeneratorSpec("symbolic-generic", order=6),
    ),
    "schroder-equivalence": SweepSpec(
        (1, 7),
        (1, 7),
        (PolynomialRing(7),),
        ("oracle", "closed", "schroder"),
        GeneratorSpec("symbolic-generic", order=7, a1="one"),
    ),
    "prime-field": SweepSpec(
        (1, 6),
        (1, 5),
        (PrimeField(5), PrimeField(97)),
        METHODS,
        GeneratorSpec("random-rational", seed=7, count=40, order=6),
    ),
}
PRESET_NAMES = (*_PRESETS, "typo-adjudication")


def preset_spec(name: str) -> SweepSpec:
    """The built-in sweep ``name``; 'typo-adjudication' has no SweepSpec."""
    if name not in _PRESETS:
        raise ValueError(f"unknown preset {name!r}")
    return _PRESETS[name]


def run_preset(name: str) -> DiscrepancyReport:
    if name == "typo-adjudication":
        return adjudicate_typo_cases()
    return run_sweep(preset_spec(name))
