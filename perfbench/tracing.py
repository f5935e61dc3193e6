"""Per-layer tracing, installed from outside the package by rebinding names.

Public functions of each module become spans: name, request id, parent
span, start and end. Spans are kept in flat arrays and written out once at
the end. Calls too frequent for spans (domain operators and
``PowerCoefficientTable.get``) are aggregated as counts plus time.

A span's self time is its duration minus the part its child spans cover,
so the self times of the layers add up to the traced wall time. Domain
operators are not spans: their time is also part of the self time of the
layer that called them, and is reported per domain type on top. A domain
operator called inside another one (the Fraction arithmetic inside a
Polynomial product) is counted in its own type, but its time stays with the
outer operator.
"""

from __future__ import annotations

import fractions
import gzip
from array import array
from collections import Counter, defaultdict
from time import perf_counter

from fps_iterate import cli, domains, formulas, multinomial, series, verify

ROUTES = {
    "coeff_recursive": "formulas.recursive",
    "coeff_closed": "formulas.closed",
    "coeff_explicit_small_k": "formulas.small",
    "coeff_schroder": "formulas.schroder",
    "muckenhoupt_f2": "formulas.muckenhoupt",
}
# every module of the package that binds a public name: callers look it up there
BINDINGS = (formulas, multinomial, verify, cli)
OPERATORS = ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__")
DOMAIN_TYPES = {
    "fraction": fractions.Fraction,
    "fp": domains.FpElement,
    "poly": domains.Polynomial,
}
INHERIT = None  # a span whose time belongs to the layer of its parent


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.span_request = array("q")
        self.span_id = array("q")
        self.span_parent = array("q")
        self.span_name = array("H")
        self.span_start = array("d")
        self.span_end = array("d")
        self.next_id = 0
        self.request = -1
        # frames of open spans: [span id, child time, layer]
        self.stack: list[list] = []
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self.calls: Counter = Counter()
        self.chains = 0
        self.op_count: Counter = Counter()
        self.op_s: defaultdict[str, float] = defaultdict(float)
        self.op_depth = [0]
        self.poly_max_terms = 0
        self.verify = Counter()
        self.exit2 = 0
        self._undo: list[tuple[object, str, object]] = []

    # -- installation -------------------------------------------------

    def _set(self, owner, name: str, value) -> None:
        self._undo.append((owner, name, vars(owner)[name]))
        setattr(owner, name, value)

    def _rebind(self, name: str, wrapper) -> None:
        for module in BINDINGS:
            if hasattr(module, name):
                self._set(module, name, wrapper)

    def install(self) -> None:
        for name, layer in ROUTES.items():
            on_return = self._on_closed if name == "coeff_closed" else None
            self._rebind(name, self._span(name, layer, getattr(formulas, name), on_return))
        self._rebind(
            "nested_geometric_sum",
            self._span("nested_geometric_sum", INHERIT, formulas.nested_geometric_sum),
        )
        self._rebind(
            "multinomial_coeff",
            self._span("multinomial_coeff", "multinomial", multinomial.multinomial_coeff),
        )
        self._rebind("run_sweep", self._span("run_sweep", "verify", verify.run_sweep, self._on_sweep))
        self._set(cli, "main", self._span("cli.main", "cli", cli.main, self._on_cli))
        table = multinomial.PowerCoefficientTable
        self._set(table, "get", self._span("PowerCoefficientTable.get", "multinomial", table.get, record=False))
        ts = series.TruncatedSeries
        for name in ("mul", "compose", "iterate"):
            self._set(ts, name, self._span(f"TruncatedSeries.{name}", "series", getattr(ts, name)))
        for kind, cls in DOMAIN_TYPES.items():
            for name in OPERATORS:
                if name in cls.__dict__:
                    self._set(cls, name, self._operator(kind, cls.__dict__[name]))

    def uninstall(self) -> None:
        while self._undo:
            owner, name, value = self._undo.pop()
            setattr(owner, name, value)

    # -- wrappers -----------------------------------------------------

    def _span(self, name: str, layer, fn, on_return=None, record: bool = True):
        code = len(self.names)
        self.names.append(name)
        stack = self.stack
        calls = self.calls

        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else None
            if record:
                span_id = self.next_id
                self.next_id += 1
            else:  # children of an unrecorded call hang off its recorded parent
                span_id = -1 if parent is None else parent[0]
            frame = [span_id, 0.0, layer if layer is not INHERIT or parent is None else parent[2]]
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                elapsed = end - start
                self.self_s[frame[2]] += elapsed - frame[1]
                if parent is not None:
                    parent[1] += elapsed
                calls[name] += 1
                if record:
                    self.span_request.append(self.request)
                    self.span_id.append(frame[0])
                    self.span_parent.append(-1 if parent is None else parent[0])
                    self.span_name.append(code)
                    self.span_start.append(start)
                    self.span_end.append(end)
            if on_return is not None:
                on_return(name, args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _operator(self, kind: str, fn):
        counts = self.op_count
        times = self.op_s
        depth = self.op_depth
        is_poly = kind == "poly"

        def wrapper(a, b):
            counts[kind] += 1
            if depth[0]:
                return fn(a, b)
            depth[0] = 1
            start = perf_counter()
            try:
                result = fn(a, b)
            finally:
                elapsed = perf_counter() - start
                depth[0] = 0
            times[kind] += elapsed
            if is_poly and result is not NotImplemented and len(result.terms) > self.poly_max_terms:
                self.poly_max_terms = len(result.terms)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _on_closed(self, name, args, kwargs, result) -> None:
        k = args[1] if len(args) > 1 else kwargs["k"]
        if k >= 3:
            self.chains += 2 ** (k - 2) - 1

    def _on_sweep(self, name, args, kwargs, report) -> None:
        self.verify["cells"] += len(report.cells)
        self.verify["na_cells"] += sum(c.status == "n/a" for c in report.cells)
        self.verify["mismatches"] += len(report.mismatches)

    def _on_cli(self, name, args, kwargs, code) -> None:
        self.exit2 += code == 2

    # -- results ------------------------------------------------------

    def metrics(self) -> dict[str, tuple[float, str]]:
        gets = self.calls["PowerCoefficientTable.get"]
        misses = self.calls["multinomial_coeff"]
        out = {
            "domains.fraction_ops": (self.op_count["fraction"], "count"),
            "domains.fraction_s": (self.op_s["fraction"], "s"),
            "domains.fp_ops": (self.op_count["fp"], "count"),
            "domains.fp_s": (self.op_s["fp"], "s"),
            "domains.poly_ops": (self.op_count["poly"], "count"),
            "domains.poly_s": (self.op_s["poly"], "s"),
            "domains.poly_max_terms": (self.poly_max_terms, "count"),
            "series.compose_calls": (self.calls["TruncatedSeries.compose"], "count"),
            "series.mul_calls": (self.calls["TruncatedSeries.mul"], "count"),
            "series.self_s": (self.self_s["series"], "s"),
            "multinomial.table_gets": (gets, "count"),
            "multinomial.table_hit_ratio": (1 - misses / gets if gets else 0.0, "ratio"),
            "multinomial.self_s": (self.self_s["multinomial"], "s"),
            "formulas.closed.calls": (self.calls["coeff_closed"], "count"),
            "formulas.closed.chains": (self.chains, "count"),
            "formulas.nested_sum_calls": (self.calls["nested_geometric_sum"], "count"),
            "formulas.recursive.calls": (self.calls["coeff_recursive"], "count"),
        }
        for layer in ROUTES.values():
            out[f"{layer}.self_s"] = (self.self_s[layer], "s")
        out.update(
            {
                "verify.cells": (self.verify["cells"], "count"),
                "verify.na_cells": (self.verify["na_cells"], "count"),
                "verify.mismatches": (self.verify["mismatches"], "count"),
                "verify.self_s": (self.self_s["verify"], "s"),
                "cli.requests": (self.calls["cli.main"], "count"),
                "cli.exit2": (self.exit2, "count"),
                "cli.self_s": (self.self_s["cli"], "s"),
            }
        )
        return out

    def write_spans(self, path: str) -> None:
        """One tab-separated line per span, gzipped, times in seconds."""
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as out:
            out.write("request\tid\tparent\tname\tstart\tend\n")
            names = self.names
            for row in zip(
                self.span_request,
                self.span_id,
                self.span_parent,
                self.span_name,
                self.span_start,
                self.span_end,
            ):
                out.write(f"{row[0]}\t{row[1]}\t{row[2]}\t{names[row[3]]}\t{row[4]:.9f}\t{row[5]:.9f}\n")
