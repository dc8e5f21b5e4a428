"""Span tracing of the engine layers, installed from outside the package.

:class:`Tracer` replaces every module binding of the traced public
functions with a wrapper that records a span (name, start, end, parent,
operation id) plus counts taken from the call's arguments and return
value.  ``FinCategory.hom`` and ``FinCategory.compose`` only get call
counters, because a timing wrapper would cost more than the call itself.
Spans stay in memory until :meth:`Tracer.dump` writes them out at the
end; :meth:`Tracer.layer_metrics` folds them into per-layer totals, where
a span's self time is its duration minus the time covered by its child
spans.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from typing import Callable


class Span:
    __slots__ = ("name", "start", "end", "parent", "op", "counts")

    def __init__(self, name: str, start: float, parent: int, op: int) -> None:
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.op = op
        self.counts: dict[str, float] = {}


# -- counts taken at each boundary ---------------------------------------------


def _carrier_total(pres) -> int:
    return sum(len(c) for c in pres.carrier.values())


def _limit_counts(span: Span, args, kwargs, result) -> None:
    shape, diag = args[0], args[1]
    scanned = 1
    for obj in shape.objects:
        scanned *= len(diag.carrier.get(obj, ()))
    span.counts["scanned"] = scanned
    span.counts["emitted"] = len(result)


def _e_step_counts(span: Span, args, kwargs, result) -> None:
    span.counts["limit_tuples"] = sum(len(t) for t in result.limits.values())
    span.counts["kept"] = sum(len(u) for u in result.kan_unit_raw.values())
    span.counts["free_added"] = _carrier_total(result.free)


def _pair_counts(span: Span, args, kwargs, result) -> None:
    span.counts["pairs"] = sum(len(p) for p in result.values())


def _quotient_counts(span: Span, args, kwargs, result) -> None:
    pairs = args[1] if len(args) > 1 else kwargs["pairs"]
    span.counts["pairs_in"] = sum(len(p) for p in pairs.values())
    span.counts["merged"] = _carrier_total(result.source) - _carrier_total(result.target)


def _kelly_counts(span: Span, args, kwargs, result) -> None:
    span.counts["sum_elements"] = _carrier_total(result.quotient.source)
    span.counts["merged"] = span.counts["sum_elements"] - _carrier_total(result.obj)


def _enum_counts(span: Span, args, kwargs, result) -> None:
    span.counts["search_space"] = result.search_space
    span.counts["found"] = len(result.transformations)


def _report_counts(span: Span, args, kwargs, result) -> None:
    span.counts["bytes"] = len(result.encode("utf-8"))


# (module, attribute, span name, counter); each function is patched in every
# limsketch module that binds it, so ``is_model`` is traced when called from
# sketchlib, elim, kelly, universal or cli alike.
TRACED_FUNCTIONS: tuple[tuple[str, str, str, Callable | None], ...] = (
    ("limsketch.setops", "limit_of_diagram", "setops.limit_of_diagram", _limit_counts),
    ("limsketch.setops", "functorial_quotient", "setops.functorial_quotient", _quotient_counts),
    ("limsketch.setops", "disjoint_sum", "setops.disjoint_sum", None),
    ("limsketch.sketchlib", "is_model", "sketchlib.is_model", None),
    ("limsketch.sketchlib", "gap_map", "sketchlib.gap_map", None),
    ("limsketch.sketchlib", "cone_limit", "sketchlib.cone_limit", None),
    ("limsketch.elim", "e_step", "elim.e_step", _e_step_counts),
    ("limsketch.elim", "relation_one", "elim.relation_one", _pair_counts),
    ("limsketch.elim", "relation_two", "elim.relation_two", _pair_counts),
    ("limsketch.elim", "elim_stage", "elim.elim_stage", None),
    ("limsketch.kelly", "kelly_P", "kelly.kelly_P", _kelly_counts),
    ("limsketch.compare", "build_alpha", "compare.build_alpha", None),
    ("limsketch.compare", "reflector_iso_check", "compare.reflector_iso_check", None),
    ("limsketch.compare", "comparison_report", "cli.report", _report_counts),
    ("limsketch.universal", "solve_factorisation", "universal.solve_factorisation", None),
    ("limsketch.universal", "enumerate_nat_trans", "universal.enumerate_nat_trans", _enum_counts),
    ("limsketch.universal", "check_uniqueness", "universal.check_uniqueness", None),
    ("limsketch.universal", "universal_report", "cli.report", _report_counts),
)

# Methods: (module, class, method, span name, counter).
TRACED_METHODS = (
    ("limsketch.elim", "ReflectionTrace", "dumps", "cli.report", _report_counts),
    ("limsketch.kelly", "KellyTrace", "dumps", "cli.report", _report_counts),
)

COUNTED_METHODS = (
    ("limsketch.fincat", "FinCategory", "hom", "fincat.hom"),
    ("limsketch.fincat", "FinCategory", "compose", "fincat.compose"),
)

# Bindings that must exist for the trace to be complete; checked on install.
REQUIRED_BINDINGS = (
    ("limsketch.sketchlib", "is_model"),
    ("limsketch.elim", "is_model"),
    ("limsketch.kelly", "is_model"),
    ("limsketch.elim", "cone_limit"),
    ("limsketch.kelly", "cone_limit"),
    ("limsketch.sketchlib", "limit_of_diagram"),
)


class Tracer:
    """In-memory span recorder with install/uninstall of the wrappers."""

    def __init__(self, refusal: type[BaseException]) -> None:
        self.refusal = refusal
        self.spans: list[Span] = []
        self.calls: dict[tuple[int, str], int] = {}
        self.op = -1
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    # -- recording --------------------------------------------------------

    def open(self, name: str) -> Span:
        parent = self._stack[-1] if self._stack else -1
        span = Span(name, time.perf_counter(), parent, self.op)
        self._stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack.pop()

    def _wrap(self, fn: Callable, name: str, counter: Callable | None) -> Callable:
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = tracer.open(name)
            try:
                result = fn(*args, **kwargs)
            except tracer.refusal:
                span.counts["refused"] = 1
                raise
            finally:
                tracer.close(span)
            if counter is not None:
                counter(span, args, kwargs, result)
            return result

        return traced

    def _count(self, fn: Callable, name: str) -> Callable:
        calls = self.calls
        tracer = self

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            key = (tracer.op, name)
            calls[key] = calls.get(key, 0) + 1
            return fn(*args, **kwargs)

        return counted

    # -- patching ---------------------------------------------------------

    def _set(self, owner: object, attr: str, value: object) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        modules = [m for n, m in sorted(sys.modules.items()) if n.split(".")[0] == "limsketch"]
        for mod_name, attr, name, counter in TRACED_FUNCTIONS:
            original = getattr(sys.modules[mod_name], attr)
            wrapped = self._wrap(original, name, counter)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._set(mod, key, wrapped)
        for mod_name, cls_name, attr, name, counter in TRACED_METHODS:
            cls = getattr(sys.modules[mod_name], cls_name)
            self._set(cls, attr, self._wrap(getattr(cls, attr), name, counter))
        for mod_name, cls_name, attr, name in COUNTED_METHODS:
            cls = getattr(sys.modules[mod_name], cls_name)
            self._set(cls, attr, self._count(getattr(cls, attr), name))
        for mod_name, attr in REQUIRED_BINDINGS:
            if not hasattr(getattr(sys.modules[mod_name], attr), "__wrapped__"):
                self.uninstall()
                raise RuntimeError(f"{mod_name}.{attr} was not wrapped")

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    # -- folding ----------------------------------------------------------

    def layer_metrics(self, ops: set[int]) -> dict[str, float]:
        """Per-layer totals over the spans and call counts of ``ops``."""
        child_time = [0.0] * len(self.spans)
        for span in self.spans:
            if span.parent >= 0:
                child_time[span.parent] += span.end - span.start
        totals: dict[str, float] = {}

        def add(key: str, value: float) -> None:
            totals[key] = totals.get(key, 0.0) + value

        for i, span in enumerate(self.spans):
            if span.op not in ops:
                continue
            add(f"{span.name}.calls", 1)
            add(f"{span.name}.self_s", span.end - span.start - child_time[i])
            for key, value in span.counts.items():
                add(f"{span.name}.{key}", value)
        for (op, name), n in self.calls.items():
            if op in ops:
                add(f"{name}.calls", n)
        return totals

    def dump(self, path, operations: list[dict]) -> None:
        """Write every span, one JSON object a line, then the operation table.

        Times are seconds since the first span; ``parent`` is the index of
        the enclosing span (-1 for an operation's root) and ``op`` indexes
        ``operations``.
        """
        origin = self.spans[0].start if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                record = {
                    "name": span.name,
                    "start": span.start - origin,
                    "end": span.end - origin,
                    "parent": span.parent,
                    "op": span.op,
                    "counts": span.counts,
                }
                fh.write(json.dumps(record, sort_keys=True) + "\n")
            for (op, name), n in sorted(self.calls.items()):
                fh.write(json.dumps({"op": op, "counter": name, "calls": n}, sort_keys=True) + "\n")
            for op, info in enumerate(operations):
                fh.write(json.dumps({"op": op, **info}, sort_keys=True) + "\n")
