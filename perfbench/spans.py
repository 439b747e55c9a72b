"""Spans recorded from outside the library, and the per-layer metrics built from them.

A span is one wrapped call: ``(name, tag, start, end, parent, op_id, measured)``
where ``parent`` is the index of the enclosing span (the operation's root
span ``op.<kind>`` for a library call), ``tag`` refines the name (a shape
such as ``d2c3``) and ``measured`` is a size taken from the call's result
after the clock stopped (entries of a block, bytes of a document, ...).
"""
from __future__ import annotations

import json
import statistics
import time
from collections import Counter, defaultdict


class Untraced:
    """Calls straight through; the untraced runs and the off-clock checks use it."""

    op_id = 0

    @staticmethod
    def call(name, fn, *args, tag=None, measure=None, **kwargs):
        return fn(*args, **kwargs)


class Tracer:
    """Keeps a span per wrapped call in memory until the run ends."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self._open: list[int] = []
        self.op_id = 0

    def call(self, name, fn, *args, tag=None, measure=None, **kwargs):
        idx = len(self.spans)
        parent = self._open[-1] if self._open else None
        self.spans.append(None)
        self._open.append(idx)
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self._open.pop()
            self.spans[idx] = (name, tag, start, end, parent, self.op_id, None)
        if measure is not None:
            self.spans[idx] = self.spans[idx][:6] + (measure(result),)
        return result

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "tag", "start", "end", "parent", "op_id", "measured"],
                       "spans": self.spans}, fh)


class SpanSummary:
    """Busy time, call counts and measured sizes per span name (and name.tag)."""

    def __init__(self, spans) -> None:
        covered = defaultdict(float)
        for name, tag, start, end, parent, op_id, measured in spans:
            if parent is not None:
                covered[parent] += end - start
        self.n_spans = len(spans)
        self.op_self = 0.0
        self._calls = Counter()
        self._busy = defaultdict(float)
        self._durations = defaultdict(list)
        self._total = Counter()
        self._peak = Counter()
        for idx, (name, tag, start, end, parent, op_id, measured) in enumerate(spans):
            for key in (name, f"{name}.{tag}") if tag else (name,):
                self._calls[key] += 1
                self._busy[key] += end - start
                self._durations[key].append(end - start)
            if parent is None:
                self.op_self += end - start - covered[idx]
            if measured is not None:
                self._total[name] += measured
                self._peak[name] = max(self._peak[name], measured)

    def calls(self, key: str) -> int:
        return self._calls[key]

    def busy(self, key: str) -> float:
        return self._busy[key]

    def p50_ms(self, key: str) -> float:
        durations = self._durations[key]
        return 1e3 * statistics.median(durations) if durations else 0.0

    def total(self, name: str) -> int:
        return self._total[name]

    def peak(self, name: str) -> int:
        return self._peak[name]


def _rate(count: int, seconds: float) -> float:
    return count / seconds if seconds > 0 else 0.0


# Per-layer metrics of a traced run: name -> (unit, value from a SpanSummary).
# Library spans are leaves (the library is wrapped only where the benchmark
# calls it), so a layer's self time equals its busy time; ``op.self_s`` is the
# part of the operations spent outside every library span.
PER_LAYER = {
    "wickalg.multiply.calls": ("count", lambda s: s.calls("wickalg.multiply")),
    "wickalg.multiply.busy_s": ("s", lambda s: s.busy("wickalg.multiply")),
    "wickalg.multiply.d2c3.p50_ms": ("ms", lambda s: s.p50_ms("wickalg.multiply.d2c3")),
    "wickalg.multiply.d3c3.p50_ms": ("ms", lambda s: s.p50_ms("wickalg.multiply.d3c3")),
    "wickalg.multiply.d2c4.p50_ms": ("ms", lambda s: s.p50_ms("wickalg.multiply.d2c4")),
    "wickalg.triple_norm.busy_s": ("s", lambda s: s.busy("wickalg.triple_norm")),
    "combinat.cross_pairings": ("count", lambda s: s.total("wickalg.multiply")),
    "combinat.cross_pairings_per_s": ("1/s", lambda s: _rate(s.total("wickalg.multiply"),
                                                             s.busy("wickalg.multiply"))),
    "combinat.enumerate_pairings.busy_s": ("s", lambda s: s.busy("combinat.enumerate_pairings")),
    "combinat.enumerate_pairings.pairings": ("count",
                                             lambda s: s.total("combinat.enumerate_pairings")),
    "combinat.contraction_stats.busy_s": ("s", lambda s: s.busy("combinat.contraction_stats")),
    "wickalg.moment.busy_s": ("s", lambda s: s.busy("wickalg.moment")),
    "wickalg.moment.pairings": ("count", lambda s: s.total("wickalg.moment")),
    "wickalg.expand_field_product.busy_s": ("s",
                                            lambda s: s.busy("wickalg.expand_field_product")),
    "polywick.disentangle_check.busy_s": ("s", lambda s: s.busy("polywick.disentangle_check")),
    "polywick.delta_R.busy_s": ("s", lambda s: s.busy("polywick.delta_R")),
    "polywick.counterterm_polynomial.busy_s": (
        "s", lambda s: s.busy("polywick.counterterm_polynomial")),
    "wickalg.to_operator.busy_s": ("s", lambda s: s.busy("wickalg.to_operator")),
    "fock.compose.busy_s": ("s", lambda s: s.busy("fock.compose")),
    "fock.block.calls": ("count", lambda s: s.calls("fock.block")),
    "fock.block.busy_s": ("s", lambda s: s.busy("fock.block")),
    "fock.block.max_entries": ("count", lambda s: s.peak("fock.block")),
    "fock.restricted_matrix.busy_s": ("s", lambda s: s.busy("fock.restricted_matrix")),
    "fock.restricted_matrix.entries": ("count", lambda s: s.total("fock.restricted_matrix")),
    "fock.operator_norm.calls": ("count", lambda s: s.calls("fock.operator_norm")),
    "fock.operator_norm.f0.busy_s": ("s", lambda s: s.busy("fock.operator_norm.f0")),
    "fock.operator_norm.fq.busy_s": ("s", lambda s: s.busy("fock.operator_norm.fq")),
    "qsde.ito_residual.p3c128.busy_s": ("s", lambda s: s.busy("qsde.ito_residual.p3c128")),
    "qsde.ito_residual.p4c48.busy_s": ("s", lambda s: s.busy("qsde.ito_residual.p4c48")),
    "qsde.ito_residual.p4c64.busy_s": ("s", lambda s: s.busy("qsde.ito_residual.p4c64")),
    "qsde.ito_step.busy_s": ("s", lambda s: s.busy("qsde.ito_step")),
    "qsde.chen_residual.busy_s": ("s", lambda s: s.busy("qsde.chen_residual")),
    "qsde.levy_area.busy_s": ("s", lambda s: s.busy("qsde.levy_area")),
    "qsde.bphz_constant.busy_s": ("s", lambda s: s.busy("qsde.bphz_constant")),
    "cli.emit.busy_s": ("s", lambda s: s.busy("cli.emit")),
    "cli.emit.bytes": ("bytes", lambda s: s.total("cli.emit")),
    "op.self_s": ("s", lambda s: s.op_self),
    "trace.spans": ("count", lambda s: s.n_spans),
}
