"""Spans around the calls ``henkin.cli`` makes into the package's layers.

``Tracer.installed(cli)`` swaps the names ``henkin.cli`` looks up --
``evaluate``, ``find_witness``, ``parse_formula``, ``reducer`` and so on
-- for wrappers that record a span per call, and puts the originals
back on exit.  Nothing inside the package changes: calls a layer makes
internally (``find_min_model`` calling ``evaluate``) stay inside the
caller's span.  The benchmark also wraps each ``cli.main`` call in a
``cli`` span, so the ``cli`` layer's self time is what its children do
not cover: argument parsing, file reading and printing.

Spans are kept in memory, one list per tracer, and summarised by
``layer_metrics``.  They read the clock the tracer is given, so that
span times and the end-to-end times are in the same seconds.
"""

from __future__ import annotations

import types
from contextlib import contextmanager
from dataclasses import dataclass, field

# Span name -> the names in henkin.cli it wraps.  ``syntax``, ``words``
# and ``budget`` are data and helpers and get no span of their own.
LAYERS = {
    "text.parse": ("parse_formula", "parse_presentation", "parse_equation"),
    "text.format": ("format_formula", "format_presentation"),
    "fixtures.build": ("ceitin_h12", "ceitin_e10", "ceitin_presentation",
                       "ehrenfeucht_finiteness", "infinity_sentence"),
    "evaluator.evaluate": ("evaluate", "evaluate_naive"),
    "evaluator.find_min_model": ("find_min_model",),
    "evaluator.witness": ("witness_tables",),
    "oracle.find_witness": ("find_witness",),
}
# ``cli`` reaches the reducer through the module, as ``reducer.compile``.
REDUCER_FUNCTIONS = ("compile", "plan_rows")


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    counts: dict[str, int] = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return self.end - self.start


def _atoms(f) -> int:
    kind = type(f).__name__
    if kind == "EqualAtom":
        return 1
    if kind in ("And", "Or"):
        return sum(_atoms(g) for g in f.items)
    if kind == "Implies":
        return _atoms(f.antecedent) + _atoms(f.consequent)
    if kind == "Iff":
        return _atoms(f.left) + _atoms(f.right)
    if kind in ("Not", "ForAll", "Exists", "Branch"):
        return _atoms(f.body)
    return 0


def _counts(name: str, args, kwargs, result, spent_before: int) -> dict[str, int]:
    budget = kwargs.get("budget")
    if budget is not None:
        return {"nodes": budget.spent - spent_before}
    if name == "text.parse":
        return {"chars": len(args[0])}
    if name == "reducer.compile" and type(result).__name__ == "Exists":
        return {"rows": len(result.body.prefix.universals), "atoms": _atoms(result)}
    return {}


class Tracer:
    def __init__(self, clock):
        self.clock = clock
        self.spans: list[Span] = []
        self._open: list[int] = []

    def wrap(self, name: str, fn):
        def traced(*args, **kwargs):
            budget = kwargs.get("budget")
            spent_before = budget.spent if budget is not None else 0
            parent = self._open[-1] if self._open else None
            index = len(self.spans)
            span = Span(name, 0.0, 0.0, parent)
            self.spans.append(span)
            self._open.append(index)
            span.start = self.clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = self.clock()
                self._open.pop()
            span.counts = _counts(name, args, kwargs, result, spent_before)
            return result

        return traced

    @contextmanager
    def installed(self, cli):
        saved = {attr: getattr(cli, attr) for attrs in LAYERS.values() for attr in attrs}
        saved["reducer"] = cli.reducer
        try:
            for name, attrs in LAYERS.items():
                for attr in attrs:
                    setattr(cli, attr, self.wrap(name, saved[attr]))
            cli.reducer = types.SimpleNamespace(
                **{fn: self.wrap("reducer.compile", getattr(saved["reducer"], fn)) for fn in REDUCER_FUNCTIONS}
            )
            yield
        finally:
            for attr, value in saved.items():
                setattr(cli, attr, value)


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """Per-layer totals over ``spans``: seconds, counts and rates."""
    seconds: dict[str, float] = {}
    counts: dict[str, int] = {}
    child_seconds = [0.0] * len(spans)
    for span in spans:
        seconds[span.name] = seconds.get(span.name, 0.0) + span.seconds
        for key, value in span.counts.items():
            counts[f"{span.name}.{key}"] = counts.get(f"{span.name}.{key}", 0) + value
        if span.parent is not None:
            child_seconds[span.parent] += span.seconds
    cli_spans = [i for i, s in enumerate(spans) if s.name == "cli"]

    def s(name):
        return seconds.get(name, 0.0)

    def c(name):
        return counts.get(name, 0)

    def rate(count, secs):
        return count / secs if secs > 0 else 0.0

    evaluator = ("evaluator.evaluate", "evaluator.find_min_model", "evaluator.witness")
    evaluator_nodes = sum(c(f"{n}.nodes") for n in evaluator)
    evaluator_seconds = sum(s(n) for n in evaluator)
    return {
        "cli.self_s": sum(spans[i].seconds - child_seconds[i] for i in cli_spans),
        "cli.calls": len(cli_spans),
        "text.parse_s": s("text.parse"),
        "text.parse_chars_per_s": rate(c("text.parse.chars"), s("text.parse")),
        "text.format_s": s("text.format"),
        "reducer.compile_s": s("reducer.compile"),
        "reducer.rows": c("reducer.compile.rows"),
        "reducer.atoms": c("reducer.compile.atoms"),
        "fixtures.build_s": s("fixtures.build"),
        "evaluator.evaluate_s": s("evaluator.evaluate"),
        "evaluator.evaluate_nodes": c("evaluator.evaluate.nodes"),
        "evaluator.find_min_model_s": s("evaluator.find_min_model"),
        "evaluator.find_min_model_nodes": c("evaluator.find_min_model.nodes"),
        "evaluator.witness_s": s("evaluator.witness"),
        "evaluator.witness_nodes": c("evaluator.witness.nodes"),
        "evaluator.nodes_per_s": rate(evaluator_nodes, evaluator_seconds),
        "oracle.find_witness_s": s("oracle.find_witness"),
        "oracle.find_witness_nodes": c("oracle.find_witness.nodes"),
        "oracle.nodes_per_s": rate(c("oracle.find_witness.nodes"), s("oracle.find_witness")),
    }
