"""Tracing the program from outside: wrappers installed on the names the
program looks up, spans kept in memory, per-layer metrics at the end.

A span has a name, start, end, parent span and unit id (the surface of the
unit being translated or web-filtered). Calls too frequent to keep one
span each (tagging a snippet, reading the cache) are aggregated per thread
instead; their time is still charged to the enclosing span, so that span's
self time stays right.

A layer's self time is its span's duration minus the part of that interval
covered by its child spans and aggregated calls.
"""

from __future__ import annotations

import importlib
import itertools
import json
import statistics
import threading
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

# Every per-layer metric the traced run reports, with its unit.
LAYER_METRICS = {
    "corpus.parse_s": "s",
    "extraction.extract_s": "s",
    "extraction.web_filter_s": "s",
    "extraction.kept_ratio": "ratio",
    "dictionary.load_s": "s",
    "generation.candidates": "count",
    "oracle.queries": "count",
    "oracle.queries.PHRASE_COUNT": "count",
    "oracle.queries.SNIPPETS": "count",
    "oracle.queries.PAIR_COUNT": "count",
    "oracle.queries.MIXED_SNIPPETS": "count",
    "oracle.cache_hit_ratio": "ratio",
    "oracle.errors": "count",
    "oracle.execute_s": "s",
    "oracle.wait_s": "s",
    "oracle.cache.get_s": "s",
    "oracle.cache.put_s": "s",
    "oracle.cache.puts": "count",
    "oracle.cache.load_s": "s",
    "backends.calls": "count",
    "backends.execute_s": "s",
    "backends.index_build_s": "s",
    "backends.http.requests": "count",
    "tagging.tag_s": "s",
    "tagging.tokens": "count",
    "phase1.validate_s": "s",
    "phase1.units": "count",
    "phase1.accept_ratio": "ratio",
    "phase2.run_s": "s",
    "phase2.pair_filter_s": "s",
    "phase2.ratio_filter_s": "s",
    "phase2.world_build_s": "s",
    "phase2.compare_s": "s",
    "phase2.worlds_built": "count",
    "phase2.worlds_distinct_ratio": "ratio",
    "phase2.survivor_ratio": "ratio",
    "phase3.run_s": "s",
    "phase3.mine_s": "s",
    "phase3.validate_runs": "count",
    "pipeline.unit_p50_ms": "ms",
    "pipeline.unit_p99_ms": "ms",
    "pipeline.pool_gain": "ratio",
    "pipeline.write_report_s": "s",
    "trace.overhead_ratio": "ratio",
    "trace.spans": "count",
}


@dataclass
class Span:
    id: int
    name: str
    parent: int | None
    unit: str | None
    thread: int
    start: float
    end: float = 0.0
    leaf_s: float = 0.0  # time in aggregated calls made directly inside
    error: str | None = None


def self_times(spans: list[Span]) -> dict[int, float]:
    """Self time of every span: its duration minus the union of its
    children's intervals (clipped to it) and its aggregated calls."""
    children: dict[int, list[Span]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append(span)
    result = {}
    for span in spans:
        covered, reach = 0.0, span.start
        for child in sorted(children.get(span.id, ()), key=lambda c: c.start):
            lo, hi = max(child.start, reach), min(child.end, span.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        result[span.id] = max(0.0, span.end - span.start - covered - span.leaf_s)
    return result


@dataclass
class _ThreadState:
    stack: list[Span] = field(default_factory=list)
    leaves: dict[str, list[float]] = field(default_factory=dict)  # name -> [calls, seconds, amount]
    counters: Counter = field(default_factory=Counter)


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.absent: dict[str, str] = {}
        self.distinct_worlds: set[tuple] = set()
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._states: list[_ThreadState] = []
        self._lock = threading.Lock()
        self._patches: list[tuple[object, str, object]] = []

    def _state(self) -> _ThreadState:
        state = getattr(self._local, "state", None)
        if state is None:
            state = self._local.state = _ThreadState()
            with self._lock:
                self._states.append(state)
        return state

    def count(self, name: str, amount: float = 1) -> None:
        self._state().counters[name] += amount

    def span_wrapper(self, fn: Callable, name: str, unit_of=None, observe=None) -> Callable:
        def traced(*args, **kwargs):
            state = self._state()
            parent = state.stack[-1] if state.stack else None
            unit = unit_of(args) if unit_of else (parent.unit if parent else None)
            span = Span(next(self._ids), name, parent.id if parent else None, unit,
                        threading.get_ident(), time.perf_counter())
            state.stack.append(span)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span.error = type(exc).__name__
                raise
            finally:
                span.end = time.perf_counter()
                state.stack.pop()
                self.spans.append(span)
            if observe is not None:
                observe(self, args, result)
            return result

        return traced

    def leaf_wrapper(self, fn: Callable, name: str, amount=None) -> Callable:
        def traced(*args, **kwargs):
            state = self._state()
            started = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - started
                if state.stack:
                    state.stack[-1].leaf_s += elapsed
                entry = state.leaves.setdefault(name, [0, 0.0, 0])
                entry[0] += 1
                entry[1] += elapsed
            if amount is not None:
                entry[2] += amount(result)
            return result

        return traced

    def patch(self, owner_path: str, attr: str, wrap: Callable[[Callable], Callable]) -> None:
        """Replace ``owner.attr``, where ``owner_path`` is ``module`` or
        ``module:Class``; a missing target is recorded in ``absent``."""
        module_name, _, class_name = owner_path.partition(":")
        try:
            owner = importlib.import_module(module_name)
            if class_name:
                owner = getattr(owner, class_name)
            original = owner.__dict__[attr] if class_name else getattr(owner, attr)
        except (ImportError, AttributeError, KeyError):
            self.absent[f"{owner_path}.{attr}"] = "not found in this version of the program"
            return
        self._patches.append((owner, attr, original))
        setattr(owner, attr, wrap(original))

    def restore(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def totals(self) -> tuple[dict[str, list[float]], Counter]:
        leaves: dict[str, list[float]] = {}
        counters: Counter = Counter()
        for state in self._states:
            for name, (calls, seconds, amount) in state.leaves.items():
                entry = leaves.setdefault(name, [0, 0.0, 0])
                entry[0] += calls
                entry[1] += seconds
                entry[2] += amount
            counters.update(state.counters)
        return leaves, counters

    def write(self, path: Path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span in sorted(self.spans, key=lambda s: s.start):
                fh.write(json.dumps(span.__dict__) + "\n")


def _surface(args) -> str | None:
    return getattr(args[0], "surface", None) if args else None


def _observe_filter(tracer, args, verdicts):
    tracer.count("extraction.units", len(verdicts))
    tracer.count("extraction.kept", sum(1 for v in verdicts if v.accepted))


def _observe_query(tracer, args, result):
    tracer.count(f"oracle.queries.{args[1].kind.value}")


def _observe_phase1(tracer, args, result):
    tracer.count("phase1.accepted", result[0] is not None)


def _observe_phase2(tracer, args, result):
    tracer.count("phase2.candidates", len(args[1]))
    tracer.count("phase2.survivors", len(result.ratio_survivors))


def _observe_phase3_validation(tracer, args, result):
    _observe_phase2(tracer, args, result)
    tracer.count("phase3.validate_runs")


def _observe_world(tracer, args, result):
    with tracer._lock:
        tracer.distinct_worlds.add((args[0], args[1]))


def install(tracer: Tracer) -> None:
    """Wrap each layer's public functions where the program looks them up."""
    span = tracer.span_wrapper
    leaf = tracer.leaf_wrapper
    targets = [
        ("lexiforge.cli", "parse_tagged_corpus", lambda f: span(f, "corpus.parse")),
        ("lexiforge.cli", "extract_ulcs", lambda f: span(f, "extraction.extract")),
        ("lexiforge.cli", "filter_ulcs", lambda f: span(f, "extraction.filter", observe=_observe_filter)),
        ("lexiforge.extraction", "web_filter_ulc", lambda f: span(f, "extraction.web_filter", unit_of=_surface)),
        ("lexiforge.cli", "load_dictionary", lambda f: span(f, "dictionary.load")),
        ("lexiforge.pipeline", "generate_candidates",
         lambda f: span(f, "generation.generate", observe=lambda t, a, r: t.count("generation.candidates", len(r)))),
        ("lexiforge.oracle:SearchOracle", "execute", lambda f: span(f, "oracle.execute", observe=_observe_query)),
        ("lexiforge.oracle:ResponseCache", "get", lambda f: leaf(f, "oracle.cache.get")),
        ("lexiforge.oracle:ResponseCache", "put", lambda f: leaf(f, "oracle.cache.put")),
        ("lexiforge.oracle:ResponseCache", "__init__", lambda f: span(f, "oracle.cache.load")),
        ("lexiforge.backends:LocalIndexBackend", "__init__", lambda f: span(f, "backends.index_build")),
        ("lexiforge.backends:LocalIndexBackend", "execute", lambda f: span(f, "backends.execute")),
        ("lexiforge.backends:HttpBackend", "execute", lambda f: span(f, "backends.execute")),
        ("lexiforge.tagging:LexiconTagger", "tag", lambda f: leaf(f, "tagging.tag", amount=len)),
        ("lexiforge.pipeline", "validate_by_frequency", lambda f: span(f, "phase1.validate", observe=_observe_phase1)),
        ("lexiforge.pipeline", "run_phase2", lambda f: span(f, "phase2.run", observe=_observe_phase2)),
        ("lexiforge.phase3", "run_phase2", lambda f: span(f, "phase2.run", observe=_observe_phase3_validation)),
        ("lexiforge.phase2", "parallel_pair_filter", lambda f: span(f, "phase2.pair_filter")),
        ("lexiforge.phase2", "ratio_filter", lambda f: span(f, "phase2.ratio_filter")),
        ("lexiforge.phase2", "build_lexical_world", lambda f: span(f, "phase2.world_build", observe=_observe_world)),
        ("lexiforge.phase2", "compare_worlds", lambda f: span(f, "phase2.compare")),
        ("lexiforge.pipeline", "run_phase3", lambda f: span(f, "phase3.run")),
        ("lexiforge.phase3", "find_cognates", lambda f: span(f, "phase3.mine")),
        ("lexiforge.phase3", "find_frequent_pairs", lambda f: span(f, "phase3.mine")),
        ("lexiforge.pipeline", "translate_ulc", lambda f: span(f, "pipeline.unit", unit_of=_surface)),
        ("lexiforge.cli", "run_pipeline", lambda f: span(f, "pipeline.run")),
        ("lexiforge.cli", "write_report", lambda f: span(f, "pipeline.write_report")),
    ]
    for owner, attr, wrap in targets:
        tracer.patch(owner, attr, wrap)


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer metrics of one traced pass, except those the harness adds
    (pool gain, overhead, stub requests)."""
    selfs = self_times(tracer.spans)
    self_s: Counter = Counter()
    total_s: Counter = Counter()
    calls: Counter = Counter()
    errors: Counter = Counter()
    unit_ms = []
    for span in tracer.spans:
        self_s[span.name] += selfs[span.id]
        total_s[span.name] += span.end - span.start
        calls[span.name] += 1
        errors[span.name] += span.error is not None
        if span.name == "pipeline.unit":
            unit_ms.append(1000.0 * (span.end - span.start))
    leaves, counters = tracer.totals()
    get_calls, get_s, _ = leaves.get("oracle.cache.get", (0, 0.0, 0))
    puts, put_s, _ = leaves.get("oracle.cache.put", (0, 0.0, 0))
    _, tag_s, tokens = leaves.get("tagging.tag", (0, 0.0, 0))
    queries = calls["oracle.execute"]
    percentiles = statistics.quantiles(unit_ms, n=100, method="inclusive") if len(unit_ms) > 1 else [0.0] * 99
    metrics = {
        "corpus.parse_s": self_s["corpus.parse"],
        "extraction.extract_s": self_s["extraction.extract"],
        "extraction.web_filter_s": self_s["extraction.web_filter"] + self_s["extraction.filter"],
        "extraction.kept_ratio": _ratio(counters["extraction.kept"], counters["extraction.units"]),
        "dictionary.load_s": self_s["dictionary.load"],
        "generation.candidates": counters["generation.candidates"],
        "oracle.queries": queries,
        "oracle.cache_hit_ratio": _ratio(queries - calls["backends.execute"] - errors["oracle.execute"], queries),
        "oracle.errors": errors["oracle.execute"],
        "oracle.execute_s": total_s["oracle.execute"],
        "oracle.wait_s": self_s["oracle.execute"],
        "oracle.cache.get_s": get_s,
        "oracle.cache.put_s": put_s,
        "oracle.cache.puts": puts,
        "oracle.cache.load_s": self_s["oracle.cache.load"],
        "backends.calls": calls["backends.execute"],
        "backends.execute_s": self_s["backends.execute"],
        "backends.index_build_s": self_s["backends.index_build"],
        "tagging.tag_s": tag_s,
        "tagging.tokens": tokens,
        "phase1.validate_s": self_s["phase1.validate"],
        "phase1.units": calls["phase1.validate"],
        "phase1.accept_ratio": _ratio(counters["phase1.accepted"], calls["phase1.validate"]),
        "phase2.run_s": self_s["phase2.run"],
        "phase2.pair_filter_s": self_s["phase2.pair_filter"],
        "phase2.ratio_filter_s": self_s["phase2.ratio_filter"],
        "phase2.world_build_s": self_s["phase2.world_build"],
        "phase2.compare_s": self_s["phase2.compare"],
        "phase2.worlds_built": calls["phase2.world_build"],
        "phase2.worlds_distinct_ratio": _ratio(len(tracer.distinct_worlds), calls["phase2.world_build"]),
        "phase2.survivor_ratio": _ratio(counters["phase2.survivors"], counters["phase2.candidates"]),
        "phase3.run_s": self_s["phase3.run"],
        "phase3.mine_s": self_s["phase3.mine"],
        "phase3.validate_runs": counters["phase3.validate_runs"],
        "pipeline.unit_p50_ms": percentiles[49],
        "pipeline.unit_p99_ms": percentiles[98],
        "pipeline.write_report_s": self_s["pipeline.write_report"],
        "trace.spans": len(tracer.spans),
    }
    for kind in ("PHRASE_COUNT", "SNIPPETS", "PAIR_COUNT", "MIXED_SNIPPETS"):
        metrics[f"oracle.queries.{kind}"] = counters[f"oracle.queries.{kind}"]
    return metrics
