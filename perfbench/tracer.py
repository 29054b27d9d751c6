"""Outside-in tracing of the smd2cpn layers.

`instrument` rebinds the public functions of each module to wrappers that
time every call, and puts the originals back on exit, also when the traced
code raises.  Nothing in src/ is edited.  A function is rebound under every
name any smd2cpn module holds it by, so `translator`'s own imported
`validate` is traced as well as `statemachine.validate`.

Calls made a few times per job are kept as spans (name, start, end, parent
span, job, self time).  Calls made hundreds of thousands of times per job,
such as `enabled_bindings`, are only counted and timed in aggregate, so the
trace stays small; their time still counts as child time of the span that
made them.
"""

from __future__ import annotations

import sys
from collections import Counter, defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Optional

from speed import CLOCK

PACKAGE = "smd2cpn"


@dataclass(frozen=True)
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: Optional[int]
    job: Optional[str]
    self_s: float


class Tracer:
    """Call frames on a stack; a frame's self time is its duration minus the
    durations of the frames it opened.  Durations are CPU seconds as measured,
    not reference seconds.  `clock` is replaceable for tests."""

    def __init__(self, clock: Callable[[], float] = CLOCK):
        self.clock = clock
        self.job: Optional[str] = None
        self.spans: list[Span] = []
        self.total_s: defaultdict[str, float] = defaultdict(float)
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self.calls: Counter = Counter()
        self.calls_under: Counter = Counter()  # (parent frame name, name) -> calls
        self.counts: Counter = Counter()       # work counted from results
        self._stack: list[list] = []  # open frames: [name, start, child seconds, span id]
        self._open_spans: list[int] = []
        self._next_id = 0

    def enter(self, name: str, record: bool):
        span_id = None
        if record:
            span_id = self._next_id
            self._next_id += 1
            self._open_spans.append(span_id)
        self._stack.append([name, self.clock(), 0.0, span_id])

    def exit(self):
        name, start, child_s, span_id = self._stack.pop()
        end = self.clock()
        duration = end - start
        self.total_s[name] += duration
        self.self_s[name] += duration - child_s
        self.calls[name] += 1
        parent_name = None
        if self._stack:
            self._stack[-1][2] += duration
            parent_name = self._stack[-1][0]
        self.calls_under[(parent_name, name)] += 1
        if span_id is not None:
            self._open_spans.pop()
            parent_id = self._open_spans[-1] if self._open_spans else None
            self.spans.append(Span(span_id, name, start, end, parent_id, self.job,
                                   duration - child_s))

    @contextmanager
    def span(self, name: str):
        self.enter(name, True)
        try:
            yield
        finally:
            self.exit()


# ---------------------------------------------------------------------------
# What gets wrapped


def _count_tokens(counts, args, result):
    counts["smdl.tokens"] += len(result)


def _count_hit(counts, args, result):
    if result:
        counts["net.enabled_hits"] += 1


def _count_graph(counts, args, result):
    counts["net.markings"] += len(result.states)
    counts["net.edges"] += len(result.edges)


def _count_net(counts, args, result):
    net = result[0]
    counts["translator.places"] += len(net.places)
    counts["translator.net_transitions"] += len(net.transitions)
    counts["translator.arcs"] += len(net.arcs)


def _count_xml_out(counts, args, result):
    counts["emit.xml_bytes"] += len(result.encode("utf-8"))


def _count_xml_in(counts, args, result):
    counts["emit.parse_xml_bytes"] += len(args[0].encode("utf-8"))


def _count_pairs(counts, args, result):
    counts["oracle.pairs_checked"] += result.pairs_checked


# (module, attribute, frame name, kept as a span, result hook)
TARGETS = (
    ("smdl", "parse", "smdl.parse", True, None),
    ("smdl", "tokenize", "smdl.tokenize", False, _count_tokens),
    ("expr", "parse_bool", "expr.parse", False, None),
    ("expr", "parse_int", "expr.parse", False, None),
    ("statemachine", "validate", "statemachine.validate", True, None),
    ("translator", "translate", "translator.translate", True, _count_net),
    ("translator", "translate_states", "translator.states", True, None),
    ("translator", "translate_transitions", "translator.transitions", True, None),
    ("translator", "translate_history", "translator.history", True, None),
    ("net", "ColouredNet.check", "net.check", True, None),
    ("emit", "layout", "emit.layout", True, None),
    ("emit", "emit_cpn_xml", "emit.xml", True, _count_xml_out),
    ("emit", "emit_dot", "emit.dot", True, None),
    ("emit", "parse_cpn_xml", "emit.parse_xml", True, _count_xml_in),
    ("net", "enabled_bindings", "net.enabled_bindings", False, _count_hit),
    ("net", "fire", "net.fire", False, None),
    ("net", "marking_key", "net.marking_key", False, None),
    ("net", "explore", "net.explore", True, _count_graph),
    ("oracle", "check_control_safety", "oracle.safety", True, None),
    ("oracle", "check_trace_equivalence", "oracle.equiv", True, _count_pairs),
    ("oracle", "NetRunner.run_chain", "oracle.run_chain", False, None),
    ("oracle", "step", "oracle.step", False, None),
    ("oracle", "inject", "oracle.inject", False, None),
)


def _wrap(tracer: Tracer, fn, name: str, record: bool, hook):
    def traced(*args, **kwargs):
        tracer.enter(name, record)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.exit()
        if hook is not None:
            hook(tracer.counts, args, result)
        return result

    return traced


def package_modules() -> dict[str, object]:
    """The loaded smd2cpn modules by short name ('' is the package)."""
    return {key[len(PACKAGE) + 1:]: module for key, module in sys.modules.items()
            if key == PACKAGE or key.startswith(PACKAGE + ".")}


@contextmanager
def instrument(tracer: Tracer):
    """Rebind every target to a traced wrapper for the duration of the block."""
    modules = package_modules()
    rebound = []  # (holder, attribute, original)
    try:
        for module_name, attribute, name, record, hook in TARGETS:
            owner = modules[module_name]
            *path, leaf = attribute.split(".")
            for part in path:
                owner = getattr(owner, part)
            original = vars(owner)[leaf]
            traced = _wrap(tracer, original, name, record, hook)
            holders = [owner] if path else list(modules.values())
            for holder in holders:
                if vars(holder).get(leaf) is original:
                    rebound.append((holder, leaf, original))
                    setattr(holder, leaf, traced)
        yield tracer
    finally:
        for holder, leaf, original in reversed(rebound):
            setattr(holder, leaf, original)


# ---------------------------------------------------------------------------
# Per-layer metrics of one traced pass


def _per(a: float, b: float) -> float:
    return a / b if b else 0.0


def layer_metrics(t: Tracer) -> dict[str, tuple[float, str]]:
    s, calls, n, under = t.total_s, t.calls, t.counts, t.calls_under
    return {
        "smdl.parse_s": (s["smdl.parse"], "s"),
        "smdl.tokens": (n["smdl.tokens"], "count"),
        "smdl.tokens_per_s": (_per(n["smdl.tokens"], s["smdl.parse"]), "1/s"),
        "expr.parse_calls": (under[("smdl.parse", "expr.parse")], "count"),
        "statemachine.validate_s": (s["statemachine.validate"], "s"),
        "translator.states_s": (s["translator.states"], "s"),
        "translator.transitions_s": (s["translator.transitions"], "s"),
        "translator.history_s": (s["translator.history"], "s"),
        "net.check_s": (s["net.check"], "s"),
        "translator.places": (n["translator.places"], "count"),
        "translator.net_transitions": (n["translator.net_transitions"], "count"),
        "translator.arcs": (n["translator.arcs"], "count"),
        "emit.layout_s": (s["emit.layout"], "s"),
        "emit.xml_s": (s["emit.xml"], "s"),
        "emit.dot_s": (s["emit.dot"], "s"),
        "emit.xml_mb_per_s": (_per(n["emit.xml_bytes"], s["emit.xml"]) / 1e6, "MB/s"),
        "emit.parse_xml_s": (s["emit.parse_xml"], "s"),
        "emit.parse_xml_mb_per_s": (
            _per(n["emit.parse_xml_bytes"], s["emit.parse_xml"]) / 1e6, "MB/s"),
        "net.enabled_bindings_calls": (calls["net.enabled_bindings"], "count"),
        "net.enabled_bindings_s": (s["net.enabled_bindings"], "s"),
        "net.enabled_hit_ratio": (
            _per(n["net.enabled_hits"], calls["net.enabled_bindings"]), "ratio"),
        "net.fire_calls": (calls["net.fire"], "count"),
        "net.fire_s": (s["net.fire"], "s"),
        "net.marking_key_s": (s["net.marking_key"], "s"),
        "net.explore_s": (s["net.explore"], "s"),
        "net.markings": (n["net.markings"], "count"),
        "net.edges": (n["net.edges"], "count"),
        "net.markings_per_s": (_per(n["net.markings"], s["net.explore"]), "1/s"),
        "net.edges_per_s": (_per(n["net.edges"], s["net.explore"]), "1/s"),
        "net.new_marking_ratio": (
            _per(n["net.markings"], under[("net.explore", "net.fire")]), "ratio"),
        "oracle.safety_scan_s": (t.self_s["oracle.safety"], "s"),
        "oracle.equiv_s": (s["oracle.equiv"], "s"),
        "oracle.pairs_checked": (n["oracle.pairs_checked"], "count"),
        "oracle.pairs_per_s": (_per(n["oracle.pairs_checked"], s["oracle.equiv"]), "1/s"),
        "oracle.run_chain_calls": (calls["oracle.run_chain"], "count"),
        "oracle.run_chain_s": (s["oracle.run_chain"], "s"),
        "oracle.chain_enabled_calls": (
            under[("oracle.run_chain", "net.enabled_bindings")], "count"),
        "oracle.step_calls": (calls["oracle.step"], "count"),
        "oracle.step_s": (s["oracle.step"], "s"),
        "oracle.inject_calls": (calls["oracle.inject"], "count"),
    }


#: metrics that count work; they must repeat exactly between traced passes
COUNT_METRICS = tuple(
    name for name, (_, unit) in layer_metrics(Tracer()).items() if unit == "count")
