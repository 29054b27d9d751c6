"""Run-to-completion interpreter for state machines, plus the checks that
tie the source semantics to a generated net: control-token safety over the
reachable markings and bounded trace equivalence (a bisimulation over
observable steps).

The interpreter is written directly against the model queries and never
consults the translator's chain construction, so the two sides stay
independent routes that can disagree when one of them is wrong.  What they
share is model semantics only: `StateMachine.is_completion` and
`StateMachine.boundaries`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from . import expr as ex
from . import net as cpn
from .statemachine import FINAL, NO_HISTORY, SIMPLE, StateMachine, Transition
from .translator import TranslationMap


class NotEnabledStepError(ValueError):
    pass


class StabilisationError(RuntimeError):
    """The net did not reach a stable marking within the chain bound; this
    indicates a translation bug, not a property of the model."""


@dataclass(frozen=True)
class Configuration:
    """A stable point of the machine: active leaf (simple state, or the
    final state of a completed region), variable valuation, per-composite
    history memory, and the pending event pool."""

    active: str
    valuation: tuple[tuple[str, int], ...]
    history: tuple[tuple[str, str], ...]
    pending: tuple[tuple[str, int], ...] = ()

    def valuation_dict(self) -> dict[str, int]:
        return dict(self.valuation)

    def history_dict(self) -> dict[str, str]:
        return dict(self.history)

    def pending_dict(self) -> dict[str, int]:
        return dict(self.pending)


@dataclass(frozen=True)
class StepLabel:
    """What one run-to-completion step makes observable."""

    event: Optional[str]
    behaviours: tuple[str, ...]
    active: str


def _freeze(mapping: dict) -> tuple:
    return tuple(sorted(mapping.items()))


def _freeze_pending(pending: dict) -> tuple:
    return tuple(sorted((e, n) for e, n in pending.items() if n > 0))


def initial_configuration(model: StateMachine) -> Configuration:
    return Configuration(
        active=model.default_configuration(None),
        valuation=_freeze(model.initial_valuation()),
        history=_freeze({s.id: NO_HISTORY for s in model.states if s.has_history}),
        pending=())


def _source_enabled(model: StateMachine, t: Transition, active: str) -> bool:
    if model.is_completion(t):
        return active == model.final_child_of(t.source)
    if model.state(active).kind != SIMPLE:
        return False  # a completed region only offers its completion transitions
    return model.is_ancestor_or_self(t.source, active)


def enabled_transitions(model: StateMachine,
                        config: Configuration) -> list[tuple[str, Optional[str]]]:
    """(transition id, consumed event) pairs fireable in the configuration."""
    valuation = config.valuation_dict()
    pending = config.pending_dict()
    out = []
    for t in model.transitions:
        if not _source_enabled(model, t, config.active):
            continue
        if t.trigger is not None and pending.get(t.trigger, 0) < 1:
            continue
        if t.guard is not None and not ex.eval_bool(t.guard, valuation):
            continue
        out.append((t.id, t.trigger))
    out.sort()
    return out


def _apply(behaviour, valuation: dict):
    for var, rhs in behaviour.assignments:
        valuation[var] = ex.eval_int(rhs, valuation)


def step(model: StateMachine, config: Configuration,
         transition_id: str) -> tuple[Configuration, StepLabel]:
    """Execute one run-to-completion step: exit chain (innermost out),
    effect, entry chain (outermost in); history memories of every exited
    history composite are updated before any history target is resolved."""
    if (transition_id, model.transitions_by_id[transition_id].trigger) \
            not in enabled_transitions(model, config):
        raise NotEnabledStepError(f"{transition_id} is not enabled")
    t = model.transitions_by_id[transition_id]
    x = config.active
    eb, nb = model.boundaries(t)

    valuation = config.valuation_dict()
    history = config.history_dict()
    pending = config.pending_dict()
    labels: list[str] = []

    for behaviour in model.exit_chain(x, eb):
        labels.append(behaviour.label)
        _apply(behaviour, valuation)

    exit_path = model.ancestors_or_self(x)
    exit_path = exit_path[: exit_path.index(eb) + 1]
    for sid in exit_path:
        if model.state(sid).has_history and sid != x:
            child = model.state(model.child_of_containing(sid, x))
            history[sid] = NO_HISTORY if child.kind == FINAL else child.name
    if t.trigger is not None:
        pending[t.trigger] -= 1

    if t.effect is not None:
        labels.append(t.effect.label)
        _apply(t.effect, valuation)

    if t.to_history:
        composite = t.target
        for behaviour in model.entry_chain(nb, composite):
            labels.append(behaviour.label)
            _apply(behaviour, valuation)
        memory = history[composite]
        if memory == NO_HISTORY:
            leaf = model.default_configuration(composite)
            start = model.child_of_containing(composite, leaf)
        else:
            start = next(c.id for c in model.children[composite]
                         if c.name == memory)
            node = model.state(start)
            leaf = start if node.kind == SIMPLE else model.default_configuration(start)
        for behaviour in model.entry_chain(start, leaf):
            labels.append(behaviour.label)
            _apply(behaviour, valuation)
    else:
        target = model.state(t.target)
        if target.kind == FINAL:
            leaf = t.target
        elif target.kind == SIMPLE:
            leaf = t.target
        else:
            leaf = model.default_configuration(t.target)
        for behaviour in model.entry_chain(nb, leaf):
            labels.append(behaviour.label)
            _apply(behaviour, valuation)

    new = Configuration(active=leaf, valuation=_freeze(valuation),
                        history=_freeze(history), pending=_freeze_pending(pending))
    return new, StepLabel(event=t.trigger, behaviours=tuple(labels), active=leaf)


def inject(model: StateMachine, config: Configuration, event: str,
           capacity: int) -> Optional[Configuration]:
    """Add one environment event to the pool; None when at capacity."""
    pending = config.pending_dict()
    if pending.get(event, 0) >= capacity:
        return None
    pending[event] = pending.get(event, 0) + 1
    return Configuration(active=config.active, valuation=config.valuation,
                         history=config.history, pending=_freeze_pending(pending))


# ---------------------------------------------------------------------------
# Net-side projection: run dispatch chains between stable markings


class NetRunner:
    """Drives a generated net in observable steps.

    A marking is stable when the single control token rests on an activity
    or final place (nothing in flight).  Between a dispatch firing and the
    next stable marking the chain is deterministic; producers (environment
    injections) are fired only as explicit moves, and do self-loops are
    never taken (they are excluded from step labels on both sides).

    At each marking only the net's watch-place candidates
    (`CompiledNet.candidates`) are tried, since no other transition can
    be enabled there.
    """

    def __init__(self, net: cpn.ColouredNet, tmap: TranslationMap,
                 model: StateMachine):
        self.net = net
        self.tmap = tmap
        self.model = model
        self.compiled = cpn.CompiledNet(net)
        self.control = tmap.control_places()
        self.leaf_of_place = {pid: sid for sid, pid in tmap.state_place.items()}
        for owner, pid in tmap.final_place.items():
            self.leaf_of_place[pid] = model.final_child_of(owner)
        self.trigger_of_dispatch: dict[str, Optional[str]] = {}
        for tid in tmap.dispatch:
            trigger = None
            for arc in net.input_arcs(tid):
                if arc.place == tmap.events_place and isinstance(arc.inscription, cpn.PatLit):
                    trigger = arc.inscription.value
            self.trigger_of_dispatch[tid] = trigger
        self.producer_of_event = {e: tid for tid, e in tmap.producer.items()}
        self.skip_in_chain = set(tmap.producer) | set(tmap.do_loop)
        self.chain_bound = 2 * len(net.transitions) + 4

    def stable_leaf(self, marking: cpn.Marking) -> Optional[str]:
        held = [(pid, len(tokens)) for pid, tokens in marking if pid in self.control]
        if len(held) != 1 or held[0][1] != 1:
            return None
        return self.leaf_of_place.get(held[0][0])

    def run_chain(self, marking: cpn.Marking) -> tuple[tuple[str, ...], cpn.Marking]:
        """Fire the unique enabled chain transition until stable; the
        observable labels fired, in order."""
        labels: list[str] = []
        for _ in range(self.chain_bound):
            if self.stable_leaf(marking) is not None:
                return tuple(labels), marking
            candidates = [(trans.id, binding)
                          for trans in self.compiled.candidates(marking)
                          if trans.id not in self.skip_in_chain
                          for binding in cpn.enabled_bindings(self.net, marking, trans.id)]
            if len(candidates) != 1:
                raise StabilisationError(
                    f"{len(candidates)} chain transitions enabled mid-step "
                    f"(expected exactly 1)")
            tid, binding = candidates[0]
            marking = cpn.fire(self.net, marking, tid, binding)
            label = self.net.transitions[tid].observable_label
            if label is not None:
                labels.append(label)
        raise StabilisationError("net did not stabilise within the chain bound")

    def step_moves(self, marking: cpn.Marking) -> list[tuple[StepLabel, cpn.Marking]]:
        moves = []
        for trans in self.compiled.candidates(marking):
            tid = trans.id
            if tid not in self.tmap.dispatch:
                continue
            for binding in cpn.enabled_bindings(self.net, marking, tid):
                after = cpn.fire(self.net, marking, tid, binding)
                labels, final = self.run_chain(after)
                leaf = self.stable_leaf(final)
                moves.append((StepLabel(event=self.trigger_of_dispatch[tid],
                                        behaviours=labels, active=leaf), final))
        return moves

    def injections(self, marking: cpn.Marking) -> list[tuple[str, cpn.Marking]]:
        out = []
        for event in sorted(self.producer_of_event):
            tid = self.producer_of_event[event]
            bindings = cpn.enabled_bindings(self.net, marking, tid)
            if bindings:
                out.append((event, cpn.fire(self.net, marking, tid, bindings[0])))
        return out


# ---------------------------------------------------------------------------
# Safety over the reachable markings


@dataclass
class SafetyResult:
    ok: bool
    explored: int
    truncated: bool
    violations: list[str] = field(default_factory=list)


def check_control_safety(net: cpn.ColouredNet, tmap: TranslationMap,
                         bound: int = 100_000) -> SafetyResult:
    """Explore the net and confirm the single-locus invariants: exactly one
    control token, exactly one VARS token (when present), exactly one token
    on every history place."""
    graph = cpn.explore(net, bound=bound)
    control = tmap.control_places()
    violations = []
    for index, marking in enumerate(graph.states):
        tokens = dict(marking)
        total = sum(len(tokens[pid]) for pid in control.intersection(tokens))
        if total != 1:
            violations.append(f"state {index}: {total} control tokens")
        if tmap.vars_place is not None:
            n = len(tokens.get(tmap.vars_place, ()))
            if n != 1:
                violations.append(f"state {index}: {n} tokens on VARS")
        for composite, pid in tmap.history_place.items():
            n = len(tokens.get(pid, ()))
            if n != 1:
                violations.append(f"state {index}: {n} tokens on history place of {composite}")
    return SafetyResult(ok=not violations, explored=len(graph.states),
                        truncated=graph.truncated, violations=violations)


# ---------------------------------------------------------------------------
# Bounded trace equivalence (bisimulation over observable moves)


@dataclass
class EquivalenceResult:
    equivalent: bool
    counterexample: Optional[list] = None  # move labels; the last one diverges
    divergent_side: Optional[str] = None   # which side offers the last move
    pairs_checked: int = 0

    def __bool__(self):
        return self.equivalent


def check_trace_equivalence(model: StateMachine, net: cpn.ColouredNet,
                            tmap: TranslationMap, depth: int = 8,
                            event_capacity: int = 1) -> EquivalenceResult:
    """Bounded bisimulation between the machine and its net.

    Both systems move in lockstep from stable points: either an event
    injection ("inject", e) or an observable step ("step", event,
    behaviours, leaf).  Equivalent iff the step trees are bisimilar to
    `depth` moves; otherwise the shortest divergent trace is reported.
    """
    if depth < 1:
        raise ValueError("depth must be at least 1")
    runner = NetRunner(net, tmap, model)

    smd_states: dict = {}
    net_states: dict = {}

    def smd_succ(config):
        cached = smd_states.get(config)
        if cached is not None:
            return cached
        moves: dict = {}
        for event in model.events:
            after = inject(model, config, event, event_capacity)
            if after is not None:
                moves.setdefault(("inject", event), set()).add(after)
        for tid, _ in enabled_transitions(model, config):
            after, label = step(model, config, tid)
            moves.setdefault(("step", label.event, label.behaviours, label.active),
                             set()).add(after)
        moves = {k: frozenset(v) for k, v in moves.items()}
        smd_states[config] = moves
        return moves

    def net_succ(marking):
        cached = net_states.get(marking)
        if cached is not None:
            return cached
        moves: dict = {}
        for event, after in runner.injections(marking):
            moves.setdefault(("inject", event), set()).add(after)
        for label, after in runner.step_moves(marking):
            moves.setdefault(("step", label.event, label.behaviours, label.active),
                             set()).add(after)
        moves = {k: frozenset(v) for k, v in moves.items()}
        net_states[marking] = moves
        return moves

    memo: dict = {}

    def bisim(config, marking, k) -> bool:
        # well-founded in k, so no cycle handling is needed
        if k == 0:
            return True
        key = (config, marking, k)
        cached = memo.get(key)
        if cached is not None:
            return cached
        left, right = smd_succ(config), net_succ(marking)
        result = set(left) == set(right) and all(
            all(any(bisim(u, v, k - 1) for v in right[label]) for u in left[label])
            and all(any(bisim(u, v, k - 1) for u in left[label]) for v in right[label])
            for label in left)
        memo[key] = result
        return result

    start_config = initial_configuration(model)
    start_marking = net.initial_marking()

    if bisim(start_config, start_marking, depth):
        return EquivalenceResult(equivalent=True, pairs_checked=len(memo))

    fail_depth = next(k for k in range(1, depth + 1)
                      if not bisim(start_config, start_marking, k))

    def extract(config, marking, k):
        left, right = smd_succ(config), net_succ(marking)
        only_left = sorted(set(left) - set(right), key=repr)
        only_right = sorted(set(right) - set(left), key=repr)
        if only_left:
            return [only_left[0]], "model"
        if only_right:
            return [only_right[0]], "net"
        for label in sorted(left, key=repr):
            us, vs = left[label], right[label]
            for u in sorted(us, key=repr):
                if not any(bisim(u, v, k - 1) for v in vs):
                    v = sorted(vs, key=repr)[0]
                    tail, side = extract(u, v, k - 1)
                    return [label] + tail, side
            for v in sorted(vs, key=repr):
                if not any(bisim(u, v, k - 1) for u in us):
                    u = sorted(us, key=repr)[0]
                    tail, side = extract(u, v, k - 1)
                    return [label] + tail, side
        # all labels match pointwise yet the pair failed: should not happen
        raise AssertionError("divergence extraction lost the failing pair")

    trace, side = extract(start_config, start_marking, fail_depth)
    return EquivalenceResult(equivalent=False, counterexample=trace,
                             divergent_side=side, pairs_checked=len(memo))


# ---------------------------------------------------------------------------
# Reporting helpers


def format_move(model: StateMachine, move) -> str:
    """One move in SMDL-flavoured text."""
    if move[0] == "inject":
        return f"inject {move[1]}"
    _, event, behaviours, leaf = move
    parts = [f"on {event}" if event else "tau"]
    if behaviours:
        parts.append("/ " + ", ".join(behaviours))
    node = model.by_id.get(leaf)
    parts.append(f"-> {node.name if node else leaf}")
    return " ".join(parts)


def format_counterexample(model: StateMachine, result: EquivalenceResult) -> str:
    if result.equivalent or not result.counterexample:
        return "equivalent"
    lines = ["trace to divergence:"]
    for move in result.counterexample[:-1]:
        lines.append("  " + format_move(model, move))
    last = format_move(model, result.counterexample[-1])
    offers = "state machine" if result.divergent_side == "model" else "net"
    other = "net" if result.divergent_side == "model" else "state machine"
    lines.append(f"divergence: {offers} offers '{last}' but the {other} cannot match it")
    return "\n".join(lines)
