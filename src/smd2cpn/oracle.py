"""Run-to-completion interpreter for state machines, plus the checks that tie
the source semantics to a generated net: control-token safety over the
reachable markings and bounded trace equivalence (a bisimulation over
observable moves).  A net whose dispatch chain breaks offers a "stuck"
move that the machine never offers, so a broken chain is reported as a
divergence with its trace like any other.  One breadth-first walk over
pairs of a configuration and a net point, of the kind `cpn.points` picks
(a marking or its dense code, never told apart here), each compared once
whatever the depth, decides equivalence, with rounds that count the
fewest moves within which a failing pair's sides differ; the shortest
counterexample is read off those counts with moves and successors sorted
by repr, a net point by its decoded marking's, so it does not depend on
the order in which either side lists its moves.
A step reads the event pool only to find its trigger there and take it,
so a check works each step out once, keyed on (active leaf, valuation,
history), and takes the trigger from each configuration's own pool.

The interpreter is written directly against the model queries and never
consults the translator's chain construction, so the two sides stay
independent routes that can disagree when one of them is wrong.  What they
share is model semantics only: `StateMachine.is_completion`,
`boundaries`, `default_configuration` (where a step lands), `exit_chain`,
`entry_chain`, `history_writes` (what each exited history composite
remembers) and `resumed` (where a history target lands), and the model's
indices (`transitions_from`, `ancestor_paths`).
"""

from __future__ import annotations

import bisect
import functools
from dataclasses import dataclass, field
from typing import NamedTuple, Optional

from . import expr as ex
from . import net as cpn
from .statemachine import NO_HISTORY, SIMPLE, StateMachine, Transition
from .translator import TranslationMap


class NotEnabledStepError(ValueError):
    pass


class Configuration(NamedTuple):
    """A stable point of the machine: active leaf (simple state, or the
    final state of a completed region), variable valuation, per-composite
    history memory, and the pending event pool."""

    active: str
    valuation: tuple[tuple[str, int], ...]
    history: tuple[tuple[str, str], ...]
    pending: tuple[tuple[str, int], ...] = ()


@dataclass(frozen=True)
class StepLabel:
    """What one run-to-completion step makes observable."""

    event: Optional[str]
    behaviours: tuple[str, ...]
    active: str


def _freeze(mapping: dict) -> tuple:
    return tuple(sorted(mapping.items()))


def initial_configuration(model: StateMachine) -> Configuration:
    return Configuration(
        active=model.default_configuration(None),
        valuation=_freeze(model.initial_valuation()),
        history=_freeze({s.id: NO_HISTORY for s in model.states if s.has_history}))


def _offered(model: StateMachine, active: str, valuation: dict) -> list[Transition]:
    """The transitions that may fire from leaf `active` whatever the pool
    holds, in id order, each only where its guard holds: from a simple
    leaf the non-completion transitions leaving it or an ancestor, from a
    region's final state its owner's completions."""
    leaf = model.state(active)
    simple = leaf.kind == SIMPLE
    sources = model.ancestors_or_self(active) if simple else (leaf.parent,)
    return sorted((t for sid in sources for t in model.transitions_from.get(sid, ())
                   if model.is_completion(t) != simple
                   and (t.guard is None or ex.eval_bool(t.guard, valuation))), key=lambda t: t.id)


def enabled_transitions(model: StateMachine,
                        config: Configuration) -> list[tuple[str, Optional[str]]]:
    """(transition id, consumed event) pairs fireable in the configuration,
    in id order: those `_offered` from its leaf whose trigger, if any, is
    pending."""
    pending = dict(config.pending)
    return [(t.id, t.trigger) for t in _offered(model, config.active, dict(config.valuation))
            if t.trigger is None or pending.get(t.trigger, 0) >= 1]


def _run_step(model: StateMachine, t: Transition, active: str, valuation: tuple,
              history: tuple) -> tuple[tuple[str, ...], str, tuple, tuple]:
    """(behaviours, leaf, valuation, history) of one run-to-completion step
    of `t` from leaf `active`, with no pool: exit chain (innermost out),
    effect, entry chain (outermost in); history memories of every exited
    history composite are updated before any history target is resolved."""
    valuation, history = dict(valuation), dict(history)
    eb, nb = model.boundaries(t)
    history.update(model.history_writes(active, eb))
    if t.to_history:
        start, leaf = model.resumed(t.target, history[t.target])
        entries = model.entry_chain(nb, t.target) + model.entry_chain(start, leaf)
    else:
        leaf = model.default_configuration(t.target)
        entries = model.entry_chain(nb, leaf)
    effect = (t.effect,) if t.effect is not None else ()
    behaviours = model.exit_chain(active, eb) + effect + entries
    for behaviour in behaviours:
        for var, rhs in behaviour.assignments:
            valuation[var] = ex.eval_int(rhs, valuation)
    return tuple(b.label for b in behaviours), leaf, _freeze(valuation), _freeze(history)


def step(model: StateMachine, config: Configuration,
         transition_id: str) -> tuple[Configuration, StepLabel]:
    """Execute one run-to-completion step (`_run_step`), taking its trigger
    from the pool; NotEnabledStepError where it cannot fire.  The tests
    check the steps `_machine_moves` keeps against this."""
    t = model.transitions_by_id[transition_id]
    if (t.id, t.trigger) not in enabled_transitions(model, config):
        raise NotEnabledStepError(f"{transition_id} is not enabled")
    behaviours, leaf, *after = _run_step(model, t, config.active, config.valuation,
                                         config.history)
    pending = (config.pending if t.trigger is None else
               _moved(config.pending, t.trigger, -1, capacity=dict(config.pending)[t.trigger]))
    return Configuration(leaf, *after, pending), StepLabel(t.trigger, behaviours, leaf)


def _moved(pending: tuple, event: str, change: int, capacity: int) -> Optional[tuple]:
    """The sorted pool with `event`'s count moved by `change`, or None
    where the count would leave the range 0 to `capacity`."""
    at = bisect.bisect_left(pending, (event,))
    held = pending[at][1] if at < len(pending) and pending[at][0] == event else 0
    count = held + change
    if not 0 <= count <= capacity:
        return None
    return pending[:at] + (((event, count),) if count else ()) + pending[at + (held > 0):]


@functools.cache
def _injection(event: str) -> tuple[str, str]:
    """The move ("inject", `event`), one tuple that both sides' moves share."""
    return ("inject", event)


def inject(model: StateMachine, config: Configuration, event: str,
           capacity: int) -> Optional[Configuration]:
    """Add one environment event to the pool; None when at capacity."""
    pending = _moved(config.pending, event, 1, capacity)
    return None if pending is None else Configuration(config.active, config.valuation,
                                                      config.history, pending)


# ---------------------------------------------------------------------------
# Net-side projection: run dispatch chains between stable markings


class NetRunner:
    """Drives a generated net in observable moves, the same
    (move, successor) pairs the machine side offers.

    A marking is stable when the single control token rests on an activity
    or final place (nothing in flight).  Between a dispatch firing and the
    next stable marking the chain is deterministic; producers (environment
    injections) are fired only as explicit moves, and do self-loops are
    never taken (they are excluded from step labels on both sides).  A
    chain that cannot reach a stable marking this way ends in a "stuck"
    move.  Firing a behaviour occurrence (in `tmap.behaviour_trans`) makes
    its name observable, so a net read back from its XML moves alike.

    Every firing comes from the point kind's `successors`, which tries
    only the watch-place candidates and skips the transitions a caller
    names: producers and do-loops in a chain, do-loops among the moves.
    The kind is `cpn.points`' for the initial marking, which checks it: on
    the nets `explore` codes densely a point is coded, a transition's
    firings are worked out once per view of its keyed places, with
    bindings from the public `enabled_bindings`, whose calls the benchmark
    counts, and its constant places, such as the event pool, step through
    their tables.  A firing that raises raises only where it is taken.
    """

    def __init__(self, net: cpn.ColouredNet, tmap: TranslationMap,
                 model: StateMachine):
        self.compiled = compiled = cpn.CompiledNet.of(net)
        self.control = tmap.control_places()
        self.leaf_of_place = {pid: sid for sid, pid in tmap.state_place.items()}
        for owner, pid in tmap.final_place.items():
            self.leaf_of_place[pid] = model.final_child_of(owner)
        self.trigger_of_dispatch: dict[str, Optional[str]] = dict.fromkeys(tmap.dispatch)
        for tid in tmap.dispatch.keys() & compiled.by_id.keys():  # a mutant may lack one
            for pid, pattern, _ in compiled.by_id[tid].inputs:
                if pid == tmap.events_place and isinstance(pattern, cpn.Lit):
                    self.trigger_of_dispatch[tid] = pattern.value
        self.producer = tmap.producer
        self.behaviours = set(tmap.behaviour_trans.values())
        self.do_loop = set(tmap.do_loop)
        self.skip_in_chain = set(tmap.producer) | self.do_loop
        self.chain_bound = 2 * len(net.transitions) + 4
        self.points = cpn.points(compiled, compiled.initial)
        self.held = self.points.reader(self.control)

    def stable_leaf(self, marking: cpn.Marking) -> Optional[str]:
        held = [(pid, len(tokens)) for pid, tokens in marking if pid in self.control]
        if len(held) != 1 or held[0][1] != 1:
            return None
        return self.leaf_of_place.get(held[0][0])

    def _taken(self, tid: str, point, after):
        """`after`, a successor of `point` by `tid`, fired where it is the
        binding of a firing that raises, so that it raises here."""
        return self.points.fire(tid, point, after) if type(after) is dict else after

    def run_chain(self, point) -> tuple[tuple, object]:
        """Fire the unique enabled chain transition until stable.  Returns
        ((kind, labels, end), point): the observable labels fired, in
        order, and the point where the chain stopped; kind "step" with the
        stable leaf as end, or "stuck" with why it stopped: no chain
        transition or several enabled, or the chain bound run out."""
        labels = []
        for _ in range(self.chain_bound):
            if (leaf := self.stable_leaf(self.held(point))) is not None:
                return ("step", tuple(labels), leaf), point
            enabled = self.points.successors(point, self.skip_in_chain)
            if len(enabled) != 1:
                return ("stuck", tuple(labels), f"{len(enabled)} chain transitions enabled"), point
            (tid, _, after), = enabled
            point = self._taken(tid, point, after)
            if tid in self.behaviours:
                labels.append(self.compiled.by_id[tid].trans.name)
        return ("stuck", tuple(labels), f"not stable after {self.chain_bound} firings"), point

    def moves(self, point) -> list[tuple[tuple, object]]:
        """(move, successor) for every move at the point, from one pass
        over its successors: ("inject", event) for every producer that can
        fire, then every dispatch firing plus its chain.  Such a move is
        ("step", event, behaviours, leaf) when the chain reaches a stable
        marking and ("stuck", event, behaviours, reason) when not.  Both
        kinds come in id order, so injections in event order for the
        translator's `T_env_<e>` ids; no outcome depends on the order, as
        the walk compares key sets and a counterexample is read in repr order."""
        injections, steps = [], []
        for tid, _, after in self.points.successors(point, self.do_loop):
            if tid in self.producer:
                injections.append((_injection(self.producer[tid]), self._taken(tid, point, after)))
            elif tid in self.trigger_of_dispatch:
                move, final = self.run_chain(self._taken(tid, point, after))
                steps.append(((move[0], self.trigger_of_dispatch[tid], *move[1:]), final))
        return injections + steps


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
    on every history place.

    Each marking's (place, tokens) pairs are walked once, adding each
    watched place's tokens to its invariant's count.  The violations are
    listed state by state, and within a state the control count first,
    then VARS, then the history places in `tmap.history_place` order."""
    graph = cpn.explore(net, bound=bound)
    singles = [(tmap.vars_place, "VARS")] if tmap.vars_place is not None else []
    singles += [(pid, f"history place of {composite}")
                for composite, pid in tmap.history_place.items()]
    # each watched place -> the position of its count; control places share 0
    slot = dict.fromkeys(tmap.control_places(), 0) | {
        pid: n for n, (pid, _) in enumerate(singles, 1)}
    labels = ["control tokens"] + [f"tokens on {name}" for _, name in singles]
    ones = [1] * len(labels)
    violations = []
    for index, marking in enumerate(graph.states):
        counts = [0] * len(ones)
        for pid, tokens in marking:
            n = slot.get(pid)
            if n is not None:
                counts[n] += len(tokens)
        if counts != ones:
            violations.extend(f"state {index}: {n} {label}"
                              for n, label in zip(counts, labels) if n != 1)
    return SafetyResult(ok=not violations, explored=len(graph.states),
                        truncated=graph.truncated, violations=violations)


# ---------------------------------------------------------------------------
# Bounded trace equivalence (bisimulation over observable moves)


@dataclass
class EquivalenceResult:
    equivalent: bool
    counterexample: Optional[list] = None  # move labels; the last one diverges
    divergent_side: Optional[str] = None   # which side offers the last move
    pairs_checked: int = 0  # distinct (configuration, marking) pairs compared

    def __bool__(self):
        return self.equivalent


def _machine_moves(model: StateMachine, config: Configuration, capacity: int, steps: dict):
    """(move, successor) for every injection and step of the machine.
    `steps`, kept for one check, maps (active, valuation, history) to the
    trigger and `_run_step` of every transition `_offered` there, in id
    order.  A step is offered where its trigger is pending."""
    for event in model.events:
        if (after := inject(model, config, event, capacity)) is not None:
            yield _injection(event), after
    key = (config.active, config.valuation, config.history)
    if key not in steps:
        steps[key] = [(t.trigger, *_run_step(model, t, *key))
                      for t in _offered(model, config.active, dict(config.valuation))]
    for trigger, behaviours, *after in steps[key]:
        pending = (config.pending if trigger is None
                   else _moved(config.pending, trigger, -1, capacity))
        if pending is not None:
            yield ("step", trigger, behaviours, after[0]), Configuration(*after, pending)


def _first_failure(left: dict, right: dict, fails, order=repr):
    """The first reason two move maps do not match, with moves and the
    model's successors sorted by repr and the net's by `order`, or None:
    (side, move) for a move only one side offers, the model's first; else
    (move, u, v) for a successor u of a move whose every pairing with the
    other side's successors `fails`, paired with the first of them, and
    then the same for a successor v."""
    for side, offers, other in (("model", left, right), ("net", right, left)):
        for move in sorted(offers, key=repr):
            if move not in other:
                return side, move
    for move in sorted(left, key=repr):
        us, vs = sorted(left[move], key=repr), sorted(right[move], key=order)
        for u in us:
            if all(fails((u, v)) for v in vs):
                return move, u, vs[0]
        for v in vs:
            if all(fails((u, v)) for u in us):
                return move, us[0], v
    return None


def _pairs_after(left: dict, right: dict) -> list:
    """The successor pairs of two move maps, over the moves both offer."""
    return [(u, v) for move, us in left.items() for v in right.get(move, ()) for u in us]


def _fail_depths(sides, predecessors: dict, differ: list, rounds: int) -> dict:
    """{pair: the fewest moves within which its sides differ} for the pairs
    that differ within `rounds` moves.  Round 1 is the pairs whose move
    sets differ; a pair first failing at k moves has a successor pair first
    failing at k - 1, so round k checks only the compared `predecessors`
    of round k - 1's finds, against the pairs found so far."""
    fails = dict.fromkeys(differ, 1)
    found = differ
    for k in range(2, rounds + 1):
        suspects = {pair for after in found for pair in predecessors.get(after, ())
                    if pair not in fails}
        found = [pair for pair in suspects if _first_failure(*sides(pair), fails.__contains__)]
        if not found:
            break
        fails.update(dict.fromkeys(found, k))
    return fails


def _walk_pairs(start, sides, depth: int, order=repr) -> EquivalenceResult:
    """Bisimulation to `depth` moves of two move graphs from pair `start`;
    `sides(pair)` is the move maps of a (model point, net point) pair, made
    when asked.  The walk compares the pairs fewer than `depth` moves out,
    a layer at a time, until a layer adds none, and indexes each compared
    pair as a predecessor of its successor pairs, but for the last layer,
    `depth` - 1 moves out, whose successors are never compared.  Once some
    move sets differ, each layer ends with failure rounds, capped at the
    layers walked until the walk is complete, as a pair is compared only as
    deep as the walk went past it.  Only the rounds and the counterexample
    read a pair's `sides` again.  From a start pair failing within k moves,
    the first failure against the pairs failing within k - 1, net points in
    `order`, gives the next move and pair."""
    layer, compared, differ, fails = [start], 0, [], {}
    predecessors = {start: []}  # each pair reached: the compared pairs leading to it
    for walked in range(1, depth + 1):
        following = []
        for pair in layer:
            left, right = sides(pair)
            if left.keys() != right.keys():
                differ.append(pair)
            if walked == depth:
                continue
            for after in _pairs_after(left, right):
                if after not in predecessors:
                    following.append(after)
                predecessors.setdefault(after, []).append(pair)
        compared += len(layer)
        if differ:
            fails = _fail_depths(sides, predecessors, differ, walked if following else depth)
            if start in fails:
                break
        if not following:
            break
        layer = following
    if start not in fails:
        return EquivalenceResult(equivalent=True, pairs_checked=compared)
    trace, pair, within = [], start, fails[start]
    while len(first := _first_failure(*sides(pair), lambda p: fails.get(p, within) < within,
                                      order)) == 3:
        trace.append(first[0])
        pair, within = first[1:], within - 1
    side, move = first
    return EquivalenceResult(equivalent=False, counterexample=trace + [move],
                             divergent_side=side, pairs_checked=compared)


def _move_map(pairs) -> dict:
    """{move: successors} of (move, successor) pairs, in the order they
    come: a move's successors are the points themselves, each once, kept
    as the keys of a dict."""
    moves: dict = {}
    for move, after in pairs:
        moves.setdefault(move, {})[after] = None
    return moves


def check_trace_equivalence(model: StateMachine, net: cpn.ColouredNet,
                            tmap: TranslationMap, depth: int = 8,
                            event_capacity: int = 1) -> EquivalenceResult:
    """Bounded bisimulation between the machine and its net.

    Both systems move in lockstep from stable points: either an event
    injection ("inject", e) or an observable step ("step", event,
    behaviours, leaf).  The net also offers ("stuck", event, behaviours,
    reason) where a dispatch chain breaks, which the machine never
    matches.  Equivalent iff the step trees are bisimilar to `depth`
    moves; otherwise the shortest divergent trace is reported.  `depth` is
    at least 1 and unbounded, since each reachable pair is compared once;
    a pair failing at k moves is found in round k of the failure rounds.
    `event_capacity` must be the capacity the net was translated with.
    """
    if depth < 1:
        raise ValueError("depth must be at least 1")
    for pid in tmap.capacity_place.values():
        held = len(net.places[pid].initial)
        if held != event_capacity:
            raise ValueError(f"event capacity {event_capacity} does not match "
                             f"the net's capacity {held}")
    runner = NetRunner(net, tmap, model)
    steps: dict = {}

    def sides(pair) -> tuple[dict, dict]:
        return (_move_map(_machine_moves(model, pair[0], event_capacity, steps)),
                _move_map(runner.moves(pair[1])))
    start = (initial_configuration(model), runner.points.encode(runner.compiled.initial))
    return _walk_pairs(start, sides, depth, lambda point: repr(runner.points.decode(point)))


# ---------------------------------------------------------------------------
# Reporting helpers


def format_move(model: StateMachine, move) -> str:
    """One move in SMDL-flavoured text."""
    if move[0] == "inject":
        return f"inject {move[1]}"
    kind, event, behaviours, end = move
    parts = [f"on {event}" if event else "tau"]
    if behaviours:
        parts.append("/ " + ", ".join(behaviours))
    if kind == "stuck":
        parts.append(f"-> stuck ({end})")
    else:
        node = model.by_id.get(end)
        parts.append(f"-> {node.name if node else end}")
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
