"""State machine to coloured net translation.

Three passes: states (places, do self-loops, event plumbing), transitions
(dispatches and behaviour chains), and history pseudostates (restore fans).
Pass 2 lays each model transition in one loop body, reading the
`StateMachine` queries `boundaries`, `is_completion`, `exit_chain`,
`entry_chain` and `history_writes` directly; pass 3 lays a restore arm per
value of a history place's colour, landing where `resumed` says.  The
interpreter in `oracle` reads the same queries.  Passes 2 and 3 lay every
behaviour chain with `_wire_chain`, which creates each behaviour
occurrence and its in-flight place as it wires them, closes the chain onto
the end place it is given and returns the place the chain starts at.
A TranslationMap records what every model element became, so later tooling
(equivalence checking, safety analysis) never reverse-engineers generated
ids.

Generated id scheme:
  P_<stateName>                 activity place of a simple state
  P_<name>__F / P_<name>__H     final / history place of a composite
  P_VARS, P_EVENTS, P_cap_<e>   variable vector, event pool, pool capacity
  T_<t>__from_<x>               dispatch for source substate x
  T_<t>__completion             dispatch consuming the source's final place
  P_<t>_k, T_<t>_beh_k          shared in-flight places / behaviour occurrences
  P_<t>__from_<x>_k, T_<t>__from_<x>_beh_k   per-substate exit prefixes
  P_<t>_hist, T_<t>_restore_<k>             history restore fan
  P_<t>_restore_<k>_j, T_<t>_restore_<k>_beh_j   restore arm chains
  T_env_<e>, T_do_<state>[__at_<x>]          event producer, do self-loop
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from . import expr as ex
from .net import (
    UNIT_TOKEN, ColouredNet, EnumCS, IntCS, Lit, PlaceDef, ProductCS, TransDef,
    Tup, UnitCS, Var, PTOT, TTOP, normalise_out,
)
from .statemachine import (
    COMPOSITE, FINAL, NO_HISTORY, SIMPLE,
    Behaviour, StateMachine, ValidationReport, validate,
)

# The most nodes one composed update may have.  Composing sequential
# assignments by substitution can double the update with each one
# (`x := x + x`), and the checks and writers walk it as a tree
MAX_UPDATE_NODES = 10_000


class ModelInvalidError(ValueError):
    def __init__(self, report):
        self.report = report
        super().__init__(str(report))


@dataclass(frozen=True)
class TranslationConfig:
    #: environment-injectable tokens per event (closed-world analysis)
    event_capacity: int = 1

    def __post_init__(self):
        if self.event_capacity < 1:
            raise ValueError("event capacity must be at least 1")


@dataclass
class TranslationMap:
    """Where every model element went in the generated net."""

    state_place: dict[str, str] = field(default_factory=dict)    # simple state -> place
    final_place: dict[Optional[str], str] = field(default_factory=dict)  # region owner -> ^F
    history_place: dict[str, str] = field(default_factory=dict)  # composite -> ^H
    behaviour_trans: dict[tuple, str] = field(default_factory=dict)  # occurrence -> transition
    transition_subnet: dict[str, list[str]] = field(default_factory=dict)  # SMD trans -> nodes
    dispatch: dict[str, str] = field(default_factory=dict)       # net transition -> SMD trans
    producer: dict[str, str] = field(default_factory=dict)       # net transition -> event
    do_loop: dict[str, tuple[str, str]] = field(default_factory=dict)  # net trans -> (state, at)
    capacity_place: dict[str, str] = field(default_factory=dict)  # event -> place
    inflight: list[str] = field(default_factory=list)  # in-flight places, in creation order
    vars_place: Optional[str] = None
    events_place: Optional[str] = None

    def control_places(self) -> set[str]:
        """Places whose total token count is the single locus of control."""
        return {*self.state_place.values(), *self.final_place.values(), *self.inflight}


# ---------------------------------------------------------------------------
# Pass 1: states


def translate_states(model: StateMachine, config: TranslationConfig,
                     tmap: TranslationMap) -> ColouredNet:
    """Build places, colours, event plumbing and do self-loops; the
    behaviour occurrences come with their chains in passes 2 and 3."""
    net = ColouredNet(name=model.name)
    net.colours["UNIT"] = UnitCS()

    initial_leaf = model.default_configuration(None)
    for s in model.states:
        if s.kind == SIMPLE:
            pid = f"P_{s.name}"
            marking = (UNIT_TOKEN,) if s.id == initial_leaf else ()
            net.add_place(PlaceDef(pid, s.name, "UNIT", marking))
            tmap.state_place[s.id] = pid

    regions = [None] + [s.id for s in model.states if s.kind == COMPOSITE]
    for owner in regions:
        if model.final_child_of(owner) is None:
            continue
        name = model.by_id[owner].name if owner is not None else ""
        pid = f"P_{name}__F"
        net.add_place(PlaceDef(pid, f"{name}^F", "UNIT", ()))
        tmap.final_place[owner] = pid

    for s in model.states:
        if s.has_history:
            colour_name = f"HIST_{s.name}"
            values = tuple(c.name for c in model.children[s.id] if c.kind != FINAL)
            net.colours[colour_name] = EnumCS(values + (NO_HISTORY,))
            pid = f"P_{s.name}__H"
            net.add_place(PlaceDef(pid, f"{s.name}^H", colour_name, (NO_HISTORY,)))
            tmap.history_place[s.id] = pid

    if model.variables:
        net.colours["INT"] = IntCS()
        net.colours["VARS"] = ProductCS(tuple(IntCS() for _ in model.variables))
        token = tuple(v.initial for v in model.variables)
        net.add_place(PlaceDef("P_VARS", "VARS", "VARS", (token,)))
        tmap.vars_place = "P_VARS"

    if model.events:
        net.colours["EVENT"] = EnumCS(model.events)
        net.add_place(PlaceDef("P_EVENTS", "EVENTS", "EVENT", ()))
        tmap.events_place = "P_EVENTS"
        for event in model.events:
            cap = f"P_cap_{event}"
            net.add_place(PlaceDef(cap, f"cap {event}", "UNIT",
                                   (UNIT_TOKEN,) * config.event_capacity))
            tmap.capacity_place[event] = cap
            producer = f"T_env_{event}"
            net.add_transition(TransDef(producer, f"emit {event}"))
            net.add_arc(cap, producer, PTOT, Lit(UNIT_TOKEN))
            net.add_arc("P_EVENTS", producer, TTOP, Lit(event))
            tmap.producer[producer] = event

    var_order = [v.name for v in model.variables]
    for s in model.states:
        if s.do is None:
            continue
        for x in model.substates(s.id):
            tid = f"T_do_{s.name}" if x == s.id else f"T_do_{s.name}__at_{x}"
            net.add_transition(TransDef(tid, s.do.label))
            place = tmap.state_place[x]
            net.add_arc(place, tid, PTOT, Lit(UNIT_TOKEN))
            net.add_arc(place, tid, TTOP, Lit(UNIT_TOKEN))
            _wire_assignments(net, tid, s.do, var_order, tmap)
            tmap.do_loop[tid] = (s.id, x)

    return net


def _wire_assignments(net: ColouredNet, tid: str, behaviour: Behaviour,
                      var_order: list[str], tmap: TranslationMap):
    """VARS read/write arcs realising the behaviour's sequential assignments
    as one simultaneous rewrite (composed by substitution).  Raises
    ModelInvalidError, before any arc is made, when an update would have
    more than MAX_UPDATE_NODES nodes."""
    if not behaviour.assignments:
        return
    acc: dict[str, ex.IntExpr] = {v: ex.VarRead(f"v_{v}") for v in var_order}
    size = dict.fromkeys(var_order, 1)  # nodes of acc[v] written out as a tree
    for var, rhs in behaviour.assignments:
        size[var] = _composed_size(rhs, size)
        if size[var] > MAX_UPDATE_NODES:
            report = ValidationReport()
            report.add("update-too-large", behaviour.id,
                       f"behaviour {behaviour.label!r} composes its assignments into "
                       f"a {size[var]}-node update of {var!r}, more than {MAX_UPDATE_NODES}")
            raise ModelInvalidError(report)
        acc[var] = ex.substitute(rhs, dict(acc))
    net.add_arc(tmap.vars_place, tid, PTOT,
                Tup(tuple(Var(f"v_{v}") for v in var_order)))
    net.add_arc(tmap.vars_place, tid, TTOP,
                Tup(tuple(normalise_out(acc[v]) for v in var_order)))


def _composed_size(rhs: ex.IntExpr, size: dict[str, int]) -> int:
    """Nodes of `rhs` once every variable v it reads is replaced by an
    update of `size[v]` nodes."""
    if isinstance(rhs, ex.VarRead):
        return size[rhs.name]
    if isinstance(rhs, ex.BinOp):
        return 1 + _composed_size(rhs.left, size) + _composed_size(rhs.right, size)
    return 1


# ---------------------------------------------------------------------------
# Pass 2: transitions


def translate_transitions(model: StateMachine, net: ColouredNet,
                          tmap: TranslationMap) -> ColouredNet:
    """Dispatch transitions and the behaviour chains they start.  Each
    transition gets a dispatch per source: every substate of its source,
    or for a completion the region's final state.  With one source, exits,
    effect and entries form one shared chain; with several, each dispatch
    first runs its own source's exits."""
    var_order = [v.name for v in model.variables]
    renaming = {v: f"v_{v}" for v in var_order}
    vector = Tup(tuple(Var(f"v_{v}") for v in var_order))
    for t in model.transitions:
        eb, nb = model.boundaries(t)
        completion = model.is_completion(t)
        sources = ([model.final_child_of(t.source)] if completion
                   else model.substates(t.source))
        if t.to_history:
            leaf, end = t.target, f"P_{t.id}_hist"
        else:  # a simple leaf's place, or a final state's region's place
            leaf = model.default_configuration(t.target)
            end = tmap.state_place.get(leaf) or tmap.final_place[model.state(leaf).parent]
        effect = (t.effect,) if t.effect is not None else ()
        shared = effect + model.entry_chain(nb, leaf)
        if len(sources) == 1:
            shared = model.exit_chain(sources[0], eb) + shared
        nodes = tmap.transition_subnet.setdefault(t.id, [])
        tail = _wire_chain(net, tmap, nodes, shared, t.id, f"{t.id}#",
                           (t.id, "chain"), var_order, end)
        if t.to_history:  # after the chain's places; pass 3's restore fan consumes it
            net.add_place(PlaceDef(end, f"{t.id}#hist", "UNIT", ()))
            tmap.inflight.append(end)
            nodes.append(end)
        guard = None if t.guard is None else ex.rename_variables(t.guard, renaming)

        for x in sources:
            if completion:
                tid, name = f"T_{t.id}__completion", f"{t.id} completion"
                control = tmap.final_place[t.source]
            else:
                tid = f"T_{t.id}__from_{x}"
                name = t.id if len(sources) == 1 else f"{t.id} from {x}"
                control = tmap.state_place[x]
            net.add_transition(TransDef(tid, name, guard=guard))
            tmap.dispatch[tid] = t.id
            nodes.append(tid)
            net.add_arc(control, tid, PTOT, Lit(UNIT_TOKEN))
            if t.trigger is not None:
                net.add_arc(tmap.events_place, tid, PTOT, Lit(t.trigger))
                net.add_arc(tmap.capacity_place[t.trigger], tid, TTOP, Lit(UNIT_TOKEN))
            if guard is not None:
                # the guard reads the variable vector and puts it back unchanged
                net.add_arc(tmap.vars_place, tid, PTOT, vector)
                net.add_arc(tmap.vars_place, tid, TTOP, vector)
            for composite, value in model.history_writes(x, eb):
                hp = tmap.history_place[composite]
                net.add_arc(hp, tid, PTOT, Var(f"h_{composite}"))
                net.add_arc(hp, tid, TTOP, Lit(value))
            # dispatch -> exit behaviours of x, if split off -> shared tail
            prefix = model.exit_chain(x, eb) if len(sources) > 1 else ()
            start = _wire_chain(net, tmap, nodes, prefix, f"{t.id}__from_{x}",
                                f"{t.id}:{x}#", (t.id, "from", x), var_order, tail)
            net.add_arc(start, tid, TTOP, Lit(UNIT_TOKEN))
    return net


def _wire_chain(net: ColouredNet, tmap: TranslationMap, nodes: list[str],
                behaviours: tuple[Behaviour, ...], stem: str, name_stem: str,
                key: tuple, var_order: list[str], end: str) -> str:
    """Lay the behaviours as a chain onto the place `end`: behaviour k
    becomes the occurrence `T_<stem>_beh_<k>` (recorded under `key + (k,)`),
    which consumes from the fresh in-flight place `P_<stem>_<k>` that its
    predecessor feeds, and the last one feeds `end`.  Returns the place the
    chain starts at, `end` itself for an empty chain."""
    start = last = None
    for k, b in enumerate(behaviours):
        pid, tid = f"P_{stem}_{k}", f"T_{stem}_beh_{k}"
        net.add_place(PlaceDef(pid, f"{name_stem}{k}", "UNIT", ()))
        net.add_transition(TransDef(tid, b.label))
        tmap.inflight.append(pid)
        tmap.behaviour_trans[key + (k,)] = tid
        nodes.extend((pid, tid))
        net.add_arc(pid, tid, PTOT, Lit(UNIT_TOKEN))
        _wire_assignments(net, tid, b, var_order, tmap)
        if last is None:
            start = pid
        else:
            net.add_arc(pid, last, TTOP, Lit(UNIT_TOKEN))
        last = tid
    if last is None:
        return end
    net.add_arc(end, last, TTOP, Lit(UNIT_TOKEN))
    return start


# ---------------------------------------------------------------------------
# Pass 3: history pseudostates


def translate_history(model: StateMachine, net: ColouredNet,
                      tmap: TranslationMap) -> ColouredNet:
    """Restore fans: transitions targeting <c>.H pick the re-entered child
    from the ^H token, one arm per value of the place's colour, resumed as
    `StateMachine.resumed` says (NONE at the default configuration)."""
    var_order = [v.name for v in model.variables]
    for t in model.transitions:
        if not t.to_history:
            continue
        composite = t.target
        hist_place = tmap.history_place[composite]
        pre = f"P_{t.id}_hist"
        nodes = tmap.transition_subnet.setdefault(t.id, [])
        for value in net.colours[net.places[hist_place].colour].values:
            start, leaf = model.resumed(composite, value)
            rid = f"T_{t.id}_restore_{value}"
            label = "default" if value == NO_HISTORY else value
            net.add_transition(TransDef(rid, f"{t.id} resume {label}"))
            nodes.append(rid)
            net.add_arc(pre, rid, PTOT, Lit(UNIT_TOKEN))
            net.add_arc(hist_place, rid, PTOT, Lit(value))
            net.add_arc(hist_place, rid, TTOP, Lit(value))
            first = _wire_chain(net, tmap, nodes, model.entry_chain(start, leaf),
                                f"{t.id}_restore_{value}", f"{t.id}:{label}#",
                                (t.id, "restore", value), var_order, tmap.state_place[leaf])
            net.add_arc(first, rid, TTOP, Lit(UNIT_TOKEN))
    return net


# ---------------------------------------------------------------------------


def translate(model: StateMachine,
              config: Optional[TranslationConfig] = None
              ) -> tuple[ColouredNet, TranslationMap]:
    """Full pipeline.  Deterministic: equal models yield identical nets,
    ids included.  Polynomial in the model size."""
    report = validate(model)
    if not report.ok:
        raise ModelInvalidError(report)
    config = config or TranslationConfig()
    tmap = TranslationMap()
    net = translate_states(model, config, tmap)
    net = translate_transitions(model, net, tmap)
    net = translate_history(model, net, tmap)
    net.check()
    return net, tmap
