"""Random and synthetic machine builders plus brute-force tree oracles.

The brute-force functions deliberately take the dumbest correct path
(walking parent links, filtering the full state list) so they stay
independent of the indexed implementations they check.
"""

from __future__ import annotations

import random

from smd2cpn import expr as ex
from smd2cpn.statemachine import (
    COMPOSITE, FINAL, SIMPLE,
    Behaviour, StateMachine, StateNode, Transition, Variable,
)


def random_machine(rng: random.Random, max_states: int = 50,
                   all_chained: bool = False) -> StateMachine:
    """A random well-formed hierarchy (no transitions; query-test fodder).

    all_chained gives every named state both an entry and an exit
    behaviour, for the chain-symmetry property.
    """
    count = rng.randint(1, max_states)
    names = [f"S{i}" for i in range(count)]
    parents: dict[str, str | None] = {}
    for i, name in enumerate(names):
        parents[name] = None if i == 0 else rng.choice([None] + names[:i])
    children: dict[str | None, list[str]] = {}
    for name in names:
        children.setdefault(parents[name], []).append(name)

    def behaviours(name):
        if all_chained:
            return (Behaviour(f"{name}.entry", f"en_{name}"),
                    Behaviour(f"{name}.exit", f"ex_{name}"))
        entry = (Behaviour(f"{name}.entry", f"en_{name}")
                 if rng.random() < 0.4 else None)
        exit_ = (Behaviour(f"{name}.exit", f"ex_{name}")
                 if rng.random() < 0.4 else None)
        return entry, exit_

    states = []
    for name in names:
        kind = COMPOSITE if children.get(name) else SIMPLE
        entry, exit_ = behaviours(name)
        has_history = kind == COMPOSITE and rng.random() < 0.3
        states.append(StateNode(id=name, name=name, kind=kind,
                                parent=parents[name], entry=entry, exit=exit_,
                                has_history=has_history))

    # exactly one initial (non-final) child per region, occasional finals
    by_id = {s.id: s for s in states}
    for region in [None] + [s.id for s in states if s.kind == COMPOSITE]:
        kids = children.get(region, [])
        chosen = rng.choice(kids)
        by_id[chosen] = _with_initial(by_id[chosen])
        if region is not None and rng.random() < 0.25:
            fid = f"{region}.final"
            by_id[fid] = StateNode(id=fid, name=fid, kind=FINAL, parent=region)
    ordered = [by_id[s.id] for s in states]
    ordered += [s for sid, s in by_id.items() if s.kind == FINAL]
    return StateMachine(name="R", states=tuple(ordered))


def random_transition_machine(rng: random.Random) -> StateMachine:
    """A `random_machine` hierarchy of at most 8 states over one variable
    x, with 1 to 6 transitions.  Each has trigger a, b or none (none out of
    a composite with a final state makes a completion transition), maybe a
    guard over x and maybe the effect x := 1 - x; targets are any named
    state, which makes cross-level transitions, and sometimes a history
    composite or a final state."""
    hierarchy = random_machine(rng, max_states=8)
    named = [s.id for s in hierarchy.states if s.kind != FINAL]
    finals = [s.id for s in hierarchy.states if s.kind == FINAL]
    historied = [s.id for s in hierarchy.states if s.has_history]
    flip = (("x", ex.BinOp("-", ex.IntLit(1), ex.VarRead("x"))),)
    transitions = []
    for i in range(rng.randint(1, 6)):
        roll = rng.random()
        if historied and roll < 0.2:
            target, to_history = rng.choice(historied), True
        elif finals and roll < 0.4:
            target, to_history = rng.choice(finals), False
        else:
            target, to_history = rng.choice(named), False
        guard = (ex.Cmp("=", ex.VarRead("x"), ex.IntLit(rng.randint(0, 1)))
                 if rng.random() < 0.4 else None)
        effect = Behaviour(f"t{i}.effect", "flip", flip) if rng.random() < 0.5 else None
        transitions.append(Transition(
            id=f"t{i}", source=rng.choice(named), target=target, to_history=to_history,
            trigger=rng.choice(["a", "b", None]), guard=guard, effect=effect))
    return StateMachine(name="R", states=hierarchy.states,
                        transitions=tuple(transitions), variables=(Variable("x", 0),))


def _with_initial(node: StateNode) -> StateNode:
    return StateNode(id=node.id, name=node.name, kind=node.kind,
                     parent=node.parent, is_initial=True, entry=node.entry,
                     exit=node.exit, do=node.do, has_history=node.has_history)


def balanced_machine(depth: int, branching: int,
                     with_behaviours: bool = True,
                     with_transitions: bool = True) -> StateMachine:
    """Complete tree of the given depth; leaves form an event-driven chain."""
    states: list[StateNode] = []

    def build(prefix: str, parent, level: int, initial: bool):
        name = prefix
        if level == depth:
            states.append(StateNode(id=name, name=name, kind=SIMPLE,
                                    parent=parent, is_initial=initial))
            return
        entry = Behaviour(f"{name}.entry", f"en{name}") if with_behaviours else None
        exit_ = Behaviour(f"{name}.exit", f"ex{name}") if with_behaviours else None
        states.append(StateNode(id=name, name=name, kind=COMPOSITE,
                                parent=parent, is_initial=initial,
                                entry=entry, exit=exit_))
        for b in range(branching):
            build(f"{name}_{b}", name, level + 1, b == 0)

    build("N", None, 0, True)
    machine = StateMachine(name="Big", states=tuple(states))
    if not with_transitions:
        return machine
    leaves = [s.id for s in states if s.kind == SIMPLE]
    transitions = tuple(
        Transition(id=f"t{i}", source=leaves[i], target=leaves[i + 1], trigger="step")
        for i in range(len(leaves) - 1))
    return StateMachine(name="Big", states=tuple(states), transitions=transitions)


def chain_machine(length: int) -> StateMachine:
    """Flat chain of simple states linked by one event."""
    states = tuple(StateNode(id=f"C{i}", name=f"C{i}", kind=SIMPLE,
                             parent=None, is_initial=(i == 0))
                   for i in range(length))
    transitions = tuple(Transition(id=f"t{i}", source=f"C{i}", target=f"C{i+1}",
                                   trigger="step")
                        for i in range(length - 1))
    return StateMachine(name="Chain", states=states, transitions=transitions)


def doubling_smdl(repeats: int) -> str:
    """SMDL text of one behaviour of `repeats` sequential `x := x + x`,
    whose composed update has 2**(repeats + 1) - 1 nodes."""
    assignments = ", ".join(["x := x + x"] * repeats)
    return ("machine M {\n  var x : int = 1 ;\n  state S initial ;\n  state T ;\n"
            f"  trans t : S -> T on go / B {{ {assignments} }} ;\n}}\n")


# ---------------------------------------------------------------------------
# Brute-force oracles


def bf_ancestors_or_self(model: StateMachine, sid: str) -> list[str]:
    path = []
    cur = sid
    while cur is not None:
        path.append(cur)
        cur = next(s.parent for s in model.states if s.id == cur)
    return path


def bf_is_ancestor_or_self(model, outer, inner) -> bool:
    return outer is None or outer in bf_ancestors_or_self(model, inner)


def bf_substates(model: StateMachine, sid: str) -> tuple[str, ...]:
    return tuple(s.id for s in model.states
                 if s.kind == SIMPLE and bf_is_ancestor_or_self(model, sid, s.id))


def bf_exit_chain(model, from_sid, boundary):
    labels = []
    for sid in bf_ancestors_or_self(model, from_sid):
        node = next(s for s in model.states if s.id == sid)
        if node.exit is not None:
            labels.append(node.exit)
        if sid == boundary:
            return tuple(labels)
    raise AssertionError("boundary not on the path")


def bf_entry_chain(model, boundary, to_sid):
    path = bf_ancestors_or_self(model, to_sid)
    assert boundary in path
    path = list(reversed(path[: path.index(boundary) + 1]))
    out = []
    for sid in path:
        node = next(s for s in model.states if s.id == sid)
        if node.entry is not None:
            out.append(node.entry)
    return tuple(out)


def bf_lca(model, a, b):
    common = (set(bf_ancestors_or_self(model, a))
              & set(bf_ancestors_or_self(model, b)))
    if not common:
        return None
    return max(common, key=lambda sid: len(bf_ancestors_or_self(model, sid)))
