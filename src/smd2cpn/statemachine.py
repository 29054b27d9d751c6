"""Domain types for hierarchical, non-concurrent state machines.

A machine is a forest of states (the implicit root region owns the
top-level states), a flat list of transitions referring to states by id,
and integer-valued global variables.  ``None`` stands for the root region
wherever a state reference is expected (parents, least common ancestors).

All types are immutable after construction and queries are pure, so models
can be shared freely between threads.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from functools import cached_property
from typing import Optional

from . import expr
from .expr import BoolExpr, IntExpr

SIMPLE = "simple"
COMPOSITE = "composite"
FINAL = "final"

#: keywords of the SMDL surface syntax; unusable as user-chosen names
KEYWORDS = frozenset({
    "machine", "var", "state", "final", "trans", "initial", "history",
    "entry", "exit", "do", "on", "if", "int", "and", "or", "not",
    "true", "false",
})

_IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*\Z")


def is_identifier(text: str) -> bool:
    return bool(_IDENT_RE.match(text)) and text not in KEYWORDS

#: history-memory value meaning "never visited / reset"; therefore reserved
#: as a child name inside history composites
NO_HISTORY = "NONE"


class UnknownStateError(KeyError):
    """A state reference does not resolve in the machine."""


class NotAnAncestorError(ValueError):
    """Chain query called with a boundary that does not enclose the state."""


@dataclass(frozen=True)
class Behaviour:
    """A named behaviour: a label plus an ordered assignment list.

    Assignments execute sequentially; later right-hand sides observe
    earlier updates.  Ids only disambiguate occurrences and do not take
    part in equality.
    """

    id: str = field(compare=False)
    label: str
    assignments: tuple[tuple[str, IntExpr], ...] = ()


@dataclass(frozen=True)
class StateNode:
    id: str
    name: str
    kind: str  # SIMPLE, COMPOSITE or FINAL
    parent: Optional[str] = None
    is_initial: bool = False
    entry: Optional[Behaviour] = None
    exit: Optional[Behaviour] = None
    do: Optional[Behaviour] = None
    has_history: bool = False


@dataclass(frozen=True)
class Transition:
    id: str
    source: str
    target: str
    to_history: bool = False  # target must be a composite with has_history
    trigger: Optional[str] = None
    guard: Optional[BoolExpr] = None
    effect: Optional[Behaviour] = None


@dataclass(frozen=True)
class Variable:
    name: str
    initial: int


def _behaviour_key(b: Optional[Behaviour]):
    return None if b is None else (b.label, b.assignments)


@dataclass(frozen=True, eq=False)
class StateMachine:
    """Equality is canonical: sibling/transition/variable declaration order
    does not matter, so a model survives a print/parse round trip.  The
    structural queries read `ancestor_paths`, an index built whole on first
    use, not the parent links."""

    name: str
    states: tuple[StateNode, ...] = ()
    transitions: tuple[Transition, ...] = ()
    variables: tuple[Variable, ...] = ()

    # -- derived indices ----------------------------------------------------

    @cached_property
    def by_id(self) -> dict[str, StateNode]:
        return {s.id: s for s in self.states}

    @cached_property
    def children(self) -> dict[Optional[str], tuple[StateNode, ...]]:
        """Direct children in document order, keyed by parent id (None = root)."""
        out: dict[Optional[str], list[StateNode]] = {None: []}
        for s in self.states:
            out.setdefault(s.id, [])
        for s in self.states:
            out.setdefault(s.parent, []).append(s)
        return {k: tuple(v) for k, v in out.items()}

    @cached_property
    def events(self) -> tuple[str, ...]:
        """Event alphabet: the sorted set of transition triggers."""
        return tuple(sorted({t.trigger for t in self.transitions if t.trigger}))

    @cached_property
    def transitions_by_id(self) -> dict[str, Transition]:
        return {t.id: t for t in self.transitions}

    @cached_property
    def transitions_from(self) -> dict[str, tuple[Transition, ...]]:
        """Outgoing transitions in declaration order, keyed by source id;
        a state without any is absent."""
        out: dict[str, list[Transition]] = {}
        for t in self.transitions:
            out.setdefault(t.source, []).append(t)
        return {k: tuple(v) for k, v in out.items()}

    @cached_property
    def document_position(self) -> dict[str, int]:
        return {s.id: i for i, s in enumerate(self.states)}

    def state(self, sid: str) -> StateNode:
        try:
            return self.by_id[sid]
        except KeyError:
            raise UnknownStateError(sid) from None

    def initial_valuation(self) -> dict[str, int]:
        return {v.name: v.initial for v in self.variables}

    # -- structural queries --------------------------------------------------

    @cached_property
    def ancestor_paths(self) -> dict[str, tuple[str, ...]]:
        """Each state's ancestors, innermost first, built whole from the
        parent links; a state whose links dangle or cycle is absent.  The
        children of one parent share one tuple, so a flat machine holds
        no tuple per state."""
        paths: dict[str, tuple[str, ...]] = {}
        parent_path: dict[Optional[str], tuple[str, ...]] = {None: ()}
        for s in self.states:
            trail, cur = {}, s.id
            while cur in self.by_id and cur not in paths and cur not in trail:
                trail[cur] = None
                cur = self.by_id[cur].parent
            if cur is None or cur in paths:
                for sid in reversed(trail):
                    parent = self.by_id[sid].parent
                    if parent not in parent_path:
                        parent_path[parent] = (parent,) + paths[parent]
                    paths[sid] = parent_path[parent]
        return paths

    def ancestors_or_self(self, sid: str) -> tuple[str, ...]:
        """Path from the state up to (excluding) the root region."""
        try:
            return (sid,) + self.ancestor_paths[sid]
        except KeyError:
            raise UnknownStateError(sid) from None

    def substates(self, sid: str) -> tuple[str, ...]:
        """All simple states in the subtree of `sid`, in document order.

        A simple state is its own (only) substate; final states never
        appear.  Linear in the subtree size.
        """
        node = self.state(sid)
        if node.kind == SIMPLE:
            return (node.id,)
        out: list[str] = []
        stack = [node.id]
        while stack:
            current = stack.pop()
            for child in self.children.get(current, ()):
                if child.kind == SIMPLE:
                    out.append(child.id)
                elif child.kind == COMPOSITE:
                    stack.append(child.id)
        out.sort(key=self.document_position.__getitem__)
        return tuple(out)

    def _up_to(self, boundary: str, sid: str) -> tuple[str, ...]:
        """Path from `sid` up to `boundary`, both included."""
        path = self.ancestors_or_self(sid)
        try:
            return path[: path.index(boundary) + 1]
        except ValueError:
            raise NotAnAncestorError(f"{boundary} does not enclose {sid}") from None

    def exit_chain(self, from_sid: str, boundary: str) -> tuple[Behaviour, ...]:
        """Exit behaviours on the way out, innermost first, boundary included."""
        nodes = map(self.by_id.__getitem__, self._up_to(boundary, from_sid))
        return tuple(node.exit for node in nodes if node.exit is not None)

    def entry_chain(self, boundary: str, to_sid: str) -> tuple[Behaviour, ...]:
        """Entry behaviours on the way in, outermost first, boundary included."""
        nodes = map(self.by_id.__getitem__, reversed(self._up_to(boundary, to_sid)))
        return tuple(node.entry for node in nodes if node.entry is not None)

    def lca(self, a: str, b: str) -> Optional[str]:
        """Deepest state enclosing both (or being one of) `a` and `b`;
        None when only the root region does."""
        on_a = set(self.ancestors_or_self(a))
        for sid in self.ancestors_or_self(b):
            if sid in on_a:
                return sid
        return None

    def child_of_containing(self, outer: Optional[str], inner: str) -> str:
        """The direct child of `outer` whose subtree contains `inner`."""
        path = self.ancestors_or_self(inner)
        if outer is None:
            return path[-1]
        idx = path.index(outer)
        if idx == 0:
            raise NotAnAncestorError(f"{outer} is not a strict ancestor of {inner}")
        return path[idx - 1]

    # -- transition semantics -------------------------------------------------

    def is_completion(self, t: Transition) -> bool:
        """Triggerless transition out of a composite whose region has a
        final state: it fires once that region has completed."""
        return (t.trigger is None and self.state(t.source).kind == COMPOSITE
                and self.final_child_of(t.source) is not None)

    def boundaries(self, t: Transition) -> tuple[str, str]:
        """Exit / entry boundary states of the transition (both inclusive).

        Incomparable source and target: the children of their least common
        ancestor.  Ancestor-related (including self-transitions): the outer
        state itself is exited and re-entered.
        """
        scope = self.lca(t.source, t.target)
        if scope == t.source or scope == t.target:
            return scope, scope
        return (self.child_of_containing(scope, t.source),
                self.child_of_containing(scope, t.target))

    def default_configuration(self, sid: Optional[str]) -> str:
        """The leaf a step into `sid` (None = root region) lands on: follow
        initial children down to a simple state.  A final state is its own
        leaf, where its completed region rests."""
        current = sid
        while True:
            if current is not None and self.state(current).kind in (SIMPLE, FINAL):
                return current
            marked = [c for c in self.children.get(current, ()) if c.is_initial]
            if len(marked) != 1 or marked[0].kind == FINAL:
                owner = current if current is not None else "<root>"
                raise ValueError(f"no usable initial state under {owner}")
            current = marked[0].id

    def history_writes(self, leaf: str, boundary: str) -> list[tuple[str, str]]:
        """(composite, memory) for each history composite exited on the way
        out from `leaf` through `boundary`, innermost first: the name of the
        child it was active in, or NO_HISTORY where its region had completed."""
        nodes = [self.by_id[sid] for sid in self._up_to(boundary, leaf)]
        return [(outer.id, NO_HISTORY if inner.kind == FINAL else inner.name)
                for inner, outer in zip(nodes, nodes[1:]) if outer.has_history]

    def resumed(self, composite: str, memory: str) -> tuple[str, str]:
        """(child re-entered, leaf landed on) where a history target resumes
        `composite` holding `memory`: the named child at its default leaf,
        or for NO_HISTORY the composite's default configuration."""
        if memory == NO_HISTORY:
            leaf = self.default_configuration(composite)
            return self.child_of_containing(composite, leaf), leaf
        child = next(c.id for c in self.children[composite] if c.name == memory)
        return child, self.default_configuration(child)

    def final_child_of(self, owner: Optional[str]) -> Optional[str]:
        for child in self.children.get(owner, ()):
            if child.kind == FINAL:
                return child.id
        return None

    # -- canonical equality ---------------------------------------------------

    def _normal_ref(self, sid: Optional[str]) -> str:
        """State references compared by name; final states carry synthesised
        ids, so references to them become 'final of <parent name>'."""
        if sid is None:
            return "<root>"
        node = self.by_id.get(sid)
        if node is None:
            return f"<dangling {sid}>"
        if node.kind == FINAL:
            return f"<final of {self._normal_ref(node.parent)}>"
        return node.name

    def canonical_key(self):
        state_keys = tuple(sorted(
            (self._normal_ref(s.id), s.kind, self._normal_ref(s.parent),
             s.is_initial, s.has_history, repr(_behaviour_key(s.entry)),
             repr(_behaviour_key(s.exit)), repr(_behaviour_key(s.do)))
            for s in self.states
        ))
        trans_keys = tuple(sorted(
            (t.id, self._normal_ref(t.source), self._normal_ref(t.target),
             t.to_history, t.trigger or "", repr(t.guard), repr(_behaviour_key(t.effect)))
            for t in self.transitions
        ))
        var_keys = tuple(sorted((v.name, v.initial) for v in self.variables))
        return (self.name, state_keys, trans_keys, var_keys)

    def __eq__(self, other):
        if not isinstance(other, StateMachine):
            return NotImplemented
        return self.canonical_key() == other.canonical_key()

    def __hash__(self):
        return hash(self.canonical_key())


# ---------------------------------------------------------------------------
# Validation


@dataclass(frozen=True)
class Violation:
    code: str
    element: str
    message: str

    def __str__(self):
        return f"{self.code}: {self.message} [{self.element}]"


@dataclass
class ValidationReport:
    violations: list[Violation] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations

    def add(self, code: str, element: str, message: str):
        self.violations.append(Violation(code, element, message))

    def __str__(self):
        if self.ok:
            return "model is well-formed"
        return "\n".join(str(v) for v in self.violations)


def _check_behaviour(report, owner, role, b, declared):
    if b is None:
        return
    if not is_identifier(b.label):
        report.add("bad-identifier", owner,
                   f"{role} behaviour label {b.label!r} is not a plain identifier")
    for var, rhs in b.assignments:
        if var not in declared:
            report.add("undeclared-variable", owner,
                       f"{role} behaviour {b.label!r} assigns undeclared variable {var!r}")
        for read in expr.variables_of(rhs):
            if read not in declared:
                report.add("undeclared-variable", owner,
                           f"{role} behaviour {b.label!r} reads undeclared variable {read!r}")


def validate(model: StateMachine) -> ValidationReport:
    """Check every structural invariant; the report lists all violations.

    Works on arbitrary (possibly broken) models: structural checks guard
    each other, so a single defect yields one focused violation rather
    than a crash.
    """
    report = ValidationReport()
    ids = [s.id for s in model.states]
    id_set = set(ids)

    seen: set[str] = set()
    for s in model.states:
        if s.id in seen:
            report.add("duplicate-id", s.id, f"state id {s.id!r} declared twice")
        seen.add(s.id)
    names_seen: set[str] = set()
    for s in model.states:
        if s.name in names_seen:
            report.add("duplicate-name", s.id, f"state name {s.name!r} is not unique")
        names_seen.add(s.name)

    # parent references and acyclicity
    forest_ok = True
    for s in model.states:
        if s.parent is not None and s.parent not in id_set:
            report.add("unknown-parent", s.id, f"parent {s.parent!r} does not exist")
            forest_ok = False
    if forest_ok:  # every parent exists, so a state lacks a path only in a cycle
        looped = next((s.id for s in model.states if s.id not in model.ancestor_paths), None)
        if looped is not None:
            report.add("parent-cycle", looped, "parent chain forms a cycle")
            forest_ok = False
    if not forest_ok:
        return report  # the tree queries below need a real forest

    declared = {v.name for v in model.variables}
    var_seen: set[str] = set()
    for v in model.variables:
        if v.name in var_seen:
            report.add("duplicate-variable", v.name, f"variable {v.name!r} declared twice")
        var_seen.add(v.name)
        if not is_identifier(v.name):
            report.add("bad-identifier", v.name,
                       f"variable name {v.name!r} is not a plain identifier")
    if not is_identifier(model.name):
        report.add("bad-identifier", model.name,
                   f"machine name {model.name!r} is not a plain identifier")

    for s in model.states:
        children = model.children[s.id]
        if s.kind == SIMPLE and children:
            report.add("simple-with-children", s.id, "simple state has child states")
        if s.kind == COMPOSITE and not children:
            report.add("childless-composite", s.id, "composite state has no children")
        if s.kind == FINAL:
            if children:
                report.add("final-with-children", s.id, "final state has child states")
            if s.entry or s.exit or s.do:
                report.add("final-with-behaviour", s.id, "final state declares behaviours")
            if s.has_history:
                report.add("history-on-final", s.id, "final state marked as history holder")
        if s.kind not in (SIMPLE, COMPOSITE, FINAL):
            report.add("bad-kind", s.id, f"unknown state kind {s.kind!r}")
        if s.kind != FINAL and not is_identifier(s.name):
            report.add("bad-identifier", s.id,
                       f"state name {s.name!r} is not a plain identifier")
        if s.has_history and s.kind == SIMPLE:
            report.add("history-on-simple", s.id, "only composites can hold history")
        if s.has_history:
            for child in model.children[s.id]:
                if child.name == NO_HISTORY:
                    report.add("reserved-name", child.id,
                               f"{NO_HISTORY!r} is reserved inside history composite {s.name!r}")
        _check_behaviour(report, s.id, "entry", s.entry, declared)
        _check_behaviour(report, s.id, "exit", s.exit, declared)
        _check_behaviour(report, s.id, "do", s.do, declared)

    # one initial, at most one final, per region; a childless composite is reported above
    regions: list[Optional[str]] = [None] + [s.id for s in model.states
                                             if s.kind == COMPOSITE and model.children[s.id]]
    for region in regions:
        children = model.children[region]
        owner = region if region is not None else "<root>"
        initials = [c for c in children if c.is_initial]
        if len(initials) != 1:
            report.add("initial-count", owner,
                       f"region must contain exactly one initial state, found {len(initials)}")
        elif initials[0].kind == FINAL:
            report.add("initial-is-final", owner, "the initial state of a region is final")
        finals = [c for c in children if c.kind == FINAL]
        if len(finals) > 1:
            report.add("multiple-finals", owner, "region contains more than one final state")

    # SMDL spells the root region's final `<machine>.F`, unless a state has that name
    shadowed = any(s.kind != FINAL and s.name == model.name for s in model.states)
    trans_seen: set[str] = set()
    for t in model.transitions:
        if t.id in trans_seen:
            report.add("duplicate-transition-id", t.id, f"transition id {t.id!r} declared twice")
        trans_seen.add(t.id)
        if not is_identifier(t.id):
            report.add("bad-identifier", t.id,
                       f"transition id {t.id!r} is not a plain identifier")
        if t.trigger is not None and not is_identifier(t.trigger):
            report.add("bad-identifier", t.id,
                       f"trigger {t.trigger!r} is not a plain identifier")
        if t.source not in id_set:
            report.add("unknown-source", t.id, f"source {t.source!r} does not exist")
        elif model.by_id[t.source].kind == FINAL:
            report.add("final-with-outgoing", t.id,
                       "transition sources a final state (completion transitions "
                       "source the enclosing composite)")
        if t.target not in id_set:
            report.add("unknown-target", t.id, f"target {t.target!r} does not exist")
        else:
            target = model.by_id[t.target]
            if t.to_history and not (target.kind == COMPOSITE and target.has_history):
                report.add("bad-history-target", t.id,
                           f"history target {t.target!r} is not a composite with history")
            if shadowed and target.kind == FINAL and target.parent is None:
                report.add("shadowed-final", t.id, f"target {model.name}.F would name "
                           f"the final state of state {model.name!r}, not the root's")
        if t.guard is not None:
            for read in expr.variables_of(t.guard):
                if read not in declared:
                    report.add("undeclared-variable", t.id,
                               f"guard reads undeclared variable {read!r}")
        _check_behaviour(report, t.id, "effect", t.effect, declared)

    return report
