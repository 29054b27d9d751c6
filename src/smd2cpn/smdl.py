"""SMDL: the plain-text input syntax for state machines.

    machine M {
      var track : int = 1 ;
      state Busy initial history entry FTS {
        state PLAYING initial do Play ;
        state PAUSED ;
        final ;
      } ;
      trans t1 : PLAYING -> PAUSED on pause if ( track < 3 ) / Skip { track := track + 1 } ;
      trans t2 : PAUSED -> Busy.H on resume ;
    }

`X.H` targets the history pseudostate of composite X; `X.F` targets the
final state of region X (the machine name addresses the root region unless a
state carries that name).
Comments run from `#` to end of line.  Printing is canonical: stable
ordering, two-space indentation, byte-identical for equal models.
"""

from __future__ import annotations

from dataclasses import replace

from . import expr
from .statemachine import (
    COMPOSITE, FINAL, KEYWORDS, SIMPLE,
    Behaviour, StateMachine, StateNode, Transition, Variable,
)


class SmdlSyntaxError(ValueError):
    """Parse failure with 1-based position and the tokens that were legal."""

    def __init__(self, message: str, line: int, column: int, expected=()):
        self.line = line
        self.column = column
        self.expected = tuple(expected)
        suffix = ""
        if self.expected:
            suffix = " (expected " + " or ".join(repr(e) for e in self.expected) + ")"
        super().__init__(f"line {line}, column {column}: {message}{suffix}")


def tokenize(text: str):
    """(kind, text, (line, col)) tuples from the shared lexer in the SMDL
    dialect, keywords marked as kind kw; the list ends with an eof token."""
    try:
        tokens = expr.tokenize(text, "smdl")
    except expr.ExprSyntaxError as err:
        raise _positioned(err) from None
    for i, (_, word, pos) in enumerate(tokens):
        if word in KEYWORDS:  # only identifiers can spell a keyword
            tokens[i] = ("kw", word, pos)
    return tokens


def _positioned(err: expr.ExprSyntaxError) -> SmdlSyntaxError:
    line, col = err.pos
    return SmdlSyntaxError(err.message, line, col, err.expected)


class _Parser(expr.TokenStream):
    """The SMDL grammar over a token stream; expressions are read by
    expr.parse_bool and expr.parse_int on the same stream."""

    def __init__(self, text: str):
        super().__init__(tokenize(text), "smdl")

    # -- grammar -------------------------------------------------------------

    def machine(self) -> StateMachine:
        self.expect("machine")
        name = self.take("ident", "machine name")
        self.expect("{")
        states: list[StateNode] = []
        transitions: list[Transition] = []
        variables: list[Variable] = []
        self.region_items(None, "", states, transitions, variables, top=True)
        self.expect("}")
        self.expect_end()
        if all(s.id != name for s in states):  # `name.F` is the root region's final
            transitions = [replace(t, target=".final") if t.target == f"{name}.final" else t
                           for t in transitions]
        return StateMachine(name=name, states=tuple(states),
                            transitions=tuple(transitions), variables=tuple(variables))

    def region_items(self, parent, owner_name, states, transitions, variables, top):
        while True:
            kind, text, _ = self.peek()
            if text == "state":
                self.state_decl(parent, states, transitions, variables)
            elif text == "final":
                self.next()
                self.expect(";")
                fid = f"{owner_name}.final"
                states.append(StateNode(id=fid, name=fid, kind=FINAL, parent=parent))
            elif top and text == "var":
                self.var_decl(variables)
            elif top and text == "trans":
                self.trans_decl(transitions)
            else:
                return

    def var_decl(self, variables):
        self.expect("var")
        name = self.take("ident", "variable name")
        self.expect(":")
        self.expect("int")
        self.expect("=")
        negative = self.accept("-")
        text = self.take("int", "integer literal")
        self.expect(";")
        value = -int(text) if negative else int(text)
        variables.append(Variable(name, value))

    def behaviour(self, owner_id: str, role: str) -> Behaviour:
        label = self.take("ident", "behaviour label")
        assignments = []
        # `{` opens an assignment block only when followed by `ident :=`;
        # otherwise it is the owner's child-state block
        if (self.peek()[1] == "{" and self.peek(1)[0] == "ident"
                and self.peek(2)[1] == ":="):
            self.expect("{")
            while True:
                var = self.take("ident", "variable name")
                self.expect(":=")
                assignments.append((var, expr.parse_int(self)))
                if not self.accept(","):
                    break
            self.expect("}")
        return Behaviour(id=f"{owner_id}.{role}", label=label,
                         assignments=tuple(assignments))

    def state_decl(self, parent, states, transitions, variables):
        self.expect("state")
        name = self.take("ident", "state name")
        is_initial = history = False
        entry = exit_ = do = None
        while True:
            if self.accept("initial"):
                is_initial = True
            elif self.accept("history"):
                history = True
            elif self.accept("entry"):
                entry = self.behaviour(name, "entry")
            elif self.accept("exit"):
                exit_ = self.behaviour(name, "exit")
            elif self.accept("do"):
                do = self.behaviour(name, "do")
            else:
                break
        placeholder = len(states)
        states.append(None)  # reserve the document-order slot
        child_states: list[StateNode] = []
        if self.accept("{"):
            self.region_items(name, name, child_states, transitions, variables, top=False)
            self.expect("}")
        self.expect(";")
        kind = COMPOSITE if child_states else SIMPLE
        states[placeholder] = StateNode(
            id=name, name=name, kind=kind, parent=parent, is_initial=is_initial,
            entry=entry, exit=exit_, do=do, has_history=history)
        states.extend(child_states)

    def trans_decl(self, transitions):
        self.expect("trans")
        tid = self.take("ident", "transition id")
        self.expect(":")
        source = self.take("ident", "source state")
        self.expect("->")
        target = self.take("ident", "target state")
        suffix = None
        if self.accept("."):
            suffix = self.peek()[1]
            if suffix not in ("H", "F"):
                self.fail("H", "F")
            self.next()
        if suffix == "F":  # region X's final; an unknown X is left for validate
            target = f"{target}.final"
        trigger = None
        if self.accept("on"):
            trigger = self.take("ident", "event name")
        guard = None
        if self.accept("if"):
            self.expect("(")
            guard = expr.parse_bool(self)
            self.expect(")")
        effect = None
        if self.accept("/"):
            effect = self.behaviour(tid, "effect")
        self.expect(";")
        transitions.append(Transition(id=tid, source=source, target=target,
                                      to_history=suffix == "H", trigger=trigger,
                                      guard=guard, effect=effect))


def parse(text: str) -> StateMachine:
    """Parse SMDL source into a model.

    Only syntax is checked here; run statemachine.validate for the
    structural invariants.
    """
    try:
        return _Parser(text).machine()
    except expr.ExprSyntaxError as err:
        raise _positioned(err) from None


# ---------------------------------------------------------------------------
# Printing


def _print_behaviour(b: Behaviour) -> str:
    if not b.assignments:
        return b.label
    parts = ", ".join(f"{var} := {expr.to_text(rhs, 'smdl')}" for var, rhs in b.assignments)
    return f"{b.label} {{ {parts} }}"


def _print_state(model: StateMachine, node: StateNode, indent: int, out: list):
    pad = "  " * indent
    bits = [f"state {node.name}"]
    if node.is_initial:
        bits.append("initial")
    if node.has_history:
        bits.append("history")
    if node.entry:
        bits.append(f"entry {_print_behaviour(node.entry)}")
    if node.exit:
        bits.append(f"exit {_print_behaviour(node.exit)}")
    if node.do:
        bits.append(f"do {_print_behaviour(node.do)}")
    children = model.children.get(node.id, ())
    if children:
        out.append(f"{pad}{' '.join(bits)} {{")
        _print_region(model, children, indent + 1, out)
        out.append(f"{pad}}} ;")
    else:
        out.append(f"{pad}{' '.join(bits)} ;")


def _print_region(model, children, indent, out):
    named = sorted((c for c in children if c.kind != FINAL), key=lambda c: c.name)
    for child in named:
        _print_state(model, child, indent, out)
    if any(c.kind == FINAL for c in children):
        out.append("  " * indent + "final ;")


def _target_text(model: StateMachine, t: Transition) -> str:
    node = model.by_id.get(t.target)
    if t.to_history:
        return f"{node.name if node else t.target}.H"
    if node is not None and node.kind == FINAL:
        owner = model.by_id.get(node.parent) if node.parent else None
        return f"{owner.name}.F" if owner else f"{model.name}.F"
    return node.name if node else t.target


def print_model(model: StateMachine) -> str:
    """Canonical SMDL text: regions sorted by state name, transitions by id,
    variables by name; identical models print byte-identically."""
    out = [f"machine {model.name} {{"]
    for v in sorted(model.variables, key=lambda v: v.name):
        out.append(f"  var {v.name} : int = {v.initial} ;")
    _print_region(model, model.children.get(None, ()), 1, out)
    src = {s.id: s for s in model.states}
    for t in sorted(model.transitions, key=lambda t: t.id):
        bits = [f"trans {t.id} : {src[t.source].name if t.source in src else t.source}"
                f" -> {_target_text(model, t)}"]
        if t.trigger:
            bits.append(f"on {t.trigger}")
        if t.guard is not None:
            bits.append(f"if ( {expr.to_text(t.guard, 'smdl')} )")
        if t.effect is not None:
            bits.append(f"/ {_print_behaviour(t.effect)}")
        out.append("  " + " ".join(bits) + " ;")
    out.append("}")
    return "\n".join(out) + "\n"
