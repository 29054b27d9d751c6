import random
from dataclasses import replace

import pytest

from conftest import CORPUS, load_model
from modelgen import (
    balanced_machine, bf_ancestors_or_self, bf_entry_chain, bf_exit_chain, bf_lca,
    bf_substates, chain_machine, random_machine,
)
from smd2cpn.statemachine import (
    COMPOSITE, FINAL, NO_HISTORY, SIMPLE,
    Behaviour, NotAnAncestorError, StateMachine, StateNode, Transition,
    UnknownStateError, Variable, validate,
)
from smd2cpn import expr as ex
from smd2cpn.smdl import parse
from test_translator import RESUME


def node(id, kind=SIMPLE, parent=None, **kw):
    return StateNode(id=id, name=id, kind=kind, parent=parent, **kw)


@pytest.fixture
def three_level():
    # root > A > {B, C > {D}}
    return StateMachine(name="M", states=(
        node("A", COMPOSITE, is_initial=True),
        node("B", parent="A", is_initial=True),
        node("C", COMPOSITE, parent="A"),
        node("D", parent="C", is_initial=True),
    ))


# ---------------------------------------------------------------------------
# validate


def test_corpus_cd_player_is_clean(cd_model):
    assert validate(cd_model).ok


def test_duplicate_state_name_reported():
    machine = StateMachine(name="M", states=(
        node("A", is_initial=True), StateNode(id="A2", name="A", kind=SIMPLE)))
    report = validate(machine)
    codes = {v.code for v in report.violations}
    assert "duplicate-name" in codes
    assert any("A" in v.message for v in report.violations)


def test_composite_without_initial_child_reported():
    machine = StateMachine(name="M", states=(
        node("A", COMPOSITE, is_initial=True),
        node("B", parent="A"),  # no initial mark
    ))
    report = validate(machine)
    assert any(v.code == "initial-count" and v.element == "A"
               for v in report.violations)


@pytest.mark.parametrize("states,transitions,code", [
    # two initials at root
    ((node("A", is_initial=True), node("B", is_initial=True)), (), "initial-count"),
    # parent missing
    ((node("A", is_initial=True), node("B", parent="ghost")), (), "unknown-parent"),
    # simple with children
    ((node("A", is_initial=True), node("B"), node("C", parent="B")),
     (), "simple-with-children"),
    # final as source
    ((node("A", is_initial=True),
      StateNode(id=".final", name=".final", kind=FINAL)),
     (Transition(id="t", source=".final", target="A"),), "final-with-outgoing"),
    # history on a simple state
    ((node("A", is_initial=True, has_history=True),), (), "history-on-simple"),
    # history target without history
    ((node("A", COMPOSITE, is_initial=True), node("B", parent="A", is_initial=True),
      node("C")),
     (Transition(id="t", source="C", target="A", to_history=True),),
     "bad-history-target"),
    # reserved NONE child name inside a history composite
    ((node("A", COMPOSITE, is_initial=True, has_history=True),
      StateNode(id="NONE", name="NONE", kind=SIMPLE, parent="A", is_initial=True)),
     (), "reserved-name"),
    # undeclared variable in a guard
    ((node("A", is_initial=True), node("B")),
     (Transition(id="t", source="A", target="B",
                 guard=ex.Cmp("<", ex.VarRead("ghost"), ex.IntLit(1))),),
     "undeclared-variable"),
])
def test_single_violations_are_caught(states, transitions, code):
    report = validate(StateMachine(name="M", states=states, transitions=transitions))
    assert any(v.code == code for v in report.violations), report


def test_a_transition_out_of_a_final_state_is_reported_once():
    report = validate(StateMachine(name="M", states=(
        node("A", is_initial=True), StateNode(id=".final", name=".final", kind=FINAL),
    ), transitions=(Transition(id="t", source=".final", target="A"),)))
    assert [(v.code, v.element) for v in report.violations] == [("final-with-outgoing", "t")]


# a valid machine with a history composite, a final state, a behaviour and a variable
VALID = StateMachine(name="M", states=(
    node("A", COMPOSITE, is_initial=True, has_history=True),
    node("B", parent="A", is_initial=True, entry=Behaviour("B.entry", "enB")),
    StateNode(id="A.final", name="A.final", kind=FINAL, parent="A"),
    node("C"),
), transitions=(
    Transition(id="t", source="B", target="C", trigger="go"),
    Transition(id="u", source="C", target="A", to_history=True),
), variables=(Variable("x", 0),))


def _edited(machine, which, index, **changes):
    """`machine` with item `index` of its `which` tuple replaced with `changes`."""
    items = list(getattr(machine, which))
    items[index] = replace(items[index], **changes)
    return replace(machine, **{which: tuple(items)})


@pytest.mark.parametrize("edit,expected", [
    (lambda m: _edited(m, "states", 1, entry=Behaviour("B.entry", "en B")),
     ("bad-identifier", "B")),
    (lambda m: replace(m, variables=(Variable("x y", 0),)), ("bad-identifier", "x y")),
    (lambda m: replace(m, name="1M"), ("bad-identifier", "1M")),
    (lambda m: _edited(m, "states", 3, name="C C"), ("bad-identifier", "C")),
    (lambda m: _edited(m, "transitions", 0, id="t 1"), ("bad-identifier", "t 1")),
    (lambda m: _edited(m, "transitions", 0, trigger="go on"), ("bad-identifier", "t")),
    (lambda m: replace(m, variables=(Variable("x", 0), Variable("x", 1))),
     ("duplicate-variable", "x")),
    (lambda m: replace(m, states=m.states + (node("E", parent="A.final"),)),
     ("final-with-children", "A.final")),
    (lambda m: _edited(m, "states", 2, has_history=True), ("history-on-final", "A.final")),
    (lambda m: _edited(m, "states", 3, kind="weird"), ("bad-kind", "C")),
    (lambda m: _edited(m, "states", 3, kind=COMPOSITE), ("childless-composite", "C")),
    (lambda m: _edited(_edited(m, "states", 1, is_initial=False), "states", 2, is_initial=True),
     ("initial-is-final", "A")),
    (lambda m: _edited(m, "transitions", 1, id="t"), ("duplicate-transition-id", "t")),
    (lambda m: _edited(m, "transitions", 0, source="ghost"), ("unknown-source", "t")),
    (lambda m: replace(m, states=m.states + (StateNode(id="C", name="D", kind=SIMPLE),)),
     ("duplicate-id", "C")),
], ids=["behaviour-label", "variable", "machine", "state", "transition-id", "trigger",
        "duplicate-variable", "final-with-children", "history-on-final", "bad-kind",
        "childless-composite", "initial-is-final", "duplicate-transition-id", "unknown-source", "duplicate-id"])
def test_one_defect_gives_one_violation(edit, expected):
    assert validate(VALID).ok
    assert [(v.code, v.element) for v in validate(edit(VALID)).violations] == [expected]


def test_parent_cycle_detected():
    machine = StateMachine(name="M", states=(
        StateNode(id="A", name="A", kind=COMPOSITE, parent="B", is_initial=True),
        StateNode(id="B", name="B", kind=COMPOSITE, parent="A"),
    ))
    assert any(v.code == "parent-cycle" for v in validate(machine).violations)


def test_final_with_behaviour_and_multiple_finals():
    machine = StateMachine(name="M", states=(
        node("A", COMPOSITE, is_initial=True),
        node("B", parent="A", is_initial=True),
        StateNode(id="A.final", name="A.final", kind=FINAL, parent="A",
                  entry=Behaviour("x", "boom")),
        StateNode(id="A.final2", name="A.final2", kind=FINAL, parent="A"),
    ))
    codes = {v.code for v in validate(machine).violations}
    assert "final-with-behaviour" in codes
    assert "multiple-finals" in codes


def test_validate_accepts_iff_no_injected_violation():
    clean = StateMachine(name="M", states=(
        node("A", COMPOSITE, is_initial=True),
        node("B", parent="A", is_initial=True)))
    assert validate(clean).ok


# ---------------------------------------------------------------------------
# structural queries


def test_substates_simple_is_itself(cd_model):
    assert cd_model.substates("PLAYING") == ("PLAYING",)


def test_substates_of_busy_excludes_final(cd_model):
    assert cd_model.substates("Busy") == ("PLAYING", "PAUSED")


def test_substates_three_level(three_level):
    # brute-force recursive enumeration gives {B, D}
    assert three_level.substates("A") == ("B", "D")
    assert three_level.substates("A") == bf_substates(three_level, "A")


def test_substates_unknown_reference(cd_model):
    with pytest.raises(UnknownStateError):
        cd_model.substates("GHOST")


@pytest.fixture
def exit_machine():
    # D(exit e1) < C(exit e2) < A(no exit)
    return StateMachine(name="M", states=(
        node("A", COMPOSITE, is_initial=True),
        node("C", COMPOSITE, parent="A", is_initial=True,
             exit=Behaviour("C.exit", "e2")),
        node("D", parent="C", is_initial=True, exit=Behaviour("D.exit", "e1")),
    ))


def test_exit_chain_collects_innermost_first(exit_machine):
    assert [b.label for b in exit_machine.exit_chain("D", "A")] == ["e1", "e2"]


def test_exit_chain_boundary_inclusive(exit_machine):
    assert [b.label for b in exit_machine.exit_chain("D", "C")] == ["e1", "e2"]


def test_exit_chain_empty_when_no_behaviours(cd_model):
    assert cd_model.exit_chain("PLAYING", "PLAYING") == ()


def test_exit_chain_rejects_non_ancestor(exit_machine):
    with pytest.raises(NotAnAncestorError):
        exit_machine.exit_chain("A", "D")


def test_entry_chain_examples(cd_model):
    assert [b.label for b in cd_model.entry_chain("Busy", "Busy")] == ["FTS"]
    assert cd_model.entry_chain("PLAYING", "PLAYING") == ()


def test_entry_chain_outermost_first():
    machine = StateMachine(name="M", states=(
        node("A", COMPOSITE, is_initial=True, entry=Behaviour("A.entry", "a")),
        node("C", COMPOSITE, parent="A", is_initial=True,
             entry=Behaviour("C.entry", "c")),
        node("D", parent="C", is_initial=True),
    ))
    assert [b.label for b in machine.entry_chain("A", "D")] == ["a", "c"]


def test_lca_examples(cd_model):
    assert cd_model.lca("PLAYING", "PAUSED") == "Busy"
    assert cd_model.lca("PLAYING", "PLAYING") == "PLAYING"
    assert cd_model.lca("PLAYING", "OPEN") is None  # root region


def test_default_configuration(cd_model, three_level):
    assert cd_model.default_configuration("Busy") == "PLAYING"
    assert cd_model.default_configuration("NONPLAYING") == "CLOSED"
    assert three_level.default_configuration("A") == "B"
    assert three_level.default_configuration(None) == "B"


def test_default_configuration_of_a_final_state_is_that_state(cd_model):
    assert cd_model.default_configuration("Busy.final") == "Busy.final"
    model = parse("machine M { state S initial ; final ; trans t : S -> M.F ; }")
    assert model.default_configuration(".final") == ".final"


def test_default_configuration_three_level_chain():
    machine = StateMachine(name="M", states=(
        node("A", COMPOSITE, is_initial=True),
        node("C", COMPOSITE, parent="A", is_initial=True),
        node("D", parent="C", is_initial=True),
    ))
    assert machine.default_configuration("A") == "D"


def two_histories():
    # root > Outer (history) > {Inner (history) > {X, Y}, Z}
    return StateMachine(name="M", states=(
        node("Outer", COMPOSITE, is_initial=True, has_history=True),
        node("Inner", COMPOSITE, parent="Outer", is_initial=True, has_history=True),
        node("X", parent="Inner", is_initial=True),
        node("Y", parent="Inner"),
        node("Z", parent="Outer"),
    ))


HISTORY_MODELS = {"cdplayer": lambda: load_model("cdplayer"),
                  "history": lambda: load_model("history"), "two": two_histories}


@pytest.mark.parametrize("case,leaf,boundary,expected", [
    ("cdplayer", "PAUSED", "Busy", [("Busy", "PAUSED")]),
    ("cdplayer", "PLAYING", "Busy", [("Busy", "PLAYING")]),
    ("cdplayer", "Busy.final", "Busy", [("Busy", NO_HISTORY)]),  # region completed
    ("history", "A2", "Work", [("Work", "Alpha")]),  # the child, not the leaf
    ("two", "Y", "Outer", [("Inner", "Y"), ("Outer", "Inner")]),  # innermost first
    ("two", "Y", "Inner", [("Inner", "Y")]),
    ("two", "Z", "Outer", [("Outer", "Z")]),
    ("cdplayer", "PAUSED", "PAUSED", []),
    ("two", "X", "X", []),
])
def test_history_writes(case, leaf, boundary, expected):
    assert HISTORY_MODELS[case]().history_writes(leaf, boundary) == expected


def test_history_writes_needs_an_enclosing_boundary(cd_model):
    with pytest.raises(NotAnAncestorError):
        cd_model.history_writes("PAUSED", "NONPLAYING")


@pytest.mark.parametrize("case,composite,memory,expected", [
    ("cdplayer", "Busy", "PLAYING", ("PLAYING", "PLAYING")),
    ("cdplayer", "Busy", "PAUSED", ("PAUSED", "PAUSED")),
    ("cdplayer", "Busy", NO_HISTORY, ("PLAYING", "PLAYING")),
    ("history", "Work", "Alpha", ("Alpha", "A1")),  # a composite child at its default leaf
    ("history", "Work", "Beta", ("Beta", "Beta")),
    ("history", "Work", NO_HISTORY, ("Alpha", "A1")),
    ("two", "Outer", "Inner", ("Inner", "X")),
    ("two", "Outer", "Z", ("Z", "Z")),
    ("two", "Outer", NO_HISTORY, ("Inner", "X")),
    ("two", "Inner", "Y", ("Y", "Y")),
])
def test_resumed(case, composite, memory, expected):
    assert HISTORY_MODELS[case]().resumed(composite, memory) == expected


# ---------------------------------------------------------------------------
# properties on random hierarchies


def test_is_completion_only_for_triggerless_exit_of_completable_region(cd_model):
    by_id = cd_model.transitions_by_id
    assert cd_model.is_completion(by_id["t11"])
    assert not cd_model.is_completion(by_id["t4"])


@pytest.mark.parametrize("tid,expected", [
    ("t2", ("PLAYING", "PAUSED")),
    ("t9", ("PLAYING", "PLAYING")),
    ("t4", ("Busy", "NONPLAYING")),
    ("t7", ("NONPLAYING", "Busy")),      # history target
    ("t10", ("PLAYING", "Busy.final")),  # into the final state of Busy
])
def test_boundaries_on_cd_player(cd_model, tid, expected):
    assert cd_model.boundaries(cd_model.transitions_by_id[tid]) == expected


def test_boundaries_parent_to_child_exit_and_reenter_the_parent():
    machine = StateMachine(
        name="M",
        states=(node("outer", COMPOSITE, is_initial=True),
                node("a", parent="outer", is_initial=True),
                node("b", parent="outer")),
        transitions=(Transition(id="t", source="outer", target="b"),))
    assert validate(machine).ok
    assert machine.boundaries(machine.transitions[0]) == ("outer", "outer")


INDEXED_MODELS = {
    **{name: (lambda name=name: load_model(name)) for name in CORPUS},
    "chain-20": lambda: chain_machine(20),
    "balanced-3x2": lambda: balanced_machine(3, 2),
    "resume": lambda: parse(RESUME),
}


@pytest.mark.parametrize("case", sorted(INDEXED_MODELS))
def test_indices_agree_with_brute_force(case):
    model = INDEXED_MODELS[case]()
    for s in model.states:
        assert list(model.ancestors_or_self(s.id)) == bf_ancestors_or_self(model, s.id)
    assert model.transitions
    for t in model.transitions:
        # the boundaries from the deepest common state found by brute force
        source_path = bf_ancestors_or_self(model, t.source)
        target_path = bf_ancestors_or_self(model, t.target)
        common = [sid for sid in source_path if sid in target_path]
        scope = common[0] if common else None
        if scope in (t.source, t.target):
            expected = (scope, scope)
        else:
            expected = tuple(path[path.index(scope) - 1] if scope else path[-1]
                             for path in (source_path, target_path))
        assert model.boundaries(t) == expected, t.id


def test_every_query_rejects_an_unknown_id(cd_model):
    ghost = "GHOST"
    queries = [
        lambda: cd_model.state(ghost),
        lambda: cd_model.ancestors_or_self(ghost),
        lambda: cd_model.lca(ghost, "PLAYING"),
        lambda: cd_model.lca("PLAYING", ghost),
        lambda: cd_model.child_of_containing(None, ghost),
        lambda: cd_model.child_of_containing("Busy", ghost),
        lambda: cd_model.exit_chain(ghost, "Busy"),
        lambda: cd_model.entry_chain("Busy", ghost),
        lambda: cd_model.history_writes(ghost, "Busy"),
        lambda: cd_model.resumed(ghost, NO_HISTORY),
        lambda: cd_model.substates(ghost),
        lambda: cd_model.boundaries(Transition(id="t2", source=ghost, target="PAUSED")),
        lambda: cd_model.boundaries(Transition(id="t2", source="PLAYING", target=ghost)),
    ]
    for query in queries:
        with pytest.raises(UnknownStateError):
            query()


def test_states_with_broken_parent_links_are_unknown():
    # a dangling parent and a parent cycle: the other states still resolve
    machine = StateMachine(
        name="M",
        states=(node("A", is_initial=True), node("B", parent="GHOST"),
                node("C", parent="D"), node("D", parent="C")),
        transitions=(Transition(id="ok", source="A", target="A"),
                     Transition(id="bad", source="A", target="B")))
    assert machine.ancestors_or_self("A") == ("A",)
    assert machine.boundaries(machine.transitions[0]) == ("A", "A")
    for sid in ("B", "C", "D"):
        with pytest.raises(UnknownStateError):
            machine.ancestors_or_self(sid)
    with pytest.raises(UnknownStateError):
        machine.boundaries(machine.transitions[1])


def test_queries_agree_with_brute_force():
    rng = random.Random(42)
    for _ in range(60):
        machine = random_machine(rng, max_states=40)
        states = [s.id for s in machine.states]
        for sid in states:
            if machine.state(sid).kind != FINAL:
                assert machine.substates(sid) == bf_substates(machine, sid)
        sample = rng.sample(states, min(6, len(states)))
        for a in sample:
            for b in sample:
                assert machine.lca(a, b) == bf_lca(machine, a, b)
                assert machine.lca(a, b) == machine.lca(b, a)
            assert machine.lca(a, a) == a
        for sid in sample:
            for boundary in machine.ancestors_or_self(sid):
                assert (machine.exit_chain(sid, boundary)
                        == bf_exit_chain(machine, sid, boundary))
                assert (machine.entry_chain(boundary, sid)
                        == bf_entry_chain(machine, boundary, sid))


def test_substates_disjoint_union_invariant():
    rng = random.Random(7)
    for _ in range(40):
        machine = random_machine(rng, max_states=40)
        for s in machine.states:
            if s.kind != COMPOSITE:
                continue
            union = []
            for child in machine.children[s.id]:
                if child.kind != FINAL:
                    union.extend(machine.substates(child.id))
            assert sorted(union) == sorted(machine.substates(s.id))
            assert len(union) == len(set(union))  # disjoint


def test_chain_path_symmetry():
    # exit-chain owners reversed == entry-chain owners, when every state
    # carries both behaviours (labels encode the owning state)
    rng = random.Random(99)
    for _ in range(30):
        machine = random_machine(rng, max_states=30, all_chained=True)
        states = [s.id for s in machine.states if s.kind != FINAL]
        for sid in rng.sample(states, min(5, len(states))):
            for boundary in machine.ancestors_or_self(sid):
                exits = [b.label[3:] for b in machine.exit_chain(sid, boundary)]
                entries = [b.label[3:] for b in machine.entry_chain(boundary, sid)]
                assert list(reversed(exits)) == entries


class CountingDict(dict):
    def __init__(self, *a, **kw):
        super().__init__(*a, **kw)
        self.reads = 0

    def get(self, *a, **kw):
        self.reads += 1
        return super().get(*a, **kw)


def test_substates_cost_linear_in_subtree():
    machine = balanced_machine(depth=9, branching=2, with_behaviours=False,
                               with_transitions=False)  # 1023 states
    assert len(machine.states) == 1023
    machine.children  # build the caches before instrumenting
    machine.document_position
    counter = CountingDict(machine.children)
    object.__setattr__(machine, "children", counter)
    machine.__dict__["children"] = counter

    full = machine.substates("N")
    full_reads = counter.reads
    assert len(full) == 512
    # one children lookup per composite visited
    assert full_reads <= 1023 + 5

    counter.reads = 0
    sub = machine.substates("N_0_0")  # subtree with 128 leaves, 255 nodes
    assert len(sub) == 128
    assert counter.reads <= 255 + 5, "cost must follow the subtree, not the machine"
