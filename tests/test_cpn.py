import copy
import itertools
import pickle
import random
from dataclasses import dataclass, replace

import pytest

from smd2cpn import expr as ex
from smd2cpn.net import (
    UNIT_TOKEN, ArcDef, ColouredNet, CompiledNet, CompiledTransition, DenseCoding, EnumCS,
    IntCS, NetError, NotEnabledError, Calc, Lit, PlaceDef, ProductCS, TransDef, Tup, UnitCS,
    Var, PTOT, TTOP,
    binding_key, enabled_bindings, evaluate, explore, fire, marking_key, match,
)
from smd2cpn.oracle import (
    check_control_safety, check_trace_equivalence, enabled_transitions,
    initial_configuration, inject,
)
from smd2cpn.translator import TranslationConfig, translate

import mutations
from conftest import CORPUS
from modelgen import balanced_machine, chain_machine, random_transition_machine


def unit_net():
    net = ColouredNet(name="n")
    net.colours["UNIT"] = UnitCS()
    return net


def test_vacuous_transition_has_empty_binding():
    net = unit_net()
    net.add_transition(TransDef("t", "t"))
    assert enabled_bindings(net, {}, "t") == [{}]


def bindings_via_explore(net, marking, trans_id):
    """The bindings `explore` fires from the start marking."""
    graph = explore(net, marking)
    return [dict(key) for source, tid, key, _ in graph.edges
            if source == 0 and tid == trans_id]


def test_guard_failure_blocks_binding():
    net = ColouredNet(name="n")
    net.colours["INT"] = IntCS()
    net.add_place(PlaceDef("p", "p", "INT", (3,)))
    net.add_transition(TransDef("t", "t",
                                guard=ex.Cmp(">", ex.VarRead("x"), ex.IntLit(5))))
    net.add_arc("p", "t", PTOT, Var("x"))
    for bindings in (enabled_bindings, bindings_via_explore):
        assert bindings(net, net.initial_marking(), "t") == []


def test_binding_join_across_arcs():
    net = ColouredNet(name="n")
    net.colours["INT"] = IntCS()
    net.add_place(PlaceDef("p1", "p1", "INT", (1, 2)))
    net.add_place(PlaceDef("p2", "p2", "INT", (2, 3)))
    net.add_transition(TransDef("t", "t"))
    net.add_arc("p1", "t", PTOT, Var("x"))
    net.add_arc("p2", "t", PTOT, Var("x"))
    assert enabled_bindings(net, net.initial_marking(), "t") == [{"x": 2}]


def test_multiset_demand_needs_enough_copies():
    net = ColouredNet(name="n")
    net.colours["INT"] = IntCS()
    net.add_place(PlaceDef("p", "p", "INT", (7,)))
    net.add_transition(TransDef("t", "t"))
    net.add_arc("p", "t", PTOT, Var("x"))
    net.add_arc("p", "t", PTOT, Var("y"))
    two = (("p", (7, 7)),)
    for bindings in (enabled_bindings, bindings_via_explore):
        assert bindings(net, net.initial_marking(), "t") == []
        assert bindings(net, two, "t") == [{"x": 7, "y": 7}]
    # a hand-built start marking with unsorted tokens is made canonical first
    unsorted = (("p", (9, 7, 7)),)
    assert explore(net, unsorted).states[0] == (("p", (7, 7, 9)),)
    assert bindings_via_explore(net, unsorted, "t") == [
        {"x": 7, "y": 7}, {"x": 7, "y": 9}, {"x": 9, "y": 7}]


def test_fire_moves_token_and_checks_enabledness():
    net = unit_net()
    net.add_place(PlaceDef("a", "a", "UNIT", (UNIT_TOKEN,)))
    net.add_place(PlaceDef("b", "b", "UNIT", ()))
    net.add_transition(TransDef("t", "t"))
    net.add_arc("a", "t", PTOT, Lit(UNIT_TOKEN))
    net.add_arc("b", "t", TTOP, Lit(UNIT_TOKEN))
    after = fire(net, net.initial_marking(), "t", {})
    assert after == (("b", (UNIT_TOKEN,)),)
    with pytest.raises(NotEnabledError):
        fire(net, after, "t", {})


def test_fire_is_local():
    net = unit_net()
    for pid in ("a", "b", "far"):
        net.add_place(PlaceDef(pid, pid, "UNIT", (UNIT_TOKEN,)))
    net.add_transition(TransDef("t", "t"))
    net.add_arc("a", "t", PTOT, Lit(UNIT_TOKEN))
    net.add_arc("b", "t", TTOP, Lit(UNIT_TOKEN))
    after = fire(net, net.initial_marking(), "t", {})
    assert dict(after)["far"] == (UNIT_TOKEN,)


def test_output_outside_colour_raises():
    net = ColouredNet(name="n")
    net.colours["E"] = EnumCS(("a", "b"))
    net.colours["INT"] = IntCS()
    net.add_place(PlaceDef("p", "p", "INT", (1,)))
    net.add_place(PlaceDef("q", "q", "E", ()))
    net.add_transition(TransDef("t", "t"))
    net.add_arc("p", "t", PTOT, Var("x"))
    net.add_arc("q", "t", TTOP, Var("x"))  # int token into an enum place
    with pytest.raises(NetError):
        fire(net, net.initial_marking(), "t", {"x": 1})
    with pytest.raises(NetError):
        explore(net)


def test_product_patterns_and_computed_outputs():
    net = ColouredNet(name="n")
    net.colours["INT"] = IntCS()
    net.colours["V"] = ProductCS((IntCS(), IntCS()))
    net.add_place(PlaceDef("v", "v", "V", ((2, 5),)))
    net.add_transition(TransDef("t", "t"))
    net.add_arc("v", "t", PTOT, Tup((Var("a"), Var("b"))))
    net.add_arc("v", "t", TTOP, Tup((
        Calc(ex.BinOp("+", ex.VarRead("a"), ex.VarRead("b"))), Var("a"))))
    (binding,) = enabled_bindings(net, net.initial_marking(), "t")
    after = fire(net, net.initial_marking(), "t", binding)
    assert after == (("v", ((7, 2),)),)


def test_token_balance_on_random_unit_nets():
    # transitions with equal in/out arc counts preserve the token total
    rng = random.Random(5)
    for _ in range(25):
        net = unit_net()
        places = [f"p{i}" for i in range(rng.randint(2, 6))]
        for pid in places:
            net.add_place(PlaceDef(pid, pid, "UNIT",
                                   (UNIT_TOKEN,) * rng.randint(0, 3)))
        for t in range(rng.randint(1, 5)):
            tid = f"t{t}"
            net.add_transition(TransDef(tid, tid))
            degree = rng.randint(1, 3)
            for _ in range(degree):
                net.add_arc(rng.choice(places), tid, PTOT, Lit(UNIT_TOKEN))
                net.add_arc(rng.choice(places), tid, TTOP, Lit(UNIT_TOKEN))
        marking = net.initial_marking()
        total = sum(len(tokens) for _, tokens in marking)
        for _ in range(30):
            moves = [(tid, b) for tid in sorted(net.transitions)
                     for b in enabled_bindings(net, marking, tid)]
            if not moves:
                break
            tid, binding = rng.choice(moves)
            marking = fire(net, marking, tid, binding)
            assert sum(len(tokens) for _, tokens in marking) == total


def test_enabledness_monotone_in_tokens_without_guards():
    net = ColouredNet(name="n")
    net.colours["E"] = EnumCS(("a", "b"))
    net.add_place(PlaceDef("p", "p", "E", ("a",)))
    net.add_transition(TransDef("t", "t"))
    net.add_arc("p", "t", PTOT, Var("x"))
    small = enabled_bindings(net, (("p", ("a",)),), "t")
    large = enabled_bindings(net, (("p", ("a", "b")),), "t")
    assert {tuple(b.items()) for b in small} <= {tuple(b.items()) for b in large}


def test_marking_key_is_the_canonical_marking(corpus_models, corpus_nets):
    assert marking_key({"b": (2, 1), "a": (), "c": ("x",)}) == (
        ("b", (1, 2)), ("c", ("x",)))
    net, _ = corpus_nets["guarded"]
    graph = explore(net)
    assert len(graph.states) > 1
    assert all(marking_key(m) == m for m in graph.states)
    for name in CORPUS:
        net, _ = translate(corpus_models[name], TranslationConfig(event_capacity=2))
        graph = explore(net, bound=3_000 if name == "cdplayer" else 100_000)
        assert len(graph.states) > 1 and graph.truncated == (name == "cdplayer")
        assert all(marking_key(m) == m for m in graph.states), name


def test_check_rejects_output_reading_unbound_variable_on_mutant(corpus_models, corpus_nets):
    net, tmap = corpus_nets["guarded"]
    model = corpus_models["guarded"]
    mutant = mutations.delete_arc(net, "P_VARS", "T_inc_beh_0", PTOT)
    unbound = r"transition T_inc_beh_0: output arc A_\d+ reads unbound variables \['v_n'\]"
    with pytest.raises(NetError, match=unbound):
        mutant.check()
    # the token game compiles the same rule, so no analysis runs the broken net
    for analyse in (lambda: explore(mutant),
                    lambda: check_control_safety(mutant, tmap, bound=50),
                    lambda: check_trace_equivalence(model, mutant, tmap)):
        with pytest.raises(NetError, match=unbound):
            analyse()


def net_with_output(out, input_variables):
    net = ColouredNet(name="n")
    net.colours["INT"] = IntCS()
    net.colours["V"] = ProductCS((IntCS(), ProductCS((IntCS(), IntCS()))))
    net.add_place(PlaceDef("p", "p", "INT", (1,)))
    net.add_place(PlaceDef("q", "q", "V" if isinstance(out, Tup) else "INT", ()))
    net.add_transition(TransDef("t", "t"))
    for name in input_variables:
        net.add_arc("p", "t", PTOT, Var(name))
    net.add_arc("q", "t", TTOP, out)
    return net


@pytest.mark.parametrize("out", [
    Var("y"),
    Calc(ex.BinOp("+", ex.VarRead("y"), ex.IntLit(1))),
    Tup((Var("x"), Tup((Lit(1), Var("y"))))),
], ids=["var", "int", "nested-tuple"])
def test_check_rejects_output_reading_unbound_variable(out):
    with pytest.raises(NetError, match=r"transition t: output arc A_2 "
                                       r"reads unbound variables \['y'\]"):
        net_with_output(out, ["x"]).check()
    net_with_output(out, ["x", "y"]).check()  # fine once an input binds y


X_PLUS_1 = Calc(ex.BinOp("+", ex.VarRead("x"), ex.IntLit(1)))


@pytest.mark.parametrize("place,orientation,inscription,message", [
    ("i", PTOT, X_PLUS_1, "pattern does not fit colour INT"),
    ("v", PTOT, Tup((Var("y"), X_PLUS_1)), "pattern does not fit colour V"),
    ("e", PTOT, Lit("c"), "pattern does not fit colour E"),
    ("e", TTOP, Lit("c"), "expression does not fit colour E"),
], ids=["calc-input", "calc-in-tuple-input", "lit-input", "lit-output"])
def test_check_rejects_inscription_outside_colour(place, orientation, inscription,
                                                  message):
    net = ColouredNet(name="n")
    net.colours["INT"] = IntCS()
    net.colours["E"] = EnumCS(("a", "b"))
    net.colours["V"] = ProductCS((IntCS(), IntCS()))
    net.add_place(PlaceDef("i", "i", "INT", (1,)))
    net.add_place(PlaceDef("e", "e", "E", ()))
    net.add_place(PlaceDef("v", "v", "V", ()))
    net.add_transition(TransDef("t", "t"))
    net.add_arc("i", "t", PTOT, Var("x"))
    net.add_arc(place, "t", orientation, inscription)
    with pytest.raises(NetError, match=f"^arc A_2: {message}$"):
        net.check()


def _arc_9(place, trans, orientation):
    return lambda net: net.arcs.append(ArcDef("A_9", place, trans, orientation, Var("x")))


@pytest.mark.parametrize("mutate, message", [
    (lambda net: net.arcs.append(ArcDef("p", "p", "t", PTOT, Var("x"))),
     "duplicate ids: ['p']"),
    (lambda net: net.transitions.update(p=TransDef("p", "p")), "duplicate ids: ['p']"),
    (lambda net: net.places.update(q=PlaceDef("q", "q", "NOPE")),
     "place q: unknown colour 'NOPE'"),
    (lambda net: net.places.update(q=PlaceDef("q", "q", "INT", ("a",))),
     "place q: initial token 'a' outside colour INT"),
    (_arc_9("zz", "t", PTOT), "arc A_9: unknown place 'zz'"),
    (_arc_9("p", "zz", PTOT), "arc A_9: unknown transition 'zz'"),
    (_arc_9("p", "t", "sideways"), "arc A_9: bad orientation 'sideways'"),
], ids=["arc-id-is-a-place-id", "transition-id-is-a-place-id", "unknown-colour",
        "initial-token-outside-colour", "unknown-place", "unknown-transition",
        "bad-orientation"])
def test_check_reports_structural_errors(mutate, message):
    net = ColouredNet(name="n")
    net.colours["INT"] = IntCS()
    net.add_place(PlaceDef("p", "p", "INT", (1,)))
    net.add_transition(TransDef("t", "t"))
    net.add_arc("p", "t", PTOT, Var("x"))
    net.check()
    mutate(net)
    with pytest.raises(NetError) as raised:
        net.check()
    assert str(raised.value) == message


@pytest.mark.parametrize("colour, message", [
    (EnumCS, "enumeration colour needs at least one value"),
    (ProductCS, "product colour needs at least one component"),
])
def test_an_empty_colour_set_is_refused(colour, message):
    with pytest.raises(ValueError) as raised:
        colour(())
    assert str(raised.value) == message


def test_explore_no_enabled_transitions():
    net = unit_net()
    net.add_place(PlaceDef("p", "p", "UNIT", (UNIT_TOKEN,)))
    graph = explore(net)
    assert len(graph.states) == 1 and graph.edges == [] and not graph.truncated


def test_explore_self_loop_single_state_single_edge():
    net = unit_net()
    net.add_place(PlaceDef("p", "p", "UNIT", (UNIT_TOKEN,)))
    net.add_transition(TransDef("t", "t"))
    net.add_arc("p", "t", PTOT, Lit(UNIT_TOKEN))
    net.add_arc("p", "t", TTOP, Lit(UNIT_TOKEN))
    graph = explore(net)
    assert len(graph.states) == 1
    assert graph.edges == [(0, "t", (), 0)]


def test_explore_is_deterministic(cd_net):
    net, _ = cd_net
    one = explore(net, bound=2000)
    two = explore(net, bound=2000)
    assert [marking_key(m) for m in one.states] == [marking_key(m) for m in two.states]
    assert one.edges == two.edges
    assert one.truncated and two.truncated  # 2000 < full reachable set


def test_explore_truncation_flag():
    net = ColouredNet(name="n")
    net.colours["INT"] = IntCS()
    net.add_place(PlaceDef("p", "p", "INT", (0,)))
    net.add_transition(TransDef("t", "t"))
    net.add_arc("p", "t", PTOT, Var("x"))
    net.add_arc("p", "t", TTOP, Calc(ex.BinOp("+", ex.VarRead("x"), ex.IntLit(1))))
    graph = explore(net, bound=10)
    assert graph.truncated and len(graph.states) == 10


def test_reachable_markings_respect_colours(corpus_nets):
    net, _ = corpus_nets["guarded"]
    graph = explore(net)
    for marking in graph.states:
        for pid, tokens in marking:
            colour = net.colour_of(pid)
            for value in tokens:
                assert colour.contains(value)


# ---------------------------------------------------------------------------
# cross-checks against the interpreter on the CD net


def test_cd_initially_enabled_dispatches_match_oracle(cd_model, cd_net):
    net, tmap = cd_net
    marking = net.initial_marking()
    enabled_net = sorted(tmap.dispatch[tid]
                         for tid in tmap.dispatch
                         if enabled_bindings(net, marking, tid))
    config = initial_configuration(cd_model)
    enabled_smd = sorted(tid for tid, _ in enabled_transitions(cd_model, config))
    assert enabled_net == enabled_smd == []

    # after injecting `play` exactly t1 becomes fireable on both sides
    with_play = fire(net, marking, "T_env_play", {})
    enabled_net = sorted({tmap.dispatch[tid]
                          for tid in tmap.dispatch
                          if enabled_bindings(net, with_play, tid)})
    config = inject(cd_model, config, "play", 1)
    enabled_smd = sorted({tid for tid, _ in enabled_transitions(cd_model, config)})
    assert enabled_net == enabled_smd == ["t1"]


def test_cd_fts_consumes_inflight_and_marks_playing(cd_net):
    net, tmap = cd_net
    marking = net.initial_marking()
    marking = fire(net, marking, "T_env_play", {})
    marking = fire(net, marking, "T_t1__from_CLOSED", {})
    assert dict(marking)["P_t1_0"] == (UNIT_TOKEN,)  # token in flight
    (binding,) = enabled_bindings(net, marking, "T_t1_beh_0")
    assert tmap.behaviour_trans[("t1", "chain", 0)] == "T_t1_beh_0"
    assert net.transitions["T_t1_beh_0"].name == "FTS"
    marking = fire(net, marking, "T_t1_beh_0", binding)
    assert "P_t1_0" not in dict(marking)
    assert dict(marking)["P_PLAYING"] == (UNIT_TOKEN,)


def test_cd_reachable_count_matches_frozen_hand_values(corpus_nets, expectations):
    net, _ = corpus_nets["flat"]
    graph = explore(net)
    assert len(graph.states) == expectations["flat"]["reachable_states"]
    assert len(graph.edges) == expectations["flat"]["reachable_edges"]
    net3, _ = corpus_nets["nested3"]
    assert len(explore(net3).states) == expectations["nested3"]["reachable_states"]


# ---------------------------------------------------------------------------
# explore against a breadth-first search over the public token game


def reference_explore(net, bound, start=None):
    """BFS that only uses `enabled_bindings`, `fire` and `marking_key`:
    (state keys, edges, truncated) in explore's numbering."""
    start = net.initial_marking() if start is None else marking_key(start)
    states, index = [start], {marking_key(start): 0}
    edges, truncated = [], False
    current = 0
    while current < len(states):
        marking = states[current]
        for tid in sorted(net.transitions):
            for binding in enabled_bindings(net, marking, tid):
                succ = fire(net, marking, tid, binding)
                key = marking_key(succ)
                target = index.get(key)
                if target is None:
                    if len(states) >= bound:
                        truncated = True
                        continue
                    target = index[key] = len(states)
                    states.append(succ)
                edges.append((current, tid, tuple(sorted(binding.items())), target))
        current += 1
    return [marking_key(m) for m in states], edges, truncated


SYNTHETIC = {"chain-20": lambda: chain_machine(20),
             "balanced-3x2": lambda: balanced_machine(3, 2)}
REFERENCE_CASES = [(name, capacity) for name in CORPUS for capacity in (1, 2)]
REFERENCE_CASES += [(name, 1) for name in SYNTHETIC]


@pytest.mark.parametrize("name, capacity", REFERENCE_CASES,
                         ids=[f"{n}@{c}" for n, c in REFERENCE_CASES])
def test_explore_matches_reference_bfs(corpus_models, name, capacity):
    model = SYNTHETIC[name]() if name in SYNTHETIC else corpus_models[name]
    net, _ = translate(model, TranslationConfig(event_capacity=capacity))
    # cdplayer@2 has 183,708 markings; a cap keeps the truncation path covered
    bound = 3000 if (name, capacity) == ("cdplayer", 2) else 100_000
    graph = explore(net, bound=bound)
    keys, edges, truncated = reference_explore(net, bound)
    assert [marking_key(m) for m in graph.states] == keys
    assert graph.edges == edges
    assert graph.truncated == truncated == (bound == 3000)


def _successors_calls(monkeypatch):
    """The markings `CompiledNet.successors` is called at from here on:
    one per marking in a sparse search, none in a dense one."""
    calls = []
    original = CompiledNet.successors

    def successors(self, marking, skip=()):
        calls.append(marking)
        return original(self, marking, skip)

    monkeypatch.setattr(CompiledNet, "successors", successors)
    return calls


def _add_empty_places(net, n):
    """Add n empty unit places that no arc touches, so that a net marked a
    quarter full or more at the start may be searched sparsely."""
    for k in range(n):
        net.add_place(PlaceDef(f"e{k}", f"e{k}", "UNIT"))
    return net


def _arcless_net():
    net = unit_net()
    net.add_transition(TransDef("t", "t"))
    return net


def assert_explores_as_the_reference(net, bound=100_000, start=None):
    graph = explore(net, start, bound=bound)
    keys, edges, truncated = reference_explore(net, bound, start)
    assert graph.states == keys
    assert graph.edges == edges
    assert graph.truncated == truncated
    return graph


@pytest.mark.parametrize("capacity", [1, 2])
def test_dense_searches_of_random_machines_match_the_reference(monkeypatch, capacity):
    """Guards, history, finals and completions.  45 of the 60 nets are at
    least a quarter marked at the start, so they are searched densely."""
    calls = _successors_calls(monkeypatch)
    dense = 0
    for seed in range(60):
        net, _ = translate(random_transition_machine(random.Random(seed)),
                           TranslationConfig(event_capacity=capacity))
        calls.clear()
        assert_explores_as_the_reference(net)
        dense += not calls
        assert (not calls) == (len(net.places) <= 4 * len(net.initial_marking())), seed
    assert dense == 45


def test_a_truncated_dense_search_matches_the_reference(corpus_models):
    net, _ = translate(corpus_models["history"], TranslationConfig(event_capacity=2))
    assert assert_explores_as_the_reference(net, bound=1000).truncated


def test_a_dense_search_from_a_given_start_matches_the_reference(corpus_models):
    """guarded@2 from its last reachable marking, given as a map with each
    place's tokens reversed, then with a second control token on P_Z,
    which no firing from the initial marking gives."""
    net, _ = translate(corpus_models["guarded"], TranslationConfig(event_capacity=2))
    last = {pid: tokens[::-1] for pid, tokens in explore(net).states[-1]}
    assert_explores_as_the_reference(net, start=last)
    last["P_Z"] = (UNIT_TOKEN,)
    assert_explores_as_the_reference(net, start=last)


def test_a_place_may_take_more_values_than_a_byte_can_code():
    """c counts from 0 to 299 beside an unread unit token, so its one
    place holds 300 distinct token tuples in one dense search."""
    net = unit_net()
    net.colours["INT"] = IntCS()
    net.add_place(PlaceDef("a", "a", "UNIT", (UNIT_TOKEN,)))
    net.add_place(PlaceDef("c", "c", "INT", (0,)))
    net.add_transition(TransDef("t", "t", guard=ex.Cmp("<", ex.VarRead("n"), ex.IntLit(299))))
    net.add_arc("c", "t", PTOT, Var("n"))
    net.add_arc("c", "t", TTOP, Calc(ex.BinOp("+", ex.VarRead("n"), ex.IntLit(1))))
    graph = assert_explores_as_the_reference(net)
    assert [dict(m)["c"] for m in graph.states] == [(n,) for n in range(300)]


def test_a_transition_without_arcs_loops_in_either_search(monkeypatch):
    """With no place the net is searched densely; with five empty places,
    sparsely.  Either way t fires once, back onto the empty marking."""
    calls = _successors_calls(monkeypatch)
    net = _arcless_net()
    assert assert_explores_as_the_reference(net).edges == [(0, "t", (), 0)]
    assert calls == []
    _add_empty_places(net, 5)
    assert assert_explores_as_the_reference(net).edges == [(0, "t", (), 0)]
    assert calls == [()]


def test_the_start_marking_picks_the_search(monkeypatch, corpus_models):
    """Sparse where under a quarter of the places is marked at the start,
    dense elsewhere: every corpus net is at least a quarter marked."""
    calls = _successors_calls(monkeypatch)
    for model in (chain_machine(20), balanced_machine(3, 2), chain_machine(1000)):
        net, _ = translate(model)
        assert len(net.places) > 4 * len(net.initial_marking())
        graph = explore(net)
        assert calls == graph.states
        calls.clear()
    for model in corpus_models.values():
        for capacity in (1, 2):
            net, _ = translate(model, TranslationConfig(event_capacity=capacity))
            assert len(net.places) <= 4 * len(net.initial_marking())
            explore(net, bound=3000)
    assert calls == []


def _int_feeder():
    """Place p (INT) fed 5 by transition t, which consumes q's unit token."""
    net = unit_net()
    net.colours["INT"] = IntCS()
    net.add_place(PlaceDef("p", "p", "INT"))
    net.add_place(PlaceDef("q", "q", "UNIT", (UNIT_TOKEN,)))
    net.add_transition(TransDef("t", "t"))
    net.add_arc("q", "t", PTOT, Lit(UNIT_TOKEN))
    net.add_arc("p", "t", TTOP, Lit(5))
    return net


@pytest.mark.parametrize("start, message", [
    ((("p", (1, "x")), ("q", (UNIT_TOKEN,))),
     r"start marking: token 'x' on p is outside colour INT"),
    ((("q", (UNIT_TOKEN,)), ("r", (1,))),
     r"start marking: token 1 on unknown place 'r'"),
], ids=["outside-colour", "unknown-place"])
def test_explore_rejects_a_start_marking_the_net_cannot_hold(start, message):
    net = _int_feeder()
    with pytest.raises(NetError, match=message):
        explore(net, start)
    good = explore(net, (("p", (7, 1)), ("q", (UNIT_TOKEN,))))
    assert good.states == [(("p", (1, 7)), ("q", ((),))), (("p", (1, 5, 7)),)]


def test_firing_next_to_a_token_outside_the_colour_names_the_place():
    net = _int_feeder()
    marking = (("p", ("x",)), ("q", (UNIT_TOKEN,)))
    with pytest.raises(NetError, match=r"^t: cannot insert 5 in order on p, which holds "
                                       r"a token outside its colour$"):
        fire(net, marking, "t", {})
    assert fire(net, (("p", (7,)), ("q", (UNIT_TOKEN,))), "t", {}) == (("p", (5, 7)),)


def test_tokens_produced_in_descending_order_are_kept_sorted():
    """Each firing counts n down and adds (n, "b") then (n, "a") to a
    product place, so every token lands before the ones already there."""
    net = ColouredNet(name="n")
    net.colours["INT"] = IntCS()
    net.colours["PAIR"] = ProductCS((IntCS(), EnumCS(("a", "b"))))
    net.add_place(PlaceDef("c", "c", "INT", (3,)))
    net.add_place(PlaceDef("out", "out", "PAIR"))
    net.add_transition(TransDef("t", "t", guard=ex.Cmp(">", ex.VarRead("n"), ex.IntLit(0))))
    net.add_arc("c", "t", PTOT, Var("n"))
    net.add_arc("c", "t", TTOP, Calc(ex.BinOp("-", ex.VarRead("n"), ex.IntLit(1))))
    net.add_arc("out", "t", TTOP, Tup((Var("n"), Lit("b"))))
    net.add_arc("out", "t", TTOP, Tup((Var("n"), Lit("a"))))
    net.check()
    graph = explore(net)
    assert len(graph.states) == 4
    assert all(marking_key(m) == m for m in graph.states)
    assert graph.states[-1] == (("c", (0,)), ("out", ((1, "a"), (1, "b"), (2, "a"),
                                                      (2, "b"), (3, "a"), (3, "b"))))


def reference_successors(net, marking) -> set:
    """(transition id, binding key, successor) for every enabled binding,
    by brute force: every way of giving each input arc its own token of
    its place, then match, check the guard and move the tokens."""
    tokens = dict(marking)
    found = set()
    for tid, trans in net.transitions.items():
        inputs = [a for a in net.arcs if a.trans == tid and a.orientation == PTOT]
        outputs = [a for a in net.arcs if a.trans == tid and a.orientation == TTOP]
        for taken in itertools.product(*(list(enumerate(tokens.get(a.place, ())))
                                         for a in inputs)):
            copies = [(a.place, n) for a, (n, _) in zip(inputs, taken)]
            if len(set(copies)) < len(copies):
                continue  # one copy of a token given to two arcs
            binding = {}
            for arc, (_, value) in zip(inputs, taken):
                binding = match(arc.inscription, value, binding)
                if binding is None:
                    break
            if binding is None or (trans.guard is not None
                                   and not ex.eval_bool(trans.guard, binding)):
                continue
            after = {pid: list(values) for pid, values in tokens.items()}
            for arc, (_, value) in zip(inputs, taken):
                after[arc.place].remove(value)
            for arc in outputs:
                after.setdefault(arc.place, []).append(evaluate(arc.inscription, binding))
            found.add((tid, binding_key(binding), marking_key(after)))
    return found


def _pairs_net():
    """Two variable arcs from one place of repeated tokens, and a guard."""
    net = ColouredNet(name="pairs")
    net.colours["INT"] = IntCS()
    net.add_place(PlaceDef("p", "p", "INT", (1, 1, 2, 3)))
    net.add_place(PlaceDef("q", "q", "INT"))
    net.add_transition(TransDef("t", "t", guard=ex.Cmp("<=", ex.VarRead("x"),
                                                       ex.VarRead("y"))))
    net.add_arc("p", "t", PTOT, Var("x"))
    net.add_arc("p", "t", PTOT, Var("y"))
    net.add_arc("q", "t", TTOP, Calc(ex.BinOp("+", ex.VarRead("x"), ex.VarRead("y"))))
    net.add_arc("p", "t", TTOP, Var("x"))
    return net


def assert_the_point_kinds_agree(compiled, coding, marking, skip):
    """`coding.successors` at the coded marking, each successor point
    decoded, equals `compiled.successors` at the marking, with nothing
    skipped and with `skip` skipped."""
    for skipped in ((), skip):
        decoded = [(tid, key, coding.decode(after))
                   for tid, key, after in coding.successors(coding.encode(marking), skipped)]
        assert decoded == compiled.successors(marking, skipped), (skipped, marking)


def _chain_skip(tmap) -> set:
    """The ids `NetRunner` skips in a chain: producers and do-loops."""
    return set(tmap.producer) | set(tmap.do_loop)


@pytest.mark.parametrize("name", CORPUS + ["pairs"])
def test_successors_agree_with_a_brute_force_token_game(corpus_nets, name):
    """On markings, and on one `DenseCoding`'s points across the search."""
    net, tmap = (_pairs_net(), None) if name == "pairs" else corpus_nets[name]
    compiled = CompiledNet(net)
    coding = DenseCoding(compiled)
    graph = explore(net, bound=4_000 if name == "cdplayer" else 100_000)
    assert graph.truncated == (name == "cdplayer")
    for marking in graph.states:
        successors = compiled.successors(marking)
        assert len(set(successors)) == len(successors)
        assert set(successors) == reference_successors(net, marking), marking
        assert_the_point_kinds_agree(compiled, coding, marking,
                                     {"t"} if tmap is None else _chain_skip(tmap))


@pytest.mark.parametrize("name", ["flat", "guarded", "completion", "nested3"])
def test_successors_agree_with_a_brute_force_token_game_on_mutants(corpus_nets, name):
    """The same comparison on every arc deletion that `check()` accepts,
    with one CompiledNet and one DenseCoding per mutant across its
    reachable markings.  About half the mutants grow without bound, so
    each search stops at 200."""
    net, tmap = corpus_nets[name]
    for arc in net.arcs:
        mutant = mutations.delete_arc_id(net, arc.id)
        try:
            mutant.check()
        except NetError:
            continue
        compiled = CompiledNet(mutant)
        coding = DenseCoding(compiled)
        for marking in explore(mutant, bound=200).states:
            successors = compiled.successors(marking)
            assert len(set(successors)) == len(successors)
            assert set(successors) == reference_successors(mutant, marking), (arc.id, marking)
            assert_the_point_kinds_agree(compiled, coding, marking, _chain_skip(tmap))


# ---------------------------------------------------------------------------
# A transition's firings depend only on the tokens of the places it touches


def _counted_bindings(monkeypatch):
    """Count the calls of `CompiledTransition.bindings` from here on."""
    calls = []
    original = CompiledTransition.bindings

    def bindings(self, tokens):
        calls.append(self.id)
        return original(self, tokens)

    monkeypatch.setattr(CompiledTransition, "bindings", bindings)
    return calls


def _output_only_net():
    """t takes a's unit token and puts 5 on o, which it does not read; u
    counts c up once, putting c's old value on o and a token back on a.
    So t meets a's one token twice, first with o empty and then with o
    holding 0."""
    net = unit_net()
    net.colours["INT"] = IntCS()
    net.add_place(PlaceDef("a", "a", "UNIT", (UNIT_TOKEN,)))
    net.add_place(PlaceDef("c", "c", "INT", (0,)))
    net.add_place(PlaceDef("o", "o", "INT"))
    net.add_transition(TransDef("t", "t"))
    net.add_arc("a", "t", PTOT, Lit(UNIT_TOKEN))
    net.add_arc("o", "t", TTOP, Lit(5))
    net.add_transition(TransDef("u", "u", guard=ex.Cmp("<", ex.VarRead("n"), ex.IntLit(1))))
    net.add_arc("c", "u", PTOT, Var("n"))
    net.add_arc("c", "u", TTOP, Calc(ex.BinOp("+", ex.VarRead("n"), ex.IntLit(1))))
    net.add_arc("o", "u", TTOP, Var("n"))
    net.add_arc("a", "u", TTOP, Lit(UNIT_TOKEN))
    net.check()
    return net


def test_a_firing_keeps_the_tokens_of_a_place_it_only_feeds():
    net = _output_only_net()
    graph = explore(net)
    u = UNIT_TOKEN
    assert graph.states == [
        (("a", (u,)), ("c", (0,))),
        (("c", (0,)), ("o", (5,))),
        (("a", (u, u)), ("c", (1,)), ("o", (0,))),
        (("a", (u,)), ("c", (1,)), ("o", (0, 5))),
        (("c", (1,)), ("o", (0, 5, 5))),
    ]
    assert graph.edges == [(0, "t", (), 1), (0, "u", (("n", 0),), 2),
                           (1, "u", (("n", 0),), 3), (2, "t", (), 3),
                           (3, "t", (), 4)]
    compiled = CompiledNet(net)
    for marking in graph.states:
        assert set(compiled.successors(marking)) == reference_successors(net, marking)


def test_each_exploration_fires_each_local_view_once(monkeypatch):
    """t touches a and o only through constant tokens, so its bindings are
    worked out once per search; u's once per distinct (c, o) view, the
    places it reads or writes with a computed token.  Each search works
    them out afresh: nothing is kept between searches."""
    net = _output_only_net()
    first = explore(net)
    calls = _counted_bindings(monkeypatch)
    assert explore(net) == first
    views = {(dict(m).get("c"), dict(m).get("o")) for m in first.states}
    assert calls.count("t") == 1
    assert calls.count("u") == len(views) == 5
    calls.clear()
    assert explore(net) == first
    assert (calls.count("t"), calls.count("u")) == (1, 5)


@dataclass(frozen=True)
class _AtMost:
    """The integers up to `top`: a colour the net module does not have, so
    that a computed token can leave it."""
    top: int

    def contains(self, value) -> bool:
        return isinstance(value, int) and value <= self.top


def test_a_transition_lacking_a_constant_token_works_out_nothing(monkeypatch):
    """t takes a unit from a, which is empty, and counts c up, whose colour
    holds 0 and 1 only; s also takes from a, so c is t's watch place and t
    is tried at every marking.  The dense search must find a lacking before
    it reads t's memo: seen as holding what t takes, a would let t count c
    past its colour."""
    net = unit_net()
    net.colours["SMALL"] = _AtMost(1)
    net.add_place(PlaceDef("a", "a", "UNIT"))
    net.add_place(PlaceDef("c", "c", "SMALL", (0,)))
    net.add_transition(TransDef("s", "s"))
    net.add_arc("a", "s", PTOT, Lit(UNIT_TOKEN))
    net.add_transition(TransDef("t", "t"))
    net.add_arc("a", "t", PTOT, Lit(UNIT_TOKEN))
    net.add_arc("c", "t", PTOT, Var("n"))
    net.add_arc("c", "t", TTOP, Calc(ex.BinOp("+", ex.VarRead("n"), ex.IntLit(1))))
    assert CompiledNet.of(net).watchers == {"a": [0], "c": [1]}
    calls = _counted_bindings(monkeypatch)
    graph = explore(net)
    assert (graph.states, graph.edges) == ([(("c", (0,)),)], [])
    assert "t" not in calls


def test_a_computed_token_outside_its_colour_raises_in_every_search(monkeypatch):
    """t counts c up; s spends a's two tokens.  c's view (0,) comes up
    twice and fits, then (1,) makes t produce 2, which c's colour lacks.
    Searched densely, then sparsely beside seven empty places."""
    calls = _successors_calls(monkeypatch)
    for empty in (0, 7):
        net = _add_empty_places(unit_net(), empty)
        net.colours["SMALL"] = _AtMost(1)
        net.add_place(PlaceDef("a", "a", "UNIT", (UNIT_TOKEN, UNIT_TOKEN)))
        net.add_place(PlaceDef("c", "c", "SMALL", (0,)))
        net.add_transition(TransDef("s", "s"))
        net.add_arc("a", "s", PTOT, Lit(UNIT_TOKEN))
        net.add_transition(TransDef("t", "t"))
        net.add_arc("c", "t", PTOT, Var("n"))
        net.add_arc("c", "t", TTOP, Calc(ex.BinOp("+", ex.VarRead("n"), ex.IntLit(1))))
        calls.clear()
        for _ in range(2):
            with pytest.raises(NetError, match=r"^t: produced 2 outside the colour of c$"):
                explore(net)
        assert explore(net, bound=2).truncated
        assert bool(calls) == bool(empty)


def test_a_constant_token_outside_its_colour_raises_when_fired(monkeypatch):
    """A literal output outside its place's colour is found out when the
    transition fires, not when the net is compiled.  Searched densely, then
    sparsely beside three empty places."""
    calls = _successors_calls(monkeypatch)
    for empty in (0, 3):
        net = _add_empty_places(_int_feeder(), empty)
        net.arcs = [replace(arc, inscription=Lit("z")) if arc.place == "p" else arc
                    for arc in net.arcs]
        CompiledNet(net)
        calls.clear()
        assert explore(net, (("p", (1,)),)).states == [(("p", (1,)),)]
        for _ in range(2):
            with pytest.raises(NetError, match=r"^t: produced 'z' outside the colour of p$"):
                explore(net)
        assert bool(calls) == bool(empty)


def test_reassigned_arcs_give_the_new_graph():
    """Dropping u's arc back to a, by reassigning the arcs list, between
    two searches of one net."""
    net = _output_only_net()
    explore(net)
    net.arcs = [arc for arc in net.arcs if (arc.place, arc.trans) != ("a", "u")]
    u = UNIT_TOKEN
    assert explore(net).states == [(("a", (u,)), ("c", (0,))), (("c", (0,)), ("o", (5,))),
                                   (("a", (u,)), ("c", (1,)), ("o", (0,))),
                                   (("c", (1,)), ("o", (0, 5)))]


# ---------------------------------------------------------------------------
# The compiled form a net keeps is used again only while the net is unchanged


def _fresh(net: ColouredNet) -> ColouredNet:
    """A net with the same parts as `net` that has never been compiled."""
    return ColouredNet(net.name, dict(net.colours), dict(net.places),
                       dict(net.transitions), list(net.arcs))


def _outcome(net: ColouredNet):
    """What `explore` gives on the net: its graph, or its NetError's text."""
    try:
        return explore(net)
    except NetError as error:
        return str(error)


def test_a_transition_replaced_in_place_is_recompiled():
    """u's guard let c count to 1; replaced, it lets c count to 2."""
    net = _output_only_net()
    before = explore(net)
    u = net.transitions["u"]
    net.transitions["u"] = replace(u, guard=ex.Cmp("<", ex.VarRead("n"), ex.IntLit(2)))
    after = _outcome(net)
    assert after == _outcome(_fresh(net))
    assert len(after.states) > len(before.states)


@pytest.mark.parametrize("name", ["guarded", "history"])
def test_a_deep_copy_of_an_explored_net_explores_to_the_same_graph(corpus_nets, name):
    net, _ = corpus_nets[name]
    graph = explore(net)
    assert explore(copy.deepcopy(net)) == graph


@pytest.mark.parametrize("build, empty", [
    (_arcless_net, 0), (_arcless_net, 5), (_output_only_net, 0), (_output_only_net, 6),
], ids=["arcless-dense", "arcless-sparse", "variables-dense", "variables-sparse"])
def test_an_explored_net_copies_with_its_compiled_form(monkeypatch, build, empty):
    """A copy made by pickle or deepcopy keeps the compiled form, dense
    numbering included once a dense search built it, and explores on it
    to the same graph.  In the compiled form of `_output_only_net`, None
    marks the arc tokens that a binding gives; each copy must keep it."""
    calls = _successors_calls(monkeypatch)
    net = _add_empty_places(build(), empty)
    graph = explore(net)
    assert bool(calls) == bool(empty)
    for copied in (pickle.loads(pickle.dumps(net)), copy.deepcopy(net)):
        kept = copied._compiled
        assert kept is not net._compiled
        assert explore(copied) == graph
        assert copied._compiled is kept


def test_safety_then_equivalence_compile_each_transition_once(monkeypatch, corpus_models):
    model = corpus_models["guarded"]
    net, tmap = translate(model)
    built = []
    original = CompiledTransition.__init__

    def counted(self, *args):
        original(self, *args)
        built.append(self.id)

    monkeypatch.setattr(CompiledTransition, "__init__", counted)
    assert check_control_safety(net, tmap).ok
    assert check_trace_equivalence(model, net, tmap).equivalent
    assert sorted(built) == sorted(net.transitions)


def _writer_net():
    """t spends s's token and puts 'a' on p, whose colour E holds 'a' and 'b'."""
    net = unit_net()
    net.colours["E"] = EnumCS(("a", "b"))
    net.colours["F"] = EnumCS(("b",))
    net.add_place(PlaceDef("s", "s", "UNIT", (UNIT_TOKEN,)))
    net.add_place(PlaceDef("p", "p", "E"))
    net.add_transition(TransDef("t", "t"))
    net.add_arc("s", "t", PTOT, Lit(UNIT_TOKEN))
    net.add_arc("p", "t", TTOP, Lit("a"))
    net.check()
    return net


def _recolour_place(net):
    net.places["p"] = replace(net.places["p"], colour="F")


def _rewrite_arc(net):
    net.arcs[1] = replace(net.arcs[1], inscription=Lit("b"))


def _replace_colour(net):
    net.colours["E"] = EnumCS(("b",))


@pytest.mark.parametrize("edit", [_recolour_place, _rewrite_arc, _replace_colour],
                         ids=["place", "arc", "colour"])
def test_an_edit_in_place_after_a_search_gives_what_a_fresh_net_gives(edit):
    """Each edit keeps every container of the net, and the arcs list its
    length; the next search sees it all the same.  The place and colour
    edits leave 'a' outside p's colour, and the arc edit makes t put 'b'."""
    net = _writer_net()
    before = explore(net)
    assert before.states == [(("s", (UNIT_TOKEN,)),), (("p", ("a",)),)]
    edit(net)
    assert _outcome(net) == _outcome(_fresh(net)) != before


def test_an_unchanged_net_keeps_one_compiled_form():
    net = _output_only_net()
    compiled = CompiledNet.of(net)
    explore(net)
    assert CompiledNet.of(net) is compiled
    assert CompiledNet.of(compiled) is compiled
