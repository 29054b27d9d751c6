import os
import random
import subprocess
import sys
import time
from collections import Counter

import pytest

import mutations
from modelgen import (
    balanced_machine, chain_machine, doubling_smdl, random_transition_machine,
)
from smd2cpn.emit import emit_cpn_xml, parse_cpn_xml
from smd2cpn.net import (
    UNIT_TOKEN, NetError, Lit, Tup, Var, PTOT, TTOP, evaluate,
)
from smd2cpn.oracle import check_control_safety, check_trace_equivalence
from smd2cpn.smdl import parse
from smd2cpn.statemachine import NO_HISTORY
from smd2cpn.translator import (
    ModelInvalidError, TranslationConfig, TranslationMap,
    translate, translate_states, translate_transitions, translate_history,
)
from smd2cpn import expr as ex


def arcs(net, tid, orientation):
    return [a for a in net.arcs if a.trans == tid and a.orientation == orientation]


def test_cd_counts_match_hand_applied_rules(cd_net, expectations):
    net, _ = cd_net
    expected = expectations["cdplayer"]
    assert len(net.places) == expected["places"]
    assert len(net.transitions) == expected["transitions"]
    assert len(net.arcs) == expected["arcs"]


def test_small_corpus_counts_match_hand_applied_rules(corpus_nets, expectations):
    for name in ("flat", "nested3"):
        net, _ = corpus_nets[name]
        assert len(net.places) == expectations[name]["places"], name
        assert len(net.transitions) == expectations[name]["transitions"], name
        assert len(net.arcs) == expectations[name]["arcs"], name


def test_busy_final_and_history_places(cd_net):
    net, tmap = cd_net
    assert net.places["P_Busy__F"].name == "Busy^F"
    assert net.places["P_Busy__H"].name == "Busy^H"
    assert tmap.final_place["Busy"] == "P_Busy__F"
    assert tmap.history_place["Busy"] == "P_Busy__H"
    hist_colour = net.colours[net.places["P_Busy__H"].colour]
    assert hist_colour.values == ("PLAYING", "PAUSED", NO_HISTORY)
    assert net.places["P_Busy__H"].initial == (NO_HISTORY,)


def test_entry_behaviour_fts_becomes_transitions(cd_net):
    net, tmap = cd_net
    fts = [tid for tid in tmap.behaviour_trans.values() if net.transitions[tid].name == "FTS"]
    assert len(fts) == 2  # one occurrence in t1's chain, one in t7's


def test_nonplaying_contributes_nothing(cd_net):
    net, _ = cd_net
    for node_id in list(net.places) + list(net.transitions):
        assert "NONPLAYING" not in node_id
    for node in list(net.places.values()) + list(net.transitions.values()):
        assert "NONPLAYING" not in node.name


def test_minimal_machine_single_place():
    net, tmap = translate(parse("machine M { state S initial ; }"))
    assert len(net.places) == 1 and len(net.transitions) == 0
    assert tmap.vars_place is None and tmap.events_place is None
    assert net.places["P_S"].initial == (UNIT_TOKEN,)


def test_initial_marking_on_default_leaf(cd_net):
    net, _ = cd_net
    marked = [p.id for p in net.places.values()
              if p.initial and p.colour == "UNIT" and not p.id.startswith("P_cap")]
    assert marked == ["P_CLOSED"]
    assert net.places["P_VARS"].initial == ((1,),)


def test_sibling_transition_collapses_to_direct_arc(cd_net):
    net, tmap = cd_net
    assert "T_t2__from_PLAYING" in net.transitions
    nodes = tmap.transition_subnet["t2"]
    assert [n for n in nodes if n.startswith("P_")] == []  # no in-flight places
    outputs = {a.place for a in arcs(net, "T_t2__from_PLAYING", TTOP)}
    assert "P_PAUSED" in outputs


def test_composite_source_dispatches_per_substate(cd_net):
    net, tmap = cd_net
    dispatches = [tid for tid, smd in tmap.dispatch.items() if smd == "t4"]
    assert sorted(dispatches) == ["T_t4__from_PAUSED", "T_t4__from_PLAYING"]
    # both merge into the shared effect chain
    for tid in dispatches:
        assert {a.place for a in arcs(net, tid, TTOP)} >= {"P_t4_0"}
    assert tmap.behaviour_trans[("t4", "chain", 0)] == "T_t4_beh_0"
    assert net.transitions["T_t4_beh_0"].name == "Reset"


def test_history_recorded_on_boundary_crossing_dispatches(cd_net):
    net, _ = cd_net
    for x in ("PLAYING", "PAUSED"):
        tid = f"T_t4__from_{x}"
        write = [a for a in arcs(net, tid, TTOP) if a.place == "P_Busy__H"]
        assert write and write[0].inscription == Lit(x)
        read = [a for a in arcs(net, tid, PTOT) if a.place == "P_Busy__H"]
        assert read and read[0].inscription == Var("h_Busy")
    # t2 stays inside Busy: no history arcs
    assert not [a for a in arcs(net, "T_t2__from_PLAYING", TTOP)
                if a.place == "P_Busy__H"]


def test_completion_dispatch_consumes_final_place(cd_net):
    net, tmap = cd_net
    assert tmap.dispatch["T_t11__completion"] == "t11"
    inputs = {a.place for a in arcs(net, "T_t11__completion", PTOT)}
    assert "P_Busy__F" in inputs
    assert "P_EVENTS" not in inputs  # completion is triggerless
    write = [a for a in arcs(net, "T_t11__completion", TTOP)
             if a.place == "P_Busy__H"]
    assert write[0].inscription == Lit(NO_HISTORY)


def test_entering_final_routes_to_final_place(cd_net):
    net, _ = cd_net
    outputs = {a.place for a in arcs(net, "T_t10__from_PLAYING", TTOP)}
    assert "P_Busy__F" in outputs


def test_restore_fan_structure(cd_net, cd_model):
    net, tmap = cd_net
    for value, leaf in (("PLAYING", "P_PLAYING"), ("PAUSED", "P_PAUSED"),
                        (NO_HISTORY, "P_PLAYING")):
        rid = f"T_t7_restore_{value}"
        assert rid in net.transitions
        ins = {a.place: a.inscription for a in arcs(net, rid, PTOT)}
        assert ins["P_Busy__H"] == Lit(value)
        assert ins["P_t7_hist"] == Lit(UNIT_TOKEN)
        outs = {a.place: a.inscription for a in arcs(net, rid, TTOP)}
        assert outs["P_Busy__H"] == Lit(value)
        assert leaf in outs


# `models/history.smdl` with entry behaviours on the children of the history
# composite, so every restore arm runs a chain before it lands.
RESUME = """machine Workshop {
  var n : int = 0 ;
  state Home initial ;
  state Work history entry Enter {
    state Alpha initial entry EnA { n := 1 - n } {
      state A1 initial entry EnA1 ;
      state A2 exit CloseA2 ;
    } ;
    state Beta entry EnB exit LeaveBeta ;
  } ;
  trans w1 : Home -> Work on start ;
  trans w2 : A1 -> A2 on step ;
  trans w3 : Alpha -> Beta on swap ;
  trans w4 : Beta -> Alpha on swap ;
  trans w5 : Work -> Home on pause ;
  trans w6 : Home -> Work.H on resume ;
}"""


def _restore_arm(net, tmap, value):
    """The nodes from w6's restore transition for `value` to the place it
    lands on, following the control token (not VARS or ^H)."""
    node = f"T_w6_restore_{value}"
    path = [node]
    while True:
        (place,) = [a.place for a in arcs(net, node, TTOP)
                    if a.place not in ("P_VARS", "P_Work__H")]
        path.append(place)
        if place not in tmap.inflight:
            return path
        (node,) = [a.trans for a in net.arcs
                   if a.place == place and a.orientation == PTOT]
        path.append(node)


def test_restore_arms_run_their_entry_behaviours():
    net, tmap = translate(parse(RESUME))
    assert _restore_arm(net, tmap, "Alpha") == [
        "T_w6_restore_Alpha", "P_w6_restore_Alpha_0", "T_w6_restore_Alpha_beh_0",
        "P_w6_restore_Alpha_1", "T_w6_restore_Alpha_beh_1", "P_A1"]
    assert _restore_arm(net, tmap, "Beta") == [
        "T_w6_restore_Beta", "P_w6_restore_Beta_0", "T_w6_restore_Beta_beh_0", "P_Beta"]
    assert _restore_arm(net, tmap, NO_HISTORY) == [
        "T_w6_restore_NONE", "P_w6_restore_NONE_0", "T_w6_restore_NONE_beh_0",
        "P_w6_restore_NONE_1", "T_w6_restore_NONE_beh_1", "P_A1"]
    labels = {key: net.transitions[tid].name
              for key, tid in tmap.behaviour_trans.items() if key[:2] == ("w6", "restore")}
    assert labels == {
        ("w6", "restore", "Alpha", 0): "EnA", ("w6", "restore", "Alpha", 1): "EnA1",
        ("w6", "restore", "Beta", 0): "EnB",
        ("w6", "restore", NO_HISTORY, 0): "EnA", ("w6", "restore", NO_HISTORY, 1): "EnA1"}
    for value in ("Alpha", NO_HISTORY):
        tid = f"T_w6_restore_{value}_beh_0"
        (read,) = [a for a in arcs(net, tid, PTOT) if a.place == "P_VARS"]
        (write,) = [a for a in arcs(net, tid, TTOP) if a.place == "P_VARS"]
        assert read.inscription == Tup((Var("v_n"),))
        assert evaluate(write.inscription, {"v_n": 0}) == (1,)
    # the restore transitions themselves and the other occurrences leave VARS alone
    for tid in ("T_w6_restore_Alpha", "T_w6_restore_Alpha_beh_1", "T_w6_restore_Beta_beh_0"):
        assert "P_VARS" not in {a.place for a in arcs(net, tid, PTOT) + arcs(net, tid, TTOP)}


@pytest.mark.parametrize("capacity", [1, 2])
def test_restore_arms_with_behaviours_are_safe_and_equivalent(capacity):
    model = parse(RESUME)
    net, tmap = translate(model, TranslationConfig(event_capacity=capacity))
    if capacity == 1:
        safety = check_control_safety(net, tmap)
        assert safety.ok and not safety.truncated and safety.explored == 2880
    result = check_trace_equivalence(model, net, tmap, depth=10, event_capacity=capacity)
    assert result.equivalent, result.counterexample


def test_every_restore_arc_deletion_is_rejected_or_inequivalent():
    model = parse(RESUME)
    net, tmap = translate(model)
    touching = [a for a in net.arcs if "_restore_" in a.place or "_restore_" in a.trans]
    rejected, inequivalent = [], []
    for arc in touching:
        mutant = mutations.delete_arc_id(net, arc.id)
        try:
            mutant.check()
        except NetError:
            rejected.append(arc)
            continue
        result = check_trace_equivalence(model, mutant, tmap, depth=10)
        assert not result.equivalent and result.counterexample, arc
        inequivalent.append(arc)
    assert (len(rejected), len(inequivalent)) == (2, 24)

def test_guard_renamed_onto_dispatch(cd_net):
    net, _ = cd_net
    dispatch = net.transitions["T_t9__from_PLAYING"]
    assert dispatch.guard == ex.Cmp("<", ex.VarRead("v_track"), ex.IntLit(3))
    vars_arcs = [a for a in arcs(net, "T_t9__from_PLAYING", PTOT)
                 if a.place == "P_VARS"]
    assert vars_arcs, "guarded dispatch must read VARS"
    # unguarded dispatches leave VARS alone
    assert not [a for a in arcs(net, "T_t1__from_CLOSED", PTOT)
                if a.place == "P_VARS"]


# Guards built with `and`, `or` and `not`, which no corpus model has: at
# x = 1 both `go` transitions are enabled.
CONNECTIVES = """machine Connectives {
  var x : int = 0 ;
  state A initial ;
  state B ;
  state C ;
  trans up : A -> A on tick if ( x < 3 ) / Inc { x := x + 1 } ;
  trans odd : A -> B on go if ( x = 1 or x = 3 ) ;
  trans mid : A -> C on go if ( x > 0 and not x > 2 ) ;
  trans b : B -> A on back / Reset { x := 0 } ;
  trans c : C -> A on back / Reset { x := 0 } ;
}"""


@pytest.mark.parametrize("capacity, pairs", [(1, 64), (2, 216)])
def test_guards_with_connectives_translate_and_check(capacity, pairs):
    model = parse(CONNECTIVES)
    net, tmap = translate(model, TranslationConfig(event_capacity=capacity))
    guards = {tid: ex.to_text(net.transitions[tid].guard, "sml")
              for tid in ("T_odd__from_A", "T_mid__from_A")}
    assert guards == {"T_odd__from_A": "v_x = 1 orelse v_x = 3",
                      "T_mid__from_A": "v_x > 0 andalso not (v_x > 2)"}
    assert parse_cpn_xml(emit_cpn_xml(net)) == net
    assert check_control_safety(net, tmap).ok
    result = check_trace_equivalence(model, net, tmap, depth=1_000_000,
                                     event_capacity=capacity)
    assert result.equivalent and result.pairs_checked == pairs
    # the root connective swapped: with `and`, odd never fires; with `or`,
    # mid fires at x = 0 too
    diverges = {}
    for tid in guards:
        guard = net.transitions[tid].guard
        swapped = (ex.And if isinstance(guard, ex.Or) else ex.Or)(guard.left, guard.right)
        mutant = mutations.replace_guard(net, tid, swapped)
        result = check_trace_equivalence(model, mutant, tmap, depth=1_000_000,
                                         event_capacity=capacity)
        diverges[tid] = (result.divergent_side, result.counterexample)
    assert diverges == {
        "T_odd__from_A": ("model", [("inject", "go"), ("inject", "tick"),
                                    ("step", "tick", ("Inc",), "A"), ("step", "go", (), "B")]),
        "T_mid__from_A": ("net", [("inject", "go"), ("step", "go", (), "C")])}


def test_do_behaviour_self_loop(cd_net):
    net, tmap = cd_net
    assert tmap.do_loop["T_do_PLAYING"] == ("PLAYING", "PLAYING")
    ins = [a.place for a in arcs(net, "T_do_PLAYING", PTOT)]
    outs = [a.place for a in arcs(net, "T_do_PLAYING", TTOP)]
    assert ins == ["P_PLAYING"] and outs == ["P_PLAYING"]
    assert net.transitions["T_do_PLAYING"].name == "Play"


def test_event_pool_and_capacity(cd_model):
    net, tmap = translate(cd_model, TranslationConfig(event_capacity=2))
    assert net.places["P_cap_play"].initial == (UNIT_TOKEN, UNIT_TOKEN)
    # consuming dispatch returns the capacity token
    returns = {a.place for a in arcs(net, "T_t1__from_CLOSED", TTOP)}
    assert "P_cap_play" in returns


def test_translation_is_deterministic(cd_model):
    one, _ = translate(cd_model)
    two, _ = translate(cd_model)
    assert one == two
    assert [a.id for a in one.arcs] == [a.id for a in two.arcs]
    assert emit_cpn_xml(one) == emit_cpn_xml(two)


def test_states_pass_runs_standalone(cd_model):
    tmap = TranslationMap()
    partial = translate_states(cd_model, TranslationConfig(), tmap)
    assert "P_Busy__F" in partial.places
    assert "P_Busy__H" in partial.places
    assert all(tid.startswith(("T_env_", "T_do_")) for tid in partial.transitions)
    assert not partial.arcs or all(
        a.trans.startswith(("T_env_", "T_do_")) for a in partial.arcs)
    translate_transitions(cd_model, partial, tmap)
    assert any(partial.transitions[tid].name == "FTS" for tid in tmap.behaviour_trans.values())


def test_history_pass_is_identity_without_history_targets(corpus_models):
    model = corpus_models["flat"]
    tmap = TranslationMap()
    net = translate_states(model, TranslationConfig(), tmap)
    net = translate_transitions(model, net, tmap)
    before = emit_cpn_xml(net)
    net = translate_history(model, net, tmap)
    assert emit_cpn_xml(net) == before


def test_mapping_totality_and_injectivity(corpus_models, corpus_nets):
    for name, model in corpus_models.items():
        net, tmap = corpus_nets[name]
        for s in model.states:
            if s.kind == "simple":
                assert s.id in tmap.state_place, (name, s.id)
        for registry in (tmap.state_place, tmap.final_place,
                         tmap.history_place, tmap.behaviour_trans):
            values = list(registry.values())
            assert len(values) == len(set(values)), name
        for occ, tid in tmap.behaviour_trans.items():
            assert tid in net.transitions, (name, occ)
        # every node is accounted for by exactly one registry family
        claimed = Counter()
        for pid in tmap.state_place.values():
            claimed[pid] += 1
        for pid in tmap.final_place.values():
            claimed[pid] += 1
        for pid in tmap.history_place.values():
            claimed[pid] += 1
        for pid in (tmap.vars_place, tmap.events_place):
            if pid:
                claimed[pid] += 1
        for pid in tmap.capacity_place.values():
            claimed[pid] += 1
        for tid in list(tmap.producer) + list(tmap.do_loop):
            claimed[tid] += 1
        for tid in tmap.dispatch:
            claimed[tid] += 1
        for nodes in tmap.transition_subnet.values():
            for node in nodes:
                if node not in tmap.dispatch:  # dispatches double as subnet members
                    claimed[node] += 1
        all_nodes = set(net.places) | set(net.transitions)
        assert set(claimed) == all_nodes, name
        assert all(n == 1 for n in claimed.values()), (name, claimed.most_common(3))


def test_invalid_model_rejected():
    with pytest.raises(ModelInvalidError):
        translate(parse("machine M { state A initial ; state A ; }"))


def test_composed_update_within_the_bound_translates():
    net, _ = translate(parse(doubling_smdl(12)))  # 8,191 nodes
    (out,) = [a for a in net.arcs if a.trans == "T_t_beh_0" and a.orientation == TTOP
              and a.place == "P_VARS"]
    assert evaluate(out.inscription, {"v_x": 1}) == (2 ** 12,)


def test_composed_update_over_the_bound_is_refused():
    with pytest.raises(ModelInvalidError) as caught:
        translate(parse(doubling_smdl(13)))  # 16,383 nodes
    (violation,) = caught.value.report.violations
    assert violation.code == "update-too-large" and violation.element == "t.effect"
    assert str(violation) == (
        "update-too-large: behaviour 'B' composes its assignments into a 16383-node "
        "update of 'x', more than 10000 [t.effect]")


def test_pathological_double_underscore_name_fails_loudly():
    text = ("machine M { state Busy__F initial ; "
            "state Busy { state In initial ; final ; } ; "
            "trans t : Busy__F -> In on go ; }")
    with pytest.raises(NetError):
        translate(parse(text))


def test_chain_translation_speed():
    model = chain_machine(1000)
    started = time.perf_counter()
    net, _ = translate(model)
    elapsed = time.perf_counter() - started
    assert elapsed < 5.0
    assert len(net.places) >= 1000


def test_balanced_tree_translates_with_linear_growth():
    model = balanced_machine(depth=6, branching=2)  # 127 states, 63 transitions
    net, _ = translate(model)
    assert len(net.places) + len(net.transitions) < 40 * len(model.states)


def test_translation_map_does_not_depend_on_hash_seed(models_dir):
    script = ("import sys\n"
              "from smd2cpn.smdl import parse\n"
              "from smd2cpn.translator import TranslationConfig, translate\n"
              "_, tmap = translate(parse(sys.stdin.read()), TranslationConfig(event_capacity=2))\n"
              "print(repr(tmap))\n")
    text = (models_dir / "cdplayer.smdl").read_text(encoding="utf-8")
    maps = set()
    for seed in ("0", "1"):
        proc = subprocess.run([sys.executable, "-c", script], input=text,
                              capture_output=True, text=True,
                              env=dict(os.environ, PYTHONHASHSEED=seed))
        assert proc.returncode == 0, proc.stderr
        maps.add(proc.stdout)
    assert len(maps) == 1


def check_random_machine(seed: int, capacity: int):
    """Translate generated machine `seed` at `capacity` and assert that its
    net reads back from XML, is safe to exhaustion and is equivalent to
    the machine with no depth cap."""
    model = random_transition_machine(random.Random(seed))
    net, tmap = translate(model, TranslationConfig(event_capacity=capacity))
    assert parse_cpn_xml(emit_cpn_xml(net)) == net, seed
    safety = check_control_safety(net, tmap)
    assert safety.ok and not safety.truncated, (seed, safety)
    # no depth caps the walk: it stops when a layer adds no pair
    result = check_trace_equivalence(model, net, tmap, depth=1_000_000,
                                     event_capacity=capacity)
    assert result.equivalent, (seed, result.counterexample)


@pytest.mark.parametrize("capacity", [1, 2])
def test_random_machines_give_safe_equivalent_nets_that_read_back(capacity):
    for seed in range(150):
        check_random_machine(seed, capacity)
