import copy
import functools
import hashlib
import itertools
import os
import random
import subprocess
import sys
import traceback
import weakref
from dataclasses import replace

import pytest

import mutations
from conftest import CORPUS, load_model
from modelgen import balanced_machine, bf_ancestors_or_self, chain_machine
from smd2cpn import net as cpn
from smd2cpn import oracle
from smd2cpn.emit import emit_cpn_xml, parse_cpn_xml
from smd2cpn.expr import eval_bool
from smd2cpn.net import (
    UNIT_TOKEN, EnumCS, Lit, NetError, PlaceDef, PTOT, TTOP, TransDef, enabled_bindings, fire,
)
from smd2cpn.oracle import (
    Configuration, NetRunner, NotEnabledStepError,
    check_control_safety, check_trace_equivalence, enabled_transitions,
    format_counterexample, format_move, initial_configuration, inject, step,
)
from smd2cpn.smdl import parse
from smd2cpn.statemachine import FINAL, NO_HISTORY, SIMPLE, StateMachine
from smd2cpn.translator import TranslationConfig, translate
from test_translator import RESUME, arcs


def drive(model, config, *script):
    """Alternate inject/step instructions: ('in', event) or ('do', tid)."""
    labels = []
    for kind, arg in script:
        if kind == "in":
            config = inject(model, config, arg, 1)
            assert config is not None, f"injection {arg} at capacity"
        else:
            config, label = step(model, config, arg)
            labels.append(label)
    return config, labels


def test_initial_configuration(cd_model):
    config = initial_configuration(cd_model)
    assert config.active == "CLOSED"
    assert dict(config.valuation) == {"track": 1}
    assert dict(config.history) == {"Busy": NO_HISTORY}
    assert config.pending == ()


def test_configurations_print_compare_and_hash_by_their_fields():
    # `_first_failure` reads a move's several successors in repr order, so
    # a nondeterministic counterexample depends on this text
    config = Configuration("Busy.P", (("track", 2),), (("Busy", "PLAYING"),), (("play", 1),))
    assert repr(config) == ("Configuration(active='Busy.P', valuation=(('track', 2),), "
                            "history=(('Busy', 'PLAYING'),), pending=(('play', 1),))")
    same = Configuration(active="Busy.P", valuation=(("track", 2),),
                         history=(("Busy", "PLAYING"),), pending=(("play", 1),))
    assert config == same and hash(config) == hash(same)
    assert config != Configuration(config.active, config.valuation, config.history,
                                   (("play", 1), ("stop", 1)))
    assert config != Configuration(config.active, config.valuation, config.history)


def test_a_move_map_keeps_the_points_themselves():
    # a walk pair is (Configuration, Marking): a move's successors are the
    # points themselves, each once, in the order the side lists them
    c1 = Configuration("A", (("x", 1),), ())
    c2 = Configuration("A", (("x", 2),), ())
    move = ("step", "go", (), "A")
    built = oracle._move_map([(move, c2), (move, c1), (move, c2)])
    assert list(built) == [move] and list(built[move]) == [c2, c1]
    single = oracle._move_map([(move, c1)])
    assert list(single[move]) == [c1] and next(iter(single[move])) is c1


def test_a_counterexample_is_read_in_repr_order():
    # the same two move maps, given in repr order and in reverse with one
    # move's successors listed c2, c1, give the same first failure
    c1 = Configuration("A", (("x", 1),), ())
    c2 = Configuration("A", (("x", 2),), ())
    go, stop = ("step", "go", (), "A"), ("step", "stop", (), "A")
    m1, m2 = ("marking", 1), ("marking", 2)
    in_order = {go: (c1, c2), stop: (c1,)}, {go: (m1, m2), stop: (m1,)}
    reversed_ = {stop: (c1,), go: (c2, c1)}, {stop: (m1,), go: (m2, m1)}
    for fails, first in ((lambda pair: True, (go, c1, m1)),
                         (lambda pair: pair[0] == c2, (go, c2, m1)),
                         (lambda pair: pair[1] == m2, (go, c1, m2))):
        assert oracle._first_failure(*in_order, fails) == first
        assert oracle._first_failure(*reversed_, fails) == first
    assert oracle._first_failure({stop: (c1,), go: (c1,)}, {}, bool) == ("model", go)


def test_initial_configuration_trivial_cases():
    single = parse("machine M { state S initial ; }")
    assert initial_configuration(single).active == "S"
    with_var = parse("machine M { var x : int = 5 ; state S initial ; }")
    assert dict(initial_configuration(with_var).valuation) == {"x": 5}


def test_step_into_busy_runs_fts_first(cd_model):
    config = initial_configuration(cd_model)
    config, labels = drive(cd_model, config, ("in", "play"), ("do", "t1"))
    assert labels[0].behaviours[0] == "FTS"
    assert labels[0].event == "play"
    assert config.active == "PLAYING"


def test_sibling_step_has_no_behaviours(cd_model):
    config, labels = drive(cd_model, initial_configuration(cd_model),
                           ("in", "play"), ("do", "t1"),
                           ("in", "pause"), ("do", "t2"))
    assert labels[-1].behaviours == ()
    assert config.active == "PAUSED"


def test_history_reentry_restores_paused(cd_model):
    config, labels = drive(
        cd_model, initial_configuration(cd_model),
        ("in", "play"), ("do", "t1"),      # CLOSED -> PLAYING (FTS)
        ("in", "pause"), ("do", "t2"),     # -> PAUSED
        ("in", "stop"), ("do", "t4"),      # -> CLOSED, memory = PAUSED, Reset
        ("in", "open"), ("do", "t5"),      # -> OPEN
        ("in", "play"), ("do", "t7"))      # resume via history
    assert config.active == "PAUSED"
    assert labels[-1].behaviours == ("FTS",)
    assert dict(config.history)["Busy"] == "PAUSED"


def test_completion_resets_history_memory(cd_model):
    config, labels = drive(
        cd_model, initial_configuration(cd_model),
        ("in", "play"), ("do", "t1"),
        ("in", "last"), ("do", "t10"),     # enter Busy's final state
        ("do", "t11"))                      # completion, spontaneous
    assert config.active == "CLOSED"
    assert dict(config.history)["Busy"] == NO_HISTORY
    assert labels[-2].active == "Busy.final"


def test_effect_and_guard(cd_model):
    config, labels = drive(
        cd_model, initial_configuration(cd_model),
        ("in", "play"), ("do", "t1"),
        ("in", "next"), ("do", "t9"))
    assert labels[-1].behaviours == ("NextTrack",)
    assert dict(config.valuation) == {"track": 2}
    # at track = 3 the guard shuts t9 off
    config, _ = drive(cd_model, config,
                      ("in", "next"), ("do", "t9"))
    assert dict(config.valuation) == {"track": 3}
    config = inject(cd_model, config, "next", 1)
    enabled = {tid for tid, _ in enabled_transitions(cd_model, config)}
    assert "t9" not in enabled


def test_enabled_transitions_respect_triggers(corpus_models):
    model = corpus_models["guarded"]
    config = initial_configuration(model)
    assert enabled_transitions(model, config) == []  # nothing pending
    config = inject(model, config, "flip", 1)
    assert enabled_transitions(model, config) == []  # guard n >= 2 fails
    config = inject(model, config, "tick", 1)
    assert enabled_transitions(model, config) == [("inc", "tick")]


def test_group_transition_only_from_inside(corpus_models):
    model = corpus_models["completion"]
    config = initial_configuration(model)
    config = inject(model, config, "abort", 1)
    assert enabled_transitions(model, config) == []  # not inside Running
    config, _ = drive(model, config, ("in", "start"), ("do", "j1"))
    assert ("j5", "abort") in enabled_transitions(model, config)
    # at the final state only the completion transition remains
    config, _ = drive(model, config,
                      ("in", "work"), ("do", "j2"),
                      ("in", "work"), ("do", "j3"))
    enabled = enabled_transitions(model, config)
    assert ("j4", None) in enabled
    assert all(tid != "j5" for tid, _ in enabled)


def test_step_rejects_disabled_transition(cd_model):
    with pytest.raises(NotEnabledStepError):
        step(cd_model, initial_configuration(cd_model), "t2")


def test_inject_keeps_the_pool_sorted_and_bounded(cd_model):
    config = initial_configuration(cd_model)
    for event in ("stop", "next", "play", "next", "open"):
        config = inject(cd_model, config, event, 2)
    assert config.pending == (("next", 2), ("open", 1), ("play", 1), ("stop", 1))
    assert inject(cd_model, config, "next", 2) is None
    assert inject(cd_model, config, "open", 1) is None
    assert inject(cd_model, config, "close", 0) is None
    assert inject(cd_model, config, "close", 1).pending == (("close", 1),) + config.pending


def test_step_is_pure(cd_model):
    config = inject(cd_model, initial_configuration(cd_model), "play", 1)
    one = step(cd_model, config, "t1")
    two = step(cd_model, config, "t1")
    assert one == two


def test_valuation_domain_never_changes(cd_model):
    config, labels = drive(
        cd_model, initial_configuration(cd_model),
        ("in", "play"), ("do", "t1"), ("in", "next"), ("do", "t9"),
        ("in", "stop"), ("do", "t4"))
    assert set(dict(config.valuation)) == {"track"}


def test_chain_length_conservation(corpus_models, corpus_nets):
    # the net fires exactly |exit| + |effect| + |entry| observables per step
    model = corpus_models["nested3"]
    net, tmap = corpus_nets["nested3"]
    runner, reference = NetRunner(net, tmap, model), ReferenceRunner(net, tmap, model)
    config = inject(model, initial_configuration(model), "go", 1)
    point = dict(moves_as_the_reference(runner, reference, runner.start))[("inject", "go")]
    (net_move, _), = [(move, after)
                      for move, after in moves_as_the_reference(runner, reference, point)
                      if move[0] != "inject"]
    _, smd_label = step(model, config, "t_go")
    assert smd_label.behaviours == ("Shutdown", "Boot", "MidUp", "LeafUp")
    assert net_move == ("step", "go", smd_label.behaviours, smd_label.active)


def test_do_loops_present_iff_declared(corpus_models, corpus_nets):
    for name, model in corpus_models.items():
        net, tmap = corpus_nets[name]
        declared = {(s.id, x) for s in model.states if s.do is not None
                    for x in model.substates(s.id)}
        assert set(tmap.do_loop.values()) == declared, name
        for tid, (sid, x) in tmap.do_loop.items():
            place = tmap.state_place[x]
            assert [a.place for a in arcs(net, tid, PTOT)].count(place) == 1
            assert [a.place for a in arcs(net, tid, TTOP)].count(place) == 1
            assert net.transitions[tid].name == model.by_id[sid].do.label


# ---------------------------------------------------------------------------
# trace equivalence


def test_single_state_machine_trivially_equivalent():
    model = parse("machine M { state S initial ; }")
    net, tmap = translate(model)
    assert check_trace_equivalence(model, net, tmap, depth=4).equivalent


def test_corpus_models_equivalent(corpus_models, corpus_nets):
    for name in ("flat", "guarded", "history"):
        model = corpus_models[name]
        net, tmap = corpus_nets[name]
        result = check_trace_equivalence(model, net, tmap, depth=5)
        assert result.equivalent, (name, result.counterexample)


def test_a_deeper_check_costs_no_more_than_the_pair_space(corpus_models, corpus_nets):
    # each reachable (configuration, marking) pair is compared once: flat's
    # are (OFF | ON) x (toggle pending or not), and cdplayer's 5,760
    model = corpus_models["flat"]
    net, tmap = corpus_nets["flat"]
    for depth in (400, 10**6):
        result = check_trace_equivalence(model, net, tmap, depth=depth)
        assert result.equivalent and result.pairs_checked == 4
    with pytest.raises(ValueError, match="depth must be at least 1"):
        check_trace_equivalence(model, net, tmap, depth=0)
    net, tmap = corpus_nets["cdplayer"]
    result = check_trace_equivalence(corpus_models["cdplayer"], net, tmap, depth=400)
    assert result.equivalent and result.pairs_checked == 5760


def test_deleted_arc_detected_with_counterexample(cd_model, cd_net):
    net, tmap = cd_net
    broken = mutations.delete_arc(net, "P_EVENTS", "T_t2__from_PLAYING", "PtoT")
    result = check_trace_equivalence(cd_model, broken, tmap, depth=8)
    assert not result.equivalent
    assert result.counterexample
    text = format_counterexample(cd_model, result)
    assert "divergence" in text
    # the spurious step fires without consuming an event
    assert result.counterexample[-1][0] == "step"


def _read_back(net):
    return parse_cpn_xml(emit_cpn_xml(net))


def test_a_net_read_back_from_its_xml_gets_the_same_result():
    # the check reads the model, the net's structure and the map, all of
    # which a written net and map hold
    for name in CORPUS:
        model = load_model(name)
        for capacity in (1, 2):
            net, tmap = translate(model, TranslationConfig(event_capacity=capacity))
            results = [check_trace_equivalence(model, each, tmap, event_capacity=capacity)
                       for each in (net, _read_back(net))]
            assert results[0] == results[1], (name, capacity)


def test_swapped_behaviour_names_diverge_in_memory_and_read_back(corpus_models, corpus_nets):
    model = corpus_models["nested3"]
    net, tmap = corpus_nets["nested3"]
    assert [net.transitions[tid].name for tid in ("T_t_go_beh_1", "T_t_go_beh_2")] == [
        "Boot", "MidUp"]
    swapped = mutations.swap_labels(net, "T_t_go_beh_1", "T_t_go_beh_2")
    result = check_trace_equivalence(model, swapped, tmap)
    assert (result.equivalent, result.divergent_side) == (False, "model")
    assert result.counterexample == [
        ("inject", "go"), ("step", "go", ("Shutdown", "Boot", "MidUp", "LeafUp"), "Leaf")]
    assert check_trace_equivalence(model, _read_back(swapped), tmap) == result


def test_a_net_without_a_dispatch_transition_never_offers_its_step(corpus_models):
    model = corpus_models["guarded"]
    net, tmap = translate(model)
    del net.transitions["T_flip__from_Z"]
    net.arcs = [arc for arc in net.arcs if arc.trans != "T_flip__from_Z"]
    net.check()
    result = check_trace_equivalence(model, net, tmap)
    assert not result.equivalent
    assert result.counterexample[-1] == ("step", "flip", (), "P")


def test_a_passing_walk_builds_two_maps_per_compared_pair(corpus_models, monkeypatch):
    # each compared pair, the last layer's too, gets one move map per side,
    # and a passing check reads no pair's maps again
    built = []
    real = oracle._move_map
    monkeypatch.setattr(oracle, "_move_map", lambda *args: built.append(1) or real(*args))
    counts = {}
    for name, capacity in (("cdplayer", 1), ("history", 2)):
        model = corpus_models[name]
        net, tmap = translate(model, TranslationConfig(event_capacity=capacity))
        built.clear()
        result = check_trace_equivalence(model, net, tmap, depth=8, event_capacity=capacity)
        assert result.equivalent
        counts[name] = (result.pairs_checked, len(built))
    assert counts == {"cdplayer": (745, 1490), "history": (534, 1068)}


class _LiveMap(dict):
    __hash__ = object.__hash__  # a WeakSet holds only hashable items


def test_a_passing_walk_keeps_no_move_maps(corpus_models, monkeypatch):
    # at each net-side enumeration of an exact check, at most the last
    # pair's two maps and this pair's model map are alive
    live, most = weakref.WeakSet(), []
    real_map, real_moves = oracle._move_map, NetRunner.moves

    def move_map(*args):
        built = _LiveMap(real_map(*args))
        live.add(built)
        return built

    def moves(runner, marking):
        most[0] = max(most[0], len(live))
        return real_moves(runner, marking)
    monkeypatch.setattr(oracle, "_move_map", move_map)
    monkeypatch.setattr(NetRunner, "moves", moves)
    for name in ("cdplayer", "history"):
        model = corpus_models[name]
        net, tmap = translate(model)
        most[:] = [0]
        assert check_trace_equivalence(model, net, tmap, depth=1_000_000).equivalent
        assert 0 < most[0] <= 3, name


def test_a_firing_error_surfaces_at_the_last_layer(corpus_models, corpus_nets):
    # the last layer's moves still fire a producer, so its output outside
    # the colour raises at depth 1 too, where the start pair is the last layer
    model = corpus_models["flat"]
    net, tmap = corpus_nets["flat"]
    broken = copy.deepcopy(net)
    broken.arcs = [replace(arc, inscription=Lit("bogus")) if arc.id == "A_2" else arc
                   for arc in broken.arcs]
    for depth in (1, 2, 8):
        with pytest.raises(NetError) as raised:
            check_trace_equivalence(model, broken, tmap, depth=depth)
        assert str(raised.value) == (
            "T_env_toggle: produced 'bogus' outside the colour of P_EVENTS")


def test_deep_divergence_is_found_in_one_walk():
    # the 199th step of a 200-state chain never lands: the walk compares
    # each of the 398 pairs on the way once
    model = chain_machine(200)
    net, tmap = translate(model)
    broken = mutations.delete_arc(net, "P_C199", "T_t198__from_C198", "TtoP")
    result = check_trace_equivalence(model, broken, tmap, depth=400)
    assert not result.equivalent and result.pairs_checked == 398
    assert len(result.counterexample) == 398
    assert result.counterexample[-1] == ("step", "step", (), "C199")
    assert result.divergent_side == "model"


def reference_bisimulation(left: list, right: list, depth: int):
    """(counterexample, divergent side) of two move graphs from their points
    0, or (None, None) when they are bisimilar to `depth` moves: a plain
    recursive depth-k bisimulation, memoised on (u, v, k), that tries the
    depths from 1 and reads each failure in the move maps' order."""
    @functools.cache
    def failure(u, v, k):
        if k == 0:
            return None
        here, there = left[u], right[v]
        for side, offers, other in (("model", here, there), ("net", there, here)):
            for move in offers:
                if move not in other:
                    return side, move
        for move, us in here.items():
            vs = there[move]
            for a in us:
                if all(failure(a, b, k - 1) for b in vs):
                    return move, a, vs[0]
            for b in vs:
                if all(failure(a, b, k - 1) for a in us):
                    return move, us[0], b
        return None

    shortest = next((k for k in range(1, depth + 1) if failure(0, 0, k)), None)
    if shortest is None:
        return None, None
    trace, u, v, k = [], 0, 0, shortest
    while len(why := failure(u, v, k)) == 3:
        trace.append(why[0])
        _, u, v = why
        k -= 1
    return trace + [why[1]], why[0]


def random_successors(rng, points: int) -> tuple:
    return tuple(sorted(rng.sample(range(points), rng.randint(1, 3))))


def random_move_map(rng, points: int) -> dict:
    """Up to 3 labels, each leading to 1 to 3 of `points` points."""
    return {label: random_successors(rng, points) for label in "abc" if rng.random() < 0.7}


def random_move_graph(rng, points: int) -> list:
    return [random_move_map(rng, points) for _ in range(points)]


def perturbed(rng, graph: list) -> list:
    """`graph` with one or two of its move maps changed: one move's
    successors drawn again, or the whole map."""
    graph = [dict(moves) for moves in graph]
    for _ in range(rng.randint(1, 2)):
        n = rng.randrange(len(graph))
        if graph[n] and rng.random() < 0.5:
            graph[n][rng.choice(sorted(graph[n]))] = random_successors(rng, len(graph))
        else:
            graph[n] = random_move_map(rng, len(graph))
    return graph


def first_reached(left: list, right: list) -> dict:
    """{pair: the fewest moves to it from (0, 0)} over the moves both sides offer."""
    moves, queue = {(0, 0): 0}, [(0, 0)]
    for pair in queue:
        for after in oracle._pairs_after(left[pair[0]], right[pair[1]]):
            if after not in moves:
                moves[after] = moves[pair] + 1
                queue.append(after)
    return moves


def test_pair_walk_matches_a_recursive_reference_on_random_graphs():
    # nondeterministic graphs of 3 to 9 points, most compared with a copy
    # changed in one or two places; with its failure rounds not capped at
    # the layers walked, the walk gave a wrong trace on 60 of these checks.
    # An equivalent result reads no move map of a pair first reached depth
    # or more moves out, also the 113 whose walk meets a harmless
    # difference and so runs failure rounds
    rng = random.Random(1405)
    equivalent, longest = 0, 0
    for _ in range(600):
        left = random_move_graph(rng, rng.randint(3, 9))
        right = (perturbed(rng, left) if rng.random() < 0.8
                 else random_move_graph(rng, rng.randint(3, 9)))
        reached = first_reached(left, right)
        for depth in (3, 5, 8, 12):
            read = set()
            result = oracle._walk_pairs(
                (0, 0), lambda pair: read.add(pair) or (left[pair[0]], right[pair[1]]), depth)
            expected = reference_bisimulation(left, right, depth)
            assert (result.counterexample, result.divergent_side) == expected
            assert result.equivalent == (expected[0] is None)
            if result.equivalent:
                assert max(reached[pair] for pair in read) < depth
            equivalent += result.equivalent
            longest = max(longest, len(result.counterexample or ()))
    assert (equivalent, longest) == (199, 5)


def test_a_harmless_difference_keeps_the_walk_linear():
    # both sides go 0 -a-> {1, 2}, so the pairs (1, 2) and (2, 1) differ
    # from the second layer on while the start pair never fails, and the
    # walk goes on round a cycle of 1,000 points; rebuilding the failure
    # rounds' predecessor index after every layer read 507,511 move maps
    graph = ([{"a": (1, 2)}, {"a": (3,)}, {"b": (2,)}]
             + [{"a": (n + 1,)} for n in range(3, 1002)] + [{"a": (1,)}])
    reads = []

    def sides(pair):
        reads.append(pair)
        return graph[pair[0]], graph[pair[1]]
    result = oracle._walk_pairs((0, 0), sides, 2000)
    assert result.equivalent and result.pairs_checked == 1005
    assert len(reads) < 4 * 1005


_NONDETERMINISTIC = """machine M {
  var x : int = 0 ;
  state A initial ;
  state B ;
  trans t1 : A -> B on go / set { x := 1 } ;
  trans t2 : A -> B on go / set { x := 0 } ;
  trans t3 : B -> A on back ;
}"""


def test_pairs_checked_does_not_depend_on_hash_seed():
    # the same `go / set` move reaches two configurations, so the search
    # order over them must not come from their hashes
    script = ("import sys\n"
              "from smd2cpn.oracle import check_trace_equivalence\n"
              "from smd2cpn.smdl import parse\n"
              "from smd2cpn.translator import translate\n"
              "model = parse(sys.stdin.read())\n"
              "net, tmap = translate(model)\n"
              "print(check_trace_equivalence(model, net, tmap, depth=6).pairs_checked)\n")
    counts = set()
    for seed in ("0", "2"):
        proc = subprocess.run([sys.executable, "-c", script], input=_NONDETERMINISTIC,
                              capture_output=True, text=True,
                              env=dict(os.environ, PYTHONHASHSEED=seed))
        assert proc.returncode == 0, proc.stderr
        counts.add(int(proc.stdout))
    assert len(counts) == 1


def test_event_capacity_must_match_the_net(corpus_models):
    model = corpus_models["flat"]
    for translated, checked in ((2, 1), (1, 3)):
        net, tmap = translate(model, TranslationConfig(event_capacity=translated))
        with pytest.raises(ValueError, match=f"event capacity {checked} does not "
                                             f"match the net's capacity {translated}"):
            check_trace_equivalence(model, net, tmap, event_capacity=checked)
    # a machine without events has no capacity to disagree with
    model = parse("machine M { state S initial ; state T ; trans t : S -> T ; }")
    net, tmap = translate(model)
    assert check_trace_equivalence(model, net, tmap, event_capacity=3).equivalent


def test_verdict_independent_of_declaration_order(corpus_models):
    model = corpus_models["guarded"]
    shuffled = StateMachine(name=model.name,
                            states=tuple(reversed(model.states)),
                            transitions=tuple(reversed(model.transitions)),
                            variables=model.variables)
    # reversing sibling/transition declarations must not change the verdict
    for m in (model, shuffled):
        net, tmap = translate(m)
        assert check_trace_equivalence(m, net, tmap, depth=5).equivalent


def test_stuck_chain_is_a_divergence(cd_model, cd_net):
    net, tmap = cd_net
    broken = mutations.delete_arc(net, "P_PAUSED", "T_t2__from_PLAYING", "TtoP")
    result = check_trace_equivalence(cd_model, broken, tmap, depth=6)
    assert not result.equivalent and result.divergent_side == "model"
    assert result.counterexample == [
        ("inject", "pause"), ("inject", "play"),
        ("step", "play", ("FTS",), "PLAYING"), ("step", "pause", (), "PAUSED")]
    # where the machine steps to PAUSED, the net's chain gets stuck instead
    runner, reference = NetRunner(broken, tmap, cd_model), ReferenceRunner(broken, tmap, cd_model)
    point = runner.start
    for move in result.counterexample[:-1]:
        point, = [after for offered, after in moves_as_the_reference(runner, reference, point)
                  if offered == move]
    stuck = [move for move, _ in moves_as_the_reference(runner, reference, point)
             if move[0] == "stuck"]
    assert stuck == [("stuck", "pause", (), "0 chain transitions enabled")]
    assert format_move(cd_model, stuck[0]) == "on pause -> stuck (0 chain transitions enabled)"


def test_stuck_chain_offered_by_the_net_ends_the_trace(corpus_models, corpus_nets):
    model = corpus_models["interlevel"]
    net, tmap = corpus_nets["interlevel"]
    broken = mutations.delete_arc_id(net, "A_27")
    result = check_trace_equivalence(model, broken, tmap, depth=8)
    assert result.divergent_side == "net"
    assert result.counterexample[-1] == (
        "stuck", "down", ("StartMotor", "CountDown"), "0 chain transitions enabled")
    assert format_counterexample(model, result).splitlines()[-1] == (
        "divergence: net offers 'on down / StartMotor, CountDown -> stuck "
        "(0 chain transitions enabled)' but the state machine cannot match it")


def verdict(result):
    """What a check tells its user, in a form whose repr can be hashed; the
    pair count, a measure of its cost, is pinned apart from it."""
    return result.equivalent, result.counterexample, result.divergent_side


def sha256(value) -> str:
    return hashlib.sha256(repr(value).encode()).hexdigest()


def accepted_arc_deletions(net):
    """(arc id, mutant) for every single-arc deletion that `check()` accepts."""
    for arc in net.arcs:
        mutant = mutations.delete_arc_id(net, arc.id)
        try:
            mutant.check()
        except NetError:
            continue
        yield arc.id, mutant


def test_corpus_outcomes_are_pinned():
    # verdicts, counterexamples and sides of the corpus at the CLI depth, at
    # event capacity 1 and 2, and of the nondeterministic model and its 24
    # accepted arc-deletion mutants at depths 1 to 8
    outcomes, pairs = [], {}
    for name in CORPUS:
        model = load_model(name)
        for capacity in (1, 2):
            net, tmap = translate(model, TranslationConfig(event_capacity=capacity))
            result = check_trace_equivalence(model, net, tmap, depth=8,
                                             event_capacity=capacity)
            outcomes.append((name, capacity, verdict(result)))
            pairs[f"{name}@{capacity}"] = result.pairs_checked
    model = parse(_NONDETERMINISTIC)
    net, tmap = translate(model)
    nondeterministic = []
    for arc_id, mutant in [(None, net), *accepted_arc_deletions(net)]:
        for depth in range(1, 9):
            result = check_trace_equivalence(model, mutant, tmap, depth=depth)
            outcomes.append((arc_id, depth, verdict(result)))
            nondeterministic.append(result.pairs_checked)
    assert len(outcomes) == 14 + 25 * 8
    assert sha256(outcomes) == (
        "8070f8076d744360f058437fe69fd89521b78145ddb8fd133e2df8443dcc9dad")
    assert pairs == {
        "flat@1": 4, "flat@2": 6, "nested3@1": 8, "nested3@2": 18,
        "interlevel@1": 67, "interlevel@2": 213, "guarded@1": 32, "guarded@2": 78,
        "history@1": 154, "history@2": 534, "completion@1": 28, "completion@2": 74,
        "cdplayer@1": 745, "cdplayer@2": 2992}
    assert sum(nondeterministic) == 1484


def test_every_arc_deletion_is_rejected_or_inequivalent(corpus_models, corpus_nets):
    """The mutation score of single-arc deletion at capacity 1: every
    mutant is rejected by `check()` or diverges within depth 10, so the
    equivalence check alone catches all that `check()` accepts.  Depth 10
    because four mutants (`interlevel` A_24, `guarded` A_24 and A_25,
    `history` A_71) first diverge at move 10; and `guarded`'s A_29, the
    capacity-return arc of `reset`, first diverges at move 9, past the
    default depth 8, while control safety holds on it.  `cdplayer` is
    left out: its 102 mutants take about 10 s.  The verdicts of the 219
    checks are pinned by a digest, and their pair counts by their total."""
    rejected, inequivalent, survivors, outcomes, pairs = [], [], [], [], 0
    for name in ("flat", "nested3", "interlevel", "guarded", "history", "completion"):
        model = corpus_models[name]
        net, tmap = corpus_nets[name]
        accepted = dict(accepted_arc_deletions(net))
        rejected += [(name, arc.id) for arc in net.arcs if arc.id not in accepted]
        for arc_id, mutant in accepted.items():
            result = check_trace_equivalence(model, mutant, tmap, depth=10)
            outcomes.append((name, arc_id, verdict(result)))
            pairs += result.pairs_checked
            if result.equivalent or not result.counterexample:
                survivors.append((name, arc_id))
            else:
                inequivalent.append((name, arc_id))
    assert survivors == []
    assert (len(rejected), len(inequivalent)) == (9, 219)
    assert sha256(outcomes) == (
        "4534a2857daec0c74a1a3e640be17d9f4e3a98bd2ff2675d7461619e677f6ffa")
    assert pairs == 5667


def test_no_outcome_depends_on_the_order_a_side_lists_its_moves(
        corpus_models, corpus_nets, monkeypatch):
    # both sides list their moves reversed: the walk follows each side's
    # order, yet the pinned verdicts, counterexamples and pair counts hold
    machine_moves, net_moves = oracle._machine_moves, NetRunner.moves
    monkeypatch.setattr(oracle, "_machine_moves",
                        lambda *args: reversed(list(machine_moves(*args))))
    monkeypatch.setattr(NetRunner, "moves",
                        lambda runner, marking: net_moves(runner, marking)[::-1])
    test_corpus_outcomes_are_pinned()
    test_every_arc_deletion_is_rejected_or_inequivalent(corpus_models, corpus_nets)


def test_control_safety_on_corpus(corpus_nets):
    for name, (net, tmap) in corpus_nets.items():
        if name == "cdplayer":
            continue  # covered by the acceptance suite (larger state space)
        result = check_control_safety(net, tmap)
        assert result.ok and not result.truncated, (name, result.violations)


def _with_initial(net, changes: dict):
    """A copy of the net with the given places' initial tokens replaced."""
    broken = copy.deepcopy(net)
    for pid, initial in changes.items():
        place = broken.places[pid]
        broken.places[pid] = PlaceDef(place.id, place.name, place.colour, initial)
    return broken


UNIT = ()


@pytest.mark.parametrize("name, changes, explored, per_state", [
    ("flat", {"P_ON": (UNIT,)}, 6, ["2 control tokens"]),
    ("guarded", {"P_VARS": ()}, 8, ["0 tokens on VARS"]),
    ("history", {"P_Work__H": ()}, 288, ["0 tokens on history place of Work"]),
    ("cdplayer", {"P_CLOSED": (UNIT, UNIT), "P_VARS": (), "P_Busy__H": ()}, 4608,
     ["2 control tokens", "0 tokens on VARS", "0 tokens on history place of Busy"]),
], ids=["second-control-token", "empty-vars", "empty-history", "all-three"])
def test_control_safety_violations_are_pinned(corpus_nets, name, changes, explored,
                                              per_state):
    """Every violation, in order: state by state, control tokens first,
    then VARS, then each history place."""
    net, tmap = corpus_nets[name]
    result = check_control_safety(_with_initial(net, changes), tmap)
    assert (result.ok, result.explored, result.truncated) == (False, explored, False)
    assert result.violations == [f"state {index}: {what}" for index in range(explored)
                                 for what in per_state]


# ---------------------------------------------------------------------------
# The indexed enabled_transitions against the firing rule, restated


def reference_enabled(model, config):
    """The firing rule over every model transition, with no index: a
    completion (triggerless, out of a state whose region has a final state)
    fires from that final state, any other transition from a simple leaf
    at or below its source; its trigger must be pending and its guard hold."""
    valuation, pending = dict(config.valuation), dict(config.pending)
    leaf = next(s for s in model.states if s.id == config.active)
    path = bf_ancestors_or_self(model, leaf.id) if leaf.kind == SIMPLE else []
    enabled = []
    for t in model.transitions:
        final = next((s.id for s in model.states
                      if s.parent == t.source and s.kind == FINAL), None)
        if t.trigger is None and final is not None:
            from_here = leaf.id == final
        else:
            from_here = t.source in path
        if (from_here and (t.trigger is None or pending.get(t.trigger, 0) >= 1)
                and (t.guard is None or eval_bool(t.guard, valuation))):
            enabled.append((t.id, t.trigger))
    return sorted(enabled)


def reference_machine_moves(model, config, capacity):
    """(move, successor) for every injection and step of the machine, from
    the public `inject`, `enabled_transitions` and `step` alone."""
    for event in model.events:
        after = inject(model, config, event, capacity)
        if after is not None:
            yield ("inject", event), after
    for tid, _ in enabled_transitions(model, config):
        after, label = step(model, config, tid)
        yield ("step", label.event, label.behaviours, label.active), after


def reachable_configurations(model, capacity, bound):
    """Breadth-first over the machine's moves, up to `bound` configurations."""
    start = initial_configuration(model)
    seen, queue = {start}, [start]
    for config in queue:
        for _, after in reference_machine_moves(model, config, capacity):
            if after not in seen and len(seen) < bound:
                seen.add(after)
                queue.append(after)
    return queue


ENABLED_CASES = {
    **{f"{name}@{cap}": (lambda name=name: load_model(name), cap)
       for name in CORPUS for cap in (1, 2)},
    "chain-20": (lambda: chain_machine(20), 1),
    "balanced-3x2": (lambda: balanced_machine(3, 2), 1),
    **{f"resume@{cap}": (lambda: parse(RESUME), cap) for cap in (1, 2)},
    **{f"nondeterministic@{cap}": (lambda: parse(_NONDETERMINISTIC), cap) for cap in (1, 2)},
}


@pytest.mark.parametrize("case", sorted(ENABLED_CASES))
def test_enabled_transitions_equal_the_full_scan(case):
    build, capacity = ENABLED_CASES[case]
    model = build()
    configs = reachable_configurations(model, capacity, bound=6_000)
    assert len(configs) > 1
    for config in configs:
        assert enabled_transitions(model, config) == reference_enabled(model, config), config


@pytest.mark.parametrize("build", [lambda: balanced_machine(8, 2),
                                   lambda: chain_machine(2000)],
                         ids=["balanced-8x2", "chain-2000"])
def test_enabled_transitions_test_only_transitions_leaving_the_active_path(
        build, monkeypatch):
    model = build()
    config = initial_configuration(model)
    configs = [config]
    for _ in range(3):
        config = inject(model, config, "step", 1)
        (tid, _), = enabled_transitions(model, config)
        config, _ = step(model, config, tid)
        configs.append(config)
    tested = []
    real = StateMachine.is_completion
    monkeypatch.setattr(StateMachine, "is_completion",
                        lambda model, t: tested.append(t) or real(model, t))
    for config in configs:
        path = bf_ancestors_or_self(model, config.active)
        leaving = [t for t in model.transitions if t.source in path]
        tested.clear()
        enabled_transitions(model, config)
        assert 0 < len(tested) <= len(leaving)


# ---------------------------------------------------------------------------
# The step memo against the public step, and NetRunner against the public
# token game


@pytest.mark.parametrize("case", sorted(ENABLED_CASES))
def test_memoised_machine_moves_equal_the_public_step(case):
    # one memo across the configurations, as in one check, so that most of
    # them read steps worked out at another configuration
    build, capacity = ENABLED_CASES[case]
    model = build()
    configs = reachable_configurations(model, capacity, bound=6_000)
    steps = {}
    for config in configs:
        moves = list(oracle._machine_moves(model, config, capacity, steps))
        assert moves == list(reference_machine_moves(model, config, capacity)), config
    assert 0 < len(steps) < len(configs)


def test_each_check_works_each_step_out_once(cd_model, cd_net, monkeypatch):
    """The step memo lives for one check: two checks in a row work out the
    same steps, fewer than the step moves the walk compares."""
    net, tmap = cd_net
    worked, offered = [], []
    real_step, real_moves = oracle._run_step, oracle._machine_moves
    monkeypatch.setattr(oracle, "_run_step",
                        lambda model, t, *key: worked.append(t) or real_step(model, t, *key))

    def counted(*args):
        for move, after in real_moves(*args):
            offered.append(move[0] == "step")
            yield move, after
    monkeypatch.setattr(oracle, "_machine_moves", counted)
    counts = []
    for _ in range(2):
        worked.clear()
        offered.clear()
        assert check_trace_equivalence(cd_model, net, tmap, depth=8).equivalent
        counts.append((len(worked), sum(offered)))
    assert counts[0] == counts[1]
    assert 0 < counts[0][0] < counts[0][1]


class ReferenceRunner(NetRunner):
    """`NetRunner`'s chains and moves on the public token game alone: every
    binding from `enabled_bindings` and every firing by `fire`, with the
    producers tried in event order, and a chain firing labelled by the name
    of the behaviour occurrence that the map says it is."""

    def __init__(self, net, tmap, model):
        super().__init__(net, tmap, model)
        self.producers = sorted((event, tid) for tid, event in tmap.producer.items())
        self.labels = {tid: net.transitions[tid].name
                       for tid in tmap.behaviour_trans.values() if tid in net.transitions}
        # each dispatch's event, read up front from its input arcs
        self.trigger_of_dispatch = dict.fromkeys(tmap.dispatch)
        for arc in net.arcs:
            if (arc.trans in tmap.dispatch and arc.place == tmap.events_place
                    and arc.orientation == PTOT and isinstance(arc.inscription, Lit)):
                self.trigger_of_dispatch[arc.trans] = arc.inscription.value

    def run_chain(self, marking):
        labels = []
        for _ in range(self.chain_bound):
            if self.stable_leaf(marking) is not None:
                return tuple(labels), marking, None
            candidates = [(trans.id, binding)
                          for trans in map(self.compiled.transitions.__getitem__,
                                           self.compiled.candidates(marking))
                          if trans.id not in self.skip_in_chain
                          for binding in enabled_bindings(self.compiled, marking, trans.id)]
            if len(candidates) != 1:
                return tuple(labels), marking, f"{len(candidates)} chain transitions enabled"
            tid, binding = candidates[0]
            marking = fire(self.compiled, marking, tid, binding)
            if tid in self.labels:
                labels.append(self.labels[tid])
        return tuple(labels), marking, f"not stable after {self.chain_bound} firings"

    def moves(self, marking):
        candidates = [self.compiled.transitions[p] for p in self.compiled.candidates(marking)]
        offered = {trans.id for trans in candidates}
        moves = []
        for event, tid in self.producers:
            if tid in offered and (bindings := enabled_bindings(self.compiled, marking, tid)):
                moves.append((("inject", event), fire(self.compiled, marking, tid, bindings[0])))
        for trans in candidates:
            tid = trans.id
            if tid not in self.trigger_of_dispatch:  # the dispatch transitions
                continue
            event = self.trigger_of_dispatch[tid]
            for binding in enabled_bindings(self.compiled, marking, tid):
                labels, final, stuck = self.run_chain(fire(self.compiled, marking, tid, binding))
                if stuck is None:
                    move = ("step", event, labels, self.stable_leaf(final))
                else:
                    move = ("stuck", event, labels, stuck)
                moves.append((move, final))
        return moves


def _moves_or_error(moves, point):
    try:
        return moves(point)
    except NetError as error:
        return f"{type(error).__name__}: {error}"


def _decoded(runner, moves):
    """`runner.moves`' result with each successor point decoded."""
    if isinstance(moves, str):
        return moves
    return [(move, runner.points.decode(after)) for move, after in moves]


def moves_as_the_reference(runner, reference, point):
    """`runner.moves` at the point, after asserting that its decoded
    successors are the reference's at the decoded marking, every move in
    order."""
    moves = runner.moves(point)
    assert _decoded(runner, moves) == reference.moves(runner.points.decode(point))
    return moves


def assert_runner_matches_the_reference(model, net, tmap, bound, coded=True):
    """Breadth-first over the moves that do not get stuck, up to `bound`
    points, comparing `NetRunner.moves`, its successors decoded, with the
    reference at each: the same moves in the same order, or the same
    error.  `coded` says whether the runner codes its points.  Returns the
    points compared and how many raised."""
    runner, reference = NetRunner(net, tmap, model), ReferenceRunner(net, tmap, model)
    assert isinstance(runner.points, cpn.DenseCoding) == coded
    seen, queue, raised = {runner.start}, [runner.start], 0
    for point in queue:
        moves = _moves_or_error(runner.moves, point)
        marking = runner.points.decode(point)
        assert _decoded(runner, moves) == _moves_or_error(reference.moves, marking), marking
        if isinstance(moves, str):
            raised += 1
            continue
        for move, after in moves:
            if move[0] != "stuck" and after not in seen and len(seen) < bound:
                seen.add(after)
                queue.append(after)
    return len(queue), raised


def both_paths(monkeypatch):
    """Yields True with `DENSE_FILL` as it is, where every corpus net and
    mutant is coded, then False with it 0, where none is."""
    for fill in (cpn.DENSE_FILL, 0):
        monkeypatch.setattr(cpn, "DENSE_FILL", fill)
        yield fill != 0


@pytest.mark.parametrize("capacity", [1, 2])
def test_net_moves_equal_the_public_token_game_on_the_corpus(capacity, monkeypatch):
    # every stable marking, but cdplayer@2's first 3,000 of 98,415, on
    # coded points and on markings
    for coded in both_paths(monkeypatch):
        compared = {}
        for name in CORPUS:
            model = load_model(name)
            net, tmap = translate(model, TranslationConfig(event_capacity=capacity))
            bound = 3_000 if (name, capacity) == ("cdplayer", 2) else 10_000
            compared[name] = assert_runner_matches_the_reference(model, net, tmap, bound, coded)
        assert compared == {
            1: {"flat": (4, 0), "nested3": (8, 0), "interlevel": (112, 0), "guarded": (48, 0),
                "history": (384, 0), "completion": (32, 0), "cdplayer": (5_760, 0)},
            2: {"flat": (6, 0), "nested3": (18, 0), "interlevel": (567, 0), "guarded": (162, 0),
                "history": (2_916, 0), "completion": (108, 0), "cdplayer": (3_000, 0)},
        }[capacity]


@pytest.mark.parametrize("name", ["flat", "nested3", "interlevel", "guarded", "history",
                                  "completion"])
def test_net_moves_equal_the_public_token_game_on_mutants(corpus_models, corpus_nets, name,
                                                         monkeypatch):
    net, tmap = corpus_nets[name]
    for coded in both_paths(monkeypatch):
        for _, mutant in accepted_arc_deletions(net):
            assert_runner_matches_the_reference(corpus_models[name], mutant, tmap, 200, coded)


#: capacity-1 arc deletions that the walk first tells apart 9 to 11 moves out
LATE_DELETIONS = {"guarded": ("A_24", "A_25", "A_29"), "history": ("A_71",),
                  "interlevel": ("A_24",),
                  "cdplayer": ("A_32", "A_44", "A_45", "A_88", "A_89", "A_97")}


def test_coded_and_plain_points_check_alike(monkeypatch):
    """Every corpus net at capacities 1 and 2, at depth 8 and to
    exhaustion (cdplayer@2 at depth 8 only), and the late deletions to
    exhaustion: each check gives an equal result on coded points and, with
    `DENSE_FILL` at 0, on markings."""
    checks = []
    for name in CORPUS:
        model = load_model(name)
        for capacity in (1, 2):
            net, tmap = translate(model, TranslationConfig(event_capacity=capacity))
            for depth in (8,) if (name, capacity) == ("cdplayer", 2) else (8, 10**6):
                checks.append((model, net, tmap, depth, capacity))
    for name, arc_ids in LATE_DELETIONS.items():
        model = load_model(name)
        net, tmap = translate(model)
        checks += [(model, mutations.delete_arc_id(net, arc_id), tmap, 10**6, 1)
                   for arc_id in arc_ids]
    results = {}
    for coded in both_paths(monkeypatch):
        assert {isinstance(NetRunner(net, tmap, model).points, cpn.DenseCoding)
                for model, net, tmap, _, _ in checks} == {coded}
        results[coded] = [check_trace_equivalence(model, net, tmap, depth=depth,
                                                  event_capacity=capacity)
                          for model, net, tmap, depth, capacity in checks]
    assert results[True] == results[False]
    assert len(checks) == 14 + 13 + 11
    late = results[True][-11:]
    assert all(not result.equivalent for result in late)
    assert {len(result.counterexample) for result in late} == {9, 10, 11}


def test_a_firing_left_untaken_raises_nothing_on_either_path(corpus_models, corpus_nets,
                                                             monkeypatch):
    """A copy of nested3's Boot transition that puts a token outside the
    colour of P_EVENTS is enabled wherever Boot is, so the chain is stuck
    there and the copy never fires, on coded points as on markings: the
    successors there list it with its error, which nothing raises."""
    model = corpus_models["nested3"]
    net, tmap = corpus_nets["nested3"]
    forked = copy.deepcopy(net)
    forked.add_transition(TransDef("T_fork", "fork"))
    for arc in net.arcs:
        if (arc.trans, arc.orientation) == ("T_t_go_beh_1", PTOT):
            forked.add_arc(arc.place, "T_fork", PTOT, arc.inscription)
    forked.add_arc("P_EVENTS", "T_fork", TTOP, Lit("bogus"))
    results = []
    for _ in both_paths(monkeypatch):
        runner = NetRunner(forked, tmap, model)
        point = dict(runner.moves(runner.start))[("inject", "go")]
        (move, stuck), = [(move, after) for move, after in runner.moves(point)
                          if move[0] != "inject"]
        assert move == ("stuck", "go", ("Shutdown",), "2 chain transitions enabled")
        fork, = [after for tid, _, after in runner.points.successors(stuck, runner.skip_in_chain)
                 if tid == "T_fork"]
        assert isinstance(fork, NetError)
        assert str(fork) == "T_fork: produced 'bogus' outside the colour of P_EVENTS"
        results.append(check_trace_equivalence(model, forked, tmap))
    assert results[0] == results[1] and results[0].divergent_side == "model"


def test_a_put_next_to_a_token_outside_the_colour_raises_where_it_is_taken(
        corpus_models, corpus_nets, monkeypatch):
    """flat's start marking, unchecked, holds "x" on P_cap_toggle beside its
    unit, and a dispatch putting the unit back could not order it next to
    "x".  The runner checks its start marking as `explore` does, before
    the check counts the capacity there, so no such put is ever taken: the
    check raises explore's NetError at every depth and capacity, on coded
    points as on markings."""
    model = corpus_models["flat"]
    net, tmap = corpus_nets["flat"]
    spoiled = copy.deepcopy(net)
    spoiled.places["P_cap_toggle"] = replace(net.places["P_cap_toggle"],
                                             initial=("x", UNIT_TOKEN))
    message = "^start marking: token 'x' on P_cap_toggle is outside colour UNIT$"
    with pytest.raises(NetError, match=message):
        cpn.explore(spoiled)
    for _ in both_paths(monkeypatch):
        for depth, capacity in itertools.product((1, 2), (1, 2)):
            with pytest.raises(NetError, match=message):
                check_trace_equivalence(model, spoiled, tmap, depth=depth,
                                        event_capacity=capacity)


def test_net_moves_raise_as_the_public_token_game_does(cd_model, cd_net, monkeypatch):
    """A history colour without PAUSED: storing it raises at 480 markings,
    on coded points as on markings.  Coded, each of 4 errors is worked out
    once and raised at many points, each time with a fresh traceback, as
    long at the last raise as at the first."""
    net, tmap = cd_net
    narrowed = copy.deepcopy(net)
    narrowed.colours["HIST_Busy"] = EnumCS(("PLAYING", "NONE"))
    lengths = {}  # each error raised -> its traceback's length at each raise
    moves = NetRunner.moves

    def recorded(self, point):
        try:
            return moves(self, point)
        except NetError as error:
            lengths.setdefault(error, []).append(len(traceback.extract_tb(error.__traceback__)))
            raise
    monkeypatch.setattr(NetRunner, "moves", recorded)
    for coded in both_paths(monkeypatch):
        lengths.clear()
        assert assert_runner_matches_the_reference(cd_model, narrowed, tmap, 10_000,
                                                   coded) == (3_744, 480)
        assert len(lengths) == (4 if coded else 480)
        assert all(len(set(each)) == 1 for each in lengths.values())
