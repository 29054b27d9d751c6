"""Tests of the benchmark's own code: tracing, self time, metric names and
the repeatability of counts.  Run with

    PYTHONPATH=src python3 -m pytest perfbench
"""

import json
import re
import signal
import time

import pytest

import jobs as jobdefs
import run
import tracer as tr
from speed import PROBE_S, Speedometer

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
NAME = re.compile(r"[A-Za-z0-9_.-]+")


@pytest.fixture(scope="module")
def pkg():
    return run.import_package()


@pytest.fixture
def speed():
    with Speedometer() as meter:
        yield meter


@pytest.fixture(autouse=True)
def few_repeats(monkeypatch):
    """Untraced passes repeat short stages; two repeats keep the tests fast."""
    monkeypatch.setattr(run, "MAX_REPEATS", 2)


def _bindings():
    """Every attribute of the smd2cpn modules and of the classes that hold
    traced methods, by identity."""
    modules = tr.package_modules()
    snapshot = {}
    for key, module in modules.items():
        for attr, value in vars(module).items():
            snapshot[(key, attr)] = value
    for cls in (modules["net"].ColouredNet, modules["oracle"].NetRunner):
        for attr, value in vars(cls).items():
            snapshot[(cls.__qualname__, attr)] = value
    return snapshot


def test_instrument_rebinds_every_alias_and_restores_after_a_raising_job(pkg):
    before = _bindings()
    tracer = tr.Tracer()
    with pytest.raises(pkg.smdl.SmdlSyntaxError):
        with tr.instrument(tracer):
            assert pkg.translator.validate is not before[("statemachine", "validate")]
            assert pkg.translator.validate is pkg.statemachine.validate
            pkg.smdl.parse("machine M { state A initial ; ")
    after = _bindings()
    assert after.keys() == before.keys()
    changed = [key for key in before if after[key] is not before[key]]
    assert changed == []
    assert tracer.calls["smdl.parse"] == 1
    assert tracer._stack == []


def test_self_time_on_a_hand_built_span_tree():
    ticks = iter([0.0, 1.0, 2.0, 4.0, 5.0, 6.0, 9.0, 10.0])
    t = tr.Tracer(clock=lambda: next(ticks))
    t.job = "j"
    t.enter("A", True)       # 0
    t.enter("B", True)       # 1
    t.enter("C", False)      # 2, aggregated only
    t.exit()                 # 4: C lasts 2
    t.exit()                 # 5: B lasts 4, 2 of it in C
    t.enter("D", True)       # 6
    t.exit()                 # 9: D lasts 3
    t.exit()                 # 10: A lasts 10, 4 in B and 3 in D
    assert dict(t.self_s) == {"A": 3.0, "B": 2.0, "C": 2.0, "D": 3.0}
    assert dict(t.total_s) == {"A": 10.0, "B": 4.0, "C": 2.0, "D": 3.0}
    spans = {s.name: s for s in t.spans}
    assert set(spans) == {"A", "B", "D"}
    assert spans["A"].parent is None
    assert spans["B"].parent == spans["A"].id == spans["D"].parent
    assert (spans["B"].start, spans["B"].end, spans["B"].self_s) == (1.0, 5.0, 2.0)
    assert all(s.job == "j" for s in t.spans)
    assert t.calls_under[("B", "C")] == 1


def _small_jobs():
    corpus = [job for job in jobdefs.WORKLOADS["corpus-verify"](run.ROOT)
              if job.name in ("flat@1", "nested3@1", "guarded@2", "completion@1")]
    return corpus + [jobdefs.chain_job(7, depth=4),
                     jobdefs.balanced_job(3, 2, depth=4),
                     jobdefs.balanced_job(2, 3, depth=3, bound=5)]


def _traced_run(pkg, seed, speed):
    bench = run.Run(pkg, _small_jobs(), seed, speed)
    bench.one_pass(traced=False)
    bench.one_pass(traced=True)
    bench.one_pass(traced=True)
    return bench


def test_counts_repeat_exactly_across_traced_runs(pkg, speed):
    first, second = _traced_run(pkg, 1, speed), _traced_run(pkg, 2, speed)
    for bench in (first, second):
        assert bench.failed == 0
        bench.layer_result()  # fails the run when a count differs between passes
        assert bench.failed == 0
    counts = [{name: tr.layer_metrics(t)[name][0] for name in tr.COUNT_METRICS}
              for bench in (first, second) for t in bench.tracers]
    assert all(c == counts[0] for c in counts)
    assert counts[0]["net.enabled_bindings_calls"] > 0
    assert counts[0]["expr.parse_calls"] > 0


@pytest.mark.parametrize("trace, untraced, traced", [(False, 1, 0), (True, 1, 1)])
def test_measure_makes_at_least_the_passes_a_run_reports(pkg, speed, trace, untraced,
                                                         traced):
    bench = run.Run(pkg, [jobdefs.chain_job(3, depth=2)], 0, speed)
    bench.measure(0.0, trace)
    # a short untraced stage runs MAX_REPEATS times per pass, a traced one once
    assert len(bench.samples[False]["chain-3", "equiv"]) == untraced * run.MAX_REPEATS
    assert len(bench.samples[True]["chain-3", "equiv"]) == traced
    assert len(bench.tracers) == traced


@pytest.mark.parametrize("repeat", [False, True])
def test_short_stages_repeat_only_untraced(repeat):
    runs = run.MAX_REPEATS if repeat else 1
    calls = []
    intervals, result = run._timed(lambda name: tr.Tracer().span(name), "x", repeat,
                                   lambda: calls.append(1) or len(calls))
    assert (len(calls), len(intervals), result) == (runs, runs, runs)
    assert all(start <= end for start, end in intervals)
    assert intervals[-1][1] - intervals[0][0] < run.MIN_STAGE_S


def test_reference_seconds_on_a_hand_built_probe_series():
    meter = Speedometer()
    # probes start at CPU time 0.0, 0.5, ..., 3.0; up to 1.5 each takes
    # 0.01 s, after that the machine runs twice as slow
    meter.starts = [0.5 * i for i in range(7)]
    meter.times = [0.01] * 4 + [0.02] * 3
    # no probe ran inside [0.2, 0.3]; the window around it widens to 1.6 s
    # before it holds 4 probes (0.0 to 1.5), all of 0.01 s
    assert meter.reference_s(0.2, 0.3) == pytest.approx(0.1 * PROBE_S / 0.01)
    # the probes at 2.5 and 3.0 ran inside [2.4, 3.0] and are taken out of
    # its time; the window widens to 1.6 s, taking in the probes from 1.0 on
    own = 0.6 - 0.04
    assert meter.reference_s(2.4, 3.0) == pytest.approx(own * PROBE_S / 0.016)


def test_a_running_speedometer_probes_and_restores_the_signal():
    before = signal.getsignal(signal.SIGPROF)
    with Speedometer() as meter:
        started = time.thread_time()
        while time.thread_time() - started < 0.3:
            pass
    assert signal.getsignal(signal.SIGPROF) is before
    assert signal.getitimer(signal.ITIMER_PROF) == (0.0, 0.0)
    assert len(meter.times) >= 4 and meter.starts == sorted(meter.starts)


def test_a_wrong_answer_counts_as_a_failed_job(pkg, speed):
    job = jobdefs.chain_job(5, depth=2)
    wrong = jobdefs.Job(job.name, job.text, 1, 2, expect=dict(job.expect, places=99))
    bench = run.Run(pkg, [job, wrong], 0, speed)
    bench.one_pass(traced=False)
    assert (bench.attempted, bench.failed) == (2, 1)
    assert bench.end_to_end(0.1)["ok_ratio"][0] == 0.5


def test_cli_cross_check_compares_with_the_traced_markings(pkg, speed):
    flat = [job for job in jobdefs.WORKLOADS["corpus-verify"](run.ROOT)
            if job.name == "flat@1"]
    bench = run.Run(pkg, flat, 0, speed)
    bench.one_pass(traced=True)
    bench.cross_check_cli()
    assert (bench.attempted, bench.failed) == (2, 0)
    bench.markings["flat@1"] += 1
    bench.cross_check_cli()
    assert (bench.attempted, bench.failed) == (3, 1)


def test_metric_names_are_well_formed_and_match_the_declaration(pkg, speed):
    bench = _traced_run(pkg, 3, speed)
    per_layer = bench.layer_result()
    end_to_end = bench.end_to_end(setup_s=0.1)
    declared_e2e = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    declared_layers = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    assert {n: u for n, (_, u) in end_to_end.items()} == declared_e2e
    assert {n: u for n, (_, u) in per_layer.items()} == declared_layers
    for name in list(declared_e2e) + list(declared_layers):
        assert NAME.fullmatch(name) and len(name) <= 64, name
    assert all(value > 0 for value, _ in end_to_end.values())


def test_set_up_refuses_a_tree_without_the_package(tmp_path):
    with pytest.raises(run.SetupError):
        run.import_package(tmp_path)
