"""Benchmark of the smd2cpn pipeline: SMDL text to CPN XML (what
`smd2cpn translate` does), reading the XML back, the control-safety check
(`smd2cpn simulate`) and the trace-equivalence check (`smd2cpn equiv`).

    python3 perfbench/run.py --workload corpus-verify --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the package is imported from its
src/ directory.  One process, no threads.  The run repeats passes over the
workload's jobs for about --seconds seconds, in an order drawn from --seed,
checks every job's outputs, and prints one JSON object as the last line of
standard output.  With --trace 0 it reports the end-to-end metrics, built
from each job's median times over the passes, in reference seconds (see
speed.py).  With --trace 1 it alternates untraced and traced passes and
reports per-layer metrics from the traced ones (see tracer.py); the spans
are also written to .perfbench/ in the checkout.  NOTES.md says why each workload and metric exists.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import gc
import hashlib
import importlib
import io
import json
import random
import re
import resource
import statistics
import sys
import time
import traceback
from collections import defaultdict
from pathlib import Path
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import jobs as jobdefs  # noqa: E402
import tracer as tr  # noqa: E402
# Every time is measured as CPU time of this thread, the only one.  The timed
# calls do no I/O, so that is their whole cost, without the time the process
# waited while other load ran.  Times are reported in reference seconds,
# read against the speed the machine ran at (see speed.py).
from speed import CLOCK, Speedometer  # noqa: E402

#: set-ups measured before the passes and again after them, so that one
#: burst of load elsewhere on the machine cannot cover all of them
SETUP_REPEATS = 5
#: exploration cap of `smd2cpn simulate`; "full" reachability runs under it
CLI_BOUND = 100_000
STAGES = ("translate", "xml_read", "safety", "equiv")
#: untraced stages shorter than this run again (traced stages run once, so
#: that per-layer counts cover exactly one run of each stage)
MIN_STAGE_S = 0.3
MAX_REPEATS = 11


class SetupError(Exception):
    pass


def import_package(root: Path = ROOT) -> SimpleNamespace:
    """The smd2cpn modules the benchmark calls, imported from root/src."""
    src = root / "src"
    if not (src / tr.PACKAGE / "__init__.py").is_file():
        raise SetupError(f"no {tr.PACKAGE} package under {src}")
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    names = ("smdl", "statemachine", "translator", "emit", "oracle", "cli")
    pkg = SimpleNamespace(**{n: importlib.import_module(f"{tr.PACKAGE}.{n}") for n in names})
    if not Path(pkg.smdl.__file__).resolve().is_relative_to(src.resolve()):
        raise SetupError(f"{tr.PACKAGE} was imported from outside {src}")
    return pkg


def load_package(root: Path = ROOT) -> SimpleNamespace:
    """Import smd2cpn afresh, so that every set-up pays for the import."""
    for key in list(tr.package_modules()):
        del sys.modules[f"{tr.PACKAGE}.{key}" if key else tr.PACKAGE]
    importlib.invalidate_caches()
    return import_package(root)


def set_up(workload: str, root: Path = ROOT):
    """Import the package and build the workload's jobs, several times; the
    last result and the interval of CPU time each set-up took."""
    intervals = []
    for _ in range(SETUP_REPEATS):
        started = CLOCK()
        pkg = load_package(root)
        job_list = jobdefs.WORKLOADS[workload](root)
        intervals.append((started, CLOCK()))
    return pkg, job_list, intervals


# ---------------------------------------------------------------------------
# One job


def _timed(span, name: str, repeat: bool, call):
    """Run `call` under a span; the interval of CPU time of every run and
    the last result.  With `repeat`, a stage that took less than MIN_STAGE_S
    runs again, up to MAX_REPEATS times, so that a short stage is not one
    noisy sample."""
    intervals = []
    while True:
        started = CLOCK()
        with span(name):
            result = call()
        intervals.append((started, CLOCK()))
        if (not repeat or len(intervals) == MAX_REPEATS
                or CLOCK() - intervals[0][0] >= MIN_STAGE_S):
            return intervals, result


def _translate(pkg, job: jobdefs.Job) -> SimpleNamespace:
    out = SimpleNamespace()
    out.model = pkg.smdl.parse(job.text)
    out.report = pkg.statemachine.validate(out.model)
    config = pkg.translator.TranslationConfig(event_capacity=job.capacity)
    out.net, out.tmap = pkg.translator.translate(out.model, config)
    out.xml = pkg.emit.emit_cpn_xml(out.net, pkg.emit.layout(out.net))
    out.dot = pkg.emit.emit_dot(out.net)
    return out


def run_job(pkg, job: jobdefs.Job, span, repeat: bool) -> tuple[dict, SimpleNamespace]:
    """Run the four stages (safety only where the job asks for it); the
    returned intervals, a list per stage, cover the program's calls only."""
    def timed(stage, call):
        return _timed(span, f"bench.{stage}", repeat, call)

    intervals = {}
    intervals["translate"], out = timed("translate", lambda: _translate(pkg, job))
    intervals["xml_read"], out.back = timed("xml_read", lambda: pkg.emit.parse_cpn_xml(out.xml))
    out.safety = None
    if job.run_safety:
        intervals["safety"], out.safety = timed(
            "safety", lambda: pkg.oracle.check_control_safety(
                out.net, out.tmap, bound=job.bound or CLI_BOUND))
    intervals["equiv"], out.equiv = timed(
        "equiv", lambda: pkg.oracle.check_trace_equivalence(
            out.model, out.net, out.tmap, depth=job.depth, event_capacity=job.capacity))
    return intervals, out


def check_job(job: jobdefs.Job, out, digest: str, first_digest, edges) -> list[str]:
    """Problems with one job's outputs; `edges` is None in untraced passes."""
    problems = []
    expect = job.expect
    if not out.report.ok:
        problems.append(f"model does not validate: {out.report}")
    got = {"places": len(out.net.places), "transitions": len(out.net.transitions),
           "arcs": len(out.net.arcs)}
    if out.safety is not None:
        got["markings"] = out.safety.explored
    if edges is not None:
        got["edges"] = edges
    got["pairs"] = out.equiv.pairs_checked
    for key, value in got.items():
        if key in expect and expect[key] != value:
            problems.append(f"{key} = {value}, expected {expect[key]}")
    if out.back != out.net:
        problems.append("parse_cpn_xml(emit_cpn_xml(net)) != net")
    if first_digest is not None and digest != first_digest:
        problems.append("emitted XML differs from the first pass")
    if out.safety is not None:
        if not out.safety.ok:
            problems.append(f"safety violated: {out.safety.violations[:3]}")
        if out.safety.truncated != (job.bound is not None):
            problems.append(f"safety truncated = {out.safety.truncated}")
    if not out.equiv.equivalent:
        problems.append(f"not equivalent: {out.equiv.counterexample}")
    return problems


# ---------------------------------------------------------------------------
# Passes


class Run:
    """Passes over one workload's jobs, the times they took and the tallies
    of their checks.

    A stage metric is the sum over jobs of the median, over every run of the
    job's stage in the run's passes, of its time in reference seconds.  The
    median rejects the odd sample that the probes around it misjudge.
    """

    def __init__(self, pkg, job_list, seed: int, speed: Speedometer):
        self.pkg = pkg
        self.speed = speed
        self.jobs = list(job_list)
        self.rng = random.Random(seed)
        self.attempted = 0
        self.failed = 0
        self.digests: dict[str, str] = {}
        self.markings: dict[str, int] = {}
        self.xml_bytes: dict[str, int] = {}
        # traced or not -> (job, stage) -> the interval of CPU time of every
        # run of the stage, over all passes
        self.samples = {False: defaultdict(list), True: defaultdict(list)}
        self.tracers: list[tr.Tracer] = []  # one per traced pass

    def report(self, job_name: str, problem: str):
        print(f"perfbench: {job_name}: {problem}", file=sys.stderr)

    def one_pass(self, traced: bool):
        """Run every job once, in seeded order."""
        order = self.jobs[:]
        self.rng.shuffle(order)
        tracer = tr.Tracer() if traced else None
        with tr.instrument(tracer) if traced else contextlib.nullcontext():
            for job in order:
                gc.collect()
                self.attempted += 1
                try:
                    intervals = self._checked_job(job, tracer)
                except Exception:  # a failing job is counted, not fatal
                    self.failed += 1
                    self.report(job.name, traceback.format_exc())
                    continue
                for stage, stage_intervals in intervals.items():
                    self.samples[traced][job.name, stage].extend(stage_intervals)
        if traced:
            self.tracers.append(tracer)

    def stage_s(self, traced: bool, stage: str) -> float:
        samples = self.samples[traced]
        return sum(statistics.median(self.speed.reference_s(*interval)
                                     for interval in samples[job.name, stage])
                   for job in self.jobs if (job.name, stage) in samples)

    def pass_s(self, traced: bool) -> float:
        return sum(self.stage_s(traced, stage) for stage in STAGES)

    def _checked_job(self, job: jobdefs.Job, tracer) -> dict:
        """Run and check one job; its outputs are dropped on return, so the
        next job starts from the same heap whatever ran before."""
        if tracer is None:
            intervals, out = run_job(self.pkg, job, lambda name: contextlib.nullcontext(),
                                     repeat=True)
            edges = None
        else:
            tracer.job = job.name
            before = tracer.counts.copy()
            intervals, out = run_job(self.pkg, job, tracer.span, repeat=False)
            edges = tracer.counts["net.edges"] - before["net.edges"]
        xml = out.xml.encode("utf-8")
        digest = hashlib.sha256(xml).hexdigest()
        problems = check_job(job, out, digest, self.digests.get(job.name),
                             edges if out.safety is not None else None)
        self.digests.setdefault(job.name, digest)
        self.xml_bytes[job.name] = len(xml)
        if tracer is not None and out.safety is not None:
            markings = tracer.counts["net.markings"] - before["net.markings"]
            self.markings[job.name] = markings
            if markings != out.safety.explored:
                problems.append(f"traced net.markings {markings} != "
                                f"explored {out.safety.explored}")
        if problems:
            self.failed += 1
            for problem in problems:
                self.report(job.name, problem)
        return intervals

    def measure(self, seconds: float, trace: bool):
        """Passes until the time is used up; a pass is started only while
        at least half of its expected duration still fits.  A traced run
        alternates untraced and traced passes and makes one of each."""
        started = time.perf_counter()
        last = {}
        traced = False
        while True:
            pass_started = time.perf_counter()
            self.one_pass(traced)
            last[traced] = time.perf_counter() - pass_started
            if trace:
                traced = not traced
            expected = last[traced] if traced in last else last[not traced]
            elapsed = time.perf_counter() - started
            if (not trace or self.tracers) and elapsed + expected / 2 > seconds:
                break

    def cross_check_cli(self):
        """`smd2cpn simulate` on each corpus file at capacity 1 must report the
        `net.markings` count of the traced passes.  Not timed."""
        for job in self.jobs:
            if job.source is None or job.capacity != 1 or job.name not in self.markings:
                continue
            self.attempted += 1
            captured = io.StringIO()
            try:
                with contextlib.redirect_stdout(captured):
                    code = self.pkg.cli.run(["simulate", str(job.source)])
            except Exception:  # counted like a failing job
                code = traceback.format_exc()
            found = re.search(r"reachable_states=(\d+)", captured.getvalue())
            if code != 0 or found is None or int(found.group(1)) != self.markings[job.name]:
                self.failed += 1
                self.report(job.name, f"CLI simulate disagrees (exit {code}): "
                                    f"{captured.getvalue().strip()!r}")

    def layer_result(self) -> dict:
        """Per-layer metrics: medians over traced passes.  Counts must repeat
        exactly between passes; a count that does not is a failed check."""
        result = {}
        passes = [tr.layer_metrics(t) for t in self.tracers]
        for name, (_, unit) in passes[0].items():
            values = [layers[name][0] for layers in passes]
            if unit != "count":
                result[name] = (statistics.median(values), unit)
                continue
            if len(set(values)) != 1:
                self.failed += 1
                self.report("trace", f"{name} differs between passes: {values}")
            result[name] = (values[0], unit)
        result["trace.pass_s"] = (self.pass_s(True), "s")
        result["trace.overhead_s"] = (self.pass_s(True) - self.pass_s(False), "s")
        # CPU seconds of a probe: how fast the machine ran, for reading the
        # per-layer times, which are CPU seconds as measured
        result["machine.probe_s"] = (statistics.median(self.speed.times), "s")
        return result

    def end_to_end(self, setup_s: float) -> dict:
        ok = (self.attempted - self.failed) / self.attempted
        return {
            "setup_s": (setup_s, "s"),
            "pass_s": (self.pass_s(False), "s"),
            "translate_s": (self.stage_s(False, "translate"), "s"),
            "xml_read_s": (self.stage_s(False, "xml_read"), "s"),
            "safety_s": (self.stage_s(False, "safety"), "s"),
            "equiv_s": (self.stage_s(False, "equiv"), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
            "xml_bytes": (sum(self.xml_bytes.values()), "bytes"),
            "ok_ratio": (ok, "ratio"),
        }

    def write_trace(self, path: Path):
        """The spans and the per-frame totals of every traced pass, as JSON."""
        document = [{"spans": [dataclasses.asdict(span) for span in t.spans],
                     "frames": {name: {"calls": t.calls[name], "total_s": t.total_s[name],
                                       "self_s": t.self_s[name]} for name in t.calls}}
                    for t in self.tracers]
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(document), encoding="utf-8")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(jobdefs.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    with Speedometer() as speed:
        try:
            pkg, job_list, setups = set_up(args.workload)
        except (SetupError, OSError, ImportError) as err:
            print(f"perfbench: cannot set up: {err}", file=sys.stderr)
            return 2
        run = Run(pkg, job_list, args.seed, speed)
        run.measure(args.seconds, bool(args.trace))
        if not args.trace:
            # importing afresh again is harmless now that the passes are done
            setups += set_up(args.workload)[2]
    if args.trace:
        run.cross_check_cli()
        metrics = run.layer_result()
        run.write_trace(ROOT / ".perfbench" / f"trace-{args.workload}-{args.seed}.json")
    else:
        metrics = run.end_to_end(statistics.median(speed.reference_s(*interval)
                                                   for interval in setups))
    print(json.dumps({
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
