"""Workload definitions: the models each workload runs and the answers
each job must produce.

The synthetic families are `chain_machine` and `balanced_machine` from
tests/modelgen.py, printed to SMDL text at set-up, so the program only ever
receives generated source text.  Their expected sizes are derived by hand
in NOTES.md; none of them was copied from a run.
"""

from __future__ import annotations

import importlib
import json
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

ROOT = Path(__file__).resolve().parent.parent
CORPUS = ("cdplayer", "completion", "flat", "guarded", "history",
          "interlevel", "nested3")

#: equivalence depth of `smd2cpn equiv` when none is given
CLI_DEPTH = 8


@dataclass(frozen=True)
class Job:
    """One model pushed through translate, XML read, safety and equivalence.

    `bound` None means full reachability, which must not be truncated; an
    integer asks for a bounded exploration, which must stop at exactly that
    many markings.  `expect` holds the hand-derived answers the job is
    checked against: places, transitions, arcs, markings, edges, pairs.
    """

    name: str
    text: str
    capacity: int
    depth: int
    bound: Optional[int] = None
    run_safety: bool = True
    expect: dict = field(default_factory=dict)
    source: Optional[Path] = None  # the .smdl file, for the CLI cross-check


# ---------------------------------------------------------------------------
# Synthetic families


def generated_smdl(generator: str, *args) -> str:
    """SMDL text of `tests/modelgen.<generator>(*args)`, printed by
    `smdl.print_model`.  modelgen is imported afresh, so that it builds its
    machines from the smd2cpn modules imported last."""
    tests = str(ROOT / "tests")
    if tests not in sys.path:
        sys.path.insert(0, tests)
    sys.modules.pop("modelgen", None)
    modelgen = importlib.import_module("modelgen")
    smdl = importlib.import_module("smd2cpn.smdl")
    return smdl.print_model(getattr(modelgen, generator)(*args))


def chain_expect(n: int) -> dict:
    return {"places": n + 2, "transitions": n, "arcs": 4 * n - 2,
            "markings": 2 * n, "edges": 2 * n - 1}


def balanced_expect(depth: int, branching: int) -> dict:
    leaves = branching ** depth
    # behaviours on the dispatch chains of all leaf-to-leaf transitions:
    # (b-1) * b^l transitions have their source and target meet at level l,
    # and each runs 2 * (depth-1-l) entry/exit behaviours
    behaviours = sum((branching - 1) * branching ** level * 2 * (depth - 1 - level)
                     for level in range(depth))
    return {"places": leaves + 2 + behaviours,
            "transitions": 1 + (leaves - 1) + behaviours,
            "arcs": 2 + 4 * (leaves - 1) + 2 * behaviours,
            "markings": 2 * (leaves + behaviours),
            "edges": 2 * leaves - 1 + 3 * behaviours}


# ---------------------------------------------------------------------------
# Workloads


def _corpus_verify(root: Path) -> list[Job]:
    models = root / "models"
    given = json.loads((models / "expectations.json").read_text(encoding="utf-8"))
    jobs = []
    for name in CORPUS:
        path = models / f"{name}.smdl"
        text = path.read_text(encoding="utf-8")
        sizes = given.get(name, {})
        for capacity in (1, 2):
            expect = {k: sizes[k] for k in ("places", "transitions", "arcs") if k in sizes}
            if capacity == 1:  # the file's reachable counts are at capacity 1
                if "reachable_states" in sizes:
                    expect["markings"] = sizes["reachable_states"]
                if "reachable_edges" in sizes:
                    expect["edges"] = sizes["reachable_edges"]
            # cdplayer at capacity 2 has 183,708 markings: too slow to explore
            run_safety = not (name == "cdplayer" and capacity == 2)
            jobs.append(Job(f"{name}@{capacity}", text, capacity, CLI_DEPTH,
                            run_safety=run_safety, expect=expect, source=path))
    return jobs


def chain_job(n: int, depth: int, bound: Optional[int] = None) -> Job:
    return _synthetic(f"chain-{n}", generated_smdl("chain_machine", n), chain_expect(n), depth, bound)


def balanced_job(levels: int, branching: int, depth: int,
              bound: Optional[int] = None) -> Job:
    return _synthetic(f"balanced-{levels}x{branching}",
                      generated_smdl("balanced_machine", levels, branching),
                      balanced_expect(levels, branching), depth, bound)


def _synthetic(name: str, text: str, expect: dict, depth: int,
               bound: Optional[int]) -> Job:
    if bound is not None:
        # a bounded search stops at `bound` markings; edges depend on BFS order
        expect["markings"] = bound
        del expect["edges"]
    # both families are a single line of stable points, so the bisimulation
    # memo holds one pair per level
    expect["pairs"] = depth
    return Job(name, text, 1, depth, bound=bound, expect=expect)


def _wide_explore(root: Path) -> list[Job]:
    return [chain_job(1000, depth=128), balanced_job(8, 2, depth=128)]


def _large_translate(root: Path) -> list[Job]:
    return [chain_job(5000, depth=12, bound=32), balanced_job(10, 2, depth=12, bound=32)]


WORKLOADS = {
    "corpus-verify": _corpus_verify,
    "wide-explore": _wide_explore,
    "large-translate": _large_translate,
}
