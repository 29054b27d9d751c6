"""Pin the equivalence outcomes of cdplayer's single-arc deletions.

Every deletion that `check()` accepts is checked at event capacity 1 to
depth 10 and at capacity 2 to depth 8, in memory and again as read back
from its CPN XML.  The script exits 1 unless each read-back check gives
the in-memory verdict and pair count, and the sha256 of the verdicts and
the pair total at each capacity are the pinned ones.  The tier-1 mutation
score leaves these checks out because they take about 30 s; run it from
the repository root as

    python3 tests/cdplayer_mutants.py

pytest does not collect this file.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from conftest import load_model  # noqa: E402
from test_oracle import accepted_arc_deletions, sha256, verdict  # noqa: E402

from smd2cpn.emit import emit_cpn_xml, parse_cpn_xml  # noqa: E402
from smd2cpn.oracle import check_trace_equivalence  # noqa: E402
from smd2cpn.translator import TranslationConfig, translate  # noqa: E402

PINNED = ("154050a7e3036f8f2503ff2d93c52b6b0bec7756163e9aadf89d2ea8cbcd86bf",
          {1: 26_032, 2: 72_740})


def outcomes():
    """(verdicts, {capacity: pair total}, the deletions whose read-back
    check differs) of every accepted deletion."""
    model = load_model("cdplayer")
    verdicts, pairs, differ = [], {}, []
    for capacity, depth in ((1, 10), (2, 8)):
        net, tmap = translate(model, TranslationConfig(event_capacity=capacity))
        pairs[capacity] = 0
        for arc_id, mutant in accepted_arc_deletions(net):
            result = check_trace_equivalence(model, mutant, tmap, depth=depth,
                                             event_capacity=capacity)
            verdicts.append((capacity, arc_id, verdict(result)))
            pairs[capacity] += result.pairs_checked
            written = parse_cpn_xml(emit_cpn_xml(mutant))
            if check_trace_equivalence(model, written, tmap, depth=depth,
                                       event_capacity=capacity) != result:
                differ.append((capacity, arc_id))
    return verdicts, pairs, differ


def main() -> int:
    verdicts, pairs, differ = outcomes()
    equivalent = sum(result[0] for _, _, result in verdicts)
    print(f"{len(verdicts)} checks, {equivalent} equivalent, pairs {pairs}")
    if differ:
        print(f"read back from XML, {len(differ)} deletions check otherwise, "
              f"the first {differ[0]}")
        return 1
    got = (sha256(verdicts), pairs)
    if got != PINNED:
        print(f"outcomes {got} differ from the pinned {PINNED}")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
