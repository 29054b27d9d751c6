"""Structural surgery on generated nets for the inequivalence tests.

Every helper works on a deep copy of the net, so the net itself is left
as it was.
"""

from __future__ import annotations

import copy
from dataclasses import replace

from smd2cpn import expr as ex
from smd2cpn.net import ArcDef, ColouredNet, PTOT, TTOP


def _clone(net: ColouredNet) -> ColouredNet:
    return copy.deepcopy(net)


def delete_arc(net: ColouredNet, place: str, trans: str,
               orientation: str) -> ColouredNet:
    mutated = _clone(net)
    hits = [i for i, a in enumerate(mutated.arcs)
            if a.place == place and a.trans == trans and a.orientation == orientation]
    assert hits, "arc to delete not found"
    for i in reversed(hits):
        del mutated.arcs[i]
    return mutated


def delete_arc_id(net: ColouredNet, arc_id: str) -> ColouredNet:
    mutated = _clone(net)
    hits = [i for i, a in enumerate(mutated.arcs) if a.id == arc_id]
    assert len(hits) == 1, "arc to delete not found"
    del mutated.arcs[hits[0]]
    return mutated


def replace_guard(net: ColouredNet, trans: str, guard) -> ColouredNet:
    mutated = _clone(net)
    mutated.transitions[trans] = replace(mutated.transitions[trans], guard=guard)
    return mutated


def flip_guard(net: ColouredNet, trans: str) -> ColouredNet:
    guard = net.transitions[trans].guard
    assert guard is not None, "transition has no guard to flip"
    return replace_guard(net, trans, ex.Not(guard))


def swap_labels(net: ColouredNet, first: str, second: str) -> ColouredNet:
    """Swap the names of two transitions: for behaviour occurrences, what
    their firings make observable."""
    mutated = _clone(net)
    a, b = mutated.transitions[first], mutated.transitions[second]
    mutated.transitions[first] = replace(a, name=b.name)
    mutated.transitions[second] = replace(b, name=a.name)
    return mutated


def rewire_output(net: ColouredNet, trans: str, old_place: str,
                  new_place: str) -> ColouredNet:
    mutated = _clone(net)
    arcs = []
    hit = False
    for a in mutated.arcs:
        if a.trans == trans and a.orientation == TTOP and a.place == old_place:
            arcs.append(ArcDef(a.id, new_place, a.trans, a.orientation, a.inscription))
            hit = True
        else:
            arcs.append(a)
    assert hit, "output arc to rewire not found"
    mutated.arcs = arcs
    return mutated


def drop_transition(net: ColouredNet, trans: str, bridge_from: str,
                    bridge_to: str) -> ColouredNet:
    """Remove a chain transition entirely, rerouting every producer of its
    input place straight to its output place (the bridged behaviour simply
    never happens)."""
    mutated = _clone(net)
    del mutated.transitions[trans]
    arcs = []
    for a in mutated.arcs:
        if a.trans == trans:
            continue
        if a.orientation == TTOP and a.place == bridge_from:
            arcs.append(ArcDef(a.id, bridge_to, a.trans, a.orientation, a.inscription))
        else:
            arcs.append(a)
    mutated.arcs = arcs
    if bridge_from in mutated.places:
        del mutated.places[bridge_from]
    return mutated
