"""Coloured Petri net types, token-game semantics, and bounded exploration.

Tokens are plain Python values: ``()`` for the unit colour, strings for
enumeration values, ints, and tuples for products.  Arcs in both
directions carry one inscription type: a literal, a variable, a tuple of
inscriptions, or an integer computation.  An input arc's inscription is a
pattern, an inscription without computations, that binds its variables
against present tokens; an output arc's is evaluated under the binding.
No symbolic solving: bindings are enumerated from the finite multiset
contents.

A `Marking` is a tuple of (place id, token tuple) pairs for the marked
places only, in place-id order, each token tuple holding one entry per
copy sorted by `token_sort_key`.  That form is canonical, so a marking is
its own hashable key; `marking_key` builds one from any place -> tokens
mapping.  Within one colour `token_sort_key` order is the tokens' natural
order, so a firing inserts each produced token by plain comparison.
Markings given to `fire` and `enabled_bindings` must fit their places'
colours, as every marking `explore` reaches does; `explore` checks the
start marking it is given.  The token game runs on the net's
`CompiledNet`, kept with the net while its colours, places, transitions
and arcs equal the shallow copies taken when it was compiled; every part
of a net is frozen, so any edit is seen.  A firing changes only the places
it touches, and at each marking only the candidate transitions are tried:
those without input places, and those whose watch place (the input place
with the fewest consuming arcs, ties broken by id) is marked.

Where at least a quarter of the places is marked at the start, `explore`
and the equivalence check share a `DenseCoding`, one code per place (it
costs O(places) a firing, so pays only there).  There a transition's
firings are worked out once per view of its keyed places, those its
bindings read or its computed tokens land on; each place it touches only
through constant tokens, such as the event pool, steps from code to code
through a table.
"""

from __future__ import annotations

import bisect
from array import array
from collections import Counter
from dataclasses import dataclass, field
from itertools import compress
from operator import itemgetter
from typing import Iterable, Optional, Union

from . import expr as ex

UNIT_TOKEN = ()

PTOT = "PtoT"
TTOP = "TtoP"


class NetError(ValueError):
    pass


class NotEnabledError(NetError):
    pass


# ---------------------------------------------------------------------------
# Colour sets


@dataclass(frozen=True)
class UnitCS:
    def contains(self, value) -> bool:
        return value == UNIT_TOKEN


@dataclass(frozen=True)
class IntCS:
    def contains(self, value) -> bool:
        return isinstance(value, int) and not isinstance(value, bool)


@dataclass(frozen=True)
class EnumCS:
    values: tuple[str, ...]

    def __post_init__(self):
        if not self.values:
            raise ValueError("enumeration colour needs at least one value")

    def contains(self, value) -> bool:
        return value in self.values


@dataclass(frozen=True)
class ProductCS:
    components: tuple["ColourSet", ...]

    def __post_init__(self):
        if not self.components:
            raise ValueError("product colour needs at least one component")

    def contains(self, value) -> bool:
        return (isinstance(value, tuple) and len(value) == len(self.components)
                and all(c.contains(v) for c, v in zip(self.components, value)))


ColourSet = Union[UnitCS, IntCS, EnumCS, ProductCS]


# ---------------------------------------------------------------------------
# Arc inscriptions, one type for both arc directions


@dataclass(frozen=True)
class Lit:
    value: object


@dataclass(frozen=True)
class Var:
    name: str


@dataclass(frozen=True)
class Tup:
    items: tuple["Inscription", ...]


@dataclass(frozen=True)
class Calc:
    """An integer computation over bound variables; output arcs only."""
    body: ex.IntExpr


Inscription = Union[Lit, Var, Tup, Calc]


def match(pattern: Inscription, value, binding: dict) -> Optional[dict]:
    """Extend `binding` so the pattern matches `value`; None if impossible."""
    if isinstance(pattern, Lit):
        return binding if pattern.value == value else None
    if isinstance(pattern, Var):
        if pattern.name in binding:
            return binding if binding[pattern.name] == value else None
        new = dict(binding)
        new[pattern.name] = value
        return new
    if isinstance(pattern, Tup):
        if not isinstance(value, tuple) or len(value) != len(pattern.items):
            return None
        for item, component in zip(pattern.items, value):
            binding = match(item, component, binding)
            if binding is None:
                return None
        return binding
    raise TypeError(f"not a pattern: {pattern!r}")


def variables(inscription: Inscription) -> set[str]:
    """The variables an inscription binds (input arc) or reads (output arc)."""
    if isinstance(inscription, Var):
        return {inscription.name}
    if isinstance(inscription, Tup):
        return set().union(*map(variables, inscription.items))
    if isinstance(inscription, Calc):
        return ex.variables_of(inscription.body)
    return set()


def normalise_out(body: ex.IntExpr) -> Inscription:
    """Canonical inscription for an integer computation: bare reads become
    Var, literals Lit, anything else Calc.  Keeps structural equality
    stable across emit/parse round trips."""
    if isinstance(body, ex.VarRead):
        return Var(body.name)
    if isinstance(body, ex.IntLit):
        return Lit(body.value)
    return Calc(body)


def evaluate(inscription: Inscription, binding: dict):
    """The token the inscription stands for once `binding` holds its
    variables: the token an input arc consumes or an output arc produces."""
    if isinstance(inscription, Lit):
        return inscription.value
    if isinstance(inscription, Var):
        return binding[inscription.name]
    if isinstance(inscription, Tup):
        return tuple(evaluate(item, binding) for item in inscription.items)
    if isinstance(inscription, Calc):
        return ex.eval_int(inscription.body, binding)
    raise TypeError(f"not an inscription: {inscription!r}")


# ---------------------------------------------------------------------------
# Net structure


@dataclass(frozen=True)
class PlaceDef:
    id: str
    name: str
    colour: str  # name of a declared colour set
    initial: tuple = ()  # multiset as a value tuple (canonically sorted)


@dataclass(frozen=True)
class TransDef:
    id: str
    name: str
    guard: Optional[ex.BoolExpr] = None


@dataclass(frozen=True)
class ArcDef:
    id: str
    place: str
    trans: str
    orientation: str  # PTOT or TTOP
    inscription: Inscription


def token_sort_key(value):
    """Total order over heterogeneous token values."""
    if isinstance(value, bool):
        return (3, value)
    if isinstance(value, int):
        return (0, value)
    if isinstance(value, str):
        return (1, value)
    if isinstance(value, tuple):
        return (2, tuple(token_sort_key(v) for v in value))
    return (4, repr(value))


def sort_tokens(values: Iterable) -> tuple:
    return tuple(sorted(values, key=token_sort_key))


@dataclass
class ColouredNet:
    name: str
    colours: dict[str, ColourSet] = field(default_factory=dict)
    places: dict[str, PlaceDef] = field(default_factory=dict)
    transitions: dict[str, TransDef] = field(default_factory=dict)
    arcs: list[ArcDef] = field(default_factory=list)

    def colour_of(self, place_id: str) -> ColourSet:
        return self.colours[self.places[place_id].colour]

    def add_place(self, place: PlaceDef):
        if place.id in self.places or place.id in self.transitions:
            raise NetError(f"duplicate node id {place.id!r}")
        self.places[place.id] = place

    def add_transition(self, trans: TransDef):
        if trans.id in self.places or trans.id in self.transitions:
            raise NetError(f"duplicate node id {trans.id!r}")
        self.transitions[trans.id] = trans

    def add_arc(self, place: str, trans: str, orientation: str, inscription):
        arc = ArcDef(f"A_{len(self.arcs) + 1}", place, trans, orientation, inscription)
        self.arcs.append(arc)
        return arc

    def check(self):
        """Raise NetError on any violated structural invariant."""
        ids = Counter([*self.places, *self.transitions, *(arc.id for arc in self.arcs)])
        dupes = [i for i, n in ids.items() if n > 1]
        if dupes:
            raise NetError(f"duplicate ids: {sorted(dupes)}")
        for place in self.places.values():
            if place.colour not in self.colours:
                raise NetError(f"place {place.id}: unknown colour {place.colour!r}")
            colour = self.colours[place.colour]
            for token in place.initial:
                if not colour.contains(token):
                    raise NetError(f"place {place.id}: initial token {token!r} "
                                   f"outside colour {place.colour}")
        bound: dict[str, set[str]] = {tid: set() for tid in self.transitions}
        # (transition, what reads, variables read), checked once all
        # input patterns are known
        reads = [(tid, "guard", ex.variables_of(trans.guard))
                 for tid, trans in self.transitions.items() if trans.guard is not None]
        for arc in self.arcs:
            if arc.place not in self.places:
                raise NetError(f"arc {arc.id}: unknown place {arc.place!r}")
            if arc.trans not in self.transitions:
                raise NetError(f"arc {arc.id}: unknown transition {arc.trans!r}")
            if arc.orientation not in (PTOT, TTOP):
                raise NetError(f"arc {arc.id}: bad orientation {arc.orientation!r}")
            pattern = arc.orientation == PTOT
            if not _fits(arc.inscription, self.colour_of(arc.place), pattern):
                raise NetError(f"arc {arc.id}: {'pattern' if pattern else 'expression'}"
                               f" does not fit colour {self.places[arc.place].colour}")
            if pattern:
                bound[arc.trans] |= variables(arc.inscription)
            else:
                reads.append((arc.trans, f"output arc {arc.id}", variables(arc.inscription)))
        for tid, what, free in reads:
            _check_read(tid, what, free, bound[tid])

    def initial_marking(self) -> "Marking":
        return marking_key({pid: p.initial for pid, p in self.places.items() if p.initial})


def _check_read(tid: str, what: str, free: set[str], bound: set[str]):
    """Raise NetError when `what` of transition `tid` reads past `bound`."""
    if not free <= bound:
        raise NetError(f"transition {tid}: {what} reads unbound "
                       f"variables {sorted(free - bound)}")


def _fits(inscription, colour, pattern: bool) -> bool:
    """Whether the inscription's shape and literals fit `colour`.  A
    variable always fits: on an input arc it takes a token already in the
    place, and an output arc's token is checked when the transition fires.
    A pattern (`pattern` true: an input arc's inscription) may not
    compute, so there a `Calc` fits no colour."""
    if isinstance(inscription, Var):
        return True
    if isinstance(inscription, Lit):
        return colour.contains(inscription.value)
    if isinstance(inscription, Calc):
        return not pattern and isinstance(colour, IntCS)
    if isinstance(inscription, Tup):
        return (isinstance(colour, ProductCS)
                and len(colour.components) == len(inscription.items)
                and all(_fits(i, c, pattern)
                        for i, c in zip(inscription.items, colour.components)))
    return False


# ---------------------------------------------------------------------------
# Token game

# ((place id, token tuple), ...): marked places only, in place-id order,
# each token tuple sorted by `token_sort_key` with one entry per copy.
# Every token fits its place's colour, so the order is the colour's natural
# one; `fire` and `enabled_bindings` rely on it
Marking = tuple


def marking_key(tokens_by_place) -> Marking:
    """The canonical `Marking` of a place -> tokens mapping (one entry per
    copy, in any order) or of (place id, tokens) pairs, such as a marking."""
    if isinstance(tokens_by_place, dict):
        tokens_by_place = tokens_by_place.items()
    return tuple(sorted(((pid, tokens) for pid, values in tokens_by_place
                         if (tokens := sort_tokens(values))), key=itemgetter(0)))


def binding_key(binding: dict) -> tuple:
    return tuple(sorted(binding.items()))  # names are unique: sorting never compares values


def _constant(inscription: Inscription):
    """The token of an inscription without variables, else None, which no
    colour contains."""
    return None if variables(inscription) else evaluate(inscription, {})


def _apply(tid: str, inputs: tuple, outputs: tuple, tokens: dict, binding: dict) -> dict:
    """`CompiledTransition.apply` over some of transition `tid`'s arcs: the
    places they touch, changed in the order they first touch them."""
    changed: dict[str, tuple] = {}
    for pid, pattern, token in inputs:
        if token is None:
            token = evaluate(pattern, binding)
        have = changed[pid] if pid in changed else tokens.get(pid, ())
        try:
            at = have.index(token)
        except ValueError:
            raise NotEnabledError(f"{tid}: no token {token!r} in {pid}") from None
        changed[pid] = have[:at] + have[at + 1:]
    for pid, out, token, colour in outputs:
        if token is None:
            token = evaluate(out, binding)
        if colour is not None and not colour.contains(token):
            raise NetError(f"{tid}: produced {token!r} outside the colour of {pid}")
        have = changed[pid] if pid in changed else tokens.get(pid, ())
        try:
            at = bisect.bisect(have, token)
        except TypeError:  # only a token outside the colour fails to compare
            raise NetError(f"{tid}: cannot insert {token!r} in order on {pid}, "
                           f"which holds a token outside its colour") from None
        changed[pid] = have[:at] + (token,) + have[at:]
    return changed


class CompiledTransition:
    """One transition's arcs, indexed once for the token game.

    The methods read token maps: place id -> token tuple, as in
    `dict(marking)`, where an absent place is empty.  `apply` returns the
    map of the places it changes, `fire` the successor marking.  An arc whose
    inscription has no variable, such as a unit arc, is a fixed token: as
    an input it becomes a count check, and only the other inputs are
    matched against tokens.
    Raises NetError, as `ColouredNet.check` does, when the guard or an
    output arc reads a variable that no input pattern binds.  `touched`
    holds the distinct input places, then the other output places, in arc
    order: `bindings` reads only input places, and `apply` only these and
    changes them all, in this order.
    """

    __slots__ = ("id", "trans", "places", "inputs", "literals", "variables",
                 "shared", "outputs", "touched")

    def __init__(self, net: ColouredNet, trans: TransDef, in_arcs: list, out_arcs: list):
        self.id = trans.id
        self.trans = trans
        # (place, pattern, token or None), in arc order
        self.inputs = tuple((arc.place, arc.inscription, _constant(arc.inscription))
                            for arc in in_arcs)
        by_place: dict[str, list] = {}
        fixed: Counter = Counter()
        for pid, pattern, token in self.inputs:
            by_place.setdefault(pid, []).append(pattern)
            if token is not None:
                fixed[pid, token] += 1
        self.places = tuple(by_place)  # distinct input places
        self.literals = tuple((pid, token, n) for (pid, token), n in fixed.items())
        self.variables = tuple((pid, pattern) for pid, pattern, token in self.inputs
                               if token is None)
        # places read by several arcs, at least one with variables: only
        # there can a binding need more copies of a token than are present
        varied = {pid for pid, _ in self.variables}
        self.shared = tuple((pid, tuple(patterns)) for pid, patterns in by_place.items()
                            if len(patterns) > 1 and pid in varied)
        bound = set().union(*(variables(p) for _, p in self.variables))
        if trans.guard is not None:
            _check_read(trans.id, "guard", ex.variables_of(trans.guard), bound)
        for arc in out_arcs:
            _check_read(trans.id, f"output arc {arc.id}", variables(arc.inscription), bound)
        # (place, expression, token or None, colour set), in arc order; the
        # colour set is None where a constant token fits it, so that token
        # is checked here once instead of at every firing
        outputs = []
        for arc in out_arcs:
            token, colour = _constant(arc.inscription), net.colour_of(arc.place)
            if token is not None and colour.contains(token):
                colour = None
            outputs.append((arc.place, arc.inscription, token, colour))
        self.outputs = tuple(outputs)
        self.touched = tuple(dict.fromkeys([*self.places, *(pid for pid, *_ in outputs)]))

    def bindings(self, tokens: dict) -> list[tuple[tuple, dict]]:
        """(binding_key, binding) for every binding under which the
        transition may fire, in key order."""
        for pid, token, copies in self.literals:
            have = tokens.get(pid)
            if not have or have.count(token) < copies:
                return []
        guard = self.trans.guard
        if not self.variables:  # the guard reads no variable either
            return [((), {})] if guard is None or ex.eval_bool(guard, {}) else []
        bindings = [{}]
        for pid, pattern in self.variables:
            have = tokens.get(pid)
            if not have:
                return []
            # one candidate per distinct token: a binding fixes the token
            # each arc takes, so no binding is produced twice
            values = dict.fromkeys(have) if len(have) > 1 else have
            bindings = [new for binding in bindings for value in values
                        if (new := match(pattern, value, binding)) is not None]
            if not bindings:
                return []
        if self.shared:
            bindings = [b for b in bindings if self._enough_copies(tokens, b)]
        if guard is not None:
            bindings = [b for b in bindings if ex.eval_bool(guard, b)]
        keyed = [(binding_key(b), b) for b in bindings]
        if len(keyed) > 1:
            keyed.sort(key=itemgetter(0))
        return keyed

    def _enough_copies(self, tokens: dict, binding: dict) -> bool:
        for pid, patterns in self.shared:
            need = [evaluate(pattern, binding) for pattern in patterns]
            have = tokens[pid]
            if any(have.count(token) < need.count(token) for token in need):
                return False
        return True

    def apply(self, tokens: dict, binding: dict) -> dict:
        """The token tuples of the places the firing changes, empty where
        it empties one, each produced token inserted in order.  The guard
        is not evaluated here.  Raises
        NotEnabledError for a missing input token and NetError for a
        produced token outside its place's colour, or one that a token
        outside the colour keeps from being put in order."""
        return _apply(self.id, self.inputs, self.outputs, tokens, binding)

    def fire(self, marking: Marking, tokens: dict, binding: dict) -> Marking:
        """`marking`, whose `dict` is `tokens`, after the transition fires
        under the binding; the guard is not evaluated, and it raises as
        `apply` does."""
        changed = self.apply(tokens, binding)
        new = [pair for pair in marking if pair[0] not in changed]
        new += [pair for pair in changed.items() if pair[1]]
        new.sort()  # merges two sorted runs
        return tuple(new)


class CompiledNet:
    """A net prepared once for the token game over many markings.

    `CompiledNet.of(net)` returns the form kept with the net, compiled
    afresh when the net's containers no longer equal their copies in
    `source`: a comparison in C that short-cuts on identity.  `initial`
    is the net's initial marking, valid exactly as long.

    Each transition watches one input place: the one with the fewest
    consuming arcs, ties broken by id.  A transition whose watch place is
    empty cannot fire, so the candidates at a marking are the transitions
    without inputs plus those whose watch place is marked.

    `successors` fires each candidate under each of its bindings through
    `CompiledTransition.fire`, keeping nothing between markings.
    """

    def __init__(self, net: ColouredNet):
        # all the compile reads; equal containers of frozen parts compile alike
        self.source = (dict(net.colours), dict(net.places), dict(net.transitions), list(net.arcs))
        self.initial = net.initial_marking()
        arcs = {tid: ([], []) for tid in net.transitions}  # (input arcs, output arcs)
        consumers: dict[str, int] = {}
        for arc in net.arcs:
            consumed = arc.orientation == PTOT
            arcs.setdefault(arc.trans, ([], []))[not consumed].append(arc)
            consumers[arc.place] = consumers.get(arc.place, 0) + consumed
        self.transitions = [CompiledTransition(net, trans, *arcs[tid])
                            for tid, trans in sorted(net.transitions.items())]
        self.ids = [trans.id for trans in self.transitions]
        self.by_id = dict(zip(self.ids, self.transitions))
        self.unwatched: list[int] = []  # positions of transitions without inputs
        self.watchers: dict[str, list[int]] = {}
        for position, trans in enumerate(self.transitions):
            if trans.places:
                watch = min(trans.places, key=lambda pid: (consumers[pid], pid))
                self.watchers.setdefault(watch, []).append(position)
            else:
                self.unwatched.append(position)

    @classmethod
    def of(cls, net: Union[ColouredNet, CompiledNet]) -> CompiledNet:
        """The form kept with `net`, compiled afresh if the net changed."""
        if isinstance(net, CompiledNet):
            return net
        compiled = getattr(net, "_compiled", None)
        if compiled is None or compiled.source != (net.colours, net.places,
                                                   net.transitions, net.arcs):
            compiled = net._compiled = cls(net)
        return compiled

    def candidates(self, marking: Marking) -> list[int]:
        """The positions of the transitions that may be enabled, in id order."""
        positions = list(self.unwatched)
        for pid, _ in marking:
            positions.extend(self.watchers.get(pid, ()))
        positions.sort()
        return positions

    def successors(self, marking: Marking):
        """(transition id, binding key, successor) for every enabled
        binding, transitions in id order and bindings in key order."""
        tokens = dict(marking)
        for trans in map(self.transitions.__getitem__, self.candidates(marking)):
            for key, binding in trans.bindings(tokens):
                yield trans.id, key, trans.fire(marking, tokens, binding)


def enabled_bindings(net: Union[ColouredNet, CompiledNet], marking: Marking,
                     trans_id: str) -> list[dict]:
    """All variable bindings under which the transition may fire at the
    marking, in a canonical deterministic order.  `net` may be the
    CompiledNet, which spares repeated calls comparing the net's parts."""
    trans = CompiledNet.of(net).by_id[trans_id]
    return [binding for _, binding in trans.bindings(dict(marking))]


def fire(net: Union[ColouredNet, CompiledNet], marking: Marking, trans_id: str,
         binding: dict) -> Marking:
    """The marking after firing the transition under the binding, `net` as
    for `enabled_bindings`.  Raises NotEnabledError when it is not enabled."""
    trans = CompiledNet.of(net).by_id[trans_id]
    guard = trans.trans.guard
    if guard is not None and not ex.eval_bool(guard, binding):
        raise NotEnabledError(f"{trans_id}: guard is false under {binding}")
    return trans.fire(marking, dict(marking), binding)


#: markings are coded densely where places <= DENSE_FILL * marked places at the start
DENSE_FILL = 4


#: what a `DenseCoding` step table holds where the place lacks a token the
#: transition takes, and where a put there cannot be ordered
LACKS, UNORDERED = -1, -2


class DenseCoding:
    """One search's points of a net: the bytes of an array('I') of codes,
    one per place in `pids` order, each numbering the place's token tuples
    as met (0 for empty), so equal markings are equal points.

    The places transition position t touches are of two kinds.  On a
    constant place every arc of t carries a constant token that fits the
    place's colour, so t moves its code through a table, code -> code after
    t's takes and puts there, filled in as codes are met (`moved`); it also
    tells where the place lacks a token t takes.  The rest, `keyed[t]`,
    in `touched` order, are read by an input pattern with variables or
    written with a token computed from the binding (or a constant outside
    the colour).  `views[t]` reads their codes (`len` where there are none)
    and `memos[t]` holds t's firings per view, in its user's form: as
    `bindings` sees a constant place holding just what t takes there, a
    memo is read only once `moved` finds every taken token present."""

    def __init__(self, compiled: CompiledNet):
        self.compiled = compiled
        self.pids = pids = sorted(compiled.source[1])
        self.at = at = {pid: p for p, pid in enumerate(pids)}
        self.watchers = [compiled.watchers.get(pid, ()) for pid in pids]
        self.pairs = [[(pid, ())] for pid in pids]  # by place position: code -> (id, tokens)
        self.numbers = [{(): 0} for _ in pids]  # by place position: tokens -> code
        self.memos = [{} for _ in compiled.transitions]
        self.keyed, self.arcs, self.steps, self.held = [], [], [], []
        for trans in compiled.transitions:
            keyed = {pid for pid, _, token in trans.inputs if token is None}
            keyed.update(pid for pid, _, token, colour in trans.outputs
                         if token is None or colour is not None)
            self.keyed.append(tuple(at[pid] for pid in trans.touched if pid in keyed))
            self.arcs.append(_arcs_on(trans, keyed))
            steps, held = [], []
            for pid in trans.touched:
                if pid not in keyed:
                    arcs = _arcs_on(trans, {pid})
                    steps.append((at[pid], {}, arcs))
                    if arcs[0]:
                        held.append((pid, tuple(token for *_, token in arcs[0])))
            self.steps.append(tuple(steps))
            self.held.append(held)
        self.views = [itemgetter(*ps) if ps else len for ps in self.keyed]

    def code(self, p: int, tokens: tuple) -> int:
        number = self.numbers[p].get(tokens)
        if number is None:
            number = self.numbers[p][tokens] = len(self.pairs[p])
            self.pairs[p].append((self.pids[p], tokens))
        return number

    def encode(self, marking: Marking) -> bytes:
        codes = array("I", [0]) * len(self.pids)
        for pid, tokens in marking:
            codes[self.at[pid]] = self.code(self.at[pid], tokens)
        return codes.tobytes()

    def decode(self, point: bytes) -> Marking:
        codes = array("I", point)
        return tuple(compress(map(list.__getitem__, self.pairs, codes), codes))

    def candidates(self, codes: array) -> list[int]:
        """`CompiledNet.candidates` at codes."""
        positions = [*self.compiled.unwatched]
        for watching in compress(self.watchers, codes):
            positions += watching
        positions.sort()
        return positions

    def moved(self, t: int, codes: array):
        """(position, code) of each constant place of transition position t
        after t fires at codes: None where one lacks a token t takes, else
        UNORDERED where a put on one cannot be ordered."""
        moved, unordered = [], False
        for p, step, arcs in self.steps[t]:
            number = step.get(codes[p])
            if number is None:
                number = step[codes[p]] = self._step(p, codes[p], arcs)
            if number < 0:
                if number == LACKS:
                    return None
                unordered = True
            moved.append((p, number))
        return UNORDERED if unordered else moved

    def _step(self, p: int, code: int, arcs: tuple) -> int:
        """The code after `arcs`, a transition's arcs on constant place p,
        take and put there, or LACKS or UNORDERED where `apply` raises
        NotEnabledError or NetError (whose text is not kept)."""
        try:
            changed = _apply("", *arcs, dict([self.pairs[p][code]]), {})
        except NotEnabledError:
            return LACKS
        except NetError:
            return UNORDERED
        return self.code(p, changed[self.pids[p]])

    def local(self, t: int, codes: array) -> list[tuple]:
        """(place id, tokens) of each keyed place of t, then of each constant
        place it takes from, holding what it takes: all `bindings` reads."""
        return [self.pairs[p][codes[p]] for p in self.keyed[t]] + self.held[t]

    def fire(self, t: int, tokens: dict, binding: dict) -> tuple:
        """(position, code) of each keyed place of t after it fires under the
        binding, `tokens` being `dict(local(t, codes))`; raises as `apply`
        does where no put on a constant place is UNORDERED."""
        changed = _apply(self.compiled.ids[t], *self.arcs[t], tokens, binding).values()
        return tuple(zip(self.keyed[t], map(self.code, self.keyed[t], changed)))

    def fire_touched(self, t: int, codes: array, binding: dict) -> tuple:
        """(position, code) of each place t touches after it fires at codes,
        through `apply` on their tokens, so it raises as `apply` does."""
        places = [self.at[pid] for pid in self.compiled.transitions[t].touched]
        changed = self.compiled.transitions[t].apply(
            dict([self.pairs[p][codes[p]] for p in places]), binding).values()
        return tuple(zip(places, map(self.code, places, changed)))


def _arcs_on(trans: CompiledTransition, places: set) -> tuple[list, list]:
    """The transition's (inputs, outputs) on `places`, in arc order."""
    return ([arc for arc in trans.inputs if arc[0] in places],
            [arc for arc in trans.outputs if arc[0] in places])


def dense_coding(compiled: CompiledNet, start: Marking) -> Optional[DenseCoding]:
    """A new `DenseCoding` where `start` marks at least 1 in `DENSE_FILL` places, else None."""
    return DenseCoding(compiled) if len(compiled.source[1]) <= DENSE_FILL * len(start) else None


@dataclass
class ReachabilityGraph:
    states: list[Marking]
    edges: list[tuple[int, str, tuple, int]]  # (source, transition, binding, target)
    truncated: bool


def explore(net: ColouredNet, marking: Optional[Marking] = None,
            bound: int = 100_000) -> ReachabilityGraph:
    """Breadth-first reachability up to `bound` distinct markings.

    Vertex numbering is the BFS discovery order with transitions expanded
    in id order and bindings in canonical order, so equal nets yield
    identical graphs.  Every listed state is fully expanded; `truncated`
    reports whether some discovered successor had to be dropped.

    The search runs on the net's `CompiledNet`, with markings as their own
    keys, or the points of `dense_coding` where it codes the start, and
    tries only the watch-place candidates at each marking.  On points a
    transition's firings are memoised per view of its keyed places, and
    its constant places step through their tables.  A given start
    marking is made canonical with `marking_key` first; a token on a place
    the net lacks, or outside its place's colour, is a NetError.
    """
    if bound < 1:
        raise ValueError("bound must be at least 1")
    compiled = CompiledNet.of(net)
    start = compiled.initial if marking is None else marking_key(marking)
    for pid, tokens in start:
        for token in tokens:
            if pid not in net.places:
                raise NetError(f"start marking: token {token!r} on unknown place {pid!r}")
            if not net.colour_of(pid).contains(token):
                raise NetError(f"start marking: token {token!r} on {pid} is outside "
                               f"colour {net.places[pid].colour}")
    if (coding := dense_coding(compiled, start)) is not None:
        return _explore_dense(coding, start, bound)
    index = {start: 0}
    found = [start]
    edges = []
    truncated = False
    current = 0
    while current < len(found):
        for tid, key, succ in compiled.successors(found[current]):
            target = index.get(succ)
            if target is None:
                if len(found) >= bound:
                    truncated = True
                    continue
                target = len(found)
                index[succ] = target
                found.append(succ)
            edges.append((current, tid, key, target))
        current += 1
    return ReachabilityGraph(states=found, edges=edges, truncated=truncated)


def _explore_dense(coding: DenseCoding, start: Marking, bound: int) -> ReachabilityGraph:
    """`explore`'s search on points, memoising (id, binding key, keyed code changes)."""
    transitions, views, memos = coding.compiled.transitions, coding.views, coding.memos
    index = {coding.encode(start): 0}
    found = [*index]
    edges = []
    truncated = False
    current = 0
    while current < len(found):
        codes = array("I", found[current])
        for t in coding.candidates(codes):
            if (moved := coding.moved(t, codes)) is None:
                continue
            trans = transitions[t]
            if moved == UNORDERED:  # fired through `apply`, which raises as it does sparsely
                tokens, moved = dict(coding.local(t, codes)), ()
                fired = [(trans.id, key, coding.fire_touched(t, codes, binding))
                         for key, binding in trans.bindings(tokens)]
            elif (fired := memos[t].get(view := views[t](codes))) is None:
                tokens = dict(coding.local(t, codes))
                fired = memos[t][view] = [(trans.id, key, coding.fire(t, tokens, binding))
                                          for key, binding in trans.bindings(tokens)]
            for tid, key, changes in fired:
                succ = codes[:]
                for p, number in changes:
                    succ[p] = number
                for p, number in moved:
                    succ[p] = number
                succ = succ.tobytes()
                target = index.get(succ)
                if target is None:
                    if len(found) >= bound:
                        truncated = True
                        continue
                    target = len(found)
                    index[succ] = target
                    found.append(succ)
                edges.append((current, tid, key, target))
        current += 1
    del index  # decoding in place then reuses its memory
    for n, point in enumerate(found):
        found[n] = coding.decode(point)
    return ReachabilityGraph(states=found, edges=edges, truncated=truncated)
