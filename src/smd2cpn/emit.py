"""Serialisation of coloured nets: CPN Tools 4 XML and DOT.

The XML writer targets the CPN Tools 4 document layout (single page), with
graphical attribute defaults copied from a document saved by CPN Tools; it
and the DOT writer fill one f-string template per kind of element and label.
The reader accepts exactly the subset this writer produces, for round-trip
checking.  One expat pass follows a table of the element paths it reads,
where each field takes its first match; any other element only moves a skip
depth.  It reports malformed documents with ElementTree's fault text and
position, and reads inscriptions and guards with expr's lexer, token cursor
and expression parser in the SML dialect.  Output is byte-deterministic:
nodes come in natural id order (digit runs compare as numbers), from one
`_natural_key` that layout shares.  Ids that tie under it, such as P1 and
P01, keep their input order: insertion order in the writers, arc order in
`layout`, which keys each id once and sorts by its dense rank.
"""

from __future__ import annotations

import re
from collections import Counter, deque
from typing import Optional
from xml.parsers import expat
from xml.sax.saxutils import escape, quoteattr

from . import expr as ex
from .net import (
    UNIT_TOKEN, ArcDef, Calc, ColouredNet, EnumCS, IntCS, Lit, Marking, PlaceDef,
    ProductCS, TransDef, Tup, UnitCS, Var, PTOT, TTOP, evaluate, normalise_out,
    token_sort_key, variables,
)

# graphical attribute template (CPN Tools defaults)
FILLATTR = '<fillattr colour="White" pattern="" filled="false"/>'
LINEATTR = '<lineattr colour="Black" thick="1" type="Solid"/>'
TEXTATTR = '<textattr colour="Black" bold="false"/>'
ARROWATTR = '<arrowattr headsize="1.200000" currentcyckle="2"/>'
PLACE_W, PLACE_H = 60.0, 40.0
TRANS_W, TRANS_H = 60.0, 32.0
LAYER_DX, ROW_DY = 160.0, 120.0


class CpnEmitError(ValueError):
    pass


class CpnParseError(ValueError):
    """`position` is expat's (line from 1, column from 0), or None; the
    message names it once, at its end."""

    def __init__(self, message, position=None):
        self.position = position
        if position is not None:
            message = f"{message} (line {position[0]}, column {position[1]})"
        super().__init__(message)


_DIGITS = re.compile(r"(\d+)")
_SPECIAL = re.compile(r'[&<>"\n\r\t]')  # what quoteattr rewrites


def _natural_key(text: str):
    parts = _DIGITS.split(text)
    if len(parts) == 3:  # one digit run, as most generated ids hold
        return parts[0], int(parts[1]), parts[2]
    parts[1::2] = map(int, parts[1::2])  # the digit runs
    return tuple(parts)


def _quoteattr(text: str) -> str:
    return quoteattr(text) if _SPECIAL.search(text) else f'"{text}"'


def _escape(text: str) -> str:
    # a raw carriage return would come back from the reader as a newline
    return escape(text, {"\r": "&#13;"}) if _SPECIAL.search(text) else text


# ---------------------------------------------------------------------------
# Layout


def layout(net: ColouredNet) -> dict[str, tuple[float, float]]:
    """Deterministic layered placement.

    Layers follow token flow (breadth-first from the initially marked
    places); layer k sits at x = 160k, nodes within a layer stack at
    y = 0, 120, 240, ...  Every node gets a distinct grid cell, so
    coordinates are pairwise distinct and at least 80 units apart.
    """
    succ: dict[str, list[str]] = {}
    for arc in net.arcs:
        a, b = ((arc.place, arc.trans) if arc.orientation == PTOT
                else (arc.trans, arc.place))
        succ.setdefault(a, []).append(b)
    nodes = [*net.places, *net.transitions]
    strays = set(succ).union(*succ.values()).difference(nodes)  # arc ends the net lacks
    keys = {node: _natural_key(node) for node in [*nodes, *strays]}
    # equal keys share a rank, so the stable sorts keep the order of ties
    dense = {key: n for n, key in enumerate(sorted(set(keys.values())))}
    rank = {node: dense[key] for node, key in keys.items()}.__getitem__

    roots = sorted((p.id for p in net.places.values() if p.initial), key=rank)
    layer, queue = dict.fromkeys(roots, 0), deque(roots)
    while queue:
        node = queue.popleft()
        for nxt in sorted(succ.get(node, ()), key=rank):
            if nxt not in layer:
                layer[nxt] = layer[node] + 1
                queue.append(nxt)

    rest = sorted((n for n in nodes if n not in layer), key=rank)
    overflow = (max(layer.values()) + 1) if layer else 0
    layer.update(dict.fromkeys(rest, overflow))

    assignment: dict[str, tuple[float, float]] = {}
    per_layer: dict[int, int] = {}
    for node in sorted(sorted(layer, key=rank), key=layer.__getitem__):
        row = per_layer.get(layer[node], 0)
        per_layer[layer[node]] = row + 1
        assignment[node] = (LAYER_DX * layer[node], ROW_DY * row)
    return assignment


# ---------------------------------------------------------------------------
# Token / inscription text (SML-flavoured)


def token_text(value) -> str:
    if value == UNIT_TOKEN:
        return "()"
    if isinstance(value, int):
        return f"~{-value}" if value < 0 else str(value)
    if isinstance(value, str):
        return value
    if isinstance(value, tuple):
        return "(" + ",".join(token_text(v) for v in value) + ")"
    raise CpnEmitError(f"cannot serialise token {value!r}")


def marking_text(tokens) -> str:
    counted = Counter(tokens)
    entries = sorted(counted.items(), key=lambda e: token_sort_key(e[0]))
    return " ++ ".join(f"{n}`{token_text(v)}" for v, n in entries)


def inscription_text(inscription) -> str:
    if isinstance(inscription, Lit):
        return token_text(inscription.value)
    if isinstance(inscription, Var):
        return inscription.name
    if isinstance(inscription, Tup):
        return "(" + ",".join(inscription_text(i) for i in inscription.items) + ")"
    if isinstance(inscription, Calc):
        return ex.to_text(inscription.body, "sml")
    raise CpnEmitError(f"cannot serialise inscription {inscription!r}")


# ---------------------------------------------------------------------------
# XML writer


def _colour_decl_xml(name: str, colour, net: ColouredNet) -> str:
    """A colour's declaration, from one template per kind of colour."""
    if isinstance(colour, (UnitCS, IntCS)):
        kind = "unit" if isinstance(colour, UnitCS) else "int"
        body, text = f"<{kind}/>", kind
    elif isinstance(colour, EnumCS):
        ids = "".join(f"\n            <id>{_escape(value)}</id>" for value in colour.values)
        body, text = f"<enum>{ids}\n          </enum>", "with " + " | ".join(colour.values)
    elif isinstance(colour, ProductCS):
        names = [_declared_name(net, c) for c in colour.components]
        ids = "".join(f"\n            <id>{_escape(n)}</id>" for n in names)
        body, text = f"<product>{ids}\n          </product>", "product " + " * ".join(names)
    else:
        raise CpnEmitError(f"cannot declare colour {colour!r}")
    return (f"        <color id={_quoteattr('CS_' + name)}>\n          <id>{_escape(name)}</id>\n"
            f"          {body}\n          <layout>{_escape(f'colset {name} = {text};')}</layout>\n"
            "        </color>")


def _declared_name(net: ColouredNet, colour) -> str:
    for name, declared in net.colours.items():
        if declared == colour:
            return name
    raise CpnEmitError(f"product component {colour!r} is not a declared colour")


def _collect_variables(net: ColouredNet) -> dict[str, str]:
    """Variables at the colour of the input pattern binding them: all a checked net reads."""
    out: dict[str, str] = {}

    def visit(inscription, colour_name):
        if isinstance(inscription, Var):
            out.setdefault(inscription.name, colour_name)
        elif isinstance(inscription, Tup) and isinstance(net.colours[colour_name], ProductCS):
            for item, component in zip(inscription.items, net.colours[colour_name].components):
                visit(item, _declared_name(net, component))

    for arc in net.arcs:
        if arc.orientation == PTOT:
            visit(arc.inscription, net.places[arc.place].colour)
    return out


# the fill/line/text attribute template after a posattr, in a node and in a label
_NODE_ATTRS, _LABEL_ATTRS = ("".join(f"\n{pad}{attr}" for attr in (FILLATTR, LINEATTR, TEXTATTR))
                             for pad in (" " * 8, " " * 10))
_PLACE_SHAPE = (f'        <ellipse w="{PLACE_W:.6f}" h="{PLACE_H:.6f}"/>\n'
                '        <token x="-10.000000" y="0.000000"/>\n'
                '        <marking x="0.000000" y="0.000000" hidden="false"/>')
_TRANS_SHAPE = (f'        <box w="{TRANS_W:.6f}" h="{TRANS_H:.6f}"/>\n'
                '        <binding x="7.200000" y="-3.000000"/>')


def emit_cpn_xml(net: ColouredNet,
                 positions: dict[str, tuple[float, float]] | None = None) -> str:
    """Single-page CPN Tools 4 document for the net."""
    if positions is None:
        positions = layout(net)
    for node in list(net.places) + list(net.transitions):
        if node not in positions:
            raise CpnEmitError(f"layout is missing node {node!r}")
    var_colours = _collect_variables(net)
    ids = ["IDdecls", "IDpageMain", "IDinst1", *(f"CS_{c}" for c in net.colours),
           *(f"VAR_{v}" for v in var_colours), *net.places, *net.transitions,
           *(arc.id for arc in net.arcs), *(f"{pid}_type" for pid in net.places),
           *(f"{p.id}_init" for p in net.places.values() if p.initial),
           *(f"{t.id}_cond" for t in net.transitions.values() if t.guard is not None),
           *(f"{arc.id}_annot" for arc in net.arcs)]  # every id the document holds
    if len(set(ids)) < len(ids):
        raise CpnEmitError(
            f"repeated XML ids {sorted(i for i, n in Counter(ids).items() if n > 1)}")

    out = ['<?xml version="1.0" encoding="utf-8"?>',
           '<!DOCTYPE workspaceElements PUBLIC "-//CPN//DTD CPNXML 1.0//EN"'
           ' "http://cpntools.org/DTD/6/cpn.dtd">',
           "<workspaceElements>",
           '  <generator tool="CPN Tools" version="4.0.1" format="6"/>',
           "  <cpnet>",
           "    <globbox>",
           '      <block id="IDdecls">',
           "        <id>Declarations</id>"]
    for name in sorted(net.colours, key=_natural_key):
        out.append(_colour_decl_xml(name, net.colours[name], net))
    for var, colour_name in sorted(var_colours.items()):
        out.append(f'        <var id={_quoteattr("VAR_" + var)}>\n'
                   f"          <type><id>{_escape(colour_name)}</id></type>\n"
                   f"          <id>{_escape(var)}</id>\n"
                   f"          <layout>{_escape(f'var {var} : {colour_name};')}</layout>\n"
                   "        </var>")
    out += ["      </block>", "    </globbox>", '    <page id="IDpageMain">',
            f"      <pageattr name={_quoteattr(net.name)}/>"]

    # One f-string template per kind of element and of label.  Each string
    # appended stays under 512 bytes, which pymalloc serves; as one string per
    # arc, the freed 700-byte strings raised wide-explore's peak RSS by 1 MB.
    quoted = {node: _quoteattr(node) for node in positions}  # arcs name their ends again
    for pid in sorted(net.places, key=_natural_key):
        place = net.places[pid]
        x, y = positions[pid]
        out.append(f"      <place id={quoted[pid]}>\n"
                   f'        <posattr x="{x:.6f}" y="{y:.6f}"/>{_NODE_ATTRS}\n'
                   f"        <text>{_escape(place.name)}</text>")
        out.append(_PLACE_SHAPE)
        x = x + PLACE_W / 2 + 10  # the labels'
        out.append(f"        <type id={_quoteattr(pid + '_type')}>\n"
                   f'          <posattr x="{x:.6f}" y="{y - PLACE_H / 2:.6f}"/>{_LABEL_ATTRS}\n'
                   f"          <text>{_escape(place.colour)}</text>\n        </type>")
        if place.initial:
            out.append(f"        <initmark id={_quoteattr(pid + '_init')}>\n"
                       f'          <posattr x="{x:.6f}" y="{y + PLACE_H / 2:.6f}"/>{_LABEL_ATTRS}\n'
                       f"          <text>{_escape(marking_text(place.initial))}</text>\n"
                       "        </initmark>")
        out.append("      </place>")

    for tid in sorted(net.transitions, key=_natural_key):
        trans = net.transitions[tid]
        x, y = positions[tid]
        out.append(f'      <trans id={quoted[tid]} explicit="false">\n'
                   f'        <posattr x="{x:.6f}" y="{y:.6f}"/>{_NODE_ATTRS}\n'
                   f"        <text>{_escape(trans.name)}</text>\n{_TRANS_SHAPE}")
        if trans.guard is not None:
            guard = _escape("[" + ex.to_text(trans.guard, "sml") + "]")
            out.append(f"        <cond id={_quoteattr(tid + '_cond')}>\n"
                       f'          <posattr x="{x - TRANS_W / 2 - 10:.6f}"'
                       f' y="{y - TRANS_H / 2 - 6:.6f}"/>{_LABEL_ATTRS}\n'
                       f"          <text>{guard}</text>\n        </cond>")
        out.append("      </trans>")

    for arc in sorted(net.arcs, key=lambda a: _natural_key(a.id)):
        px, py = positions[arc.place]
        tx, ty = positions[arc.trans]
        xy = f'x="{(px + tx) / 2:.6f}" y="{(py + ty) / 2:.6f}"'  # the arc's and its annot's
        out.append(f'      <arc id={_quoteattr(arc.id)} orientation="{arc.orientation}"'
                   f' order="1">\n        <posattr {xy}/>{_NODE_ATTRS}\n        {ARROWATTR}\n'
                   f"        <transend idref={quoted[arc.trans]}/>\n"
                   f"        <placeend idref={quoted[arc.place]}/>")
        out.append(f"        <annot id={_quoteattr(arc.id + '_annot')}>\n"
                   f"          <posattr {xy}/>{_LABEL_ATTRS}\n"
                   f"          <text>{_escape(inscription_text(arc.inscription))}</text>\n"
                   "        </annot>\n      </arc>")

    out += ["    </page>", "    <instances>", '      <instance id="IDinst1" page="IDpageMain"/>',
            "    </instances>", "  </cpnet>",
            "</workspaceElements>\n"]  # the final newline, so join makes the only copy
    return "\n".join(out)


# ---------------------------------------------------------------------------
# XML reader (round-trip subset)


def _read_sml(text: str, parse, what: str):
    """`parse(cursor)` over all of `text`, lexed in the SML dialect; syntax
    errors become CpnParseError."""
    try:
        cur = ex.TokenStream(ex.tokenize(text, "sml"), "sml")
        value = parse(cur)
        cur.expect_end()
    except ex.ExprSyntaxError as err:
        raise CpnParseError(f"bad {what}: {err} in {text!r}") from None
    return value


def _parse_value(cur: ex.TokenStream, colour, as_pattern: bool):
    """One inscription of `colour`.  `as_pattern` (an input arc or a
    marking) limits an int to a variable or a literal; otherwise an int is
    a full integer expression."""
    if isinstance(colour, UnitCS):
        cur.expect("(")
        cur.expect(")")
        return Lit(UNIT_TOKEN)
    if isinstance(colour, EnumCS):
        text = cur.take("ident", "an enum value")
        return Lit(text) if text in colour.values else Var(text)
    if isinstance(colour, ProductCS):
        cur.expect("(")
        items = []
        for k, component in enumerate(colour.components):
            if k:
                cur.expect(",")
            items.append(_parse_value(cur, component, as_pattern))
        cur.expect(")")
        return Tup(tuple(items))
    if isinstance(colour, IntCS):
        if not as_pattern:
            return normalise_out(ex.parse_int(cur))
        kind, text, _ = cur.peek()
        if kind == "ident":
            cur.next()
            return Var(text)
        negative = cur.accept("~")
        value = int(cur.take("int", "an int pattern"))
        return Lit(-value if negative else value)
    raise CpnParseError(f"unsupported colour {colour!r}")


def _parse_inscription(text: str, colour, as_pattern: bool):
    return _read_sml(text, lambda cur: _parse_value(cur, colour, as_pattern), "inscription")


def _parse_marking(text: str, colour) -> tuple:
    tokens = []
    for chunk in text.split("++"):
        chunk = chunk.strip()
        if not chunk:
            continue
        if "`" not in chunk:
            raise CpnParseError(f"missing multiplicity in marking {text!r}")
        count_text, value_text = chunk.split("`", 1)
        count = int(_read_sml(count_text, lambda cur: cur.take("int", "a multiplicity"),
                              "multiplicity in marking"))
        parsed = _parse_inscription(value_text.strip(), colour, as_pattern=True)
        if variables(parsed):
            raise CpnParseError(f"marking value may not bind variables: {text!r}")
        tokens.extend([evaluate(parsed, {})] * count)
    return tuple(sorted(tokens, key=token_sort_key))


# The element paths parse_cpn_xml reads, below the root, as {tag: (action,
# field, children)}.  A record is the root's dict of lists, or the attribute
# dict of a colour, the first page, a place, a trans or an arc.  Its fields
# hold their first match, under keys that start with "/", as no attribute
# name can; "@name" records that attribute.  Every other element, and every
# child of an element without children here, only moves a skip depth.
_PATHS = {"cpnet": ("step", None, {
    "globbox": ("step", None, {"block": ("step", None, {"color": ("each", "/color", {
        "id": ("text", "/id", None),
        "unit": ("flag", "/unit", None), "int": ("flag", "/int", None),
        "enum": ("ids", "/enum", {"id": ("item", None, None)}),
        "product": ("ids", "/product", {"id": ("item", None, None)})})})}),
    "page": ("first", "/page", {
        "pageattr": ("@name", "/pageattr", None),
        "place": ("each", "/place", {
            "text": ("text", "/text", None),
            "type": ("step", None, {"text": ("text", "/type/text", None)}),
            "initmark": ("step", None, {"text": ("text", "/initmark/text", None)})}),
        "trans": ("each", "/trans", {
            "text": ("text", "/text", None),
            "cond": ("step", None, {"text": ("text", "/cond/text", None)})}),
        "arc": ("each", "/arc", {
            "transend": ("@idref", "/transend", None),
            "placeend": ("@idref", "/placeend", None),
            "annot": ("step", None, {"text": ("text", "/annot/text", None)})})})})}


def _read_records(text: str) -> dict:
    """The root record of `text`, read in one expat pass along _PATHS.
    Errors name the first fault at the position ElementTree gives."""
    parser = expat.ParserCreate(namespace_separator="}")
    found = {"/color": [], "/place": [], "/trans": [], "/arc": []}
    frames = []  # (children, record) of the open elements whose children are read
    skip = 0  # the open elements below them
    target = key = None  # where the text being collected goes
    chunks: list[str] = []

    def stop_reading():
        nonlocal target
        parser.CharacterDataHandler = None
        target[key] = "".join(chunks)
        target = None
        chunks.clear()

    def start(tag, attrib):
        nonlocal skip, target, key
        if target is not None:  # a child ends its parent's text
            stop_reading()
        step = None if skip else frames[-1][0].get(tag)
        if step is None:
            skip += 1
            return
        action, field, children = step
        record = frames[-1][1]
        if action == "each":
            found[field].append(attrib)
            record = attrib
        elif action == "item":  # the record is the list of ids
            target, key = record, len(record)
            record.append("")
        elif action != "step":
            if field in record:  # a later match
                children = None
            elif action == "first":
                record[field] = record = attrib
            elif action == "ids":
                record[field] = record = []
            elif action == "text":
                target, key, record[field] = record, field, ""
            else:
                record[field] = True if action == "flag" else attrib.get(action[1:])
        if target is not None:
            parser.CharacterDataHandler = chunks.append
        if children is None:
            skip = 1
        else:
            frames.append((children, record))

    def start_root(tag, attrib):
        frames.append((_PATHS, found))
        parser.StartElementHandler = start

    def end(tag):
        nonlocal skip
        if target is not None:
            stop_reading()
        if skip:
            skip -= 1
        else:
            frames.pop()

    def undefined_entity(name):
        raise CpnParseError(f"malformed document: undefined entity &{name};",
                            (parser.CurrentLineNumber, parser.CurrentColumnNumber))

    parser.StartElementHandler = start_root
    parser.EndElementHandler = end
    # Expat skips a reference to an entity that an external DOCTYPE may
    # declare, or to a declared external entity; ElementTree rejects both at
    # the reference.  The context names the open entities, innermost last.
    parser.SkippedEntityHandler = lambda name, is_parameter: undefined_entity(name)
    parser.ExternalEntityRefHandler = (
        lambda context, base, system_id, public_id:
            undefined_entity(context.rsplit("\x0c", 1)[-1]))
    try:
        parser.Parse(text, True)
    except expat.ExpatError as err:
        raise CpnParseError(f"malformed document: {expat.ErrorString(err.code)}",
                            (err.lineno, err.offset)) from None
    finally:  # the handlers hold the parser: drop them, so it is freed now, not by the collector
        parser.StartElementHandler = parser.EndElementHandler = None
        parser.SkippedEntityHandler = parser.ExternalEntityRefHandler = None
    return found


def _node_id(seen: set, tag: str, record) -> str:
    """The id of a place, trans or arc record, added to `seen`, the ids of
    the records read before it; the three share one namespace."""
    nid = record.get("id")
    if nid is None:
        raise CpnParseError(f"<{tag}> has no id")
    if nid in seen:
        raise CpnParseError(f"duplicate node id {nid!r} in <{tag}>")
    seen.add(nid)
    return nid


def parse_cpn_xml(text: str) -> ColouredNet:
    """Rebuild a net from a document this module emitted.  Layout and
    graphical attributes are discarded.

    One expat pass reads the paths in _PATHS: the colours of every cpnet,
    and the name and nodes of the first cpnet/page.  A field takes its
    first match in document order; a text is the character data before
    its element's first child.  A malformed document raises CpnParseError
    with ElementTree's fault text and (line, column).
    """
    found = _read_records(text)
    page = found.get("/page")
    if page is None:
        raise CpnParseError("document has no page element")
    name = page.get("/pageattr")
    net = ColouredNet(name="net" if name is None else name)

    products = {}  # name -> component names
    for decl in found["/color"]:
        cname = decl.get("/id")
        if cname is None:
            raise CpnParseError("colour declaration without a name")
        if "/unit" in decl or "/int" in decl:
            net.colours[cname] = UnitCS() if "/unit" in decl else IntCS()
        elif "/enum" in decl:
            if not decl["/enum"]:
                raise CpnParseError(f"enumeration colour {cname!r} has no values")
            net.colours[cname] = EnumCS(tuple(decl["/enum"]))
        elif "/product" in decl:
            products[cname] = decl["/product"]  # resolved below
        else:
            raise CpnParseError(f"unsupported colour declaration {cname!r}")
    for cname, refs in products.items():
        if not refs:
            raise CpnParseError(f"product colour {cname!r} has no components")
        for ref in refs:
            if ref not in net.colours and ref not in products:
                raise CpnParseError(f"product {cname!r} references unknown colour {ref!r}")
    made: dict = {}  # each product is made after its components, declared before it or not
    for root in products:
        path = {root: None}  # each a component of the one before
        while root not in made:
            cname = next(reversed(path))
            ref = next((r for r in products[cname] if r in products and r not in made), None)
            if ref in path:
                raise CpnParseError(f"product {ref!r} contains itself")
            elif ref is None:
                made[path.popitem()[0]] = ProductCS(tuple(
                    made[r] if r in made else net.colours[r] for r in products[cname]))
            else:
                path[ref] = None
    net.colours.update((cname, made[cname]) for cname in products)

    seen: set = set()
    for record in found["/place"]:
        pid = _node_id(seen, "place", record)
        colour_name = record.get("/type/text")
        if colour_name is None or colour_name not in net.colours:
            raise CpnParseError(f"place {pid!r} has no usable colour")
        init_text = record.get("/initmark/text")
        initial = _parse_marking(init_text, net.colours[colour_name]) if init_text else ()
        net.add_place(PlaceDef(pid, record.get("/text") or pid, colour_name, initial))

    for record in found["/trans"]:
        tid = _node_id(seen, "trans", record)
        guard = None
        cond = record.get("/cond/text")
        if cond:
            body = cond.strip()
            if not (body.startswith("[") and body.endswith("]")):
                raise CpnParseError(f"guard of {tid!r} is not bracketed: {cond!r}")
            guard = _read_sml(body[1:-1], ex.parse_bool, f"guard on {tid!r}")
        net.add_transition(TransDef(tid, record.get("/text") or tid, guard=guard))

    inscriptions = {}  # (text, colour name, orientation) -> inscription
    for record in found["/arc"]:
        aid = _node_id(seen, "arc", record)
        orientation = record.get("orientation")
        if orientation not in (PTOT, TTOP):
            raise CpnParseError(f"arc {aid!r} has bad orientation {orientation!r}")
        if "/transend" not in record or "/placeend" not in record:
            raise CpnParseError(f"arc {aid!r} is missing an endpoint")
        place_id, trans_id = record["/placeend"], record["/transend"]
        if place_id not in net.places:
            raise CpnParseError(f"arc {aid!r} references unknown place {place_id!r}")
        if trans_id not in net.transitions:
            raise CpnParseError(f"arc {aid!r} references unknown transition {trans_id!r}")
        annot = record.get("/annot/text") or "()"
        key = (annot, net.places[place_id].colour, orientation)
        inscription = inscriptions.get(key)
        if inscription is None:
            inscription = inscriptions[key] = _parse_inscription(
                annot, net.colour_of(place_id), as_pattern=(orientation == PTOT))
        net.arcs.append(ArcDef(aid, place_id, trans_id, orientation, inscription))
    return net


# ---------------------------------------------------------------------------
# DOT


def emit_dot(net: ColouredNet, marking: Optional[Marking] = None) -> str:
    """Places as ellipses, transitions as boxes; optional marking shown in
    place labels."""
    out = [f'digraph "{_dot_escape(net.name)}" {{', "  rankdir=LR;"]
    held = dict(marking or ())
    for pid in sorted(net.places, key=_natural_key):
        label = _dot_escape(net.places[pid].name)
        if pid in held:
            label += r"\n" + _dot_escape(marking_text(held[pid]))
        out.append(f'  "{_dot_escape(pid)}" [shape=ellipse, label="{label}"];')
    for tid in sorted(net.transitions, key=_natural_key):
        trans = net.transitions[tid]
        label = _dot_escape(trans.name)
        if trans.guard is not None:
            label += r"\n" + _dot_escape("[" + ex.to_text(trans.guard, "sml") + "]")
        out.append(f'  "{_dot_escape(tid)}" [shape=box, label="{label}"];')
    for arc in sorted(net.arcs, key=lambda a: _natural_key(a.id)):
        src, dst = ((arc.place, arc.trans) if arc.orientation == PTOT
                    else (arc.trans, arc.place))
        text = _dot_escape(inscription_text(arc.inscription))
        out.append(f'  "{_dot_escape(src)}" -> "{_dot_escape(dst)}" [label="{text}"];')
    out.append("}\n")
    return "\n".join(out)


def _dot_escape(text: str) -> str:
    """The net's own text inside a quoted DOT string, where the writer's
    `\\n` line breaks are the only unescaped backslashes."""
    return text.replace("\\", "\\\\").replace('"', '\\"')
