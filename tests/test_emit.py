import hashlib
import itertools
import math
from xml.sax.saxutils import escape

import pytest

import modelgen
from smd2cpn import expr as ex
from smd2cpn.emit import (
    CpnParseError, emit_cpn_xml, emit_dot, layout, parse_cpn_xml,
)
from smd2cpn.net import (
    UNIT_TOKEN, ColouredNet, IntCS, Lit, PlaceDef, TransDef, UnitCS, Var, PTOT, TTOP,
)
from smd2cpn.translator import TranslationConfig, translate


def tiny_net(marked=True):
    net = ColouredNet(name="tiny")
    net.colours["UNIT"] = UnitCS()
    net.add_place(PlaceDef("p", "p", "UNIT", (UNIT_TOKEN,) if marked else ()))
    return net


# ---------------------------------------------------------------------------
# layout


def test_single_node_at_origin():
    assert layout(tiny_net()) == {"p": (0.0, 0.0)}


def test_two_node_chain_spacing():
    net = tiny_net()
    net.add_transition(TransDef("t", "t"))
    net.add_arc("p", "t", PTOT, Lit(UNIT_TOKEN))
    positions = layout(net)
    assert positions["p"] == (0.0, 0.0)
    x, y = positions["t"]
    assert x >= 80.0 and y == 0.0


def test_cd_layout_all_distinct_and_spaced(cd_net):
    net, _ = cd_net
    positions = layout(net)
    assert set(positions) == set(net.places) | set(net.transitions)
    for (a, pa), (b, pb) in itertools.combinations(positions.items(), 2):
        assert pa != pb, (a, b)
        assert math.dist(pa, pb) >= 80.0, (a, b)
    assert layout(net) == positions  # deterministic


def test_layout_covers_unmarked_components():
    net = tiny_net(marked=False)
    net.add_place(PlaceDef("q", "q", "UNIT", ()))
    positions = layout(net)
    assert len(positions) == 2
    assert positions["p"] != positions["q"]


# ---------------------------------------------------------------------------
# XML round trips


def test_round_trip_minimal_net():
    net = tiny_net()
    assert parse_cpn_xml(emit_cpn_xml(net)) == net


def test_round_trip_all_corpus_nets(corpus_nets):
    for name, (net, _) in corpus_nets.items():
        document = emit_cpn_xml(net)
        again = parse_cpn_xml(document)
        assert again == net, name
        assert emit_cpn_xml(again) == document, name  # emission idempotent


def test_emission_is_byte_deterministic(cd_net):
    net, _ = cd_net
    assert emit_cpn_xml(net) == emit_cpn_xml(net)


# sha256 of emit_cpn_xml + emit_dot for each corpus model and event capacity;
# a refactor that claims unchanged output must leave every one as it is
CORPUS_DIGESTS = {
    ("flat", 1): "48d31749d083815adf47a0e1db98668537700c898ec7add381093f58534f193c",
    ("nested3", 1): "1201a3cfeb99eeacf5352d65f103fe859e6c77000c64e71f06c5d9d50e2d0633",
    ("interlevel", 1): "6429d4d8e5981fe55490a96b1bbb931074d45e2304ecbc5db8b339b5492def8f",
    ("guarded", 1): "f3948accab5830974a03850e6f3d4d7e2562f90ec6820a4d2768702c63b2d103",
    ("history", 1): "2c5d297e1065e5e861cf01c2b3e0552324eb112f30efa8a6bafb442f5bffa1a9",
    ("completion", 1): "f7cb26861846dc9760e8f0b284c84a87c955b46a906d9db6af4f23604fc94e45",
    ("cdplayer", 1): "02b0d8b64b106e92d321dd2a54c3ef765850c40e9729e68c0a78cb73b3d1c8d2",
    ("flat", 2): "d91c7b67b7d669520a475613eacde4eae8854c759e516845f76f9b7457367a8c",
    ("nested3", 2): "f6ad8642758e205094faccc6a08f61a83c7252825b82cbff612a934292ea43f5",
    ("interlevel", 2): "780c5747c46c07072e5e212580ea792d9e311dca0f2cbcd59be6e3539821ebe9",
    ("guarded", 2): "4c8a79193f0c316f6929f04628300f263dc17c7a91b5283dc3faf754f02af9e9",
    ("history", 2): "fe53485454b643491953f2f520b25d829778f97bd05035bc6de6beae40348a47",
    ("completion", 2): "b1031bbb3965ad96578dc274e61021690b17087e2ea175c3a7758b3fe03c5a50",
    ("cdplayer", 2): "fc19614d48b8b4e4454e58735ccc7580ac2807aecc9c9f64f0976c9986dbb674",
}


@pytest.mark.parametrize("name,capacity", sorted(CORPUS_DIGESTS))
def test_corpus_documents_are_byte_identical(corpus_models, name, capacity):
    net, _ = translate(corpus_models[name], TranslationConfig(event_capacity=capacity))
    document = emit_cpn_xml(net) + emit_dot(net)
    assert (hashlib.sha256(document.encode("utf-8")).hexdigest()
            == CORPUS_DIGESTS[name, capacity])


AWKWARD = "a&b <c> \"d\" 'e'\tf\ng"


def awkward_net():
    """Names and ids that hold every character the XML writer escapes, and
    a guard whose text holds < and >."""
    net = ColouredNet(name="net " + AWKWARD)
    net.colours["INT"] = IntCS()
    net.colours["UNIT"] = UnitCS()
    net.add_place(PlaceDef("P&1", "place " + AWKWARD, "INT", (1, 2)))
    net.add_place(PlaceDef("P<2>", "'quoted'", "UNIT", ()))
    net.add_place(PlaceDef('P"3\'', 'say "hi"', "UNIT", ()))
    guard = ex.And(ex.Cmp("<", ex.VarRead("x"), ex.IntLit(3)),
                   ex.Cmp(">", ex.VarRead("x"), ex.IntLit(0)))
    net.add_transition(TransDef("T\t1", "trans " + AWKWARD, guard=guard))
    net.add_arc("P&1", "T\t1", PTOT, Var("x"))
    net.add_arc("P<2>", "T\t1", TTOP, Lit(UNIT_TOKEN))
    net.add_arc('P"3\'', "T\t1", TTOP, Lit(UNIT_TOKEN))
    return net


def _digest(net):
    document = emit_cpn_xml(net) + emit_dot(net)
    return hashlib.sha256(document.encode("utf-8")).hexdigest()


# sha256 of emit_cpn_xml + emit_dot for nets outside the corpus: two
# synthetic families at capacity 1 and a net of awkward names
@pytest.mark.parametrize("build,digest", [
    (lambda: translate(modelgen.chain_machine(20))[0],
     "1e7a065912595865fb4250f4f2b912775e78bf8a9b5b7aeab3cca01d4e175b09"),
    (lambda: translate(modelgen.balanced_machine(3, 2))[0],
     "d5f25180a95c80b2d50c0252a07952fe153ccc5132ace029148c01033fb494ce"),
    (awkward_net,
     "8ed0b53f773c29580ddd2c0f883d5cbc4bdf4c52d34916dd2e5cc28a99e2abe7"),
], ids=["chain-20", "balanced-3x2", "awkward-names"])
def test_generated_documents_are_byte_identical(build, digest):
    assert _digest(build()) == digest


def test_awkward_names_round_trip():
    net = awkward_net()
    assert parse_cpn_xml(emit_cpn_xml(net)) == net


def test_carriage_returns_in_names_round_trip():
    net = tiny_net()
    net.name = "net\r1"
    net.places["p"] = PlaceDef("p", "place\rone\r\n", "UNIT", (UNIT_TOKEN,))
    net.add_transition(TransDef("t\r", "trans\rone"))
    net.add_arc("p", "t\r", PTOT, Lit(UNIT_TOKEN))
    document = emit_cpn_xml(net)
    assert "\r" not in document and "<text>place&#13;one&#13;\n</text>" in document
    assert parse_cpn_xml(document) == net


def test_ids_with_non_decimal_digits_are_emitted():
    # "²" is a digit to str.isdigit but not to int(), nor to the key's \d
    net = ColouredNet(name="n")
    net.colours["UNIT"] = UnitCS()
    net.add_place(PlaceDef("P1\u00b2", "P1\u00b2", "UNIT", (UNIT_TOKEN,)))
    assert layout(net) == {"P1\u00b2": (0.0, 0.0)}
    assert '"P1\u00b2"' in emit_dot(net)
    assert parse_cpn_xml(emit_cpn_xml(net, layout(net))) == net


def test_natural_key_ties_keep_arc_order():
    """P1, P001 and P01 tie under the natural key: layout stacks them in
    the order of the arcs that reach them, the writers in the order the
    places were added."""
    net = tiny_net()
    net.add_transition(TransDef("t", "t"))
    net.add_arc("p", "t", PTOT, Lit(UNIT_TOKEN))
    for pid in ("P1", "P001", "P01"):
        net.add_place(PlaceDef(pid, pid, "UNIT", ()))
    for pid in ("P01", "P1", "P001"):
        net.add_arc(pid, "t", TTOP, Lit(UNIT_TOKEN))
    positions = layout(net)
    assert [positions[pid] for pid in ("P01", "P1", "P001")] == [
        (320.0, 0.0), (320.0, 120.0), (320.0, 240.0)]
    assert _digest(net) == (
        "0f34285c8743ad4b5552011fa66bd94672292d30fe86766e096bc5fb9d861179")


def test_layout_places_reachable_arc_ends_the_net_lacks():
    net = tiny_net()
    net.add_transition(TransDef("t", "t"))
    net.add_arc("p", "t", PTOT, Lit(UNIT_TOKEN))
    for pid, tid in (("ghost10", "t"), ("ghost2", "t"), ("ghost1", "t2")):
        net.add_arc(pid, tid, TTOP, Lit(UNIT_TOKEN))
    assert layout(net) == {"p": (0.0, 0.0), "t": (160.0, 0.0),
                           "ghost2": (320.0, 0.0), "ghost10": (320.0, 120.0)}


def test_emission_independent_of_insertion_order():
    def build(order):
        net = ColouredNet(name="n")
        net.colours["UNIT"] = UnitCS()
        for pid in order:
            net.add_place(PlaceDef(pid, pid, "UNIT",
                                   (UNIT_TOKEN,) if pid == "a" else ()))
        net.add_transition(TransDef("t", "t"))
        net.add_arc("a", "t", PTOT, Lit(UNIT_TOKEN))
        net.add_arc("b", "t", TTOP, Lit(UNIT_TOKEN))
        return net

    assert emit_cpn_xml(build("ab")) == emit_cpn_xml(build("ba"))


def test_every_place_to_transition_arc_is_ptot(cd_net):
    net, _ = cd_net
    document = emit_cpn_xml(net)
    parsed = parse_cpn_xml(document)
    by_id = {a.id: a for a in net.arcs}
    for arc in parsed.arcs:
        assert arc.orientation == by_id[arc.id].orientation
    assert 'orientation="PtoT"' in document
    assert document.count('orientation="') == len(net.arcs)


def test_guards_and_markings_round_trip(corpus_nets):
    net, _ = corpus_nets["guarded"]
    again = parse_cpn_xml(emit_cpn_xml(net))
    dispatch = next(t for t in again.transitions.values() if t.guard is not None)
    assert dispatch.guard == net.transitions[dispatch.id].guard
    assert again.places["P_VARS"].initial == ((0,),)


def test_multiplicity_marking_round_trip(cd_model):
    net, _ = translate(cd_model, TranslationConfig(event_capacity=3))
    again = parse_cpn_xml(emit_cpn_xml(net))
    assert again.places["P_cap_play"].initial == (UNIT_TOKEN,) * 3


def test_truncated_document_errors_with_position(cd_net):
    net, _ = cd_net
    document = emit_cpn_xml(net)
    with pytest.raises(CpnParseError) as err:
        parse_cpn_xml(document[: len(document) // 2])
    assert err.value.position is not None
    assert str(err.value).count("line") == 1


def _declarations_document(colour_xml):
    return f"""<?xml version="1.0" encoding="utf-8"?>
<workspaceElements><cpnet><globbox><block id="b"><id>D</id>
{colour_xml}
</block></globbox><page id="pg"><pageattr name="x"/></page></cpnet></workspaceElements>"""


def test_unsupported_colour_declaration_rejected():
    document = _declarations_document(
        '<color id="c"><id>L</id><list><id>INT</id></list></color>')
    with pytest.raises(CpnParseError):
        parse_cpn_xml(document)


@pytest.mark.parametrize("kind,message", [
    ("enum", "enumeration colour 'E' has no values"),
    ("product", "product colour 'E' has no components"),
])
def test_empty_enum_or_product_rejected(kind, message):
    document = _declarations_document(f'<color id="c"><id>E</id><{kind}/></color>')
    with pytest.raises(CpnParseError, match=message):
        parse_cpn_xml(document)


def test_arc_to_unknown_transition_rejected():
    net = tiny_net()
    net.add_transition(TransDef("t", "t"))
    net.add_arc("p", "t", PTOT, Lit(UNIT_TOKEN))
    document = emit_cpn_xml(net)
    assert parse_cpn_xml(document) == net
    dangling = document.replace('<transend idref="t"/>', '<transend idref="u"/>')
    assert dangling != document
    with pytest.raises(CpnParseError, match="unknown transition 'u'"):
        parse_cpn_xml(dangling)


@pytest.mark.parametrize("count", ["1_0", "\u0663"], ids=["underscore", "arabic-indic"])
def test_marking_multiplicity_is_ascii_digits_only(count):
    document = emit_cpn_xml(tiny_net())
    assert "<text>1`()</text>" in document
    with pytest.raises(CpnParseError, match="bad multiplicity in marking"):
        parse_cpn_xml(document.replace("<text>1`()</text>", f"<text>{count}`()</text>"))


def _with_transition():
    net = tiny_net()
    net.add_transition(TransDef("t", "t"))
    return net


@pytest.mark.parametrize("tag,node_id", [("place", "p"), ("trans", "t")])
def test_duplicate_node_id_rejected(tag, node_id):
    document = emit_cpn_xml(_with_transition())
    start = document.index(f"      <{tag} id=")
    end = document.index(f"</{tag}>", start) + len(f"</{tag}>\n")
    doubled = document[:end] + document[start:end] + document[end:]
    with pytest.raises(CpnParseError, match=f"duplicate node id '{node_id}' in <{tag}>"):
        parse_cpn_xml(doubled)


def test_duplicate_arc_id_rejected():
    net = _with_transition()
    net.add_arc("p", "t", PTOT, Lit(UNIT_TOKEN))
    net.add_arc("p", "t", TTOP, Lit(UNIT_TOKEN))
    document = emit_cpn_xml(net)
    assert parse_cpn_xml(document) == net
    renamed = document.replace('<arc id="A_2"', '<arc id="A_1"')
    assert renamed != document
    with pytest.raises(CpnParseError, match="duplicate node id 'A_1' in <arc>"):
        parse_cpn_xml(renamed)


def test_missing_place_id_rejected():
    document = emit_cpn_xml(tiny_net())
    anonymous = document.replace('<place id="p"', "<place")
    assert anonymous != document
    with pytest.raises(CpnParseError, match="<place> has no id"):
        parse_cpn_xml(anonymous)


def _guarded_document(guard_text):
    net = tiny_net()
    net.add_transition(TransDef("t", "t", guard=ex.Cmp("<", ex.VarRead("x"), ex.IntLit(1))))
    document = emit_cpn_xml(net)
    assert parse_cpn_xml(document) == net
    assert "<text>[x &lt; 1]</text>" in document
    return document.replace("[x &lt; 1]", escape(f"[{guard_text}]"))


@pytest.mark.parametrize("guard", [
    "x < \u00b2",
    "(" * 2000 + "x < 1" + ")" * 2000,
], ids=["non-ascii-digit", "nested-2000"])
def test_bad_guard_text_rejected(guard):
    with pytest.raises(CpnParseError, match="bad guard on 't'"):
        parse_cpn_xml(_guarded_document(guard))


def _int_arc_net():
    net = ColouredNet(name="pin")
    net.colours["INT"] = IntCS()
    net.colours["UNIT"] = UnitCS()
    net.add_place(PlaceDef("p", "p", "INT", (12,)))
    net.add_transition(TransDef("t", "t"))
    net.add_arc("p", "t", PTOT, Lit(12))
    return net


ANNOT_TEXT = "<text>12</text>\n        </annot>"
TYPE_TEXT = "<text>INT</text>\n        </type>"


def _line_column(document, at):
    """The (line, column) of offset `at`, counted as expat counts them."""
    return document.count("\n", 0, at) + 1, at - (document.rindex("\n", 0, at) + 1)


@pytest.mark.parametrize("old,new,outcome", [
    (ANNOT_TEXT, "<text>1&foo;2</text></annot>", ("undefined entity &foo;", "&")),
    (ANNOT_TEXT, "<text>1&a:b;2</text></annot>", ("not well-formed", ":")),
    (ANNOT_TEXT, "<text>1<!--c-->2</text></annot>", 12),
    (ANNOT_TEXT, "<text>1<![CDATA[2]]></text></annot>", 12),
    (ANNOT_TEXT, "<text>1<?pi x?>2</text></annot>", 12),
    (ANNOT_TEXT, "<text>1<b/>2</text></annot>", 1),
    (TYPE_TEXT, "<text>INT</text></type><type><text>UNIT</text></type>", 12),
    ("</page>", '</page><page id="x"><place id="p"/></page>', 12),
], ids=["undefined-entity", "colon-entity", "comment", "cdata", "pi",
        "text-after-child", "first-type-wins", "second-page-ignored"])
def test_reader_text_and_error_positions(old, new, outcome):
    """What the reader takes from mixed content, repeated elements and
    malformed entity references, and where it reports the failure."""
    document = emit_cpn_xml(_int_arc_net())
    assert document.count(old) == 1
    at = document.index(old)
    edited = document[:at] + new + document[at + len(old):]
    if isinstance(outcome, int):
        net = parse_cpn_xml(edited)
        assert [a.inscription for a in net.arcs] == [Lit(outcome)]
        assert net.places["p"].colour == "INT"
        assert net.places["p"].initial == (12,)
        return
    message, marker = outcome
    with pytest.raises(CpnParseError, match=f"malformed document: {message}") as err:
        parse_cpn_xml(edited)
    assert err.value.position == _line_column(edited, at + new.index(marker))
    assert str(err.value).endswith(" (line %d, column %d)" % err.value.position)
    assert str(err.value).count("line") == 1


def test_external_entity_reference_is_undefined():
    document = emit_cpn_xml(_int_arc_net())
    declared = document.replace(
        '"http://cpntools.org/DTD/6/cpn.dtd">',
        '"http://cpntools.org/DTD/6/cpn.dtd" [<!ENTITY e SYSTEM "e.xml">]>')
    at = declared.index(ANNOT_TEXT) + len("<text>1")
    with pytest.raises(CpnParseError, match="undefined entity &e;") as err:
        parse_cpn_xml(declared[:at] + "&e;" + declared[at:])
    assert err.value.position == _line_column(declared, at)


def test_layout_missing_node_rejected():
    net = tiny_net()
    with pytest.raises(Exception):
        emit_cpn_xml(net, positions={})


# ---------------------------------------------------------------------------
# DOT


def test_dot_single_place_is_ellipse():
    text = emit_dot(tiny_net())
    assert text.count("shape=ellipse") == 1
    assert "shape=box" not in text


def test_dot_marking_rendered_in_labels():
    net = tiny_net()
    text = emit_dot(net, marking=(("p", (UNIT_TOKEN,)),))
    assert "1`()" in text


def test_dot_node_count_matches_net(cd_net):
    net, _ = cd_net
    text = emit_dot(net)
    assert text.count("shape=ellipse") == len(net.places)
    assert text.count("shape=box") == len(net.transitions)
