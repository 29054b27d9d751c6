import hashlib
import itertools
import math
import random
import re
from typing import Optional
from xml.parsers import expat
from xml.sax.saxutils import escape

import pytest

import modelgen
from smd2cpn import expr as ex
from smd2cpn.emit import (
    CpnEmitError, CpnParseError, _node_id, _parse_inscription, _parse_marking, _read_sml,
    emit_cpn_xml, emit_dot, layout, parse_cpn_xml,
)
from smd2cpn.net import (
    UNIT_TOKEN, ArcDef, Calc, ColouredNet, EnumCS, IntCS, Lit, PlaceDef, ProductCS, TransDef,
    UnitCS, Var, PTOT, TTOP,
)
from smd2cpn.smdl import parse
from smd2cpn.translator import TranslationConfig, translate
from test_smdl import _nested_guard


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


# sha256 of repr(TranslationMap) for each model, the same at event capacity
# 1 and 2: pins the order of `transition_subnet`, `inflight` and the
# behaviour, dispatch and producer maps, which the documents do not show
TMAP_DIGESTS = {
    "flat": "c7505e0aeab4e3c46ac288f4036ed549a4307422b7e429b18a530cf38b7e293b",
    "nested3": "f8836d20059b2821943df7563fbd548c5bfa45ac8dda28db87a8d22e336a3025",
    "interlevel": "887734d8c9a2353fabcb87c634072153fbc394d6f1564102b9eba533049fdee0",
    "guarded": "28073d16d6de21196f1535054a693ec53890afea6ad6a70a2142bbbd612e77f6",
    "history": "981e517f52ddc3ceba29667ae33adc7abaf68eb3a6e8eea6d432dcd1b62e0342",
    "completion": "b0f4b4b12a31334fe3c8ec659f623e96516f9004b98bdc140bcb2038af0007c9",
    "cdplayer": "5060ed42a2d39895ac98fb768593ea582f4af1c944a523311d711df4e8ce10ab",
    "chain_machine(20)": "c94910942988410e9b02de0f6e67b6bb208e4d0fba9dad0e4858f22c45352d08",
    "balanced_machine(3, 2)":
        "593304884171e380f6450d19f319bc28d8f06a160b385d1b0b95e09afb39aa24",
}


GENERATED = {"chain_machine(20)": lambda: modelgen.chain_machine(20),
             "balanced_machine(3, 2)": lambda: modelgen.balanced_machine(3, 2)}


@pytest.mark.parametrize("capacity", [1, 2])
@pytest.mark.parametrize("name", sorted(TMAP_DIGESTS))
def test_translation_maps_are_unchanged(corpus_models, name, capacity):
    model = corpus_models[name] if name in corpus_models else GENERATED[name]()
    _, tmap = translate(model, TranslationConfig(event_capacity=capacity))
    assert hashlib.sha256(repr(tmap).encode("utf-8")).hexdigest() == TMAP_DIGESTS[name]


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


def test_a_negated_guard_is_written_as_an_sml_function_application():
    # SML applies `not` before `<`, so `not v_x < 1` would read `(not v_x) < 1`
    net, _ = translate(parse(_nested_guard("not", 1)))
    assert "<text>[not (v_x &lt; 1)]</text>" in emit_cpn_xml(net)
    net, _ = translate(parse(_nested_guard("not", ex.MAX_NESTING)))
    assert parse_cpn_xml(emit_cpn_xml(net)) == net


def test_each_variable_is_declared_at_the_colour_that_binds_it():
    # an integer colour not named INT, and the output arc that reads x
    # listed before the input arc that binds it
    net = ColouredNet(name="n")
    net.colours["N"] = IntCS()
    net.add_place(PlaceDef("p", "p", "N", (1,)))
    net.add_place(PlaceDef("q", "q", "N"))
    net.add_transition(TransDef("t", "t", ex.Cmp("<", ex.VarRead("x"), ex.IntLit(5))))
    net.add_arc("q", "t", TTOP, Calc(ex.BinOp("+", ex.VarRead("x"), ex.IntLit(1))))
    net.add_arc("p", "t", PTOT, Var("x"))
    net.check()
    document = emit_cpn_xml(net)
    assert re.findall(r"<layout>(var [^<]*)</layout>", document) == ["var x : N;"]
    assert re.findall(r"<type><id>([^<]*)</id></type>", document) == ["N"]
    assert parse_cpn_xml(document) == net


@pytest.mark.parametrize("state", ["X_type", "X_init"])
def test_a_state_named_like_a_label_id_is_rejected(state):
    # P_X's type and initial-marking labels are P_X_type and P_X_init
    net, _ = translate(parse(f"machine M {{ state X initial ; state {state} ;"
                             f" trans t : X -> {state} ; }}"))
    with pytest.raises(CpnEmitError, match=f"'P_{state}'"):
        emit_cpn_xml(net)


@pytest.mark.parametrize("node,clash", [
    (PlaceDef("t_cond", "c", "UNIT"), "t_cond"),     # t's guard label
    (PlaceDef("A_1_annot", "a", "UNIT"), "A_1_annot"),
    (PlaceDef("CS_UNIT", "c", "UNIT"), "CS_UNIT"),   # the colour declaration
    (PlaceDef("VAR_v", "v", "UNIT"), "VAR_v"),       # the variable declaration
    (PlaceDef("IDpageMain", "m", "UNIT"), "IDpageMain"),
    (TransDef("A_1", "a"), "A_1"),                   # the arc
])
def test_a_repeated_xml_id_is_rejected(node, clash):
    net = tiny_net()
    net.add_transition(TransDef("t", "t", ex.BoolLit(True)))
    net.add_arc("p", "t", PTOT, Var("v"))
    (net.add_place if isinstance(node, PlaceDef) else net.add_transition)(node)
    with pytest.raises(CpnEmitError, match=re.escape(f"repeated XML ids ['{clash}']")):
        emit_cpn_xml(net)


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


def test_products_read_back_whatever_their_declaration_order():
    # natural order declares P1 before its component P2
    net = tiny_net()
    net.colours["INT"] = IntCS()
    net.colours["P2"] = ProductCS((IntCS(),))
    net.colours["P1"] = ProductCS((net.colours["P2"], UnitCS()))
    net.add_place(PlaceDef("q", "q", "P1", (((3,), ()),)))
    document = emit_cpn_xml(net)
    assert document.index("<id>P1</id>") < document.index("<id>P2</id>")
    assert parse_cpn_xml(document) == net
    assert reference_parse_cpn_xml(document) == net


@pytest.mark.parametrize("products,message", [
    ({"S": ["INT", "S"]}, "product 'S' contains itself"),
    ({"A": ["B"], "B": ["A"]}, "product 'A' contains itself"),
    ({"A": ["B"], "B": ["INT", "C"], "C": ["B"]}, "product 'B' contains itself"),
    ({"A": ["INT", "Q"]}, "product 'A' references unknown colour 'Q'"),
], ids=["itself", "a-pair", "below-the-first", "undeclared"])
def test_product_cycles_and_undeclared_components_are_rejected(products, message):
    document = _declarations_document('<color id="i"><id>INT</id><int/></color>' + "".join(
        f'<color id="c{cname}"><id>{cname}</id><product>'
        + "".join(f"<id>{ref}</id>" for ref in refs) + "</product></color>"
        for cname, refs in products.items()))
    for read in (parse_cpn_xml, reference_parse_cpn_xml):
        with pytest.raises(CpnParseError, match=f"^{message}$"):
            read(document)


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
    net.colours["E"] = EnumCS(("u",))
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
    (TYPE_TEXT, "</type><type><text>INT</text></type>", 12),
    ('<transend idref="t"/>', "<transend/>", "arc 'A_1' references unknown transition None"),
    ("</enum>", "</enum><enum><id>v</id></enum>", 12),
], ids=["undefined-entity", "colon-entity", "comment", "cdata", "pi",
        "text-after-child", "first-type-wins", "second-page-ignored",
        "first-type-text-wins", "transend-without-idref", "second-enum-ignored"])
def test_reader_text_and_error_positions(old, new, outcome):
    """What the reader takes from mixed content, repeated elements and
    malformed entity references, and where it reports the failure: an int
    is the arc value of a net that reads, a str the message of a net that
    does not, and a pair a malformed document's message and the text at
    its position."""
    document = emit_cpn_xml(_int_arc_net())
    assert document.count(old) == 1
    at = document.index(old)
    edited = document[:at] + new + document[at + len(old):]
    if isinstance(outcome, int):
        net = parse_cpn_xml(edited)
        assert [a.inscription for a in net.arcs] == [Lit(outcome)]
        assert net.places["p"].colour == "INT"
        assert net.places["p"].initial == (12,)
        assert net.colours == _int_arc_net().colours
        return
    if isinstance(outcome, str):
        with pytest.raises(CpnParseError, match=re.escape(outcome)) as err:
            parse_cpn_xml(edited)
        assert err.value.position is None
        return
    message, marker = outcome
    with pytest.raises(CpnParseError, match=f"malformed document: {message}") as err:
        parse_cpn_xml(edited)
    assert err.value.position == _line_column(edited, at + new.index(marker))
    assert str(err.value).endswith(" (line %d, column %d)" % err.value.position)
    assert str(err.value).count("line") == 1


def test_pageattr_without_a_name_names_the_net_net():
    """As a missing <pageattr> does; the net then writes back."""
    document = emit_cpn_xml(tiny_net())
    unnamed = document.replace('<pageattr name="tiny"/>', "<pageattr/>")
    assert unnamed != document
    net = parse_cpn_xml(unnamed)
    assert net.name == "net"
    assert net == parse_cpn_xml(unnamed.replace("<pageattr/>", ""))
    assert parse_cpn_xml(emit_cpn_xml(net)) == net
    assert emit_dot(net).startswith('digraph "net" {')


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
# The reference for parse_cpn_xml: a tree reader that keeps every element
# whose tag it reads anywhere, then walks the tree with path searches.


_KEPT_TAGS = frozenset((
    "cpnet", "globbox", "block", "color", "page", "pageattr", "place", "trans",
    "arc", "type", "initmark", "text", "cond", "annot", "transend", "placeend",
    "id", "unit", "int", "enum", "product"))
_TEXT_TAGS = frozenset(("text", "id"))


class _Element(list):
    """A kept element: the subset of ElementTree's Element that the reader
    uses.  Like an Element, it is the list of its (kept) children.  `text`
    is the character data before the first child for the _TEXT_TAGS, and
    None when there is none or for any other tag."""

    __slots__ = ("tag", "attrib", "text")

    def get(self, key: str):
        return self.attrib.get(key)

    def findall(self, path: str) -> list["_Element"]:
        """Matches of a child path such as "./type/text", in document order."""
        found = [self]
        for step in path.removeprefix("./").split("/"):
            found = [child for node in found for child in node if child.tag == step]
        return found

    def find(self, path: str) -> Optional["_Element"]:
        found = self.findall(path)
        return found[0] if found else None

    def findtext(self, path: str) -> Optional[str]:
        node = self.find(path)
        return None if node is None else node.text or ""


def _read_elements(text: str) -> _Element:
    """The root of `text` with only its kept descendants, read in one expat
    pass.  Errors name the first fault at the position ElementTree gives."""
    parser = expat.ParserCreate(namespace_separator="}")
    open_elements: list[Optional[_Element]] = []  # None marks a dropped element
    root = None
    reading = None  # the text/id element whose text is being collected
    chunks: list[str] = []

    def stop_reading():
        nonlocal reading
        parser.CharacterDataHandler = None
        reading.text = "".join(chunks) or None
        reading = None
        chunks.clear()

    def start(tag, attrib):
        nonlocal root, reading
        if reading is not None:  # a child ends its parent's text
            stop_reading()
        if not open_elements:
            root = element = _Element()
        elif open_elements[-1] is not None and tag in _KEPT_TAGS:
            element = _Element()
            open_elements[-1].append(element)
        else:
            open_elements.append(None)
            return
        element.tag, element.attrib, element.text = tag, attrib, None
        open_elements.append(element)
        if tag in _TEXT_TAGS:
            reading = element
            parser.CharacterDataHandler = chunks.append

    def end(tag):
        if reading is not None and reading is open_elements[-1]:
            stop_reading()
        open_elements.pop()

    def undefined_entity(name):
        raise CpnParseError(f"malformed document: undefined entity &{name};",
                            (parser.CurrentLineNumber, parser.CurrentColumnNumber))

    parser.StartElementHandler = start
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
    return root


def _parse_colour_decl(element) -> tuple[str, object]:
    name = element.findtext("id")
    if name is None:
        raise CpnParseError("colour declaration without a name")
    if element.find("unit") is not None:
        return name, UnitCS()
    if element.find("int") is not None:
        return name, IntCS()
    enum = element.find("enum")
    if enum is not None:
        values = tuple(v.text or "" for v in enum.findall("id"))
        if not values:
            raise CpnParseError(f"enumeration colour {name!r} has no values")
        return name, EnumCS(values)
    product = element.find("product")
    if product is not None:
        return name, tuple(v.text or "" for v in product.findall("id"))  # resolved later
    raise CpnParseError(f"unsupported colour declaration {name!r}")


def reference_parse_cpn_xml(text: str) -> ColouredNet:
    root = _read_elements(text)
    page = root.find("./cpnet/page")
    if page is None:
        raise CpnParseError("document has no page element")
    name_attr = page.find("pageattr")
    # a <pageattr> without a name names the net "net", as a missing one does
    net = ColouredNet(name=name_attr.attrib.get("name", "net")
                      if name_attr is not None else "net")

    pending_products = {}
    for decl in root.findall("./cpnet/globbox/block/color"):
        cname, colour = _parse_colour_decl(decl)
        if isinstance(colour, tuple):
            pending_products[cname] = colour
        else:
            net.colours[cname] = colour
    for cname, component_names in pending_products.items():
        if not component_names:
            raise CpnParseError(f"product colour {cname!r} has no components")
        for ref in component_names:
            if ref not in net.colours and ref not in pending_products:
                raise CpnParseError(f"product {cname!r} references unknown colour {ref!r}")
    # each round makes every product whose product components are made
    made = {}
    while len(made) < len(pending_products):
        left = {cname: [ref for ref in refs if ref in pending_products and ref not in made]
                for cname, refs in pending_products.items() if cname not in made}
        ready = [cname for cname, refs in left.items() if not refs]
        if not ready:  # every product left reaches a cycle: follow first components onto it
            cname, walked = next(iter(left)), set()
            while cname not in walked:
                walked.add(cname)
                cname = left[cname][0]
            raise CpnParseError(f"product {cname!r} contains itself")
        for cname in ready:
            made[cname] = ProductCS(tuple(made.get(ref, net.colours.get(ref))
                                          for ref in pending_products[cname]))
    for cname in pending_products:
        net.colours[cname] = made[cname]

    seen: set = set()
    for element in page.findall("place"):
        pid = _node_id(seen, element.tag, element)
        colour_name = element.findtext("./type/text")
        if colour_name is None or colour_name not in net.colours:
            raise CpnParseError(f"place {pid!r} has no usable colour")
        init_text = element.findtext("./initmark/text")
        initial = _parse_marking(init_text, net.colours[colour_name]) if init_text else ()
        net.add_place(PlaceDef(pid, element.findtext("text") or pid,
                               colour_name, initial))

    for element in page.findall("trans"):
        tid = _node_id(seen, element.tag, element)
        guard = None
        cond = element.findtext("./cond/text")
        if cond:
            body = cond.strip()
            if not (body.startswith("[") and body.endswith("]")):
                raise CpnParseError(f"guard of {tid!r} is not bracketed: {cond!r}")
            guard = _read_sml(body[1:-1], ex.parse_bool, f"guard on {tid!r}")
        net.add_transition(TransDef(tid, element.findtext("text") or tid, guard=guard))

    inscriptions = {}  # (text, colour name, orientation) -> inscription
    for element in page.findall("arc"):
        aid = _node_id(seen, element.tag, element)
        orientation = element.get("orientation")
        if orientation not in (PTOT, TTOP):
            raise CpnParseError(f"arc {aid!r} has bad orientation {orientation!r}")
        trans_ref = element.find("transend")
        place_ref = element.find("placeend")
        if trans_ref is None or place_ref is None:
            raise CpnParseError(f"arc {aid!r} is missing an endpoint")
        place_id = place_ref.get("idref")
        trans_id = trans_ref.get("idref")
        if place_id not in net.places:
            raise CpnParseError(f"arc {aid!r} references unknown place {place_id!r}")
        if trans_id not in net.transitions:
            raise CpnParseError(f"arc {aid!r} references unknown transition {trans_id!r}")
        annot = element.findtext("./annot/text") or "()"
        key = (annot, net.places[place_id].colour, orientation)
        inscription = inscriptions.get(key)
        if inscription is None:
            inscription = inscriptions[key] = _parse_inscription(
                annot, net.colour_of(place_id), as_pattern=(orientation == PTOT))
        net.arcs.append(ArcDef(aid, place_id, trans_id, orientation, inscription))
    return net


FUZZ_CASES = 250  # per capacity; the whole fuzz takes about 2.5 s on a 2-core machine
_PAGE = '<page id="x"><place id="q"><type><text>UNIT</text></type></place></page>'
# what the fuzz inserts after a ">"
SNIPPETS = [
    "&foo;", "&amp;", "<!--c-->", "<![CDATA[c]]>", "<?pi x?>", "<b/>", "<text>q</text>",
    "<type/>", "<type><text>INT</text></type>", "<transend/>", "<placeend/>",
    "<enum><id>v</id></enum>", "<product><id>UNIT</id></product>", "<pageattr name='q'/>",
    # a second page holding a place: whole, or closing the first page so
    # that the first page's remaining nodes fall into the second
    _PAGE, "</page>" + _PAGE[:-len("</page>")],
    "</text>",
]
_TAG = re.compile(r"<(/?)[^>]*?(/?)>")


def _insertion_points(document):
    """The offsets just after a tag's ">", grouped by the depth of the
    content that follows, so that every depth is as likely to be drawn."""
    by_depth: dict[int, list[int]] = {}
    depth = 0
    for match in _TAG.finditer(document):
        if match.group(0)[1] not in "?!":
            depth += -1 if match.group(1) else 0 if match.group(2) else 1
        by_depth.setdefault(depth, []).append(match.end())
    return list(by_depth.values())


def _mutate(document, points, rng):
    """One seeded corruption of `document`, whose _insertion_points are
    `points`: half of them insert snippets."""
    lines = document.split("\n")
    kind = rng.randrange(10)
    if kind == 0:
        return document[:rng.randrange(len(document))]
    if kind == 1:
        del lines[rng.randrange(len(lines))]
    elif kind == 2:
        at = rng.randrange(len(lines))
        lines.insert(at, lines[at])
    elif kind == 3:
        i, j = rng.randrange(len(lines)), rng.randrange(len(lines))
        lines[i], lines[j] = lines[j], lines[i]
    elif kind == 4:
        at = rng.randrange(len(document))
        return document[:at] + document[at + 1:]
    else:  # one or two snippets, the later offset first
        offsets = sorted((rng.choice(rng.choice(points)) for _ in range(rng.randint(1, 2))),
                         reverse=True)
        for at in offsets:
            document = document[:at] + rng.choice(SNIPPETS) + document[at:]
        return document
    return "\n".join(lines)


def _outcome(read, document):
    """The net's repr, or the error's type, message and position."""
    try:
        return repr(read(document))
    except Exception as err:  # compared, not swallowed
        return type(err).__name__, str(err), getattr(err, "position", None)


@pytest.mark.parametrize("capacity", [1, 2])
def test_reader_agrees_with_the_tree_reader_on_mutated_documents(corpus_models, capacity):
    """The same outcome from both readers on seeded mutations of the corpus
    documents, of which about half read and the rest raise."""
    documents = [emit_cpn_xml(translate(model, TranslationConfig(event_capacity=capacity))[0])
                 for model in corpus_models.values()]
    documents = [(document, _insertion_points(document)) for document in documents]
    rng = random.Random(capacity)
    read = 0
    for case in range(FUZZ_CASES):
        document = _mutate(*rng.choice(documents), rng)
        outcome = _outcome(parse_cpn_xml, document)
        assert outcome == _outcome(reference_parse_cpn_xml, document), case
        read += isinstance(outcome, str)
    assert 0 < read < FUZZ_CASES


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


def _dot_text(quoted: str) -> str:
    """The text of a DOT string: escapes undone, `\\n` read as a line break."""
    return re.sub(r"\\(.)", lambda m: "\n" if m[1] == "n" else m[1], quoted)


def test_dot_strings_close_around_backslashes():
    """Names that end in a backslash or hold the two characters \\n stay
    inside their own quoted strings and read back whole."""
    net = ColouredNet(name="net\\")
    net.colours["UNIT"] = UnitCS()
    net.add_place(PlaceDef("dir\\", "dir\\", "UNIT", (UNIT_TOKEN,)))
    net.add_place(PlaceDef("p\\n", 'say "hi\\n', "UNIT", ()))
    net.add_transition(TransDef("t\\", "line\\nbreak\\"))
    net.add_arc("dir\\", "t\\", PTOT, Lit(UNIT_TOKEN))
    net.add_arc("p\\n", "t\\", TTOP, Lit(UNIT_TOKEN))
    string = r'"((?:[^"\\]|\\.)*)"'
    node = re.compile(rf"  {string} \[shape=(?:ellipse|box), label={string}\];")
    arc = re.compile(rf"  {string} -> {string} \[label={string}\];")
    lines = emit_dot(net, marking=net.initial_marking()).split("\n")
    head = re.fullmatch(rf"digraph {string} {{", lines[0])
    assert head and _dot_text(head[1]) == net.name
    assert lines[1] == "  rankdir=LR;" and lines[-2:] == ["}", ""]
    labels, arcs = {}, []
    for line in lines[2:-2]:
        found = node.fullmatch(line) or arc.fullmatch(line)
        assert found, line
        if found.re is node:
            labels[_dot_text(found[1])] = _dot_text(found[2])
        else:
            arcs.append(tuple(map(_dot_text, found.groups())))
    assert labels == {"dir\\": "dir\\\n1`()", "p\\n": 'say "hi\\n',
                      "t\\": "line\\nbreak\\"}
    assert arcs == [("dir\\", "t\\", "()"), ("t\\", "p\\n", "()")]


def test_dot_node_count_matches_net(cd_net):
    net, _ = cd_net
    text = emit_dot(net)
    assert text.count("shape=ellipse") == len(net.places)
    assert text.count("shape=box") == len(net.transitions)
