from dataclasses import replace

import pytest

from conftest import CORPUS, load_model
from smd2cpn import smdl
from smd2cpn.expr import MAX_NESTING
from smd2cpn.smdl import SmdlSyntaxError, parse, print_model
from smd2cpn.statemachine import (
    COMPOSITE, FINAL, SIMPLE, Behaviour, StateMachine, StateNode, Transition,
    validate,
)
from smd2cpn.translator import ModelInvalidError, translate


def test_parse_cd_player_structure(cd_model):
    kinds = {s.name: s.kind for s in cd_model.states}
    assert kinds["Busy"] == COMPOSITE
    assert kinds["NONPLAYING"] == COMPOSITE
    for name in ("PLAYING", "PAUSED", "CLOSED", "OPEN"):
        assert kinds[name] == SIMPLE
    busy = cd_model.by_id["Busy"]
    assert busy.has_history
    assert busy.entry.label == "FTS"
    assert cd_model.by_id["PLAYING"].do.label == "Play"
    assert cd_model.final_child_of("Busy") == "Busy.final"
    assert cd_model.events == ("close", "last", "next", "open", "pause",
                               "play", "stop")
    t9 = cd_model.transitions_by_id["t9"]
    assert t9.guard is not None and t9.effect.label == "NextTrack"
    t7 = cd_model.transitions_by_id["t7"]
    assert t7.to_history and t7.target == "Busy"
    t10 = cd_model.transitions_by_id["t10"]
    assert cd_model.by_id[t10.target].kind == FINAL


def test_minimal_machine():
    model = parse("machine M { state S initial ; }")
    assert len(model.states) == 1
    assert model.states[0].kind == SIMPLE
    assert model.transitions == ()
    assert validate(model).ok


def test_unbalanced_braces_reports_closing_position():
    text = "machine M {\n  state S initial ;\n"
    with pytest.raises(SmdlSyntaxError) as err:
        parse(text)
    assert err.value.line == 3
    assert err.value.column == 1
    assert "}" in err.value.expected


@pytest.mark.parametrize("text", [
    "machine M { state 5 ; }",
    "machine M { state S initial state T ; }",
    "machine { state S ; }",
    "machine M { var x : int = ; }",
    "machine M { trans t : A -> ; }",
    "machine M { state S initial ; } trailing",
    "machine M { trans t : A -> B if ( x < ) ; }",
])
def test_errors_carry_positions(text):
    with pytest.raises(SmdlSyntaxError) as err:
        parse(text)
    assert err.value.line >= 1 and err.value.column >= 1


def test_expression_error_reports_offending_token():
    text = "machine M {\n  trans t : A -> B if ( x < ) ;\n}\n"
    with pytest.raises(SmdlSyntaxError) as err:
        parse(text)
    assert (err.value.line, err.value.column) == (2, 29)  # the `)` after `<`


@pytest.mark.parametrize("text, column", [
    ("machine M { var x : int = \u00b2 ; }", 27),
    ("machine M { trans t : A -> B if ( x < \u00b2 ) ; }", 39),
    ("machine M { trans t : A -> B if ( x < 1\u0663 ) ; }", 40),
])
def test_non_ascii_digits_rejected(text, column):
    with pytest.raises(SmdlSyntaxError) as err:
        parse(text)
    assert (err.value.line, err.value.column) == (1, column)
    assert "unexpected character" in str(err.value)


# kind: (text before the nesting, one opener, innermost text, one closer)
_NESTERS = {"paren": ("", "(", "x < 1", ")"),
            "not": ("", "not ", "x < 1", ""),
            "minus": ("x < ", "-", "1", "")}


def _nested_guard(kind, depth):
    before, opener, inner, closer = _NESTERS[kind]
    body = before + opener * depth + inner + closer * depth
    # the body starts on line 4, column 25
    return ("machine M {\n  var x : int = 0 ;\n  state S initial ;\n"
            f"  trans t : S -> S if ( {body} ) ;\n}}\n")


@pytest.mark.parametrize("kind", sorted(_NESTERS))
def test_expression_nesting_is_bounded(kind):
    assert validate(parse(_nested_guard(kind, MAX_NESTING))).ok
    with pytest.raises(SmdlSyntaxError) as err:
        parse(_nested_guard(kind, 2000))
    before, opener, _, _ = _NESTERS[kind]
    # reported at the opener of the first level too many
    column = 25 + len(before) + MAX_NESTING * len(opener)
    assert (err.value.line, err.value.column) == (4, column)
    assert "nested deeper" in str(err.value)


def test_comments_are_ignored():
    model = parse("# leading\nmachine M { # trailing\n  state S initial ; # x\n}\n")
    assert [s.name for s in model.states] == ["S"]


def test_behaviour_block_vs_child_block():
    model = parse("""
machine M {
  state A initial entry Setup { state B initial ; } ;
  state C entry Fill { x := 1 } { state D initial ; } ;
  var x : int = 0 ;
}
""")
    a, c = model.by_id["A"], model.by_id["C"]
    assert a.kind == COMPOSITE and a.entry.assignments == ()
    assert c.kind == COMPOSITE
    assert [v for v, _ in c.entry.assignments] == ["x"]
    assert model.by_id["B"].parent == "A"
    assert model.by_id["D"].parent == "C"


def test_round_trip_all_corpus_files():
    for name in CORPUS:
        model = load_model(name)
        text = print_model(model)
        again = parse(text)
        assert again == model, name
        assert print_model(again) == text, name


def test_print_is_deterministic(cd_model):
    assert print_model(cd_model) == print_model(cd_model)


def test_print_canonicalises_insertion_order():
    def build(order):
        states = {
            "A": StateNode(id="A", name="A", kind=SIMPLE, parent=None,
                           is_initial=True),
            "B": StateNode(id="B", name="B", kind=SIMPLE, parent=None),
        }
        return StateMachine(name="M", states=tuple(states[k] for k in order))

    one, two = build("AB"), build("BA")
    assert one == two
    assert print_model(one) == print_model(two)
    assert parse(print_model(two)) == one


def test_history_and_final_targets_round_trip():
    text = """machine J {
  state A initial ;
  state W history {
    state I initial ;
    final ;
  } ;
  final ;
  trans t1 : A -> W.H ;
  trans t2 : I -> W.F ;
  trans t3 : A -> J.F ;
}
"""
    model = parse(text)
    assert validate(model).ok
    t1 = model.transitions_by_id["t1"]
    assert t1.to_history and t1.target == "W"
    assert model.by_id[model.transitions_by_id["t2"].target].parent == "W"
    t3 = model.transitions_by_id["t3"]
    assert model.by_id[t3.target].kind == FINAL
    assert model.by_id[t3.target].parent is None
    again = parse(print_model(model))
    assert again == model


def test_a_state_named_like_the_machine_owns_its_final_target():
    """`M.F` names the region of state M, not the root region, once a state
    carries the machine's name."""
    text = """machine M {
  state M initial {
    state A initial ;
    final ;
  } ;
  final ;
  trans t : A -> M.F ;
}
"""
    model = parse(text)
    assert validate(model).ok
    t = model.transitions_by_id["t"]
    assert t.target == "M.final" and model.by_id[t.target].parent == "M"
    assert print_model(model) == text
    assert parse(print_model(model)) == model


def test_a_root_final_target_shadowed_by_a_state_is_rejected():
    """With a state named like the machine, SMDL cannot spell the root
    region's final: `M.F` would read back as state M's final."""
    model = replace(parse("machine X { state M initial ; final ; trans t : M -> X.F ; }"),
                    name="M")
    assert "trans t : M -> M.F ;" in print_model(model)
    assert [(v.code, v.element) for v in validate(model).violations] == [
        ("shadowed-final", "t")]
    with pytest.raises(ModelInvalidError):
        translate(model)


def test_the_final_of_an_unknown_region_is_left_for_validate():
    model = parse("machine M { state A initial ; trans t : A -> Q.F ; }")
    assert model.transitions_by_id["t"].target == "Q.final"
    assert [(v.code, v.element) for v in validate(model).violations] == [
        ("unknown-target", "t")]


def test_negative_variable_initials_round_trip():
    model = parse("machine M { var x : int = -3 ; state S initial ; }")
    assert model.variables[0].initial == -3
    assert parse(print_model(model)) == model


def test_guard_and_effect_round_trip():
    text = ("machine M { var x : int = 0 ; state S initial ; state T ; "
            "trans t : S -> T on go if ( x * 2 + 1 < 9 and not x = 4 ) "
            "/ Bump { x := x + 1, x := x * 2 } ; }")
    model = parse(text)
    assert parse(print_model(model)) == model
    bump = model.transitions_by_id["t"].effect
    assert [v for v, _ in bump.assignments] == ["x", "x"]


def test_keywords_rejected_as_names():
    with pytest.raises(SmdlSyntaxError):
        parse("machine M { state state ; }")


def test_var_only_at_top_level():
    with pytest.raises(SmdlSyntaxError):
        parse("machine M { state S initial { var x : int = 0 ; } ; }")
