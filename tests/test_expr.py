import random

import pytest

from smd2cpn import expr as ex


def parse_all(parse, text, dialect="smdl"):
    stream = ex.TokenStream(ex.tokenize(text, dialect), dialect)
    e = parse(stream)
    stream.expect_end()
    return e


def smdl_bool(text):
    return parse_all(ex.parse_bool, text)


def smdl_int(text):
    return parse_all(ex.parse_int, text)


def test_arithmetic_precedence():
    assert ex.eval_int(smdl_int("1 + 2 * 3"), {}) == 7
    assert ex.eval_int(smdl_int("(1 + 2) * 3"), {}) == 9
    assert ex.eval_int(smdl_int("10 - 2 - 3"), {}) == 5  # left associative
    assert ex.eval_int(smdl_int("2 * x + 1"), {"x": 4}) == 9


def test_boolean_operators():
    env = {"a": 1, "b": 2}
    assert ex.eval_bool(smdl_bool("a < b and b <= 2"), env)
    assert ex.eval_bool(smdl_bool("not a = b"), env)
    assert ex.eval_bool(smdl_bool("a = 2 or true"), env)
    assert not ex.eval_bool(smdl_bool("a != 1"), env)
    # `or` binds loosest: not false or false == (not false) or false
    assert ex.eval_bool(smdl_bool("not false or false"), {})


def test_unary_minus_literal():
    assert ex.eval_int(smdl_int("-4 + 1"), {}) == -3
    assert ex.eval_int(smdl_int("2 - -3"), {}) == 5


def test_variables_of():
    e = smdl_bool("x < y + 1 and not z = 0")
    assert ex.variables_of(e) == {"x", "y", "z"}


def test_substitute_composes_sequential_assignments():
    # x := x + 1 ; y := x  ==> y sees the updated x
    acc = {"x": ex.VarRead("x"), "y": ex.VarRead("y")}
    acc["x"] = ex.substitute(smdl_int("x + 1"), dict(acc))
    acc["y"] = ex.substitute(smdl_int("x"), dict(acc))
    env = {"x": 5, "y": 0}
    assert ex.eval_int(acc["x"], env) == 6
    assert ex.eval_int(acc["y"], env) == 6


def _random_int_expr(rng, depth):
    if depth == 0 or rng.random() < 0.3:
        if rng.random() < 0.5:
            return ex.IntLit(rng.randint(-5, 9))
        return ex.VarRead(rng.choice("xyz"))
    return ex.BinOp(rng.choice("+-*"),
                    _random_int_expr(rng, depth - 1),
                    _random_int_expr(rng, depth - 1))


def _random_bool_expr(rng, depth):
    if depth == 0 or rng.random() < 0.3:
        if rng.random() < 0.2:
            return ex.BoolLit(rng.random() < 0.5)
        return ex.Cmp(rng.choice(["=", "!=", "<", "<=", ">", ">="]),
                      _random_int_expr(rng, 2), _random_int_expr(rng, 2))
    kind = rng.random()
    if kind < 0.4:
        return ex.And(_random_bool_expr(rng, depth - 1), _random_bool_expr(rng, depth - 1))
    if kind < 0.8:
        return ex.Or(_random_bool_expr(rng, depth - 1), _random_bool_expr(rng, depth - 1))
    return ex.Not(_random_bool_expr(rng, depth - 1))


@pytest.mark.parametrize("dialect", ["smdl", "sml"])
def test_print_parse_round_trip(dialect):
    rng = random.Random(20260811)
    for _ in range(150):
        e = _random_bool_expr(rng, 3)
        text = ex.to_text(e, dialect)
        parsed = parse_all(ex.parse_bool, text, dialect)
        env = {"x": 2, "y": -1, "z": 7}
        assert ex.eval_bool(parsed, env) == ex.eval_bool(e, env)
        assert ex.to_text(parsed, dialect) == text  # printing is a fixpoint


def test_sml_dialect_lexemes():
    e = ex.And(ex.Cmp("!=", ex.VarRead("x"), ex.IntLit(-2)),
               ex.BoolLit(True))
    assert ex.to_text(e, "sml") == "x <> ~2 andalso true"
    assert ex.to_text(e, "smdl") == "x != -2 and true"


def test_parse_error_position():
    with pytest.raises(ex.ExprSyntaxError):
        smdl_bool("1 +")
    with pytest.raises(ex.ExprSyntaxError):
        smdl_bool("x <")
