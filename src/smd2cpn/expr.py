"""Integer/boolean expression trees used in guards and behaviour assignments.

Two concrete syntaxes are supported: the SMDL one (``and``/``or``/``not``,
``!=``) and an SML-flavoured one used inside emitted net documents
(``andalso``/``orelse``, ``<>``, ``~`` for negative literals).  This module
also holds the one lexer and token cursor for both dialects, which the SMDL
reader (smdl.py) and the net-document reader (emit.py) parse with.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Mapping, Union

IntExpr = Union["IntLit", "VarRead", "BinOp"]
BoolExpr = Union["BoolLit", "Cmp", "And", "Or", "Not"]


@dataclass(frozen=True)
class IntLit:
    value: int


@dataclass(frozen=True)
class VarRead:
    name: str


@dataclass(frozen=True)
class BinOp:
    op: str  # one of + - *
    left: IntExpr
    right: IntExpr


@dataclass(frozen=True)
class BoolLit:
    value: bool


@dataclass(frozen=True)
class Cmp:
    op: str  # one of = != < <= > >=
    left: IntExpr
    right: IntExpr


@dataclass(frozen=True)
class And:
    left: BoolExpr
    right: BoolExpr


@dataclass(frozen=True)
class Or:
    left: BoolExpr
    right: BoolExpr


@dataclass(frozen=True)
class Not:
    operand: BoolExpr


_CMP = {
    "=": lambda a, b: a == b,
    "!=": lambda a, b: a != b,
    "<": lambda a, b: a < b,
    "<=": lambda a, b: a <= b,
    ">": lambda a, b: a > b,
    ">=": lambda a, b: a >= b,
}

_ARITH = {
    "+": lambda a, b: a + b,
    "-": lambda a, b: a - b,
    "*": lambda a, b: a * b,
}


def eval_int(expr: IntExpr, env: Mapping[str, int]) -> int:
    if isinstance(expr, IntLit):
        return expr.value
    if isinstance(expr, VarRead):
        return env[expr.name]
    if isinstance(expr, BinOp):
        return _ARITH[expr.op](eval_int(expr.left, env), eval_int(expr.right, env))
    raise TypeError(f"not an integer expression: {expr!r}")


def eval_bool(expr: BoolExpr, env: Mapping[str, int]) -> bool:
    if isinstance(expr, BoolLit):
        return expr.value
    if isinstance(expr, Cmp):
        return _CMP[expr.op](eval_int(expr.left, env), eval_int(expr.right, env))
    if isinstance(expr, And):
        return eval_bool(expr.left, env) and eval_bool(expr.right, env)
    if isinstance(expr, Or):
        return eval_bool(expr.left, env) or eval_bool(expr.right, env)
    if isinstance(expr, Not):
        return not eval_bool(expr.operand, env)
    raise TypeError(f"not a boolean expression: {expr!r}")


def variables_of(expr) -> set[str]:
    """All variable names read anywhere in the expression."""
    if isinstance(expr, VarRead):
        return {expr.name}
    if isinstance(expr, (IntLit, BoolLit)):
        return set()
    if isinstance(expr, (BinOp, Cmp, And, Or)):
        return variables_of(expr.left) | variables_of(expr.right)
    if isinstance(expr, Not):
        return variables_of(expr.operand)
    raise TypeError(f"not an expression: {expr!r}")


def substitute(expr, mapping: Mapping[str, IntExpr]):
    """Replace variable reads by integer expressions (used to compose
    sequential assignments into one simultaneous update)."""
    if isinstance(expr, VarRead):
        return mapping.get(expr.name, expr)
    if isinstance(expr, (IntLit, BoolLit)):
        return expr
    if isinstance(expr, BinOp):
        return BinOp(expr.op, substitute(expr.left, mapping), substitute(expr.right, mapping))
    if isinstance(expr, Cmp):
        return Cmp(expr.op, substitute(expr.left, mapping), substitute(expr.right, mapping))
    if isinstance(expr, And):
        return And(substitute(expr.left, mapping), substitute(expr.right, mapping))
    if isinstance(expr, Or):
        return Or(substitute(expr.left, mapping), substitute(expr.right, mapping))
    if isinstance(expr, Not):
        return Not(substitute(expr.operand, mapping))
    raise TypeError(f"not an expression: {expr!r}")


def rename_variables(expr, mapping: Mapping[str, str]):
    """Rename variable reads (SMD variable names -> net binding names)."""
    return substitute(expr, {old: VarRead(new) for old, new in mapping.items()})


# ---------------------------------------------------------------------------
# Printing.  Dialects differ in a handful of lexemes, and SML's `not` is a
# function, so its operand is printed as an atom there.

_DIALECTS = {
    "smdl": {"and": "and", "or": "or", "not": "not", "!=": "!=", "true": "true", "false": "false"},
    "sml": {"and": "andalso", "or": "orelse", "not": "not", "!=": "<>", "true": "true", "false": "false"},
}

# precedence levels, loosest first
_PREC_OR, _PREC_AND, _PREC_NOT, _PREC_CMP, _PREC_ADD, _PREC_MUL, _PREC_ATOM = range(7)


def _prec(expr) -> int:
    if isinstance(expr, Or):
        return _PREC_OR
    if isinstance(expr, And):
        return _PREC_AND
    if isinstance(expr, Not):
        return _PREC_NOT
    if isinstance(expr, Cmp):
        return _PREC_CMP
    if isinstance(expr, BinOp):
        return _PREC_ADD if expr.op in "+-" else _PREC_MUL
    return _PREC_ATOM


def to_text(expr, dialect: str = "smdl") -> str:
    lex = _DIALECTS[dialect]

    def emit(e, parent_prec: int) -> str:
        p = _prec(e)
        if isinstance(e, IntLit):
            if e.value < 0:
                s = f"~{-e.value}" if dialect == "sml" else f"-{-e.value}"
                return f"({s})" if parent_prec >= _PREC_MUL and dialect != "sml" else s
            s = str(e.value)
        elif isinstance(e, VarRead):
            s = e.name
        elif isinstance(e, BoolLit):
            s = lex["true"] if e.value else lex["false"]
        elif isinstance(e, BinOp):
            # left-associative: right child needs parens at equal precedence
            s = f"{emit(e.left, p)} {e.op} {emit(e.right, p + 1)}"
        elif isinstance(e, Cmp):
            op = lex["!="] if e.op == "!=" else e.op
            s = f"{emit(e.left, p)} {op} {emit(e.right, p)}"
        elif isinstance(e, And):
            s = f"{emit(e.left, p)} {lex['and']} {emit(e.right, p + 1)}"
        elif isinstance(e, Or):
            s = f"{emit(e.left, p)} {lex['or']} {emit(e.right, p + 1)}"
        elif isinstance(e, Not):
            s = f"{lex['not']} {emit(e.operand, _PREC_ATOM if dialect == 'sml' else p + 1)}"
        else:
            raise TypeError(f"not an expression: {e!r}")
        return f"({s})" if p < parent_prec else s

    return emit(expr, _PREC_OR)


# ---------------------------------------------------------------------------
# Lexing.  One token language serves SMDL source with its embedded
# expressions and the SML inscriptions and guards of net documents; the
# dialects differ only in their operators and in whether `#` starts a comment.

def _token_pattern(operators, comments: bool):
    # Operators are tried in order, so a longer one precedes its prefixes.
    # Digits are ASCII only.  The `word` group takes the runs of word
    # characters that `ident` does not, such as `²`; see tokenize.
    groups = [r"(?P<newline>\n[ \t\r]*)", r"(?P<space>[ \t\r]+)"]
    if comments:
        groups.append(r"(?P<comment>#[^\n]*)")
    groups += [r"(?P<int>[0-9]+)", r"(?P<ident>[A-Za-z_]\w*)",
               "(?P<op>" + "|".join(map(re.escape, operators)) + ")",
               r"(?P<word>\w+)", r"(?P<bad>.)"]
    return re.compile("|".join(groups))


_TOKEN_PATTERNS = {
    "smdl": _token_pattern((":=", "->", "<=", ">=", "!=", "{", "}", "(", ")", ":",
                            ";", ",", ".", "/", "<", ">", "=", "+", "-", "*"),
                           comments=True),
    "sml": _token_pattern(("<>", "<=", ">=", "(", ")", ",", "<", ">", "=", "+",
                           "-", "*", "~"), comments=False),
}


def tokenize(text: str, dialect: str) -> list:
    """(kind, text, (line, column)) tuples with kind ident, int or op, then
    one ("eof", "", position) token.  Positions are 1-based."""
    tokens = []
    line, line_start = 1, 0
    for match in _TOKEN_PATTERNS[dialect].finditer(text):
        kind = match.lastgroup
        lexeme = match.group()
        start = match.start()
        if kind == "newline":
            line += 1
            line_start = start + 1
            continue
        if kind == "space" or kind == "comment":
            continue
        if kind == "word":  # an identifier starts with a letter or `_`
            kind = "ident" if lexeme[0].isalpha() else "bad"
        if kind == "bad":
            raise ExprSyntaxError(f"unexpected character {lexeme[0]!r}",
                                  (line, start - line_start + 1))
        tokens.append((kind, lexeme, (line, start - line_start + 1)))
    tokens.append(("eof", "", (line, len(text) - line_start + 1)))
    return tokens


# ---------------------------------------------------------------------------
# Parsing.  A recursive-descent parser over a TokenStream.  The SMDL reader
# and the net-document reader run it on their own streams: parse_bool and
# parse_int read one expression at the cursor and leave the token after it,
# such as a closing `)` or `,`, to the caller.

#: deepest nesting of parentheses, `not` and unary minus that is accepted;
#: keeps the recursive descent well inside Python's recursion limit
MAX_NESTING = 100


class ExprSyntaxError(ValueError):
    """A syntax error at a (line, column) position, with what would have
    been accepted there."""

    def __init__(self, message: str, pos, expected=()):
        self.message = message
        self.pos = pos
        self.expected = tuple(expected)
        if self.expected:
            message += " (expected " + " or ".join(map(repr, self.expected)) + ")"
        super().__init__(message)


class TokenStream:
    """A cursor over `tokenize` output.  Failures raise ExprSyntaxError at
    the current token; callers turn it into their own error type."""

    def __init__(self, tokens, dialect: str):
        self.tokens = tokens
        self.i = 0
        self.depth = 0  # nesting levels open, see MAX_NESTING
        self.lex = _DIALECTS[dialect]

    def peek(self, ahead: int = 0):
        return self.tokens[min(self.i + ahead, len(self.tokens) - 1)]

    def next(self):
        tok = self.tokens[self.i]
        if tok[0] != "eof":
            self.i += 1
        return tok

    def accept(self, text: str) -> bool:
        # the eof token's text is empty, so it never matches
        if self.tokens[self.i][1] == text:
            self.i += 1
            return True
        return False

    def expect(self, text: str):
        if self.tokens[self.i][1] != text:
            self.fail(text)
        self.i += 1

    def take(self, kind: str, what: str) -> str:
        """The text of the current token, which must be of the given kind."""
        tok_kind, text, _ = self.tokens[self.i]
        if tok_kind != kind:
            self.fail(what)
        self.i += 1
        return text

    def expect_end(self):
        if self.tokens[self.i][0] != "eof":
            self.fail("end of input")

    def fail(self, *expected):
        kind, text, pos = self.tokens[self.i]
        found = "end of input" if kind == "eof" else repr(text)
        raise ExprSyntaxError(f"found {found}", pos, expected)

    def open(self):
        """Step over a token that opens a nesting level; the parser closes
        the level with `depth -= 1`."""
        if self.depth >= MAX_NESTING:
            raise ExprSyntaxError(
                f"expression nested deeper than {MAX_NESTING} levels",
                self.tokens[self.i][2])
        self.depth += 1
        self.i += 1


def parse_bool(s: TokenStream) -> BoolExpr:
    """Read one boolean expression at the cursor."""
    return _parse_or(s)


def parse_int(s: TokenStream) -> IntExpr:
    """Read one integer expression at the cursor."""
    return _parse_add(s)


def _parse_or(s):
    e = _parse_and(s)
    while s.accept(s.lex["or"]):
        e = Or(e, _parse_and(s))
    return e


def _parse_and(s):
    e = _parse_not(s)
    while s.accept(s.lex["and"]):
        e = And(e, _parse_not(s))
    return e


def _parse_not(s):
    if s.peek()[1] == s.lex["not"]:
        if s.peek(1)[1] == "(":  # `not (` is one level: the parenthesis opens it
            s.next()
            return Not(_parse_not(s))
        s.open()
        e = Not(_parse_not(s))
        s.depth -= 1
        return e
    return _parse_cmp(s)


_CMP_OPS = ("<=", ">=", "!=", "<>", "<", ">", "=")


def _parse_cmp(s):
    kind, text, _ = s.peek()
    if text == s.lex["true"] and s.accept(text):
        return BoolLit(True)
    if text == s.lex["false"] and s.accept(text):
        return BoolLit(False)
    if text == "(":
        # could be a parenthesised boolean or the start of an int expression;
        # try boolean first, fall back on comparison of int expressions
        mark = s.i, s.depth
        s.open()
        try:
            inner = _parse_or(s)
            s.expect(")")
            s.depth -= 1
            return inner
        except ExprSyntaxError:
            s.i, s.depth = mark
    left = _parse_add(s)
    kind, text, _ = s.peek()
    if text in _CMP_OPS:
        s.next()
        op = "!=" if text in ("!=", "<>") else text
        right = _parse_add(s)
        return Cmp(op, left, right)
    s.fail("comparison operator")


def _parse_add(s):
    e = _parse_mul(s)
    while True:
        if s.accept("+"):
            e = BinOp("+", e, _parse_mul(s))
        elif s.accept("-"):
            e = BinOp("-", e, _parse_mul(s))
        else:
            return e


def _parse_mul(s):
    e = _parse_atom(s)
    while s.accept("*"):
        e = BinOp("*", e, _parse_atom(s))
    return e


def _parse_atom(s):
    kind, text, pos = s.peek()
    if text == "(":
        s.open()
        e = _parse_add(s)
        s.expect(")")
        s.depth -= 1
        return e
    if text in ("-", "~"):
        s.open()
        inner = _parse_atom(s)
        s.depth -= 1
        if isinstance(inner, IntLit):
            return IntLit(-inner.value)
        return BinOp("-", IntLit(0), inner)
    if kind == "int":
        s.next()
        return IntLit(int(text))
    if kind == "ident":
        s.next()
        return VarRead(text)
    s.fail("integer expression")
