"""Expression parser for the algebra CLI.

Grammar (EBNF):

    expr   := term (('+' | '-') term)*
    term   := factor ('*' factor)*
    factor := ('-')? primary (('ot' | '^') primary)*
    primary:= rational | name | call | '(' expr ')'
    call   := ('ad' | 'sigma' | 'tau' | 'rho') '(' expr (',' expr)* ')'

'ot' is the tensor marker and '^' the wedge; both bind tighter than '*'.
'^' followed by a number is a power instead (H1^2, as canonical text prints
it). Unary minus on a factor is accepted as a convenience. Rationals are
integer literals or integer/integer pairs like 3/4.
"""
from __future__ import annotations

import re
from fractions import Fraction

from ._record import record
from .errors import ExprTypeError, ParseError

CALL_NAMES = ("ad", "sigma", "tau", "rho")
CALL_ARITY = {"ad": 2, "sigma": 1, "tau": 1, "rho": 1}

P_GEN_NAMES = ("E3", "E4", "F3", "F4")


# -- AST -------------------------------------------------------------------------

@record(frozen=True)
class Num:
    value: Fraction


@record(frozen=True)
class Sym:
    name: str


@record(frozen=True)
class Neg:
    operand: "Node"


@record(frozen=True)
class BinOp:
    op: str  # one of + - * ot ^
    left: "Node"
    right: "Node"


@record(frozen=True)
class Call:
    fn: str
    args: tuple["Node", ...]


Node = Num | Sym | Neg | BinOp | Call


# -- tokenizer -------------------------------------------------------------------

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<number>\d+(?:\s*/\s*\d+)?)|(?P<name>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<punct>[-+*^(),]))"
)


@record(frozen=True)
class Token:
    kind: str  # number | name | punct | end
    text: str
    pos: int


def tokenize(src: str) -> list[Token]:
    tokens = []
    pos = 0
    while pos < len(src):
        m = _TOKEN_RE.match(src, pos)
        if m is None or m.end() == pos:
            stripped = src[pos:].lstrip()
            if not stripped:
                break
            at = len(src) - len(stripped)
            raise ParseError(f"unexpected character {stripped[0]!r}", at)
        if m.group("number"):
            tokens.append(Token("number", m.group("number"), m.start("number")))
        elif m.group("name"):
            tokens.append(Token("name", m.group("name"), m.start("name")))
        else:
            tokens.append(Token("punct", m.group("punct"), m.start("punct")))
        pos = m.end()
    tokens.append(Token("end", "", len(src)))
    return tokens


# -- recursive descent -------------------------------------------------------------

class _Parser:
    def __init__(self, src: str):
        self.src = src
        self.tokens = tokenize(src)
        self.i = 0

    def peek(self) -> Token:
        return self.tokens[self.i]

    def advance(self) -> Token:
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect_punct(self, text: str) -> Token:
        tok = self.peek()
        if tok.kind != "punct" or tok.text != text:
            raise ParseError(f"expected {text!r}", tok.pos)
        return self.advance()

    def at_punct(self, text: str) -> bool:
        tok = self.peek()
        return tok.kind == "punct" and tok.text == text

    def parse(self) -> Node:
        node = self.expr()
        tok = self.peek()
        if tok.kind != "end":
            raise ParseError(f"unexpected trailing input {tok.text!r}", tok.pos)
        return node

    def expr(self) -> Node:
        node = self.term()
        while self.at_punct("+") or self.at_punct("-"):
            op = self.advance().text
            node = BinOp(op, node, self.term())
        return node

    def term(self) -> Node:
        node = self.factor()
        while self.at_punct("*"):
            self.advance()
            node = BinOp("*", node, self.factor())
        return node

    def factor(self) -> Node:
        if self.at_punct("-"):
            self.advance()
            return Neg(self.factor())
        node = self.primary()
        while True:
            tok = self.peek()
            if tok.kind == "name" and tok.text == "ot":
                self.advance()
                node = BinOp("ot", node, self.primary())
            elif tok.kind == "punct" and tok.text == "^":
                self.advance()
                node = BinOp("^", node, self.primary())
            else:
                return node

    def primary(self) -> Node:
        tok = self.peek()
        if tok.kind == "number":
            self.advance()
            text = tok.text.replace(" ", "")
            _, slash, den = text.partition("/")
            if slash and not int(den):
                raise ParseError(f"zero denominator in {tok.text!r}", tok.pos)
            return Num(Fraction(text))
        if tok.kind == "name":
            if tok.text == "ot":
                raise ParseError("'ot' is an operator, not a value", tok.pos)
            self.advance()
            if tok.text in CALL_NAMES:
                self.expect_punct("(")
                args = [self.expr()]
                while self.at_punct(","):
                    self.advance()
                    args.append(self.expr())
                self.expect_punct(")")
                want = CALL_ARITY[tok.text]
                if len(args) != want:
                    raise ParseError(
                        f"{tok.text} takes {want} argument(s), got {len(args)}",
                        tok.pos)
                return Call(tok.text, tuple(args))
            return Sym(tok.text)
        if self.at_punct("("):
            self.advance()
            node = self.expr()
            self.expect_punct(")")
            return node
        raise ParseError(f"expected a value, found {tok.text or 'end of input'!r}",
                         tok.pos)


def parse(src: str) -> Node:
    node = _Parser(src).parse()
    _lint_wedges(node)
    return node


# -- wedge typing lint --------------------------------------------------------------

def _scalar_node(node: Node) -> bool:
    if isinstance(node, Num):
        return True
    if isinstance(node, Neg):
        return _scalar_node(node.operand)
    if isinstance(node, BinOp) and node.op in ("+", "-", "*"):
        return _scalar_node(node.left) and _scalar_node(node.right)
    return False


def _p_flavored(node: Node) -> bool:
    """True if the subexpression can only denote an element of the exterior
    algebra on p: p-generators and their sums, scalar multiples, and wedges."""
    if isinstance(node, Sym):
        return node.name in P_GEN_NAMES
    if isinstance(node, Neg):
        return _p_flavored(node.operand)
    if isinstance(node, BinOp):
        if node.op in ("+", "-", "^"):
            return _p_flavored(node.left) and _p_flavored(node.right)
        if node.op == "*":
            if _scalar_node(node.left):
                return _p_flavored(node.right)
            if _scalar_node(node.right):
                return _p_flavored(node.left)
            return _p_flavored(node.left) and _p_flavored(node.right)
    return False


def _lint_wedges(node: Node) -> None:
    """Wedge is only defined on the p-part; reject things like H1 ^ E3 at
    parse time so the error carries the offending subexpression. A '^'
    whose right side is a number is a power, not a wedge."""
    if isinstance(node, BinOp):
        if node.op == "^" and not isinstance(node.right, Num):
            for side in (node.left, node.right):
                if not _p_flavored(side):
                    raise ExprTypeError(
                        f"wedge operand {describe(side)} is not built from "
                        f"p-generators {', '.join(P_GEN_NAMES)}")
        _lint_wedges(node.left)
        _lint_wedges(node.right)
    elif isinstance(node, Neg):
        _lint_wedges(node.operand)
    elif isinstance(node, Call):
        for a in node.args:
            _lint_wedges(a)


_PREC = {"+": 1, "-": 1, "*": 2, "ot": 3, "^": 3}


def describe(node: Node) -> str:
    """Render an AST back to canonical text; parse(describe(n)) rebuilds n."""
    return _render(node, 0)


def _render(node: Node, ctx: int) -> str:
    if isinstance(node, Num):
        return str(node.value)
    if isinstance(node, Sym):
        return node.name
    if isinstance(node, Neg):
        # grammar-level minus covers a whole ot/^ chain but not a * chain
        return f"-{_render(node.operand, _PREC['^'])}"
    if isinstance(node, Call):
        return f"{node.fn}({', '.join(_render(a, 0) for a in node.args)})"
    if isinstance(node, BinOp):
        p = _PREC[node.op]
        # all binary operators associate to the left
        text = f"{_render(node.left, p)} {node.op} {_render(node.right, p + 1)}"
        return f"({text})" if p < ctx else text
    raise TypeError(f"not an AST node: {node!r}")
