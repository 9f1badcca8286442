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

Parentheses, calls, unary minus and 'ot'/'^' chains nest at most
MAX_NESTING levels, as the parser and the evaluator recurse once a level;
a + - * chain costs no level, so an element's printed form always parses.

The text is read in one regex pass into plain (kind, text, position)
tuples, and the recursive descent reads those.
"""
from __future__ import annotations

import re
import sys
from fractions import Fraction

from ._record import record
from .errors import ExprTypeError, ParseError
from .matrix_oracle import P_GENS

CALL_NAMES = ("ad", "sigma", "tau", "rho")
CALL_ARITY = {"ad": 2, "sigma": 1, "tau": 1, "rho": 1}

P_GEN_NAMES = tuple(g.name for g in P_GENS)

MAX_NESTING = 100


# -- AST -------------------------------------------------------------------------

@record
class Num:
    value: Fraction


@record
class Sym:
    name: str


@record
class Neg:
    operand: "Node"


@record
class BinOp:
    op: str  # one of + - * ot ^
    left: "Node"
    right: "Node"


@record
class Call:
    fn: str
    args: tuple["Node", ...]


Node = Num | Sym | Neg | BinOp | Call


# -- tokenizer -------------------------------------------------------------------

# Whitespace matches no alternative, so finditer skips it; 'bad' is any other
# character that starts no token.
_TOKEN_RE = re.compile(
    r"(?P<number>\d+(?:\s*/\s*\d+)?)|(?P<name>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<punct>[-+*^(),])|(?P<bad>\S)"
)


def tokenize(src: str) -> list[tuple[str, str, int]]:
    """The (kind, text, position) tokens of src, kind one of number, name
    and punct, closed by ("end", "", len(src))."""
    tokens = []
    for m in _TOKEN_RE.finditer(src):
        if m.lastgroup == "bad":
            raise ParseError(f"unexpected character {m[0]!r}", m.start())
        tokens.append((m.lastgroup, m[0], m.start()))
    tokens.append(("end", "", len(src)))
    return tokens


# -- recursive descent -------------------------------------------------------------

class _Parser:
    def __init__(self, src: str):
        self.tokens = tokenize(src)
        self.i = 0
        self.depth = 0

    def enter(self, pos: int) -> None:
        """One level deeper, opened at pos."""
        self.depth += 1
        if self.depth > MAX_NESTING:
            raise ParseError(f"expression nests deeper than {MAX_NESTING} levels", pos)

    def next_text(self) -> str:
        """The text of the next token. Only a punct token spells punctuation
        and only a name spells 'ot', so the text alone tells them apart."""
        return self.tokens[self.i][1]

    def advance(self) -> tuple[str, str, int]:
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect_punct(self, text: str) -> None:
        _, got, pos = self.advance()
        if got != text:
            raise ParseError(f"expected {text!r}", pos)

    def parse(self) -> Node:
        node = self.expr()
        kind, text, pos = self.tokens[self.i]
        if kind != "end":
            raise ParseError(f"unexpected trailing input {text!r}", pos)
        return node

    def expr(self) -> Node:
        node = self.term()
        while self.next_text() in ("+", "-"):
            node = BinOp(self.advance()[1], node, self.term())
        return node

    def term(self) -> Node:
        node = self.factor()
        while self.next_text() == "*":
            self.i += 1
            node = BinOp("*", node, self.factor())
        return node

    def factor(self) -> Node:
        outer = self.depth  # a minus and the steps of a chain close here
        if self.next_text() == "-":
            self.enter(self.advance()[2])
            node = Neg(self.factor())
        else:
            node = self.primary()
            while self.next_text() in ("ot", "^"):
                _, op, pos = self.advance()
                self.enter(pos)
                node = BinOp(op, node, self.primary())
        self.depth = outer
        return node

    def primary(self) -> Node:
        kind, text, pos = self.advance()
        if kind == "number":
            value = "".join(text.split())  # the pattern allows any whitespace around /
            try:
                return Num(Fraction(value))
            except ZeroDivisionError:
                raise ParseError(f"zero denominator in {text!r}", pos) from None
            except ValueError:  # the pattern leaves only a part too long for int()
                raise ParseError(f"number has more than {sys.get_int_max_str_digits()} "
                                 "digits", pos) from None
        if kind == "name":
            if text == "ot":
                raise ParseError("'ot' is an operator, not a value", pos)
            if text not in CALL_NAMES:
                return Sym(text)
            self.enter(pos)
            self.expect_punct("(")
            args = [self.expr()]
            while self.next_text() == ",":
                self.i += 1
                args.append(self.expr())
            self.expect_punct(")")
            self.depth -= 1
            want = CALL_ARITY[text]
            if len(args) != want:
                raise ParseError(f"{text} takes {want} argument(s), got {len(args)}", pos)
            return Call(text, tuple(args))
        if text == "(":
            self.enter(pos)
            node = self.expr()
            self.expect_punct(")")
            self.depth -= 1
            return node
        raise ParseError(f"expected a value, found {text or 'end of input'!r}", pos)


def parse(src: str) -> Node:
    node = _Parser(src).parse()
    _lint_wedges(node)
    return node


# -- wedge typing lint --------------------------------------------------------------

# Each walk loops down the left spine of a chain and recurses only into
# right operands, whose depth the nesting limit bounds, so a long sum costs
# no recursion.

def _scalar_node(node: Node) -> bool:
    while isinstance(node, BinOp) and node.op in ("+", "-", "*"):
        if not _scalar_node(node.right):
            return False
        node = node.left
    if isinstance(node, Neg):
        return _scalar_node(node.operand)
    return isinstance(node, Num)


def _p_flavored(node: Node) -> bool:
    """True if the subexpression can only denote an element of the exterior
    algebra on p: p-generators and their sums, scalar multiples, and wedges."""
    while isinstance(node, BinOp) and node.op in ("+", "-", "*", "^"):
        if node.op == "*" and _scalar_node(node.left):
            return _p_flavored(node.right)
        if not (node.op == "*" and _scalar_node(node.right) or _p_flavored(node.right)):
            return False
        node = node.left
    if isinstance(node, Neg):
        return _p_flavored(node.operand)
    return isinstance(node, Sym) and node.name in P_GEN_NAMES


def _lint_wedges(node: Node) -> None:
    """Wedge is only defined on the p-part; reject things like H1 ^ E3 at
    parse time so the error carries the offending subexpression. A '^'
    whose right side is a number is a power, not a wedge. Nodes are visited
    left first, so the leftmost offending operand is the one reported."""
    stack = [node]
    while stack:
        node = stack.pop()
        if isinstance(node, BinOp):
            if node.op == "^" and not isinstance(node.right, Num):
                for side in (node.left, node.right):
                    if not _p_flavored(side):
                        raise ExprTypeError(
                            f"wedge operand {describe(side)} is not built from "
                            f"p-generators {', '.join(P_GEN_NAMES)}")
            stack += (node.right, node.left)
        elif isinstance(node, Neg):
            stack.append(node.operand)
        elif isinstance(node, Call):
            stack.extend(reversed(node.args))


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
        # all binary operators associate to the left, so a left spine of
        # operators as tight as their parent, a long sum say, needs no
        # parentheses and is rendered in a loop
        spine = [node]
        while isinstance(spine[-1].left, BinOp) and \
                _PREC[spine[-1].left.op] >= _PREC[spine[-1].op]:
            spine.append(spine[-1].left)
        text = _render(spine[-1].left, _PREC[spine[-1].op])
        for step in reversed(spine):
            text += f" {step.op} {_render(step.right, _PREC[step.op] + 1)}"
        return f"({text})" if _PREC[node.op] < ctx else text
    raise TypeError(f"not an AST node: {node!r}")
