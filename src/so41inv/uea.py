"""U(g) in PBW normal form, S(g), and the symmetrization map between them.

A PBW monomial is a 10-tuple of exponents in the frozen generator order
H1 < H2 < E1 < E2 < F1 < F2 < E3 < E4 < F3 < F4. Every product is built by
inserting one generator at a time into a PBW monomial. Write x^e = x_s y
with s the leading slot of e (its first nonzero exponent). Then

    u_g x^e = x^(e + e_g)                    if g <= s,
    u_g x_s y = x_s (u_g y) + [u_g, x_s] y   otherwise.

Every insertion on the right has lower total degree, except x_s into the
top-degree term of u_g y, whose leading slot is at least s, so that one
is a plain raise and the recursion ends. A pair product x^a x^b inserts
the letters of x^a into x^b, right to left. The commutator with a
generator is the derivation rule on the leading letter,

    [u_g, x_s y] = [u_g, x_s] y + x_s [u_g, y],

so it needs insertions only, no pair products. The structure constants are
integers, so every straightened product has int coefficients.

Symmetrization averages a monomial x = x_1 ... x_n over its distinct
orderings. Grouping the orderings by their first letter gives

    P(x) = sum over g with x_g > 0 of  u_g . P(x - e_g),

where P(x) is the straightened sum of all distinct orderings of x. P is a
recursion over sub-multisets in plain ints, and
sigma(x) = P(x) / (n! / prod x_g!) is P(x) over one denominator.

Every sum above, of insertions, pair products or sigma of monomials, adds
int rows into one dict through elements.accumulate (or combine, for
elements over different denominators).

Generator insertions, pair products, generator commutators, P and sigma
of a monomial are pure functions of their arguments, each kept for the
life of the process by functools.cache: cache_info() reports a table's
size and hits, and cache_clear() empties it. The first four return rows,
tuples of (PBW monomial, int) pairs with no zero entry, and sigma of a
monomial an element. Every caller shares them, and both are read-only by
their type (see elements): a caller that writes to one gets an error
instead of corrupting every later result.
"""
from __future__ import annotations

from functools import cache
from math import factorial
from operator import add

from .elements import (LinearElement, ZERO_EXP, accumulate, combine, exp_sort_key, fmt_exp,
                       nonzero_row)
from .lie_core import bracket_gens
from .matrix_oracle import Gen

Exp = tuple  # 10-tuple of nonnegative ints


def exp_degree(exp: Exp) -> int:
    return sum(exp)


def exp_to_word(exp: Exp) -> tuple[int, ...]:
    word = []
    for g, e in enumerate(exp):
        word.extend([g] * e)
    return tuple(word)


def word_to_exp(word) -> Exp:
    exp = [0] * 10
    for g in word:
        exp[g] += 1
    return tuple(exp)


def _leading_slot(exp: Exp) -> int:
    """The first generator with a nonzero exponent; 10 for the monomial 1."""
    for g, e in enumerate(exp):
        if e:
            return g
    return 10


def _lowered(exp: Exp, s: int) -> Exp:
    m = list(exp)
    m[s] -= 1
    return tuple(m)


def _add_inserted(acc: dict[Exp, int], g: int, row, f: int = 1) -> dict:
    """acc += f * u_g * row, in place; returns acc."""
    return accumulate(((insert_gen(g, m), f * c) for m, c in row), acc)


@cache
def insert_gen(g: int, exp: Exp) -> tuple:
    """u_g x^exp over PBW monomials, as a row."""
    s = _leading_slot(exp)
    if g <= s:
        m = list(exp)
        m[g] += 1
        return ((tuple(m), 1),)
    rest = _lowered(exp, s)
    acc = _add_inserted({}, s, insert_gen(g, rest))
    accumulate(((insert_gen(int(h), rest), c) for h, c in bracket_gens(g, s)), acc)
    return nonzero_row(acc)


def _fold(word, exp: Exp) -> tuple:
    """The product of the generators `word` times x^exp, inserting the
    letters right to left, as a row."""
    row = ((exp, 1),)
    for g in reversed(word):
        row = nonzero_row(_add_inserted({}, int(g), row))
    return row


@cache
def pbw_pair_product(x: Exp, y: Exp) -> tuple:
    """Product of two PBW monomials, straightened, as a row."""
    return _fold(exp_to_word(x), y)


@cache
def gen_commutator(g: int, exp: Exp) -> tuple:
    """[u_g, x^exp] = u_g x^exp - x^exp u_g over PBW monomials, as a row."""
    if not any(exp):
        return ()
    s = _leading_slot(exp)
    rest = _lowered(exp, s)
    acc = accumulate((insert_gen(int(h), rest), c) for h, c in bracket_gens(g, s))
    return nonzero_row(_add_inserted(acc, s, gen_commutator(g, rest)))


class UElement(LinearElement):
    """Element of U(g) in PBW normal form: {exponent tuple: coefficient}."""

    __slots__ = ()

    def _product(self, other):
        pairs = ((pbw_pair_product(mx, my), cx * cy)
                 for mx, cx in self.num.items() for my, cy in other.num.items())
        return UElement._of(accumulate(pairs), self.den * other.den)

    def _one(self):
        return u_one()

    def degree(self) -> int:
        return max((exp_degree(m) for m in self.num), default=0)

    def __str__(self):
        return self._text(exp_sort_key, fmt_exp)


class SElement(LinearElement):
    """Element of the polynomial algebra S(g), same key shape as UElement."""

    __slots__ = ()

    def _product(self, other):
        pairs = ((((tuple(map(add, mx, my)), 1),), cx * cy)
                 for mx, cx in self.num.items() for my, cy in other.num.items())
        return SElement._of(accumulate(pairs), self.den * other.den)

    def _one(self):
        return s_one()

    def degree(self) -> int:
        return max((exp_degree(m) for m in self.num), default=0)

    def __str__(self):
        return self._text(exp_sort_key, fmt_exp)


def u_gen(g: Gen) -> UElement:
    return UElement._of({word_to_exp((g,)): 1})


def s_gen(g: Gen) -> SElement:
    return SElement._of({word_to_exp((g,)): 1})


def u_one() -> UElement:
    return UElement._of({ZERO_EXP: 1})


def s_one() -> SElement:
    return SElement._of({ZERO_EXP: 1})


@cache
def _orderings_sum(exp: Exp) -> tuple:
    """P(exp): the straightened sum of every distinct ordering of the
    monomial, as a row."""
    if not any(exp):
        return ((exp, 1),)
    acc: dict[Exp, int] = {}
    for g, e in enumerate(exp):
        if e:
            _add_inserted(acc, g, _orderings_sum(_lowered(exp, g)))
    return nonzero_row(acc)


@cache
def symmetrize_monomial(exp: Exp) -> UElement:
    """sigma of a single symmetric monomial: P(exp) over the number of
    distinct orderings."""
    orderings = factorial(sum(exp))
    for e in exp:
        orderings //= factorial(e)
    return UElement._of(dict(_orderings_sum(exp)), orderings)


def symmetrize(x: SElement) -> UElement:
    """The symmetrization map sigma: S(g) -> U(g)."""
    num, den = combine((symmetrize_monomial(exp), c) for exp, c in x.num.items())
    return UElement._of(num, x.den * den)

