"""U(g) in PBW normal form, S(g), and the symmetrization map between them.

A PBW monomial is a packed key of mask 0 (elements): ten exponents, one
byte each, in the frozen generator order H1 < H2 < E1 < E2 < F1 < F2 <
E3 < E4 < F3 < F4, H1 most significant. A step below adds or subtracts a
UNIT and reads the leading slot off bit_length. Every product is built by
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
integers, so every straightened product has int coefficients. A raise past
the exponent bound 255 is a DomainError, never a carry into the next slot.

Symmetrization averages a monomial x = x_1 ... x_n over its distinct
orderings. Grouping the orderings by their first letter gives

    P(x) = sum over g with x_g > 0 of  u_g . P(x - e_g),

where P(x) is the straightened sum of all distinct orderings of x. P is a
recursion over sub-multisets in plain ints, and
sigma(x) = P(x) / (n! / prod x_g!) is P(x) over one denominator.

Every sum above, of insertions, pair products or sigma of monomials, adds
int rows into one dict through elements.accumulate (or combine, for
elements over different denominators); the product of two elements sums
the pair products of their terms through elements.bilinear.

Generator insertions, pair products, generator commutators and P are pure
functions of their arguments, each kept for the life of the process by
functools.cache: cache_info() reports a table's size and hits, and
cache_clear() empties it. Each returns a row, a tuple of (PBW monomial,
int) pairs with no zero entry. Every caller shares it, and a tuple is
read-only: a caller that writes to one gets an error instead of
corrupting every later result. sigma of a monomial puts the kept P over
its denominator on each call, a few microseconds, so it keeps no table
of its own.
"""
from __future__ import annotations

from functools import cache
from math import factorial

from .elements import (EXP_VIEW, SHIFTS, UNIT, LinearElement, accumulate, add_exponents, bilinear,
                       combine, exp_sort_key, exponents, fmt_exp, key_degree, leading_slot,
                       nonzero_row)
from .lie_core import bracket_gens
from .matrix_oracle import Gen

Exp = int  # a packed key of mask 0


def exp_to_word(exp: Exp) -> tuple[int, ...]:
    return tuple(g for g, e in enumerate(exponents(exp)) for _ in range(e))


def _add_inserted(acc: dict[Exp, int], g: int, row) -> dict:
    """acc += u_g * row, in place; returns acc."""
    return accumulate(((insert_gen(g, m), c) for m, c in row), acc)


@cache
def insert_gen(g: int, exp: Exp) -> tuple:
    """u_g x^exp over PBW monomials, as a row."""
    s = leading_slot(exp)
    if g <= s:
        return ((add_exponents(exp, UNIT[g]), 1),)
    rest = exp - UNIT[s]
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
    if not exp:
        return ()
    s = leading_slot(exp)
    rest = exp - UNIT[s]
    acc = accumulate((insert_gen(int(h), rest), c) for h, c in bracket_gens(g, s))
    return nonzero_row(_add_inserted(acc, s, gen_commutator(g, rest)))


class UElement(LinearElement):
    """Element of U(g) in PBW normal form: {PBW monomial: coefficient},
    viewed as {exponent tuple: coefficient}."""

    __slots__ = ()
    _key_in, _key_out = EXP_VIEW

    def _product(self, other):
        return UElement._of(bilinear(pbw_pair_product, self.num, other.num), self.den * other.den)

    def _one(self):
        return u_one()

    def degree(self) -> int:
        return max(map(key_degree, self.num), default=0)

    def __str__(self):
        return self._text(exp_sort_key, fmt_exp)


class SElement(LinearElement):
    """Element of the polynomial algebra S(g), same keys as UElement."""

    __slots__ = ()
    _key_in, _key_out = EXP_VIEW

    def _product(self, other):
        num = bilinear(lambda x, y: ((add_exponents(x, y), 1),), self.num, other.num)
        return SElement._of(num, self.den * other.den)

    def _one(self):
        return s_one()

    def degree(self) -> int:
        return max(map(key_degree, self.num), default=0)

    def __str__(self):
        return self._text(exp_sort_key, fmt_exp)


def u_gen(g: Gen) -> UElement:
    return UElement._of({UNIT[g]: 1})


def s_gen(g: Gen) -> SElement:
    return SElement._of({UNIT[g]: 1})


def u_one() -> UElement:
    return UElement._of({0: 1})


def s_one() -> SElement:
    return SElement._of({0: 1})


@cache
def _orderings_sum(exp: Exp) -> tuple:
    """P(exp): the straightened sum of every distinct ordering of the
    monomial, as a row."""
    if not exp:
        return ((exp, 1),)
    acc: dict[Exp, int] = {}
    for g, shift in enumerate(SHIFTS):
        if exp >> shift & 255:
            _add_inserted(acc, g, _orderings_sum(exp - UNIT[g]))
    return nonzero_row(acc)


def symmetrize_monomial(exp: Exp) -> UElement:
    """sigma of a single symmetric monomial: P(exp) over the number of
    distinct orderings."""
    orderings = factorial(key_degree(exp))
    for e in exponents(exp):
        orderings //= factorial(e)
    return UElement._of(dict(_orderings_sum(exp)), orderings)


def symmetrize(x: SElement) -> UElement:
    """The symmetrization map sigma: S(g) -> U(g)."""
    num, den = combine((symmetrize_monomial(exp), c) for exp, c in x.num.items())
    return UElement._of(num, x.den * den)

