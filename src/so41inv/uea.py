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

Generator insertions, pair products, generator commutators, P and sigma
of a monomial are pure functions of their arguments, each kept for the
life of the process by functools.cache: cache_info() reports a table's
size and hits, and cache_clear() empties it. A cached dict is shared; do not mutate.
"""
from __future__ import annotations

from functools import cache
from math import factorial, lcm

from .elements import LinearElement, ZERO_EXP, exp_sort_key, fmt_exp
from .lie_core import LieElement, bracket_gens
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


def _add_inserted(acc: dict[Exp, int], g: int, terms: dict[Exp, int], f: int = 1) -> None:
    """acc += f * u_g * terms, in place."""
    for m, c in terms.items():
        for mm, cc in insert_gen(g, m).items():
            acc[mm] = acc.get(mm, 0) + f * c * cc


def _nonzero(acc: dict[Exp, int]) -> dict[Exp, int]:
    return {m: c for m, c in acc.items() if c}


@cache
def insert_gen(g: int, exp: Exp) -> dict[Exp, int]:
    """u_g x^exp over PBW monomials, in int coefficients (shared through the
    cache; do not mutate)."""
    s = _leading_slot(exp)
    if g <= s:
        m = list(exp)
        m[g] += 1
        return {tuple(m): 1}
    rest = _lowered(exp, s)
    acc: dict[Exp, int] = {}
    _add_inserted(acc, s, insert_gen(g, rest))
    for h, c in bracket_gens(g, s):
        _add_inserted(acc, int(h), {rest: 1}, c)
    return _nonzero(acc)


def _fold(word, exp: Exp) -> dict[Exp, int]:
    """The product of the generators `word` times x^exp, inserting the
    letters right to left."""
    acc = {exp: 1}
    for g in reversed(word):
        nxt: dict[Exp, int] = {}
        _add_inserted(nxt, int(g), acc)
        acc = _nonzero(nxt)
    return acc


def straighten_word(word) -> dict[Exp, int]:
    """Expand the product of generators `word` over PBW monomials."""
    return _fold(word, ZERO_EXP)


@cache
def pbw_pair_product(x: Exp, y: Exp) -> dict[Exp, int]:
    """Product of two PBW monomials, straightened. Shared dict; do not mutate."""
    return _fold(exp_to_word(x), y)


@cache
def gen_commutator(g: int, exp: Exp) -> dict[Exp, int]:
    """[u_g, x^exp] = u_g x^exp - x^exp u_g over PBW monomials, in int
    coefficients (shared through the cache; do not mutate)."""
    if not any(exp):
        return {}
    s = _leading_slot(exp)
    rest = _lowered(exp, s)
    acc: dict[Exp, int] = {}
    for h, c in bracket_gens(g, s):
        _add_inserted(acc, int(h), {rest: 1}, c)
    _add_inserted(acc, s, gen_commutator(g, rest))
    return _nonzero(acc)


class UElement(LinearElement):
    """Element of U(g) in PBW normal form: {exponent tuple: coefficient}."""

    __slots__ = ()

    def _product(self, other):
        out: dict[Exp, int] = {}
        for mx, cx in self.num.items():
            for my, cy in other.num.items():
                f = cx * cy
                for m, c in pbw_pair_product(mx, my).items():
                    out[m] = out.get(m, 0) + f * c
        return UElement._of(out, self.den * other.den)

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
        out: dict[Exp, int] = {}
        for mx, cx in self.num.items():
            for my, cy in other.num.items():
                m = tuple(a + b for a, b in zip(mx, my))
                out[m] = out.get(m, 0) + cx * cy
        return SElement._of(out, self.den * other.den)

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


def lie_to_u(x: LieElement) -> UElement:
    return UElement._of({word_to_exp((g,)): c for g, c in x.num.items()}, x.den)


@cache
def _orderings_sum(exp: Exp) -> dict[Exp, int]:
    """P(exp): the straightened sum of every distinct ordering of the
    monomial, in int coefficients (shared; do not mutate)."""
    if not any(exp):
        return {exp: 1}
    acc: dict[Exp, int] = {}
    rest = list(exp)
    for g, e in enumerate(exp):
        if not e:
            continue
        rest[g] -= 1
        _add_inserted(acc, g, _orderings_sum(tuple(rest)))
        rest[g] += 1
    return _nonzero(acc)


@cache
def symmetrize_monomial(exp: Exp) -> UElement:
    """sigma of a single symmetric monomial: P(exp) over the number of
    distinct orderings (shared through the cache)."""
    orderings = factorial(sum(exp))
    for e in exp:
        orderings //= factorial(e)
    return UElement._of(_orderings_sum(exp), orderings)


def symmetrize(x: SElement) -> UElement:
    """The symmetrization map sigma: S(g) -> U(g)."""
    images = [(c, symmetrize_monomial(exp)) for exp, c in x.num.items()]
    den = lcm(*(s.den for _, s in images))
    out: dict[Exp, int] = {}
    for c, s in images:
        f = c * (den // s.den)
        for m, cc in s.num.items():
            out[m] = out.get(m, 0) + f * cc
    return UElement._of(out, x.den * den)


def ad_action_u(z: LieElement, x: UElement) -> UElement:
    """ad(z) x = z x - x z in U(g), for z in the Lie algebra."""
    zu = lie_to_u(z)
    return zu * x - x * zu


def ad_action_s(z: LieElement, x: SElement) -> SElement:
    """The derivation extending ad(z) to the polynomial algebra."""
    out: dict[Exp, int] = {}
    for exp, c in x.num.items():
        for slot, e in enumerate(exp):
            if not e:
                continue
            for zg, zc in z.num.items():
                for g, bc in bracket_gens(zg, Gen(slot)):
                    m = list(exp)
                    m[slot] -= 1
                    m[g] += 1
                    m = tuple(m)
                    out[m] = out.get(m, 0) + c * e * zc * bc
    return SElement._of(out, x.den * z.den)
