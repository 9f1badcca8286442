"""U(g) in PBW normal form, S(g), and the symmetrization map between them.

A PBW monomial is a 10-tuple of exponents in the frozen generator order
H1 < H2 < E1 < E2 < F1 < F2 < E3 < E4 < F3 < F4. Products are straightened
by the textbook rewriting g_a g_b -> g_b g_a + [g_a, g_b] applied at the
first descent. The structure constants are integers, so straightened words
and PBW pair products have int coefficients.

Symmetrization averages a monomial x = x_1 ... x_n over its distinct
orderings. Grouping the orderings by their first letter gives

    P(x) = sum over g with x_g > 0 of  u_g . P(x - e_g),

where P(x) is the straightened sum of all distinct orderings of x. P is a
recursion over sub-multisets in plain ints, and
sigma(x) = P(x) / (n! / prod x_g!) is P(x) over one denominator.

Straightened words, pair products, generator commutators, P and sigma of a
monomial are pure functions of their arguments, each kept for the life of
the process by functools.cache: cache_info() reports a table's size and
hits, and cache_clear() empties it. A cached dict is shared; do not mutate.
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


@cache
def straighten_word(word: tuple[int, ...]) -> dict[Exp, int]:
    """Expand the product of generators `word` over PBW monomials.

    The returned dict is shared through the cache; callers must not mutate."""
    pos = -1
    for i in range(len(word) - 1):
        if word[i] > word[i + 1]:
            pos = i
            break
    if pos < 0:
        return {word_to_exp(word): 1}
    a, b = word[pos], word[pos + 1]
    acc = dict(straighten_word(word[:pos] + (b, a) + word[pos + 2:]))
    for g, cg in bracket_gens(Gen(a), Gen(b)):
        for m, c in straighten_word(word[:pos] + (int(g),) + word[pos + 2:]).items():
            acc[m] = acc.get(m, 0) + c * cg
    return {m: c for m, c in acc.items() if c}


@cache
def pbw_pair_product(x: Exp, y: Exp) -> dict[Exp, int]:
    """Product of two PBW monomials, straightened. Shared dict; do not mutate."""
    return straighten_word(exp_to_word(x) + exp_to_word(y))


@cache
def gen_commutator(g: int, exp: Exp) -> dict[Exp, int]:
    """[u_g, x^exp] = u_g x^exp - x^exp u_g over PBW monomials, in int
    coefficients (shared through the cache; do not mutate)."""
    gen = word_to_exp((g,))
    acc = dict(pbw_pair_product(gen, exp))
    for m, c in pbw_pair_product(exp, gen).items():
        acc[m] = acc.get(m, 0) - c
    return {m: c for m, c in acc.items() if c}


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
        for m, c in _orderings_sum(tuple(rest)).items():
            for mm, cc in straighten_word((g,) + exp_to_word(m)).items():
                acc[mm] = acc.get(mm, 0) + c * cc
        rest[g] += 1
    return {m: c for m, c in acc.items() if c}


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
