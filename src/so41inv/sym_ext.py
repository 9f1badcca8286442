"""The supercommutative model S(g) tensor Lambda(p).

Keys are packed ints (elements): the exponents as bytes above the p-mask,
viewed by the constructor and `terms` as (exponent 10-tuple, p-mask) pairs.
This is where the invariant
catalog lives in closed form, each element typed once in closed_forms(),
where the S.T basis data is assembled, and where the k-action on monomial
keys is tabulated. The model reads rows as U(g) tensor C(p) does: a product
of two keys is the summed exponents tensor the WEDGE row of the masks,
ad_on_key gives the k-action on one key as a row, each move the key plus a
fixed delta, and elements.bilinear sums
both over the pairs of terms. certify_invariance is the one K-invariance
certificate of both catalogs: it runs here on the named elements and the
T-products, and in tensor_algebra.build_catalog on their rho images.
"""
from __future__ import annotations

from fractions import Fraction
from functools import cache, cached_property, reduce
from operator import mul
from types import MappingProxyType

from ._record import record
from .clifford import WEDGE, ext_ad_on_mask
from .elements import (PAIR_VIEW, UNIT, LinearElement, add_exponents, bilinear, exponents,
                       fmt_exp, fmt_mask, key_degree, pair_sort_key)
from .errors import DomainError, InvarianceError
from .lie_core import GEN_WEIGHTS, LieElement, bracket_gens, lie_gen, require_in_k
from .matrix_oracle import Gen, K_GENS, P_GENS

SEKey = int  # packed: the exponents above the mask
_GENS = tuple(Gen)


def _product_row(ka: SEKey, kb: SEKey) -> list:
    """The summed exponents tensor the WEDGE row of the masks."""
    exp = add_exponents(ka & -16, kb & -16)
    return [(exp | m, c) for m, c in WEDGE[ka & 15, kb & 15]]


class SEElement(LinearElement):
    """Element of S(g) tensor Lambda(p)."""

    __slots__ = ()
    _key_in, _key_out = PAIR_VIEW

    def _product(self, other):
        """The product of the exponents tensor the wedge of the masks, for
        each pair of terms."""
        return SEElement._of(bilinear(_product_row, self.num, other.num), self.den * other.den)

    def _one(self):
        return se_one()

    def degree(self) -> int:
        return max(map(key_degree, self.num), default=0)

    def __str__(self):
        return self._text(pair_sort_key, lambda k: f"({fmt_exp(k)}) ot ({fmt_mask(k & 15, '^')})")


def key_weight(key: SEKey) -> tuple[int, int]:
    mask = key & 15
    w1 = w2 = 0
    for g, e in enumerate(exponents(key)):
        if e:
            a, b = GEN_WEIGHTS[Gen(g)]
            w1 += a * e
            w2 += b * e
    for bit in range(4):
        if mask >> bit & 1:
            a, b = GEN_WEIGHTS[P_GENS[bit]]
            w1 += a
            w2 += b
    return (w1, w2)


def se_gen(g: Gen) -> SEElement:
    return SEElement._of({UNIT[g]: 1})


def se_ext_gen(g: Gen) -> SEElement:
    if g not in P_GENS:
        raise DomainError(f"{g.name} is not a p-generator")
    bit = P_GENS.index(g)
    return SEElement._of({1 << bit: 1})


def se_wedge(*gens: Gen) -> SEElement:
    return reduce(mul, map(se_ext_gen, gens), se_one())


def se_one() -> SEElement:
    return SEElement._of({0: 1})


# ad of each generator on the symmetric generators it does not commute with:
# (slot, (target slot, int coefficient) pairs); and of each k-generator on
# each exterior monomial: (target mask, int coefficient) pairs; read-only
_SLOT_AD = MappingProxyType({z: tuple((slot, tuple((int(g), c) for g, c in bracket_gens(z, x)))
                                      for slot, x in enumerate(_GENS) if bracket_gens(z, x))
                             for z in _GENS})
_EXT_AD = MappingProxyType({(z, mask): ext_ad_on_mask(z, mask)
                            for z in K_GENS for mask in range(16)})


def ad_on_key(zg: Gen, key: SEKey) -> tuple:
    """Derivation action of the generator zg on one monomial key, as a row
    of ints (the structure constants are integral); zg must lie in k when
    the key has an exterior part. A move that sends a slot or the mask to
    another one adds a fixed delta to the key, and no two such moves meet;
    the moves that fix the key (those of ad H1 and ad H2) are summed into
    its one entry."""
    exps, mask = exponents(key), key & 15
    row = []
    fixed = 0
    for slot, pairs in _SLOT_AD[zg]:
        e = exps[slot]
        if not e:
            continue
        for g, c in pairs:
            if g == slot:
                fixed += e * c
            else:
                row.append((add_exponents(key - UNIT[slot], UNIT[g]), e * c))
    if mask:
        if zg not in K_GENS:
            raise DomainError(f"{zg.name} is not in k, and the key has an exterior part")
        for m, c in _EXT_AD[zg, mask]:
            if m == mask:
                fixed += c
            else:
                row.append((key - mask + m, c))
    if fixed:
        row.append((key, fixed))
    return tuple(row)


def ad_action_se(z: LieElement, x: SEElement) -> SEElement:
    """ad z on x: the int ad_on_key rows summed over z.den * x.den. A z
    outside k acts only on S(g) tensor 1, and is refused when x has an
    exterior part."""
    if any(key & 15 for key in x.num):
        require_in_k(z)
    return SEElement._of(bilinear(ad_on_key, z.num, x.num), z.den * x.den)


# -- the invariant catalog ---------------------------------------------------

def closed_forms() -> dict[str, SEElement]:
    """The twelve closed-form invariants by name, in catalog order, built afresh."""
    H1, H2, E1, E2, F1, F2, E3, E4, F3, F4 = map(se_gen, Gen)
    xE3, xE4, xF3, xF4 = map(se_ext_gen, P_GENS)
    Hp, Hm = H1 + H2, H1 - H2
    return {
        "a1": Hp * Hp + 4 * E1 * F1,
        "a2": Hm * Hm + 4 * E2 * F2,
        "b": E3 * F3 + E4 * F4,
        "c": 2 * (E1 * E2 * F3 ** 2 - E1 * F2 * F4 ** 2 + F1 * F2 * E3 ** 2 - F1 * E2 * E4 ** 2)
             - 2 * (H1 - H2) * (E1 * F3 * F4 + F1 * E3 * E4)
             - 2 * (H1 + H2) * (F2 * E3 * F4 + E2 * F3 * E4)
             - (H1 - H2) * (H1 + H2) * (E3 * F3 - E4 * F4),
        "D": E3 * xF3
             + E4 * xF4
             + F3 * xE3
             + F4 * xE4,
        "d": 2 * E1 * xF3 * xF4
             - Hp * (xE3 * xF3 + xE4 * xF4)
             - 2 * F1 * xE3 * xE4,
        "e": 2 * E2 * xE4 * xF3
             + Hm * (xE3 * xF3 - xE4 * xF4)
             + 2 * F2 * xE3 * xF4,
        "f": 2 * (E1 * F3 * xF4 - E1 * F4 * xF3)
             - Hp * (
                 E3 * xF3
                 + E4 * xF4
                 - F3 * xE3
                 - F4 * xE4
             )
             - 2 * (F1 * E3 * xE4 - F1 * E4 * xE3),
        "g": -2 * (E2 * F3 * xE4 - E2 * E4 * xF3)
             + Hm * (
                 E3 * xF3
                 - E4 * xF4
                 - F3 * xE3
                 + F4 * xE4
             )
             + 2 * (F2 * E3 * xF4 - F2 * F4 * xE3),
        "h": 2 * (
                 E1 * E2 * F3 * xF3
                 - E1 * F2 * F4 * xF4
                 + F1 * F2 * E3 * xE3
                 - F1 * E2 * E4 * xE4
             )
             - Hm * (
                 E1 * F3 * xF4
                 + E1 * F4 * xF3
                 + F1 * E3 * xE4
                 + F1 * E4 * xE3
             )
             - Hp * (
                 F2 * E3 * xF4
                 + F2 * F4 * xE3
                 + E2 * F3 * xE4
                 + E2 * E4 * xF3
             )
             - Fraction(1, 2) * Hm * Hp * (
                 E3 * xF3
                 + F3 * xE3
                 - E4 * xF4
                 - F4 * xE4
             ),
        "i": xE3 * xE4 * xF3 * xF4,
        "j": E3 * xE4 * xF3 * xF4
             - E4 * xE3 * xF3 * xF4
             + F3 * xE3 * xE4 * xF4
             - F4 * xE3 * xE4 * xF3,
    }


T_ORDER = ("1", "D", "d", "e", "f", "g", "h", "i", "j",
           "Dd", "De", "Df", "Dg", "fg", "Dh", "dg")


def certify_invariance(ad, elements: dict, label: str = "{}") -> dict[tuple[str, Gen], int]:
    """The residual term count of ad(lie_gen(z), el) per (name, z), for each
    element by name and each z in K_GENS, in that order; ad is the action of
    the ambient (ad_action_se, or TensorAlgebra.ad_action for the rho
    images). InvarianceError at the first nonzero count, naming the element
    label.format(name)."""
    counts = {}
    for name, el in elements.items():
        for z in K_GENS:
            n = counts[name, z] = len(ad(lie_gen(z), el))
            if n:
                raise InvarianceError(label.format(name), z.name, f"{n} residual terms")
    return counts


@record
class STCatalog:
    """The named invariants, certified when the catalog is built. Their
    degrees, and the sixteen T-elements and their degrees, are built on first
    read, and only the T-elements that are not named elements ("1" and the
    seven products) are certified then; only the freeness checks read them."""

    named: MappingProxyType[str, SEElement]

    @cached_property
    def t_elements(self) -> MappingProxyType[str, SEElement]:
        named = self.named
        t: dict[str, SEElement] = {"1": se_one()}
        for name in T_ORDER[1:]:
            t[name] = named[name] if name in named else named[name[0]] * named[name[1]]
        certify_invariance(ad_action_se, {name: el for name, el in t.items() if name not in named})
        return MappingProxyType(t)

    @cached_property
    def named_degrees(self) -> MappingProxyType[str, int]:
        return MappingProxyType({name: el.degree() for name, el in self.named.items()})

    @cached_property
    def t_degrees(self) -> MappingProxyType[str, int]:
        return MappingProxyType({name: el.degree() for name, el in self.t_elements.items()})


@cache
def build_st_catalog() -> STCatalog:
    """Build the named elements with closed_forms() and certify them, once
    per process; every one must be K-invariant."""
    named = closed_forms()
    certify_invariance(ad_action_se, named)
    return STCatalog(named=MappingProxyType(named))
