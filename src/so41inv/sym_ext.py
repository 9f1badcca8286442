"""The supercommutative model S(g) tensor Lambda(p).

Keys are pairs (exponent 10-tuple, p-mask). This is where the invariant
catalog lives in closed form, where the S.T basis data is assembled, and
where the k-action on monomial keys is tabulated. The model reads rows as
U(g) tensor C(p) does: a product of two keys is the summed exponents tensor
the WEDGE row of the masks, ad_on_key gives the k-action on one key as a
row, and accumulate sums both. certify_invariance is the one K-invariance
certificate of both catalogs: it runs here on the named elements and the
T-products, and in tensor_algebra.build_catalog on their rho images.
"""
from __future__ import annotations

from fractions import Fraction
from functools import cache, cached_property
from operator import add
from types import MappingProxyType

from ._record import record
from .clifford import WEDGE, ext_ad_on_mask, popcount
from .elements import (LinearElement, ZERO_EXP, accumulate, fmt_exp, fmt_mask, pair_sort_key,
                       tensor)
from .errors import DomainError, InvarianceError
from .lie_core import GEN_WEIGHTS, LieElement, bracket_gens, lie_gen, require_in_k
from .matrix_oracle import Gen, K_GENS, P_GENS

SEKey = tuple  # (exp 10-tuple, mask int)
_GENS = tuple(Gen)


class SEElement(LinearElement):
    """Element of S(g) tensor Lambda(p)."""

    __slots__ = ()

    def _product(self, other):
        """The product of the exponents tensor the wedge of the masks, for
        each pair of terms."""
        pairs = ((tensor(((tuple(map(add, ea, eb)), 1),), WEDGE[ma, mb]), ca * cb)
                 for (ea, ma), ca in self.num.items() for (eb, mb), cb in other.num.items())
        return SEElement._of(accumulate(pairs), self.den * other.den)

    def _one(self):
        return se_one()

    def degree(self) -> int:
        return max((key_degree(k) for k in self.num), default=0)

    def __str__(self):
        return self._text(pair_sort_key,
                          lambda k: f"({fmt_exp(k[0])}) ot ({fmt_mask(k[1], '^')})")


def key_degree(key: SEKey) -> int:
    exp, mask = key
    return sum(exp) + popcount(mask)


def key_weight(key: SEKey) -> tuple[int, int]:
    exp, mask = key
    w1 = w2 = 0
    for g, e in enumerate(exp):
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
    exp = [0] * 10
    exp[g] = 1
    return SEElement._of({(tuple(exp), 0): 1})


def se_ext_gen(g: Gen) -> SEElement:
    if g not in P_GENS:
        raise DomainError(f"{g.name} is not a p-generator")
    bit = P_GENS.index(g)
    return SEElement._of({(ZERO_EXP, 1 << bit): 1})


def se_wedge(*gens: Gen) -> SEElement:
    out = se_one()
    for g in gens:
        out = out * se_ext_gen(g)
    return out


def se_one() -> SEElement:
    return SEElement._of({(ZERO_EXP, 0): 1})


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
    another one changes the key, and no two such moves meet; the moves that
    fix the key (those of ad H1 and ad H2) are summed into its one entry."""
    exp, mask = key
    row = []
    fixed = 0
    for slot, pairs in _SLOT_AD[zg]:
        e = exp[slot]
        if not e:
            continue
        for g, c in pairs:
            if g == slot:
                fixed += e * c
            else:
                m = list(exp)
                m[slot] -= 1
                m[g] += 1
                row.append(((tuple(m), mask), e * c))
    if mask:
        if zg not in K_GENS:
            raise DomainError(f"{zg.name} is not in k, and the key has an exterior part")
        for m, c in _EXT_AD[zg, mask]:
            if m == mask:
                fixed += c
            else:
                row.append(((exp, m), c))
    if fixed:
        row.append((key, fixed))
    return tuple(row)


def ad_action_se(z: LieElement, x: SEElement) -> SEElement:
    """ad z on x: the int ad_on_key rows summed over z.den * x.den. A z
    outside k acts only on S(g) tensor 1, and is refused when x has an
    exterior part."""
    if any(mask for _, mask in x.num):
        require_in_k(z)
    pairs = ((ad_on_key(zg, key), zc * c)
             for zg, zc in z.num.items() for key, c in x.num.items())
    return SEElement._of(accumulate(pairs), z.den * x.den)


# -- the invariant catalog ---------------------------------------------------

def _s(g: Gen) -> SEElement:
    return se_gen(g)


def build_a1() -> SEElement:
    h = _s(Gen.H1) + _s(Gen.H2)
    return h * h + 4 * _s(Gen.E1) * _s(Gen.F1)


def build_a2() -> SEElement:
    h = _s(Gen.H1) - _s(Gen.H2)
    return h * h + 4 * _s(Gen.E2) * _s(Gen.F2)


def build_b() -> SEElement:
    return _s(Gen.E3) * _s(Gen.F3) + _s(Gen.E4) * _s(Gen.F4)


def build_dirac() -> SEElement:
    return (
        _s(Gen.E3) * se_ext_gen(Gen.F3)
        + _s(Gen.E4) * se_ext_gen(Gen.F4)
        + _s(Gen.F3) * se_ext_gen(Gen.E3)
        + _s(Gen.F4) * se_ext_gen(Gen.E4)
    )


def build_c() -> SEElement:
    H1, H2 = _s(Gen.H1), _s(Gen.H2)
    E1, E2, F1, F2 = _s(Gen.E1), _s(Gen.E2), _s(Gen.F1), _s(Gen.F2)
    E3, E4, F3, F4 = _s(Gen.E3), _s(Gen.E4), _s(Gen.F3), _s(Gen.F4)
    return (
        2 * (E1 * E2 * F3 ** 2 - E1 * F2 * F4 ** 2 + F1 * F2 * E3 ** 2 - F1 * E2 * E4 ** 2)
        - 2 * (H1 - H2) * (E1 * F3 * F4 + F1 * E3 * E4)
        - 2 * (H1 + H2) * (F2 * E3 * F4 + E2 * F3 * E4)
        - (H1 - H2) * (H1 + H2) * (E3 * F3 - E4 * F4)
    )


def build_d() -> SEElement:
    H = _s(Gen.H1) + _s(Gen.H2)
    return (
        2 * _s(Gen.E1) * se_wedge(Gen.F3, Gen.F4)
        - H * (se_wedge(Gen.E3, Gen.F3) + se_wedge(Gen.E4, Gen.F4))
        - 2 * _s(Gen.F1) * se_wedge(Gen.E3, Gen.E4)
    )


def build_e() -> SEElement:
    H = _s(Gen.H1) - _s(Gen.H2)
    return (
        2 * _s(Gen.E2) * se_wedge(Gen.E4, Gen.F3)
        + H * (se_wedge(Gen.E3, Gen.F3) - se_wedge(Gen.E4, Gen.F4))
        + 2 * _s(Gen.F2) * se_wedge(Gen.E3, Gen.F4)
    )


def build_f() -> SEElement:
    Hp = _s(Gen.H1) + _s(Gen.H2)
    E1, F1 = _s(Gen.E1), _s(Gen.F1)
    E3, E4, F3, F4 = _s(Gen.E3), _s(Gen.E4), _s(Gen.F3), _s(Gen.F4)
    return (
        2 * (E1 * F3 * se_ext_gen(Gen.F4) - E1 * F4 * se_ext_gen(Gen.F3))
        - Hp * (
            E3 * se_ext_gen(Gen.F3)
            + E4 * se_ext_gen(Gen.F4)
            - F3 * se_ext_gen(Gen.E3)
            - F4 * se_ext_gen(Gen.E4)
        )
        - 2 * (F1 * E3 * se_ext_gen(Gen.E4) - F1 * E4 * se_ext_gen(Gen.E3))
    )


def build_g() -> SEElement:
    Hm = _s(Gen.H1) - _s(Gen.H2)
    E2, F2 = _s(Gen.E2), _s(Gen.F2)
    E3, E4, F3, F4 = _s(Gen.E3), _s(Gen.E4), _s(Gen.F3), _s(Gen.F4)
    return (
        -2 * (E2 * F3 * se_ext_gen(Gen.E4) - E2 * E4 * se_ext_gen(Gen.F3))
        + Hm * (
            E3 * se_ext_gen(Gen.F3)
            - E4 * se_ext_gen(Gen.F4)
            - F3 * se_ext_gen(Gen.E3)
            + F4 * se_ext_gen(Gen.E4)
        )
        + 2 * (F2 * E3 * se_ext_gen(Gen.F4) - F2 * F4 * se_ext_gen(Gen.E3))
    )


def build_h() -> SEElement:
    H1, H2 = _s(Gen.H1), _s(Gen.H2)
    Hp, Hm = H1 + H2, H1 - H2
    E1, E2, F1, F2 = _s(Gen.E1), _s(Gen.E2), _s(Gen.F1), _s(Gen.F2)
    E3, E4, F3, F4 = _s(Gen.E3), _s(Gen.E4), _s(Gen.F3), _s(Gen.F4)
    return (
        2 * (
            E1 * E2 * F3 * se_ext_gen(Gen.F3)
            - E1 * F2 * F4 * se_ext_gen(Gen.F4)
            + F1 * F2 * E3 * se_ext_gen(Gen.E3)
            - F1 * E2 * E4 * se_ext_gen(Gen.E4)
        )
        - Hm * (
            E1 * F3 * se_ext_gen(Gen.F4)
            + E1 * F4 * se_ext_gen(Gen.F3)
            + F1 * E3 * se_ext_gen(Gen.E4)
            + F1 * E4 * se_ext_gen(Gen.E3)
        )
        - Hp * (
            F2 * E3 * se_ext_gen(Gen.F4)
            + F2 * F4 * se_ext_gen(Gen.E3)
            + E2 * F3 * se_ext_gen(Gen.E4)
            + E2 * E4 * se_ext_gen(Gen.F3)
        )
        - Fraction(1, 2) * Hm * Hp * (
            E3 * se_ext_gen(Gen.F3)
            + F3 * se_ext_gen(Gen.E3)
            - E4 * se_ext_gen(Gen.F4)
            - F4 * se_ext_gen(Gen.E4)
        )
    )


def build_i() -> SEElement:
    return se_wedge(Gen.E3, Gen.E4, Gen.F3, Gen.F4)


def build_j() -> SEElement:
    return (
        _s(Gen.E3) * se_wedge(Gen.E4, Gen.F3, Gen.F4)
        - _s(Gen.E4) * se_wedge(Gen.E3, Gen.F3, Gen.F4)
        + _s(Gen.F3) * se_wedge(Gen.E3, Gen.E4, Gen.F4)
        - _s(Gen.F4) * se_wedge(Gen.E3, Gen.E4, Gen.F3)
    )


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
    """The named invariants, certified when the catalog is built. The
    sixteen T-elements and their degrees are built on first read, and only
    the ones that are not named elements ("1" and the seven products) are
    certified then; only the freeness checks read them."""

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
    def t_degrees(self) -> MappingProxyType[str, int]:
        return MappingProxyType({name: el.degree() for name, el in self.t_elements.items()})


@cache
def build_st_catalog() -> STCatalog:
    """Build and certify the named elements, once per process; every one
    must be K-invariant."""
    named = {
        "a1": build_a1(),
        "a2": build_a2(),
        "b": build_b(),
        "c": build_c(),
        "D": build_dirac(),
        "d": build_d(),
        "e": build_e(),
        "f": build_f(),
        "g": build_g(),
        "h": build_h(),
        "i": build_i(),
        "j": build_j(),
    }
    certify_invariance(ad_action_se, named)
    return STCatalog(named=MappingProxyType(named))
