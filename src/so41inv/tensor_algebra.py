"""U(g) tensor C(p): the noncommutative home of the invariant catalog.

Everything downstream of the Clifford normalization question lives here. A
TensorAlgebra is parametrized by a PForm, and a scalar is one of its elements
only as a multiple of one(). build_catalog() maps the closed form invariants
over via rho = sigma tensor tau and certifies K-invariance, Dk's included,
with the certificate of S(g) tensor Lambda(p), sym_ext.certify_invariance;
verify_relations() evaluates the identity table IDENTITIES;
adjudicate_convention() accepts the first candidate normalization of the form
that satisfies the whole suite, after ruling out each one the j identity
refutes without building its catalog. convention_algebra() builds each label's
algebra once per process, and adjudicate_convention() runs once (both through
functools.cache); the algebra keeps its catalog, the rho image of each named
element, the product of each pair of keys and the action of each generator on
each key, and the catalog its identity checks and generator chain.
"""
from __future__ import annotations

from contextlib import suppress
from fractions import Fraction
from functools import cache, cached_property
from math import lcm
from types import MappingProxyType

from ._record import record, refuse
from .clifford import CliffordAlgebra, PForm, _OnDemand, popcount
from .elements import (BoundElement, ZERO_EXP, accumulate, fmt_exp, fmt_mask, nonzero_row,
                       pair_sort_key, signed_sum, tensor)
from .errors import DomainError, InvarianceError
from .lie_core import LieElement, lie_gen, require_in_k
from .matrix_oracle import Gen
from .sym_ext import SEElement, build_st_catalog, certify_invariance
from .uea import UElement, gen_commutator, pbw_pair_product, symmetrize_monomial

UCKey = tuple  # (exp 10-tuple, mask int)
_ONE_KEY = (ZERO_EXP, 0)


def _row_pairs(tables, left, right):
    """(tables[a][b], ca * cb) for each term (a, ca) of left and (b, cb) of
    right, reading tables[a] once per term of left."""
    for a, ca in left:
        rows = tables[a]
        for b, cb in right:
            yield rows[b], ca * cb


class UCElement(BoundElement):
    """Element of U(g) tensor C(p), bound to its TensorAlgebra."""

    __slots__ = ()

    def degree(self) -> int:
        return max((sum(e) + popcount(m) for e, m in self.num), default=0)

    def __str__(self):
        return self._text(pair_sort_key,
                          lambda k: f"({fmt_exp(k[0])}) ot ({fmt_mask(k[1], '*')})")


class TensorAlgebra:
    """U(g) tensor C(p) for a fixed Clifford normalization. Products and
    k-actions read rows, tuples of (key, int) pairs, filled on first read and
    kept as long as the algebra, like the Clifford tables: _products[kx][ky]
    and _actions[zg][key]."""

    __setattr__ = __delattr__ = refuse

    def __init__(self, pform: PForm):
        vars(self).update(
            pform=pform,
            cl=CliffordAlgebra(pform),
            _named=_OnDemand(lambda name: self.rho(build_st_catalog().named[name])),
            _products=_OnDemand(lambda kx: _OnDemand(lambda ky: self._product_row(kx, ky))),
            _actions=_OnDemand(lambda zg: _OnDemand(lambda key: self._action_row(zg, key))))

    # -- constructors ---------------------------------------------------------

    def zero(self) -> UCElement:
        return UCElement._of({}, 1, self)

    def one(self) -> UCElement:
        return UCElement._of({_ONE_KEY: 1}, 1, self)

    def scalar(self, c) -> UCElement:
        return UCElement({_ONE_KEY: c}, self)

    def element(self, terms: dict) -> UCElement:
        return UCElement(terms, self)

    def from_u(self, x: UElement) -> UCElement:
        return UCElement._of({(exp, 0): c for exp, c in x.num.items()}, x.den, self)

    def from_c(self, x) -> UCElement:
        return UCElement._of({(ZERO_EXP, m): c for m, c in x.num.items()}, x.den, self)

    def u_gen(self, g: Gen) -> UCElement:
        exp = [0] * 10
        exp[g] = 1
        return UCElement._of({(tuple(exp), 0): 1}, 1, self)

    def c_gen(self, g: Gen) -> UCElement:
        return self.from_c(self.cl.gen(g))

    # -- product and action ----------------------------------------------------

    def _product_row(self, kx: UCKey, ky: UCKey) -> tuple:
        """The monomial kx times the monomial ky over cl.table_den: the PBW
        pair product tensor the Clifford product of the masks."""
        (eu, mu), (ev, mv) = kx, ky
        return tuple(tensor(pbw_pair_product(eu, ev), self.cl.table[mu, mv]))

    def _action_row(self, zg: Gen, key: UCKey) -> tuple:
        """ad(zg) of the monomial key over cl.k_den, by the Leibniz rule: the
        commutator on the U-side tensor the mask, plus the exponent tensor
        the Clifford derivation on the C-side."""
        exp, mask = key
        commutator = tensor(gen_commutator(zg, exp), ((mask, 1),))
        derivation = tensor(((exp, 1),), self.cl.k_table[zg, mask])
        return nonzero_row(accumulate(((commutator, self.cl.k_den), (derivation, 1))))

    def multiply(self, x: UCElement, y: UCElement) -> UCElement:
        """x y, one row of the algebra's product table per pair of terms."""
        pairs = _row_pairs(self._products, x.num.items(), y.num.items())
        return UCElement._of(accumulate(pairs), x.den * y.den * self.cl.table_den, self)

    def ad_action(self, z: LieElement, x: UCElement) -> UCElement:
        """ad(z) x: z acts as z tensor 1 + 1 tensor alpha(z), that is by the
        commutator [z, -] on the U-side and by the Clifford derivation on the
        C-side, one row of the algebra's action table per pair of terms. A z
        outside k acts only on U(g) tensor 1, and is refused when x has a
        Clifford part."""
        if any(mask for _, mask in x.num):
            require_in_k(z)
        pairs = _row_pairs(self._actions, z.num.items(), x.num.items())
        return UCElement._of(accumulate(pairs), z.den * x.den * self.cl.k_den, self)

    @cached_property
    def catalog(self) -> Catalog:
        return build_catalog(self)

    # -- rho ---------------------------------------------------------------------

    def rho(self, x: SEElement) -> UCElement:
        """sigma tensor tau, mapping the supercommutative model here."""
        tau = self.cl._tau_table
        images = [(symmetrize_monomial(exp), tau[mask], c) for (exp, mask), c in x.num.items()]
        den = lcm(*(s.den for s, _, _ in images))
        pairs = ((tensor(s.num.items(), t), c * (den // s.den)) for s, t, c in images)
        return UCElement._of(accumulate(pairs), x.den * den * self.cl._tau_den, self)

    def rho_named(self, name: str) -> UCElement:
        """rho of the named closed-form invariant, computed once per algebra:
        the j refutation and build_catalog read the same images."""
        return self._named[name]

    def alpha_uc(self, z: LieElement) -> UCElement:
        return self.from_c(self.cl.alpha(z))

    # -- the k-Dirac element ------------------------------------------------------

    def k_dirac(self, reading: str) -> UCElement:
        """The quadratic-alpha pairing element; `reading` picks the third
        summand. 'literal' pairs F1 with alpha(2 E2), duplicating the F2
        summand's argument as the closed form is usually displayed; 'paired'
        uses alpha(2 E1), matching the trace-dual pairing of the other
        summands. Exactly one reading is K-invariant and the catalog keeps
        that one."""
        h1, h2 = lie_gen(Gen.H1), lie_gen(Gen.H2)
        e1, e2 = lie_gen(Gen.E1), lie_gen(Gen.E2)
        f1, f2 = lie_gen(Gen.F1), lie_gen(Gen.F2)
        if reading not in ("literal", "paired"):
            raise ValueError(f"unknown k_dirac reading: {reading}")
        third = 2 * e2 if reading == "literal" else 2 * e1
        pieces = [
            (self.u_gen(Gen.E1), self.alpha_uc(2 * f1)),
            (self.u_gen(Gen.E2), self.alpha_uc(2 * f2)),
            (self.u_gen(Gen.F1), self.alpha_uc(third)),
            (self.u_gen(Gen.F2), self.alpha_uc(2 * e2)),
            (self.u_gen(Gen.H1) - self.u_gen(Gen.H2), self.alpha_uc(h1 - h2)),
            (self.u_gen(Gen.H1) + self.u_gen(Gen.H2), self.alpha_uc(h1 + h2)),
        ]
        return signed_sum([(u * a, 1) for u, a in pieces])


@record
class Catalog:
    """The invariant catalog mapped into one TensorAlgebra.

    elements holds rho of each closed-form invariant under its usual name,
    plus 'D' (the Dirac element, rho of the degree-one catalog element) and
    'Dk' (the k-Dirac element, under whichever reading is invariant).
    invariance is the certificate build_catalog computed: the residual term
    count of ad(z) on each element, per (name, k-generator z).
    """

    algebra: TensorAlgebra
    elements: MappingProxyType[str, UCElement]
    dk_reading: str
    invariance: MappingProxyType[tuple[str, Gen], int]

    @cached_property
    def checks(self) -> tuple[RelationCheck, ...]:
        """The identity suite on this catalog, run once."""
        return verify_relations(self)

    @cached_property
    def chain(self) -> tuple[ChainStep, ...]:
        """The generator chain on this catalog, derived and compared once:
        each element derive_chain rebuilds against the catalog's."""
        derived = derive_chain(self)
        diffs = ((name, derived[name] - self.elements[name]) for name in RELATION_NAMES)
        return tuple(ChainStep(name=name, residual_terms=len(d), ok=d.is_zero())
                     for name, d in diffs)


NAMED_ORDER = ("a1", "a2", "b", "c", "D", "d", "e", "f", "g", "h", "i", "j")


def build_catalog(alg: TensorAlgebra) -> Catalog:
    """Map the closed-form catalog through rho and certify K-invariance with
    sym_ext.certify_invariance, the certificate of S(g) tensor Lambda(p).

    The k-Dirac element is built under one reading of its third summand at a
    time, until one passes the same certificate (they never both do); its
    counts join the others. InvarianceError if any catalog element fails
    certification.
    """
    elements = {name: alg.rho_named(name) for name in NAMED_ORDER}
    invariance = certify_invariance(alg.ad_action, elements, "rho({})")
    for dk_reading in ("literal", "paired"):
        elements["Dk"] = alg.k_dirac(dk_reading)
        with suppress(InvarianceError):
            invariance.update(certify_invariance(alg.ad_action, {"Dk": elements["Dk"]}))
            break
    else:
        raise InvarianceError("Dk", "k", "no invariant reading of the third summand")
    return Catalog(algebra=alg, elements=MappingProxyType(elements), dk_reading=dk_reading,
                   invariance=MappingProxyType(invariance))


# -- the identity suite ----------------------------------------------------------

RELATION_NAMES = ("b", "d", "e", "j", "f", "g", "h", "c")

# The identities for h and c are checked in two forms. The 'literal' form
# takes the usual displayed grouping at face value; the 'regrouped' form
# moves the trailing correction of h outside the 1/4 bracket and drops the
# stray +6b / doubled a-terms of c down to -4(a1 + a2). The two forms differ
# by exact invariant combinations (literal h minus regrouped h is
# 9/16 (f - g - D); literal c minus regrouped c is 3/2 b - a1 - a2, up to
# sign), and only one of them can hold.

_HALF, _QUARTER, _THREEHALF = Fraction(1, 2), Fraction(1, 4), Fraction(3, 2)


class _Terms:
    """Named elements as attributes, and the parts that several identities
    share, each computed once on first read."""

    def __init__(self, elements: dict[str, UCElement]):
        self.__dict__.update(elements)

    @cached_property
    def anti(self) -> UCElement:  # d and e
        return _HALF * (self.Dk * self.i + self.i * self.Dk)

    @cached_property
    def h_products(self) -> UCElement:  # both forms of h
        return self.d * (self.g + _THREEHALF * self.D) + self.e * (self.f - _THREEHALF * self.D)

    @cached_property
    def c_products(self) -> UCElement:  # both forms of c
        D, d, e, f, g = self.D, self.d, self.e, self.f, self.g
        fm, gp = f - _THREEHALF * D, g + _THREEHALF * D
        return (fm * gp + gp * fm
                - (self.a2 * d + d * self.a2)
                + (self.a1 * e + e * self.a1)
                - _HALF * (g * D - D * g)
                + _HALF * (f * D - D * f)
                + (4 * self.b + 5 * self.b.algebra.one()) * (d - e))


# The right-hand side of each identity, by (name, variant): the literal forms
# of all eight, then the regrouped forms of h and c (the only two where the
# variants differ). An identity holds when its name equals its right side.
IDENTITIES = {
    ("b", "literal"): lambda t: -_HALF * (t.D * t.D) + t.Dk,
    ("d", "literal"): lambda t: t.Dk - t.anti,
    ("e", "literal"): lambda t: -1 * t.Dk - t.anti,
    ("j", "literal"): lambda t: _HALF * (t.i * t.D - t.D * t.i),
    ("f", "literal"): lambda t: _HALF * (t.d * t.D - t.D * t.d - 3 * t.j),
    ("g", "literal"): lambda t: _HALF * (t.e * t.D - t.D * t.e - 3 * t.j),
    ("h", "literal"): lambda t: _QUARTER * (t.h_products - Fraction(3, 4) * (t.f - t.g - t.D)),
    ("c", "literal"): lambda t: _QUARTER * (t.c_products + 6 * t.b - 8 * t.a1 - 8 * t.a2),
    ("h", "regrouped"): lambda t: _QUARTER * t.h_products - Fraction(3, 4) * (t.f - t.g - t.D),
    ("c", "regrouped"): lambda t: _QUARTER * (t.c_products - 4 * t.a1 - 4 * t.a2),
}


def _effective_variant(name: str) -> str:
    return "regrouped" if (name, "regrouped") in IDENTITIES else "literal"


def _residual(t: _Terms, name: str, variant: str) -> UCElement:
    return getattr(t, name) - IDENTITIES[name, variant](t)


@record
class RelationCheck:
    name: str
    variant: str
    residual_terms: int
    ok: bool


def verify_relations(cat: Catalog) -> tuple[RelationCheck, ...]:
    """Every identity of the table, in its order, each product computed once."""
    t = _Terms(cat.elements)
    residuals = {key: _residual(t, *key) for key in IDENTITIES}
    return tuple(RelationCheck(name=name, variant=variant, residual_terms=len(r), ok=r.is_zero())
                 for (name, variant), r in residuals.items())


def effective_checks(checks) -> list[RelationCheck]:
    """One check per relation: the literal form for the six unambiguous
    identities, the regrouped form for h and c."""
    pick = {ch.name: ch for ch in checks if ch.variant == _effective_variant(ch.name)}
    return [pick[name] for name in RELATION_NAMES if name in pick]


# -- convention adjudication --------------------------------------------------------

CONVENTION_LABELS = (
    "gram=trace sign=+1",
    "gram=trace sign=-1",
    "gram=trace/4 sign=+1",
    "gram=trace/4 sign=-1",
)


def convention_pform(label: str) -> PForm:
    """The form a label of CONVENTION_LABELS names; ValueError for any other."""
    if label not in CONVENTION_LABELS:
        raise ValueError(f"unknown convention label: {label!r}")
    scale = Fraction(1, 4) if "trace/4" in label else Fraction(1)
    sign = 1 if "sign=+1" in label else -1
    return PForm.from_trace_form(sign=sign, scale=scale)


@cache
def convention_algebra(label: str) -> TensorAlgebra:
    """The one TensorAlgebra of a convention label in this process."""
    return TensorAlgebra(convention_pform(label))


@record
class ConventionReport:
    """One convention's outcome: whether its catalog built, and its identity
    checks. Read from convention_algebra(label).catalog on first use, so a
    convention that adjudication refuted is built only if asked."""

    label: str

    @cached_property
    def _outcome(self) -> tuple[bool, tuple[RelationCheck, ...]]:
        try:
            cat = convention_algebra(self.label).catalog
        except InvarianceError:
            return False, ()
        return True, cat.checks

    built = property(lambda self: self._outcome[0])
    checks = property(lambda self: self._outcome[1])

    @property
    def effective_pass(self) -> bool:
        """Passes with the regrouped forms standing in for h and c."""
        eff = effective_checks(self.checks)
        return self.built and len(eff) == len(RELATION_NAMES) and all(c.ok for c in eff)


@record
class Adjudication:
    reports: tuple[ConventionReport, ...]
    accepted: str | None


def refuted_by_j(label: str) -> bool:
    """Whether the literal j identity fails under the convention: evaluated
    on the uncertified rho images of i, D and j alone, two products and no
    catalog. Its residual is the one the whole suite would report for j, so
    a nonzero one rules the convention out."""
    alg = convention_algebra(label)
    t = _Terms({name: alg.rho_named(name) for name in ("i", "D", "j")})
    return not _residual(t, "j", "literal").is_zero()


@cache
def adjudicate_convention() -> Adjudication:
    """Accept the first candidate Clifford normalization where the whole
    identity suite passes. A convention the j identity refutes is not
    built; its report is filled in when read. Run once per process."""
    reports = tuple(ConventionReport(label) for label in CONVENTION_LABELS)
    accepted = next((r.label for r in reports
                     if not refuted_by_j(r.label) and r.effective_pass), None)
    return Adjudication(reports=reports, accepted=accepted)


def accepted_catalog() -> Catalog:
    """The catalog under the accepted convention."""
    accepted = adjudicate_convention().accepted
    if accepted is None:
        raise DomainError("no Clifford normalization satisfies the identity suite")
    return convention_algebra(accepted).catalog


def algebra_for_sign(sign: int) -> TensorAlgebra:
    """The algebra with the Clifford sign forced, keeping the adjudicated
    normalization of the form (the two options exposed on the command line
    besides 'auto')."""
    return convention_algebra(f"gram=trace/4 sign={sign:+d}")


def catalog_for_sign(sign: int) -> Catalog:
    """Catalog of algebra_for_sign(sign)."""
    return algebra_for_sign(sign).catalog


# -- generator theorem -----------------------------------------------------------

@record
class ChainStep:
    name: str
    residual_terms: int
    ok: bool


def derive_chain(cat: Catalog) -> dict[str, UCElement]:
    """rho(b), rho(d), ..., rho(c) rebuilt from the five claimed generators
    rho(a1), rho(a2), rho(i), D, Dk alone, each as the right side of its
    identity in IDENTITIES (the regrouped forms for h and c, the ones that
    hold exactly). Later steps consume the derived elements, not the catalog
    ones."""
    t = _Terms({k: cat.elements[k] for k in ("a1", "a2", "i", "D", "Dk")})
    derived: dict[str, UCElement] = {}
    for name in RELATION_NAMES:
        derived[name] = IDENTITIES[name, _effective_variant(name)](t)
        setattr(t, name, derived[name])
    return derived


def generator_chain_check(cat: Catalog) -> list[ChainStep]:
    """The steps of cat.chain, each comparing an element derive_chain
    rebuilds with the catalog's; a pass certifies the whole generation
    chain."""
    return list(cat.chain)
