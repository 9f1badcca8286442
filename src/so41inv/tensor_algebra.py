"""U(g) tensor C(p): the noncommutative home of the invariant catalog.

Everything downstream of the Clifford normalization question lives here. A
TensorAlgebra is parametrized by a PForm; build_catalog() maps the closed
form invariants over via rho = sigma tensor tau and certifies K-invariance;
verify_relations() evaluates the identity suite relating the catalog
elements; adjudicate_convention() builds the algebra under each candidate
normalization of the form and reports which one (if any) satisfies the whole
suite. convention_algebra() builds each label's algebra once per process; the
algebra caches its catalog, and the catalog its identity checks.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import lcm

from .clifford import CliffordAlgebra, PForm, popcount
from .elements import BoundElement, ZERO_EXP, fmt_exp, fmt_mask, pair_sort_key
from .errors import DomainError, InvarianceError
from .lie_core import LieElement, lie_gen, require_in_k
from .matrix_oracle import Gen, K_GENS
from .sym_ext import SEElement, build_st_catalog
from .uea import UElement, gen_commutator, pbw_pair_product, symmetrize_monomial

UCKey = tuple  # (exp 10-tuple, mask int)


class UCElement(BoundElement):
    """Element of U(g) tensor C(p), bound to its TensorAlgebra."""

    __slots__ = ()

    def degree(self) -> int:
        return max((sum(e) + popcount(m) for e, m in self.num), default=0)

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = self.algebra.scalar(other)
        return super().__eq__(other)

    __hash__ = BoundElement.__hash__

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = self.algebra.scalar(other)
        return super().__add__(other)

    def __radd__(self, other):
        if isinstance(other, (int, Fraction)):
            return self + other
        return NotImplemented

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            other = self.algebra.scalar(other)
        return super().__sub__(other)

    def __str__(self):
        return self._text(pair_sort_key,
                          lambda k: f"({fmt_exp(k[0])}) ot ({fmt_mask(k[1], '*')})")


class TensorAlgebra:
    """U(g) tensor C(p) for a fixed Clifford normalization."""

    def __init__(self, pform: PForm):
        self.pform = pform
        self.cl = CliffordAlgebra(pform)

    # -- constructors ---------------------------------------------------------

    def zero(self) -> UCElement:
        return UCElement._of({}, 1, self)

    def one(self) -> UCElement:
        return UCElement._of({(ZERO_EXP, 0): 1}, 1, self)

    def scalar(self, c) -> UCElement:
        return UCElement({(ZERO_EXP, 0): c}, self)

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

    def multiply(self, x: UCElement, y: UCElement) -> UCElement:
        cl_table = self.cl.table
        out: dict[UCKey, int] = {}
        for (eu, mu), cu in x.num.items():
            for (ev, mv), cv in y.num.items():
                f = cu * cv
                cprod = cl_table[(mu, mv)]
                for ee, a in pbw_pair_product(eu, ev).items():
                    fa = f * a
                    for mm, bc in cprod.items():
                        k = (ee, mm)
                        out[k] = out.get(k, 0) + fa * bc
        return UCElement._of(out, x.den * y.den * self.cl.table_den, self)

    def ad_action(self, z: LieElement, x: UCElement) -> UCElement:
        """ad(z) x for z in k: z acts as z tensor 1 + 1 tensor alpha(z), that
        is by the commutator [z, -] on the U-side and by the Clifford
        derivation on the C-side, read from the memoized tables of both."""
        require_in_k(z)
        k_table, k_den = self.cl.k_table, self.cl.k_den
        out: dict[UCKey, int] = {}
        for zg, zc in z.num.items():
            for (exp, mask), xc in x.num.items():
                f = zc * xc
                fu = f * k_den
                for ee, a in gen_commutator(zg, exp).items():
                    k = (ee, mask)
                    out[k] = out.get(k, 0) + fu * a
                for m, b in k_table[(zg, mask)].items():
                    k = (exp, m)
                    out[k] = out.get(k, 0) + f * b
        return UCElement._of(out, z.den * x.den * k_den, self)

    @cached_property
    def catalog(self) -> Catalog:
        return build_catalog(self)

    def is_invariant(self, x: UCElement) -> bool:
        return all(self.ad_action(lie_gen(z), x).is_zero() for z in K_GENS)

    # -- rho ---------------------------------------------------------------------

    def rho(self, x: SEElement) -> UCElement:
        """sigma tensor tau, mapping the supercommutative model here."""
        tau = self.cl._tau_table
        images = [(mask, c, symmetrize_monomial(exp)) for (exp, mask), c in x.num.items()]
        den = lcm(*(s.den for _, _, s in images))
        out: dict[UCKey, int] = {}
        for mask, c, s in images:
            f = c * (den // s.den)
            tm = tau[mask]
            for ee, a in s.num.items():
                fa = f * a
                for mm, bc in tm.items():
                    k = (ee, mm)
                    out[k] = out.get(k, 0) + fa * bc
        return UCElement._of(out, x.den * den * self.cl._tau_den, self)

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
        out = self.zero()
        for u, a in pieces:
            out = out + u * a
        return out


@dataclass
class Catalog:
    """The invariant catalog mapped into one TensorAlgebra.

    elements holds rho of each closed-form invariant under its usual name,
    plus 'D' (the Dirac element, rho of the degree-one catalog element) and
    'Dk' (the k-Dirac element, under whichever reading is invariant).
    invariance is the certificate build_catalog computed: the residual term
    count of ad(z) on each element, per (name, k-generator z).
    """

    algebra: TensorAlgebra
    elements: dict[str, UCElement]
    dk_reading: str
    invariance: dict[tuple[str, Gen], int]

    @cached_property
    def checks(self) -> list[RelationCheck]:
        """The identity suite on this catalog, run once."""
        return verify_relations(self)


NAMED_ORDER = ("a1", "a2", "b", "c", "D", "d", "e", "f", "g", "h", "i", "j")


def build_catalog(alg: TensorAlgebra) -> Catalog:
    """Map the closed-form catalog through rho and certify K-invariance.

    The k-Dirac element is built under both readings of its third summand;
    whichever is invariant wins (they never both are). InvarianceError if any
    catalog element fails certification.
    """
    st = build_st_catalog()
    elements: dict[str, UCElement] = {}
    invariance: dict[tuple[str, Gen], int] = {}
    for name in NAMED_ORDER:
        el = alg.rho(st.named[name])
        for z in K_GENS:
            res = alg.ad_action(lie_gen(z), el)
            invariance[name, z] = len(res)
            if not res.is_zero():
                raise InvarianceError(f"rho({name})", z.name, f"{len(res)} residual terms")
        elements[name] = el
    dk_reading = None
    for reading in ("literal", "paired"):
        cand = alg.k_dirac(reading)
        if alg.is_invariant(cand):  # every residual is empty
            dk_reading = reading
            elements["Dk"] = cand
            invariance.update((("Dk", z), 0) for z in K_GENS)
            break
    if dk_reading is None:
        raise InvarianceError("Dk", "k", "no invariant reading of the third summand")
    return Catalog(algebra=alg, elements=elements, dk_reading=dk_reading,
                   invariance=invariance)


# -- the identity suite ----------------------------------------------------------

RELATION_NAMES = ("b", "d", "e", "j", "f", "g", "h", "c")

# The identities for h and c are checked in two forms. The 'literal' form
# takes the usual displayed grouping at face value; the 'regrouped' form
# moves the trailing correction of h outside the 1/4 bracket and drops the
# stray +6b / doubled a-terms of c down to -4(a1 + a2). The two forms differ
# by exact invariant combinations (literal h minus regrouped h is
# 9/16 (f - g - D); literal c minus regrouped c is 3/2 b - a1 - a2, up to
# sign), and only one of them can hold.
RELATION_VARIANTS = ("literal", "regrouped")


def relation_residuals(cat: Catalog, variant: str = "literal") -> dict[str, UCElement]:
    """Left minus right side of each identity in the suite."""
    if variant not in RELATION_VARIANTS:
        raise ValueError(f"unknown relation variant: {variant}")
    el = cat.elements
    D, Dk = el["D"], el["Dk"]
    a1, a2, b, c = el["a1"], el["a2"], el["b"], el["c"]
    d, e, f, g, h, i, j = (el[k] for k in ("d", "e", "f", "g", "h", "i", "j"))
    half = Fraction(1, 2)
    quarter = Fraction(1, 4)
    threehalf = Fraction(3, 2)
    res = {}
    res["b"] = b - (-half * (D * D) + Dk)
    res["d"] = d - (Dk - half * (Dk * i + i * Dk))
    res["e"] = e - (-1 * Dk - half * (Dk * i + i * Dk))
    res["j"] = j - half * (i * D - D * i)
    res["f"] = f - half * (d * D - D * d - 3 * j)
    res["g"] = g - half * (e * D - D * e - 3 * j)
    if variant == "literal":
        res["h"] = h - quarter * (
            d * (g + threehalf * D)
            + e * (f - threehalf * D)
            - Fraction(3, 4) * (f - g - D)
        )
        res["c"] = c - quarter * (
            (f - threehalf * D) * (g + threehalf * D)
            + (g + threehalf * D) * (f - threehalf * D)
            - (a2 * d + d * a2)
            + (a1 * e + e * a1)
            - half * (g * D - D * g)
            + half * (f * D - D * f)
            + (4 * b + 5) * (d - e)
            + 6 * b
            - 8 * a1
            - 8 * a2
        )
    else:
        res["h"] = h - (
            quarter * (d * (g + threehalf * D) + e * (f - threehalf * D))
            - Fraction(3, 4) * (f - g - D)
        )
        res["c"] = c - quarter * (
            (f - threehalf * D) * (g + threehalf * D)
            + (g + threehalf * D) * (f - threehalf * D)
            - (a2 * d + d * a2)
            + (a1 * e + e * a1)
            - half * (g * D - D * g)
            + half * (f * D - D * f)
            + (4 * b + 5) * (d - e)
            - 4 * a1
            - 4 * a2
        )
    return res


@dataclass
class RelationCheck:
    name: str
    variant: str
    residual_terms: int
    ok: bool


def verify_relations(cat: Catalog) -> list[RelationCheck]:
    """All identity checks: the eight literal forms plus the regrouped forms
    of h and c (the only two where the variants differ)."""
    out = []
    for variant in RELATION_VARIANTS:
        residuals = relation_residuals(cat, variant)
        for name in RELATION_NAMES:
            if variant == "regrouped" and name not in ("h", "c"):
                continue
            r = residuals[name]
            out.append(
                RelationCheck(name=name, variant=variant,
                              residual_terms=len(r), ok=r.is_zero())
            )
    return out


def effective_checks(checks: list[RelationCheck]) -> list[RelationCheck]:
    """One check per relation: the literal form for the six unambiguous
    identities, the regrouped form for h and c."""
    pick = {}
    for ch in checks:
        want = "regrouped" if ch.name in ("h", "c") else "literal"
        if ch.variant == want:
            pick[ch.name] = ch
    return [pick[name] for name in RELATION_NAMES if name in pick]


# -- convention adjudication --------------------------------------------------------

CONVENTION_LABELS = (
    "gram=trace sign=+1",
    "gram=trace sign=-1",
    "gram=trace/4 sign=+1",
    "gram=trace/4 sign=-1",
)


def convention_pform(label: str) -> PForm:
    scale = Fraction(1, 4) if "trace/4" in label else Fraction(1)
    sign = 1 if "sign=+1" in label else -1
    return PForm.from_trace_form(sign=sign, scale=scale)


_ALGEBRAS: dict[str, TensorAlgebra] = {}


def convention_algebra(label: str) -> TensorAlgebra:
    """The one TensorAlgebra of a convention label in this process."""
    if label not in _ALGEBRAS:
        _ALGEBRAS[label] = TensorAlgebra(convention_pform(label))
    return _ALGEBRAS[label]


@dataclass
class ConventionReport:
    label: str
    built: bool
    failure: str
    checks: list[RelationCheck]

    @property
    def effective_pass(self) -> bool:
        """Passes with the regrouped forms standing in for h and c."""
        eff = effective_checks(self.checks)
        return self.built and len(eff) == len(RELATION_NAMES) and all(c.ok for c in eff)


@dataclass
class Adjudication:
    reports: list[ConventionReport]
    accepted: str | None
    catalog: Catalog | None  # catalog under the accepted convention


_ADJUDICATION: Adjudication | None = None


def adjudicate_convention() -> Adjudication:
    """Build the catalog and run the identity suite under each candidate
    Clifford normalization; accept the one where the whole suite passes."""
    global _ADJUDICATION
    if _ADJUDICATION is not None:
        return _ADJUDICATION
    reports = []
    accepted = None
    accepted_catalog = None
    for label in CONVENTION_LABELS:
        try:
            cat = convention_algebra(label).catalog
        except InvarianceError as exc:
            reports.append(ConventionReport(label, False, str(exc), []))
            continue
        report = ConventionReport(label, True, "", cat.checks)
        reports.append(report)
        if report.effective_pass and accepted is None:
            accepted = label
            accepted_catalog = cat
    _ADJUDICATION = Adjudication(reports=reports, accepted=accepted, catalog=accepted_catalog)
    return _ADJUDICATION


def accepted_catalog() -> Catalog:
    adj = adjudicate_convention()
    if adj.catalog is None:
        raise DomainError("no Clifford normalization satisfies the identity suite")
    return adj.catalog


def algebra_for_sign(sign: int) -> TensorAlgebra:
    """The algebra with the Clifford sign forced, keeping the adjudicated
    normalization of the form (the two options exposed on the command line
    besides 'auto')."""
    return convention_algebra(f"gram=trace/4 sign={sign:+d}")


def catalog_for_sign(sign: int) -> Catalog:
    """Catalog of algebra_for_sign(sign)."""
    return algebra_for_sign(sign).catalog


# -- generator theorem -----------------------------------------------------------

@dataclass
class ChainStep:
    name: str
    residual_terms: int
    ok: bool


def derive_chain(cat: Catalog) -> dict[str, UCElement]:
    """rho(b), rho(d), ..., rho(c) rebuilt from the five claimed generators
    rho(a1), rho(a2), rho(i), D, Dk alone. Later steps consume the derived
    elements, not the catalog ones."""
    el = cat.elements
    D, Dk, i = el["D"], el["Dk"], el["i"]
    a1, a2 = el["a1"], el["a2"]
    half = Fraction(1, 2)
    quarter = Fraction(1, 4)
    threehalf = Fraction(3, 2)

    derived: dict[str, UCElement] = {}
    derived["b"] = -half * (D * D) + Dk
    anti = half * (Dk * i + i * Dk)
    derived["d"] = Dk - anti
    derived["e"] = -1 * Dk - anti
    derived["j"] = half * (i * D - D * i)
    derived["f"] = half * (derived["d"] * D - D * derived["d"] - 3 * derived["j"])
    derived["g"] = half * (derived["e"] * D - D * derived["e"] - 3 * derived["j"])
    # h and c use the regrouped identity forms, the ones that hold exactly
    derived["h"] = quarter * (
        derived["d"] * (derived["g"] + threehalf * D)
        + derived["e"] * (derived["f"] - threehalf * D)
    ) - Fraction(3, 4) * (derived["f"] - derived["g"] - D)
    derived["c"] = quarter * (
        (derived["f"] - threehalf * D) * (derived["g"] + threehalf * D)
        + (derived["g"] + threehalf * D) * (derived["f"] - threehalf * D)
        - (a2 * derived["d"] + derived["d"] * a2)
        + (a1 * derived["e"] + derived["e"] * a1)
        - half * (derived["g"] * D - D * derived["g"])
        + half * (derived["f"] * D - D * derived["f"])
        + (4 * derived["b"] + 5) * (derived["d"] - derived["e"])
        - 4 * a1
        - 4 * a2
    )
    return derived


def generator_chain_check(cat: Catalog) -> list[ChainStep]:
    """Compare each element derive_chain rebuilds with the catalog; a pass
    certifies the whole generation chain."""
    derived = derive_chain(cat)
    steps = []
    for name in RELATION_NAMES:
        diff = derived[name] - cat.elements[name]
        steps.append(ChainStep(name=name, residual_terms=len(diff), ok=diff.is_zero()))
    return steps
