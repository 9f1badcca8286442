"""The Clifford algebra C(p), the Chevalley map from Lambda(p), and the
quadratic elements alpha(z) that implement the k-action by commutators.

Monomials are bitmasks over the p-basis (E3, E4, F3, F4) = bits (0, 1, 2, 3);
mask products are precomputed from the defining relation
    v w + w v = 2 phi(v, w) . 1,
where phi = sign * gram is the effective symmetric form. Both the gram matrix
(the trace form, possibly rescaled) and the sign are explicit data because the
identity suite adjudicates between normalization conventions at run time.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from itertools import permutations
from math import lcm

from .elements import (
    LinearElement,
    fmt_mask,
    from_int_terms,
    join_terms,
    mask_bits,
    mask_sort_key,
)
from .errors import DomainError, SolveError
from .lie_core import LieElement, bracket, bracket_gens, lie_gen, require_in_k
from .linalg import integer_view, solve_exact, sparse_rank
from .matrix_oracle import Gen, K_GENS, P_GENS, trace_form_gens

P_INDEX = {g: i for i, g in enumerate(P_GENS)}
TOP_MASK = 0b1111


def popcount(mask: int) -> int:
    return bin(mask).count("1")


@cache
def _trace_gram() -> tuple:
    """Gram matrix of the trace form on p, computed once per process."""
    return tuple(tuple(trace_form_gens(a, b) for b in P_GENS) for a in P_GENS)


@dataclass(frozen=True)
class PForm:
    """Symmetric bilinear form on p together with the Clifford sign."""

    gram: tuple  # 4x4 tuple of tuples of Fraction
    sign: int = 1
    label: str = "custom"

    def __post_init__(self):
        if self.sign not in (1, -1):
            raise ValueError("sign must be +1 or -1")
        for i in range(4):
            for j in range(4):
                if self.gram[i][j] != self.gram[j][i]:
                    raise ValueError("gram matrix must be symmetric")

    def phi(self, i: int, j: int) -> Fraction:
        """The coefficient in v_i v_j + v_j v_i = 2 phi(i, j)."""
        return self.sign * self.gram[i][j]

    def describe(self) -> str:
        return f"gram={self.label} sign={self.sign:+d}"

    @classmethod
    def from_trace_form(cls, sign: int = 1, scale: Fraction = Fraction(1)) -> "PForm":
        gram = tuple(tuple(scale * v for v in row) for row in _trace_gram())
        if scale == 1:
            label = "trace"
        else:
            label = f"trace*{scale}" if scale.numerator != 1 else f"trace/{scale.denominator}"
        return cls(gram=gram, sign=sign, label=label)


class ExtElement(LinearElement):
    """Element of the exterior algebra Lambda(p): {mask: coefficient}."""

    def _product(self, other):
        out: dict[int, Fraction] = {}
        for ma, ca in self.terms.items():
            for mb, cb in other.terms.items():
                merged = ext_merge(ma, mb)
                if merged is None:
                    continue
                sgn, m = merged
                nc = out.get(m, Fraction(0)) + ca * cb * sgn
                if nc:
                    out[m] = nc
                else:
                    out.pop(m, None)
        return ExtElement(out)

    def _one(self):
        return ExtElement({0: 1})

    def degree(self) -> int:
        return max((popcount(m) for m in self.terms), default=0)

    def __str__(self):
        keys = sorted(self.terms, key=mask_sort_key)
        return join_terms([(self.terms[k], fmt_mask(k, "^")) for k in keys])


def ext_merge(ma: int, mb: int) -> tuple[int, int] | None:
    """Wedge of two mask monomials: (sign, mask), or None if they overlap."""
    if ma & mb:
        return None
    sign = 1
    bits_b = mask_bits(mb)
    for b in bits_b:
        # count bits of ma above b (each transposition to move b leftwards)
        higher = popcount(ma >> (b + 1))
        if higher & 1:
            sign = -sign
        ma |= 1 << b
    return sign, ma


def ext_gen(g: Gen) -> ExtElement:
    if g not in P_INDEX:
        raise DomainError(f"{g.name} is not a p-generator")
    return ExtElement({1 << P_INDEX[g]: 1})


def ext_wedge(*gens: Gen) -> ExtElement:
    out = ExtElement({0: 1})
    for g in gens:
        out = out * ext_gen(g)
    return out


def ext_ad_on_mask(zg: Gen, mask: int) -> dict[int, int]:
    """Derivation action of a k-generator on a single exterior monomial, with
    int coefficients (the structure constants are integral)."""
    out: dict[int, int] = {}
    for b in mask_bits(mask):
        for g, c in bracket_gens(zg, P_GENS[b]):
            if g not in P_INDEX:
                raise DomainError(f"[{zg.name},{P_GENS[b].name}] leaves p")
            rest = mask & ~(1 << b)
            merged = ext_merge(1 << P_INDEX[g], rest)
            if merged is None:
                continue
            sgn, m = merged
            # the replaced factor sits where b sat: moving the new generator
            # into position costs the bits of `rest` below b
            below = popcount(rest & ((1 << b) - 1))
            # ext_merge built (new ^ rest) with new in front; (-1)^below puts
            # it back at b's slot
            out[m] = out.get(m, 0) + c * sgn * (-1) ** below
    return {m: c for m, c in out.items() if c}


def ext_k_action(z: LieElement, x: ExtElement) -> ExtElement:
    require_in_k(z)
    out: dict[int, Fraction] = {}
    for zg, zc in z.terms.items():
        for mask, c in x.terms.items():
            for m, cc in ext_ad_on_mask(zg, mask).items():
                out[m] = out.get(m, 0) + cc * c * zc
    return ExtElement(out)


class CElement(LinearElement):
    """Element of C(p), bound to the algebra that owns its product table."""

    __slots__ = ("algebra",)

    def __init__(self, terms=None, algebra=None):
        super().__init__(terms)
        if algebra is None:
            raise ValueError("CElement requires its algebra")
        self.algebra = algebra

    def _wrap(self, terms):
        return CElement(terms, self.algebra)

    def _compatible(self, other) -> bool:
        return isinstance(other, CElement) and other.algebra.pform == self.algebra.pform

    def _product(self, other):
        return self.algebra.multiply(self, other)

    def _one(self):
        return self.algebra.one()

    def degree(self) -> int:
        return max((popcount(m) for m in self.terms), default=0)

    def __str__(self):
        keys = sorted(self.terms, key=mask_sort_key)
        return join_terms([(self.terms[k], fmt_mask(k, "*")) for k in keys])

    def __eq__(self, other):
        return self._compatible(other) and self.terms == other.terms

    def __hash__(self):
        return hash((frozenset(self.terms.items()), self.algebra.pform))


class CliffordAlgebra:
    """C(p) for a given PForm, with precomputed monomial products, the
    Chevalley map, and the alpha embedding of k into degree-two elements."""

    def __init__(self, pform: PForm):
        # the form must be nondegenerate for alpha to exist
        rows = [
            {j: Fraction(pform.gram[i][j]) for j in range(4) if pform.gram[i][j]}
            for i in range(4)
        ]
        if sparse_rank(rows) != 4:
            raise ValueError("gram matrix is degenerate")
        self.pform = pform
        self._insert_cache: dict[tuple[int, int], dict[int, Fraction]] = {}
        # monomial products and the k-action on monomials, each as int terms
        # over one denominator: table[(ma, mb)][m] / table_den is the
        # coefficient of m in ma * mb, and k_table[(zg, mask)][m] / k_den that
        # of m in ad(zg) mask
        self.table, self.table_den = _common_denominator(
            {(ma, mb): self._monomial_product(ma, mb)
             for ma in range(16) for mb in range(16)})
        self.k_table, self.k_den = _common_denominator(
            {(zg, mask): self._k_action_monomial(zg, mask)
             for zg in K_GENS for mask in range(16)})
        self._tau_table = {mask: self._tau_monomial(mask) for mask in range(16)}
        self._alpha_cache: dict[Gen, CElement] = {}

    # -- construction --------------------------------------------------------

    def zero(self) -> CElement:
        return CElement({}, self)

    def one(self) -> CElement:
        return CElement({0: 1}, self)

    def scalar(self, c) -> CElement:
        return CElement({0: c}, self)

    def gen(self, g: Gen) -> CElement:
        if g not in P_INDEX:
            raise DomainError(f"{g.name} is not a p-generator")
        return CElement({1 << P_INDEX[g]: 1}, self)

    def element(self, terms: dict) -> CElement:
        return CElement(terms, self)

    # -- multiplication ------------------------------------------------------

    def _insert_gen(self, mask: int, b: int) -> dict[int, Fraction]:
        """(monomial mask) * (generator bit b), straightened to mask basis."""
        key = (mask, b)
        cached = self._insert_cache.get(key)
        if cached is not None:
            return cached
        bits = mask_bits(mask)
        if not bits or bits[-1] < b:
            res = {mask | (1 << b): Fraction(1)}
        else:
            x = bits[-1]
            rest = mask & ~(1 << x)
            if x == b:
                res = {rest: self.pform.phi(b, b)}
            else:
                # x > b: x b = 2 phi(x, b) - b x
                res = {}
                two_phi = 2 * self.pform.phi(x, b)
                if two_phi:
                    res[rest] = two_phi
                for m, c in self._insert_gen(rest, b).items():
                    # every monomial here has top bit < x, so appending x is free
                    nm = m | (1 << x)
                    nc = res.get(nm, Fraction(0)) - c
                    if nc:
                        res[nm] = nc
                    else:
                        res.pop(nm, None)
        self._insert_cache[key] = res
        return res

    def _monomial_product(self, ma: int, mb: int) -> dict[int, Fraction]:
        acc = {ma: Fraction(1)}
        for b in mask_bits(mb):
            nxt: dict[int, Fraction] = {}
            for m, c in acc.items():
                for m2, c2 in self._insert_gen(m, b).items():
                    nc = nxt.get(m2, Fraction(0)) + c * c2
                    if nc:
                        nxt[m2] = nc
                    else:
                        nxt.pop(m2, None)
            acc = nxt
        return acc

    def multiply(self, x: CElement, y: CElement) -> CElement:
        xi, xd = integer_view(x.terms)
        yi, yd = integer_view(y.terms)
        table = self.table
        out: dict[int, int] = {}
        for ma, ca in xi.items():
            for mb, cb in yi.items():
                f = ca * cb
                for m, c in table[(ma, mb)].items():
                    out[m] = out.get(m, 0) + f * c
        return from_int_terms(self.zero(), out, xd * yd * self.table_den)

    def commutator(self, x: CElement, y: CElement) -> CElement:
        return self.multiply(x, y) - self.multiply(y, x)

    def word_product(self, word: tuple[int, ...]) -> dict[int, Fraction]:
        """Product of generator bits taken left to right."""
        acc = {0: Fraction(1)}
        for b in word:
            nxt: dict[int, Fraction] = {}
            for m, c in acc.items():
                for m2, c2 in self._insert_gen(m, b).items():
                    nc = nxt.get(m2, Fraction(0)) + c * c2
                    if nc:
                        nxt[m2] = nc
                    else:
                        nxt.pop(m2, None)
            acc = nxt
        return acc

    # -- Chevalley map -------------------------------------------------------

    def _tau_monomial(self, mask: int) -> dict[int, Fraction]:
        bits = mask_bits(mask)
        if len(bits) <= 1:
            return {mask: Fraction(1)}
        perms = list(permutations(bits))
        share = Fraction(1, len(perms))
        acc: dict[int, Fraction] = {}
        for w in perms:
            # permutation sign relative to the sorted word
            sgn = _perm_sign(w)
            for m, c in self.word_product(w).items():
                nc = acc.get(m, Fraction(0)) + share * sgn * c
                if nc:
                    acc[m] = nc
                else:
                    acc.pop(m, None)
        return acc

    def chevalley(self, x: ExtElement) -> CElement:
        """tau: Lambda(p) -> C(p), antisymmetrized products."""
        out: dict[int, Fraction] = {}
        for mask, c in x.terms.items():
            for m, cc in self._tau_table[mask].items():
                nc = out.get(m, Fraction(0)) + c * cc
                if nc:
                    out[m] = nc
                else:
                    out.pop(m, None)
        return CElement(out, self)

    # -- k-action and alpha ----------------------------------------------------

    def _k_action_monomial(self, zg: Gen, mask: int) -> dict[int, Fraction]:
        """ad(zg) of one monomial: the derivation puts [zg, v_b] in the place
        of each factor v_b in turn."""
        bits = mask_bits(mask)
        out: dict[int, Fraction] = {}
        for pos, b in enumerate(bits):
            for g, c in bracket_gens(zg, P_GENS[b]):
                word = bits[:pos] + (P_INDEX[g],) + bits[pos + 1:]
                for m, cc in self.word_product(word).items():
                    out[m] = out.get(m, 0) + c * cc
        return {m: c for m, c in out.items() if c}

    def k_action(self, z: LieElement, x: CElement) -> CElement:
        """Derivation action of z in k on C(p)."""
        require_in_k(z)
        zi, zd = integer_view(z.terms)
        xi, xd = integer_view(x.terms)
        out: dict[int, int] = {}
        for zg, zc in zi.items():
            for mask, xc in xi.items():
                f = zc * xc
                for m, c in self.k_table[(zg, mask)].items():
                    out[m] = out.get(m, 0) + f * c
        return from_int_terms(self.zero(), out, zd * xd * self.k_den)

    def alpha(self, z: LieElement) -> CElement:
        """The element of the Chevalley image of the two-forms with
        [alpha(z), v] = [z, v] for all v in p (bracket on the left in C(p),
        on the right in g).

        The commutator condition pins alpha only modulo scalars; the gauge
        matters. Normalizing inside tau(Lambda^2 p) makes alpha a Lie algebra
        homomorphism into C(p) under the commutator, which is what the
        invariance of the quadratic pairing element depends on. Solving over
        bare mask monomials instead shifts each value by a scalar and breaks
        that."""
        require_in_k(z)
        out: dict[int, Fraction] = {}
        for g, c in z.terms.items():
            for m, cc in self._alpha_gen(g).terms.items():
                out[m] = out.get(m, 0) + cc * c
        return self.element(out)

    def _alpha_gen(self, zg: Gen) -> CElement:
        cached = self._alpha_cache.get(zg)
        if cached is not None:
            return cached
        quads = [m for m in range(16) if popcount(m) == 2]
        rows: list[list[Fraction]] = []
        rhs: list[Fraction] = []
        z = lie_gen(zg)
        for vb in range(4):
            v = self.gen(P_GENS[vb])
            # commutator of each quadratic monomial with v, coordinates in p
            cols = []
            for m in quads:
                comm = self.commutator(self.element({m: 1}), v)
                for mm in comm.terms:
                    if popcount(mm) != 1:
                        raise SolveError("quadratic commutator left degree one")
                cols.append([comm.terms.get(1 << b, Fraction(0)) for b in range(4)])
            target = bracket(z, lie_gen(P_GENS[vb]))
            tvec = [Fraction(0)] * 4
            for g, c in target.terms.items():
                tvec[P_INDEX[g]] = c
            for r in range(4):
                rows.append([cols[k][r] for k in range(6)])
                rhs.append(tvec[r])
        sol, = solve_exact(rows, [rhs])
        terms = {m: sol[k] for k, m in enumerate(quads)}
        # re-gauge from mask monomials into the Chevalley image: for bits
        # i < j, tau(v_i ^ v_j) = v_i v_j - phi(i, j), so the scalar slot
        # picks up -sum(lambda_m phi(m))
        shift = Fraction(0)
        for k, m in enumerate(quads):
            i, j = mask_bits(m)
            shift += sol[k] * self.pform.phi(i, j)
        if shift:
            terms[0] = terms.get(0, Fraction(0)) - shift
        el = self.element(terms)
        self._alpha_cache[zg] = el
        return el


def _perm_sign(word: tuple[int, ...]) -> int:
    sgn = 1
    n = len(word)
    for i in range(n):
        for j in range(i + 1, n):
            if word[i] > word[j]:
                sgn = -sgn
    return sgn


def _common_denominator(table: dict) -> tuple[dict, int]:
    """A table of Fraction term dicts as int term dicts over one denominator."""
    d = lcm(*(c.denominator for terms in table.values() for c in terms.values()))
    return {key: {m: c.numerator * (d // c.denominator) for m, c in terms.items()}
            for key, terms in table.items()}, d
