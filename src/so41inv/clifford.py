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

from fractions import Fraction
from functools import cache
from itertools import permutations
from math import lcm

from ._record import record
from .elements import BoundElement, LinearElement, fmt_mask, mask_bits, mask_sort_key
from .errors import DomainError, SolveError
from .lie_core import LieElement, bracket_gens, require_in_k
from .matrix_oracle import Gen, P_GENS, trace_form_gens

P_INDEX = {g: i for i, g in enumerate(P_GENS)}
TOP_MASK = 0b1111


def popcount(mask: int) -> int:
    return bin(mask).count("1")


@cache
def _trace_gram() -> tuple:
    """Gram matrix of the trace form on p, computed once per process."""
    return tuple(tuple(trace_form_gens(a, b) for b in P_GENS) for a in P_GENS)


@record(frozen=True)
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

    __slots__ = ()

    def _product(self, other):
        out: dict[int, int] = {}
        for ma, ca in self.num.items():
            for mb, cb in other.num.items():
                merged = ext_merge(ma, mb)
                if merged is None:
                    continue
                sgn, m = merged
                out[m] = out.get(m, 0) + sgn * ca * cb
        return ExtElement._of(out, self.den * other.den)

    def _one(self):
        return ExtElement._of({0: 1})

    def degree(self) -> int:
        return max((popcount(m) for m in self.num), default=0)

    def __str__(self):
        return self._text(mask_sort_key, lambda m: fmt_mask(m, "^"))


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
    return ExtElement._of({1 << P_INDEX[g]: 1})


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


class CElement(BoundElement):
    """Element of C(p), bound to the algebra that owns its product table."""

    __slots__ = ()

    def degree(self) -> int:
        return max((popcount(m) for m in self.num), default=0)

    def __str__(self):
        return self._text(mask_sort_key, lambda m: fmt_mask(m, "*"))


class CliffordAlgebra:
    """C(p) for a given PForm, with precomputed monomial products, the
    Chevalley map, and the alpha embedding of k into degree-two elements.

    The form is held as int numerators over one denominator, phi = P / q
    (_form and _form_den).
    A product of n generators straightens into monomials of degree n - 2k,
    each of which contracted k pairs and so carries k factors of phi; the
    straightening runs with P in place of phi, in ints, and a term of degree
    n - 2k is then put over q^top by the factor q^(top - k). The monomial
    products, the k-action on monomials and tau of monomials are each one
    int table over one denominator: table[(ma, mb)][m] / table_den is the
    coefficient of m in ma * mb, k_table[(zg, mask)][m] / k_den that of m in
    ad(zg) mask, and _tau_table[mask][m] / _tau_den that of m in tau(mask).
    Each entry is straightened on first read, so a convention that is read
    only in a few products pays only for those. The insertion of one
    generator into a monomial (_insert_table) and alpha of each k-generator
    (_alpha_table) are kept the same way. Every table is an _OnDemand dict
    of the algebra, so it lives exactly as long as the algebra."""

    def __init__(self, pform: PForm):
        q = lcm(*(v.denominator for row in pform.gram for v in row))
        self._form = tuple(tuple(pform.sign * v.numerator * (q // v.denominator) for v in row)
                          for row in pform.gram)
        self._form_den = q
        # the form must be nondegenerate for alpha to exist
        self._adjugate = _adjugate(self._form)
        self._form_det = sum(self._form[0][k] * self._adjugate[k][0] for k in range(4))
        if not self._form_det:
            raise ValueError("gram matrix is degenerate")
        self.pform = pform
        self._insert_table = _OnDemand(lambda key: self._insert_gen(*key))
        self.table_den = q ** 4  # two masks meet in at most four contractions
        self.table = _OnDemand(lambda key: self._word(mask_bits(key[0]) + mask_bits(key[1]), 4))
        self.k_den = q ** 2
        self.k_table = _OnDemand(lambda key: self._k_action_monomial(*key))
        self._tau_den = 24 * q ** 2
        self._tau_table = _OnDemand(self._tau_monomial)
        self._alpha_table = _OnDemand(self._alpha_gen)

    # -- construction --------------------------------------------------------

    def zero(self) -> CElement:
        return CElement._of({}, 1, self)

    def one(self) -> CElement:
        return CElement._of({0: 1}, 1, self)

    def scalar(self, c) -> CElement:
        return CElement({0: c}, self)

    def gen(self, g: Gen) -> CElement:
        if g not in P_INDEX:
            raise DomainError(f"{g.name} is not a p-generator")
        return CElement._of({1 << P_INDEX[g]: 1}, 1, self)

    def element(self, terms: dict) -> CElement:
        return CElement(terms, self)

    # -- multiplication ------------------------------------------------------

    def _insert_gen(self, mask: int, b: int) -> dict[int, int]:
        """(monomial mask) * (generator bit b), straightened to mask basis,
        with P in place of phi; read through _insert_table[mask, b]."""
        bits = mask_bits(mask)
        if not bits or bits[-1] < b:
            return {mask | (1 << b): 1}
        x = bits[-1]
        rest = mask & ~(1 << x)
        if x == b:
            return {rest: self._form[b][b]}
        # x > b: x b = 2 phi(x, b) - b x
        res = {rest: 2 * self._form[x][b]}
        for m, c in self._insert_table[rest, b].items():
            # every monomial here has top bit < x, so appending x is free
            nm = m | (1 << x)
            res[nm] = res.get(nm, 0) - c
        return res

    def _word(self, word: tuple[int, ...], top: int) -> dict[int, int]:
        """Product of generator bits taken left to right, as ints over
        q^top (top >= len(word) // 2)."""
        inserts = self._insert_table
        acc = {0: 1}
        for b in word:
            nxt: dict[int, int] = {}
            for m, c in acc.items():
                for m2, c2 in inserts[m, b].items():
                    nxt[m2] = nxt.get(m2, 0) + c * c2
            acc = nxt
        q, n = self._form_den, len(word)
        return {m: c * q ** (top - (n - popcount(m)) // 2) for m, c in acc.items() if c}

    def word_product(self, word: tuple[int, ...]) -> CElement:
        """Product of generator bits taken left to right."""
        top = len(word) // 2
        return CElement._of(self._word(word, top), self._form_den ** top, self)

    def multiply(self, x: CElement, y: CElement) -> CElement:
        table = self.table
        out: dict[int, int] = {}
        for ma, ca in x.num.items():
            for mb, cb in y.num.items():
                f = ca * cb
                for m, c in table[(ma, mb)].items():
                    out[m] = out.get(m, 0) + f * c
        return CElement._of(out, x.den * y.den * self.table_den, self)

    def commutator(self, x: CElement, y: CElement) -> CElement:
        return self.multiply(x, y) - self.multiply(y, x)

    # -- Chevalley map -------------------------------------------------------

    def _tau_monomial(self, mask: int) -> dict[int, int]:
        """tau of one monomial over _tau_den: the signed average of the
        products of its bits in every order."""
        perms = list(permutations(mask_bits(mask)))
        share = 24 // len(perms)
        acc: dict[int, int] = {}
        for w in perms:
            f = share * _perm_sign(w)
            for m, c in self._word(w, 2).items():
                acc[m] = acc.get(m, 0) + f * c
        return acc

    def chevalley(self, x: ExtElement) -> CElement:
        """tau: Lambda(p) -> C(p), antisymmetrized products."""
        out: dict[int, int] = {}
        for mask, c in x.num.items():
            for m, cc in self._tau_table[mask].items():
                out[m] = out.get(m, 0) + c * cc
        return CElement._of(out, x.den * self._tau_den, self)

    # -- k-action and alpha ----------------------------------------------------

    def _k_action_monomial(self, zg: Gen, mask: int) -> dict[int, int]:
        """ad(zg) of one monomial over k_den: the derivation puts [zg, v_b]
        in the place of each factor v_b in turn."""
        bits = mask_bits(mask)
        out: dict[int, int] = {}
        for pos, b in enumerate(bits):
            for g, c in bracket_gens(zg, P_GENS[b]):
                word = bits[:pos] + (P_INDEX[g],) + bits[pos + 1:]
                for m, cc in self._word(word, 2).items():
                    out[m] = out.get(m, 0) + c * cc
        return out

    def k_action(self, z: LieElement, x: CElement) -> CElement:
        """Derivation action of z in k on C(p)."""
        require_in_k(z)
        out: dict[int, int] = {}
        for zg, zc in z.num.items():
            for mask, xc in x.num.items():
                f = zc * xc
                for m, c in self.k_table[(zg, mask)].items():
                    out[m] = out.get(m, 0) + f * c
        return CElement._of(out, z.den * x.den * self.k_den, self)

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
        out = self.zero()
        for g, c in z.num.items():
            out = out + c * self._alpha_table[g]
        return out / z.den

    def _alpha_gen(self, zg: Gen) -> CElement:
        """alpha of a k-generator in closed form. From v w + w v = 2 phi(v, w),
        [v_i v_j, v_k] = 2 (phi_jk v_i - phi_ik v_j), so sum over i < j of
        L_ij v_i v_j, with L antisymmetric, acts on p by 2 L Phi. It equals
        ad zg, whose matrix is A, iff L = A Phi^-1 / 2 = q A adj(P) / (2 det P),
        which is antisymmetric iff ad zg is skew for the form. In the
        Chevalley image, tau(v_i ^ v_j) = v_i v_j - phi_ij. Read through
        _alpha_table[zg]."""
        ad = [[0] * 4 for _ in range(4)]  # ad[i][k]: v_i in [zg, v_k]
        for k, v in enumerate(P_GENS):
            for g, c in bracket_gens(zg, v):
                ad[P_INDEX[g]][k] = c
        m = [[sum(ad[i][k] * self._adjugate[k][j] for k in range(4)) for j in range(4)]
             for i in range(4)]
        if any(m[i][j] != -m[j][i] for i in range(4) for j in range(i, 4)):
            raise SolveError(f"ad {zg.name} is not skew for the form")
        num = {0: 0}
        for i in range(4):
            for j in range(i + 1, 4):
                num[1 << i | 1 << j] = self._form_den * m[i][j]
                num[0] -= m[i][j] * self._form[i][j]
        return CElement._of(num, 2 * self._form_det, self)


class _OnDemand(dict):
    """A table whose entry for a key is computed by fill(key) on first read."""

    def __init__(self, fill):
        super().__init__()
        self._fill = fill

    def __missing__(self, key):
        value = self[key] = self._fill(key)
        return value


def _perm_sign(word: tuple[int, ...]) -> int:
    sgn = 1
    n = len(word)
    for i in range(n):
        for j in range(i + 1, n):
            if word[i] > word[j]:
                sgn = -sgn
    return sgn


def _det(m: tuple) -> int:
    """Determinant of a small square int matrix, by expansion along row 0."""
    if not m:
        return 1
    return sum((-1) ** j * m[0][j] * _det(tuple(row[:j] + row[j + 1:] for row in m[1:]))
               for j in range(len(m)) if m[0][j])


def _adjugate(m: tuple) -> list[list[int]]:
    """adj(m), with adj(m) m = det(m) I, in ints."""
    n = len(m)

    def minor(r: int, c: int) -> tuple:
        return tuple(row[:c] + row[c + 1:] for i, row in enumerate(m) if i != r)

    return [[(-1) ** (i + j) * _det(minor(j, i)) for j in range(n)] for i in range(n)]
