"""The Clifford algebra C(p), the Chevalley map from Lambda(p), and the
quadratic elements alpha(z) that implement the k-action by commutators.

Monomials are bitmasks over the p-basis (E3, E4, F3, F4) = bits (0, 1, 2, 3);
mask products are straightened, on first read, from the defining relation
    v w + w v = 2 phi(v, w) . 1,
where phi = sign * gram is the effective symmetric form. Both the gram matrix
(the trace form, possibly rescaled) and the sign are explicit data because the
identity suite adjudicates between normalization conventions at run time.

Lambda(p), the associated graded of C(p), shares one sign rule and one
derivation with it, and reads rows as C(p) does: wedge_word turns a word of
bits into the row of its mask times the sign that sorts it (_perm_sign, as in
tau), or () when a bit repeats; WEDGE holds that row for each pair of masks,
built at import; and ad z puts [z, v] in the place of each factor v, words
C(p) straightens and Lambda(p) wedges.
"""
from __future__ import annotations

from fractions import Fraction
from functools import cache
from itertools import permutations
from math import lcm
from types import MappingProxyType

from ._record import record, refuse
from .elements import (BoundElement, LinearElement, _scalar, accumulate, bilinear, combine,
                       fmt_mask, mask_bits, mask_sort_key, nonzero_row)
from .errors import DomainError, SolveError
from .lie_core import LieElement, bracket_gens, require_in_k
from .matrix_oracle import Gen, P_GENS, trace_form_gens

P_INDEX = {g: i for i, g in enumerate(P_GENS)}
TOP_MASK = 0b1111


def popcount(mask: int) -> int:
    return bin(mask).count("1")


def _trace_gram() -> tuple:
    """Gram matrix of the trace form on p."""
    return tuple(tuple(trace_form_gens(a, b) for b in P_GENS) for a in P_GENS)


@record
class PForm:
    """Symmetric bilinear form on p together with the Clifford sign."""

    gram: tuple  # 4x4 tuple of tuples of int or Fraction
    sign: int = 1
    label: str = "custom"

    def __post_init__(self):
        if self.sign not in (1, -1):
            raise ValueError("sign must be +1 or -1")
        if len(self.gram) != 4 or any(len(row) != 4 for row in self.gram):
            raise ValueError("gram matrix must be 4 x 4")
        for i in range(4):
            for j in range(4):
                if _scalar(self.gram[i][j]) != self.gram[j][i]:
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
        num = bilinear(lambda ma, mb: WEDGE[ma, mb], self.num, other.num)
        return ExtElement._of(num, self.den * other.den)

    def _one(self):
        return ExtElement._of({0: 1})

    def degree(self) -> int:
        return max((popcount(m) for m in self.num), default=0)

    def __str__(self):
        return self._text(mask_sort_key, lambda m: fmt_mask(m, "^"))


def _perm_sign(word: tuple[int, ...]) -> int:
    """The sign of the permutation that sorts a word of distinct bits."""
    inversions = sum(a > b for i, a in enumerate(word) for b in word[i + 1:])
    return -1 if inversions & 1 else 1


def wedge_word(word: tuple[int, ...]) -> tuple:
    """The wedge of a word of generator bits, as a row: its mask with the
    sign that sorts the word, or () when a bit repeats."""
    mask = sum(1 << b for b in word)
    return ((mask, _perm_sign(word)),) if popcount(mask) == len(word) else ()


# the row of ma ^ mb, for each pair of masks: () when they meet
WEDGE = MappingProxyType({(ma, mb): wedge_word(mask_bits(ma) + mask_bits(mb))
                          for ma in range(16) for mb in range(16)})


def ext_gen(g: Gen) -> ExtElement:
    if g not in P_INDEX:
        raise DomainError(f"{g.name} is not a p-generator")
    return ExtElement._of({1 << P_INDEX[g]: 1})


def ext_wedge(*gens: Gen) -> ExtElement:
    out = ExtElement({0: 1})
    for g in gens:
        out = out * ext_gen(g)
    return out


def derivation_words(zg: Gen, mask: int):
    """The words of ad(zg) on one monomial, as (word of bits, int
    coefficient) pairs: [zg, v_b] in the place of each factor v_b in turn."""
    bits = mask_bits(mask)
    for pos, b in enumerate(bits):
        for g, c in bracket_gens(zg, P_GENS[b]):
            if g not in P_INDEX:
                raise DomainError(f"[{zg.name},{P_GENS[b].name}] leaves p")
            yield bits[:pos] + (P_INDEX[g],) + bits[pos + 1:], c


def ext_ad_on_mask(zg: Gen, mask: int) -> tuple:
    """Derivation action of a k-generator on a single exterior monomial, as a
    row of ints (the structure constants are integral): its derivation words,
    wedged."""
    return nonzero_row(accumulate((wedge_word(word), c) for word, c in derivation_words(zg, mask)))


class CElement(BoundElement):
    """Element of C(p), bound to the algebra that owns its product table."""

    __slots__ = ()

    def degree(self) -> int:
        return max((popcount(m) for m in self.num), default=0)

    def __str__(self):
        return self._text(mask_sort_key, lambda m: fmt_mask(m, "*"))


class CliffordAlgebra:
    """C(p) for a given PForm, with tables of monomial products, the
    Chevalley map, and the alpha embedding of k into degree-two elements.

    The form is held as int numerators over one denominator, phi = P / q
    (_form and _form_den).
    A product of n generators straightens into monomials of degree n - 2k,
    each of which contracted k pairs and so carries k factors of phi; the
    straightening runs with P in place of phi, in ints, and a term of degree
    n - 2k is then put over q^top by the factor q^(top - k). The monomial
    products, the k-action on monomials and tau of monomials are each one
    table of rows (read-only tuples of (mask, int) pairs, no zero entry) over
    one denominator: an entry (m, c) of table(ma, mb) says that m has the
    coefficient c / table_den in ma * mb, of k_table(zg, mask) c / k_den in
    ad(zg) mask, and of _tau_table(mask) c / _tau_den in tau(mask). Each
    entry is straightened on first read, so a convention that is read
    only in a few products pays only for those. The insertion of one
    generator into a monomial (_insert_table, rows over q) is kept the same
    way. Every table is a functools.cache of its fill, built with the
    algebra, so it lives exactly as long as the algebra, has no write API,
    and reports its size and hits through cache_info(). alpha of a
    k-generator is solved in closed form on each call (_alpha_gen)."""

    __setattr__ = __delattr__ = refuse

    def __init__(self, pform: PForm):
        q = lcm(*(v.denominator for row in pform.gram for v in row))
        form = tuple(tuple(pform.sign * v.numerator * (q // v.denominator) for v in row)
                     for row in pform.gram)
        # the form must be nondegenerate for alpha to exist
        adjugate = _adjugate(form)
        det = sum(form[0][k] * adjugate[k][0] for k in range(4))
        if not det:
            raise ValueError("gram matrix is degenerate")
        vars(self).update(
            pform=pform, _form=form, _form_den=q, _adjugate=adjugate, _form_det=det,
            # two masks meet in at most four contractions
            table_den=q ** 4, k_den=q ** 2, _tau_den=24 * q ** 2,
            _insert_table=cache(self._insert_gen),
            table=cache(lambda ma, mb: self._word(mask_bits(ma) + mask_bits(mb), 4)),
            k_table=cache(self._k_action_monomial),
            _tau_table=cache(self._tau_monomial))

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

    def _insert_gen(self, mask: int, b: int) -> tuple:
        """(monomial mask) * (generator bit b), straightened to mask basis,
        with P in place of phi, as a row; read through _insert_table(mask, b)."""
        bits = mask_bits(mask)
        if not bits or bits[-1] < b:
            return ((mask | (1 << b), 1),)
        x = bits[-1]
        rest = mask & ~(1 << x)
        if x == b:
            return nonzero_row({rest: self._form[b][b]})
        # x > b: x b = 2 phi(x, b) - b x; every monomial of rest * b has top
        # bit < x, so appending x is free and gives a mask other than rest
        return nonzero_row({rest: 2 * self._form[x][b]}) + tuple(
            (m | (1 << x), -c) for m, c in self._insert_table(rest, b))

    def _word(self, word: tuple[int, ...], top: int) -> tuple:
        """Product of generator bits taken left to right, as a row of ints
        over q^top (top >= len(word) // 2)."""
        inserts = self._insert_table
        acc = {0: 1}
        for b in word:
            acc = accumulate((inserts(m, b), c) for m, c in acc.items())
        q, n = self._form_den, len(word)
        return tuple((m, c * q ** (top - (n - popcount(m)) // 2)) for m, c in acc.items() if c)

    def word_product(self, word: tuple[int, ...]) -> CElement:
        """Product of generator bits taken left to right."""
        top = len(word) // 2
        return CElement._of(dict(self._word(word, top)), self._form_den ** top, self)

    def multiply(self, x: CElement, y: CElement) -> CElement:
        num = bilinear(self.table, x.num, y.num)
        return CElement._of(num, x.den * y.den * self.table_den, self)

    def commutator(self, x: CElement, y: CElement) -> CElement:
        return self.multiply(x, y) - self.multiply(y, x)

    # -- Chevalley map -------------------------------------------------------

    def _tau_monomial(self, mask: int) -> tuple:
        """tau of one monomial over _tau_den, as a row: the signed average of
        the products of its bits in every order."""
        perms = list(permutations(mask_bits(mask)))
        share = 24 // len(perms)
        return nonzero_row(accumulate((self._word(w, 2), share * _perm_sign(w)) for w in perms))

    def chevalley(self, x: ExtElement) -> CElement:
        """tau: Lambda(p) -> C(p), antisymmetrized products."""
        pairs = ((self._tau_table(mask), c) for mask, c in x.num.items())
        return CElement._of(accumulate(pairs), x.den * self._tau_den, self)

    # -- k-action and alpha ----------------------------------------------------

    def _k_action_monomial(self, zg: Gen, mask: int) -> tuple:
        """ad(zg) of one monomial over k_den, as a row: its derivation words,
        straightened."""
        return nonzero_row(accumulate((self._word(word, 2), c)
                                      for word, c in derivation_words(zg, mask)))

    def k_action(self, z: LieElement, x: CElement) -> CElement:
        """Derivation action of z in k on C(p)."""
        require_in_k(z)
        return CElement._of(bilinear(self.k_table, z.num, x.num), z.den * x.den * self.k_den, self)

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
        num, den = combine((self._alpha_gen(g), c) for g, c in z.num.items())
        return CElement._of(num, den * z.den, self)

    def _alpha_gen(self, zg: Gen) -> CElement:
        """alpha of a k-generator in closed form. From v w + w v = 2 phi(v, w),
        [v_i v_j, v_k] = 2 (phi_jk v_i - phi_ik v_j), so sum over i < j of
        L_ij v_i v_j, with L antisymmetric, acts on p by 2 L Phi. It equals
        ad zg, whose matrix is A, iff L = A Phi^-1 / 2 = q A adj(P) / (2 det P),
        which is antisymmetric iff ad zg is skew for the form. In the
        Chevalley image, tau(v_i ^ v_j) = v_i v_j - phi_ij."""
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


def _det(m: tuple) -> int:
    """Determinant of a small square int matrix, by expansion along row 0."""
    if not m:
        return 1
    return sum((-1) ** j * m[0][j] * _det(tuple(row[:j] + row[j + 1:] for row in m[1:]))
               for j in range(len(m)) if m[0][j])


def _adjugate(m: tuple) -> tuple:
    """adj(m), with adj(m) m = det(m) I, in ints."""
    n = len(m)

    def minor(r: int, c: int) -> tuple:
        return tuple(row[:c] + row[c + 1:] for i, row in enumerate(m) if i != r)

    return tuple(tuple((-1) ** (i + j) * _det(minor(j, i)) for j in range(n)) for i in range(n))
