"""Shared machinery for sparse linear-combination elements and the canonical
text format they print to.

Every algebra element in the package holds int numerators over one
denominator, num: {key: int} and den: int, in normal form: den > 0, no zero
numerator, and gcd(den, *numerators) == 1. The form is canonical, so == and
hash compare it structurally. An element is read-only by its type: num is a
types.MappingProxyType, and num, den and algebra refuse a rebind (only the
constructors bind them). A coefficient or scalar is an int or a Fraction, and
no element is a scalar: construction, scale, * and / raise TypeError for any
other value, + and - take no number, and no element equals one; an algebra
lifts a scalar as a multiple of its one(). A row is a tuple of (key, int)
pairs with no zero entry; the memo tables of products and actions in U(g),
C(p), U(g) tensor C(p), Lambda(p) and S(g) tensor Lambda(p) hold rows, so a
shared row is read-only by its type. Sums add f times rows (or the items of
an element's num) into one dict through accumulate (or combine, over the lcm
of the denominators); every product and action of two elements adds
ca * cb times row(a, b) for each pair of terms through bilinear, the row
read from its kind's table or rule. Each hands the result to one normalizing
constructor, or to nonzero_row when the sum is itself a cached row;
signed_sum adds a whole run of elements that way in one pass. Fraction
appears only where rationals come in (construction, scaling, parser
literals) and in the `terms` view: canonical text and element files format
each coefficient from its int numerator and the denominator (fmt_coeff).
Subclasses choose the key type and the product. Canonical text re-parses to
the element it printed.

A monomial key of U(g), S(g), S(g) tensor Lambda(p) and U(g) tensor C(p) is
one int, packed here only: the ten exponents as bytes, H1 most significant,
above the p-mask in the low 4 bits. A U(g) or S(g) key has mask 0 and a
C(p) or Lambda(p) key is its mask, so a tensor key is the OR of its factors'
keys (tensor). An exponent is raised by adding its UNIT, lowered by
subtracting it, and the leading slot is read off bit_length. An exponent
past MAX_EXPONENT raises DomainError, never a carry into the next slot, so
keys compare as their (exponent tuple, mask) pairs. The constructors and
`terms` read and write those pairs (each kind's _key_in and _key_out).

Every term of canonical text and of an element file is printed from string
tables built once at import: the ten generator names (GEN_NAMES) and, for
each of the 16 p-masks, its sort key, its Clifford and exterior monomial
text and its file field (MASK_FIELDS). Keys sort by one flat tuple,
pair_sort_key: (degree, exponent degree, exponents, mask degree, mask bits).
"""
from __future__ import annotations

import sys
from fractions import Fraction
from math import gcd, lcm
from types import MappingProxyType

from ._record import refuse
from .errors import DomainError, EngineError
from .matrix_oracle import Gen, P_GENS

# -- the packed monomial key (see the module docstring) ----------------------

MAX_EXPONENT = 255
SHIFTS = tuple(4 + 8 * (9 - slot) for slot in range(10))
UNIT = tuple(1 << shift for shift in SHIFTS)
_CARRIES = sum(UNIT) << 8  # the bit above each exponent field


def pack(exp, mask: int = 0) -> int:
    """The key of an exponent 10-tuple and a mask; DomainError past the bound."""
    if len(exp) != 10:
        raise ValueError(f"a monomial has ten exponents, not {len(exp)}")
    try:
        return int.from_bytes(bytes(exp), "big") << 4 | mask
    except ValueError:
        raise DomainError(f"a monomial key holds exponents from 0 to {MAX_EXPONENT}") from None


def exponents(key: int) -> bytes:
    """The ten exponents of a key, H1 first."""
    return (key >> 4).to_bytes(10, "big")


def unpack(key: int) -> tuple[tuple[int, ...], int]:
    """The (exponent tuple, mask) view of a key."""
    return tuple(exponents(key)), key & 15


# the views of the packed kinds, as (_key_in, _key_out): U(g) and S(g) read
# exponent tuples, S(g) tensor Lambda(p) and U(g) tensor C(p) the pairs
EXP_VIEW = staticmethod(pack), staticmethod(lambda key: tuple(exponents(key)))
PAIR_VIEW = staticmethod(lambda pair: pack(*pair)), staticmethod(unpack)


def key_degree(key: int) -> int:
    return sum(exponents(key)) + _MASK_SORT_KEYS[key & 15][0]


def leading_slot(key: int) -> int:
    """The first generator with a nonzero exponent; 10 for the monomial 1."""
    return 9 - ((key >> 4).bit_length() - 1) // 8


def add_exponents(a: int, b: int) -> int:
    """The key of mask 0 (or of a's mask) with the exponents of a and b
    summed, b of mask 0; DomainError where a sum passes MAX_EXPONENT."""
    out = a + b
    if (out ^ a ^ b) & _CARRIES:
        raise DomainError(f"an exponent is past {MAX_EXPONENT}, the bound of a monomial key")
    return out


def _normal_form(el, num: dict, den: int) -> None:
    """Bind num / den to the new element el in normal form, num read-only:
    zero entries dropped, den made positive and coprime to the numerators. A
    key that cancels to 0 is simply dropped, so accumulate leaves such
    entries in place and they end here."""
    num = {k: c for k, c in num.items() if c}
    if den != 1:
        g = gcd(den, *num.values())
        if den < 0:
            g = -g
        if g != 1:
            num = {k: c // g for k, c in num.items()}
            den //= g
    _set_num(el, MappingProxyType(num))
    _set_den(el, den)


def accumulate(pairs, out: dict | None = None) -> dict:
    """Add f * row into out (a new dict if None) for each pair (row, f) of an
    iterable of (key, int) pairs and an int, and return it; entries that
    cancel stay 0."""
    if out is None:
        out = {}
    get = out.get
    for row, f in pairs:
        for k, c in row:
            out[k] = get(k, 0) + f * c
    return out


def bilinear(row, left, right) -> dict:
    """Add ca * cb * row(a, b) into one new dict for each term (a, ca) of
    the numerator mapping left and (b, cb) of right, and return it; entries
    that cancel stay 0. Every product and action of two elements is this
    loop with its own row."""
    out = {}
    get = out.get
    right = right.items()
    for a, ca in left.items():
        for b, cb in right:
            f = ca * cb
            for k, c in row(a, b):
                out[k] = get(k, 0) + f * c
    return out


def tensor(left, right):
    """The left row tensor the right row, one of them keyed by masks:
    (a | b, ca * cb) for each entry (a, ca) of left and (b, cb) of right."""
    for a, ca in left:
        for b, cb in right:
            yield a | b, ca * cb


def nonzero_row(acc: dict) -> tuple:
    """The nonzero entries of an accumulator dict, as a row."""
    return tuple((k, c) for k, c in acc.items() if c)


def combine(pairs) -> tuple[dict, int]:
    """The sum of f * el over the pairs (el, f) of elements and ints, as int
    numerators over the lcm of the denominators: (num, den), not normalized."""
    pairs = list(pairs)
    den = lcm(*(el.den for el, _ in pairs))
    return accumulate((el.num.items(), f * (den // el.den)) for el, f in pairs), den


def over_lcm(terms: dict) -> tuple[dict, int]:
    """The coefficients of a {key: int or Fraction} dict as int numerators
    over the lcm of their denominators: (num, den), not normalized."""
    den = lcm(*(c.denominator for c in terms.values()))
    return {k: c.numerator * (den // c.denominator) for k, c in terms.items()}, den


def signed_sum(run):
    """The sum of sign * el over the pairs (el, sign) of a nonempty run, in
    one pass; TypeError, as from +, unless every el is of the kind of the
    first."""
    first = run[0][0]
    for el, sign in run[1:]:
        if not first._compatible(el):
            raise TypeError(f"unsupported operand type(s) for {'+' if sign > 0 else '-'}: "
                            f"{type(first).__name__!r} and {type(el).__name__!r}")
    return first._like(*combine(run))


def _scalar(c):
    """c, if it is an int or a Fraction; TypeError for any other value."""
    if not isinstance(c, (int, Fraction)):
        raise TypeError(f"a coefficient is an int or a Fraction, not {type(c).__name__!r}")
    return c


class LinearElement:
    """Base class: a finite rational combination of monomial keys."""

    __slots__ = ("num", "den")
    __setattr__ = __delattr__ = refuse

    # the key of a key as terms views it, and back (EXP_VIEW, PAIR_VIEW)
    _key_in = _key_out = staticmethod(lambda key: key)

    def __init__(self, terms=None):
        """From a {key: coefficient} dict of ints and Fractions, keys as in `terms`."""
        key_in = self._key_in
        _normal_form(self, *over_lcm({key_in(k): _scalar(c) for k, c in terms.items()}
                                     if terms else {}))

    @classmethod
    def _of(cls, num: dict, den: int = 1):
        """The element num / den of this class, brought to normal form."""
        el = object.__new__(cls)
        _normal_form(el, num, den)
        return el

    def _like(self, num: dict, den: int = 1):
        """num / den as an element of the same kind (and algebra) as self."""
        return self._of(num, den)

    @property
    def terms(self) -> dict:
        """The coefficients as Fractions by viewed key, in a fresh dict (the I/O view)."""
        den, key_out = self.den, self._key_out
        return {key_out(k): Fraction(c, den) for k, c in self.num.items()}

    # -- linear structure ---------------------------------------------------

    def _compatible(self, other) -> bool:
        return type(other) is type(self)

    def __add__(self, other):
        if not self._compatible(other):
            return NotImplemented
        return self._like(*combine(((self, 1), (other, 1))))

    def __sub__(self, other):
        if not self._compatible(other):
            return NotImplemented
        return self._like(*combine(((self, 1), (other, -1))))

    def __neg__(self):
        return self._like({k: -c for k, c in self.num.items()}, self.den)

    def scale(self, c):
        n = _scalar(c).numerator
        return self._like({k: v * n for k, v in self.num.items()}, self.den * c.denominator)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        if self._compatible(other):
            return self._product(other)
        return NotImplemented

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        return NotImplemented

    def __truediv__(self, other):
        if not isinstance(other, (int, Fraction)):
            return NotImplemented
        if not other:
            raise ZeroDivisionError("division of an element by zero")
        return self.scale(Fraction(other.denominator, other.numerator))

    def _product(self, other):
        raise TypeError(f"{type(self).__name__} does not define a product")

    def __pow__(self, n):
        if not isinstance(n, int) or n < 0:
            raise ValueError("exponent must be a nonnegative integer")
        if n == 0:
            return self._one()
        out = self
        for _ in range(n - 1):
            out = out * self
        return out

    def _one(self):
        raise TypeError(f"{type(self).__name__} does not define an identity")

    # -- comparisons and inspection -----------------------------------------

    def __eq__(self, other):
        return self._compatible(other) and self.den == other.den and self.num == other.num

    def __hash__(self):
        return hash((frozenset(self.num.items()), self.den))

    def __bool__(self):
        return bool(self.num)

    def is_zero(self) -> bool:
        return not self.num

    def __len__(self):
        return len(self.num)

    def items(self):
        return self.terms.items()

    def _text(self, sort_key, body) -> str:
        """Canonical text: terms in sort_key order, each key printed by body."""
        num = self.num
        return join_terms([(num[k], body(k)) for k in sorted(num, key=sort_key)], self.den)


class BoundElement(LinearElement):
    """An element whose product lives in an algebra object (C(p), or U(g)
    tensor C(p)); two elements are compatible when their algebras share a
    form."""

    __slots__ = ("algebra",)

    def __init__(self, terms=None, algebra=None):
        super().__init__(terms)
        if algebra is None:
            raise ValueError(f"{type(self).__name__} requires its algebra")
        _set_algebra(self, algebra)

    @classmethod
    def _of(cls, num: dict, den: int = 1, algebra=None):
        el = super()._of(num, den)
        _set_algebra(el, algebra)
        return el

    def _like(self, num: dict, den: int = 1):
        return self._of(num, den, self.algebra)

    def _compatible(self, other) -> bool:
        return isinstance(other, type(self)) and other.algebra.pform == self.algebra.pform

    def _product(self, other):
        return self.algebra.multiply(self, other)

    def _one(self):
        return self.algebra.one()

    def __hash__(self):
        return hash((frozenset(self.num.items()), self.den, self.algebra.pform))


# the constructors' one way to bind the slots, which refuse every other write
_set_num, _set_den, _set_algebra = (LinearElement.num.__set__, LinearElement.den.__set__,
                                    BoundElement.algebra.__set__)


# -- canonical text ---------------------------------------------------------
# The string tables of the module docstring. A mask's sort key is (degree,
# bits), and its file field has '1' where E3, E4, F3, F4 occur, in that order.

GEN_NAMES = tuple(g.name for g in Gen)


def mask_bits(mask: int) -> tuple[int, ...]:
    return tuple(b for b in range(4) if mask >> b & 1)


_MASK_SORT_KEYS = tuple((len(mask_bits(m)), mask_bits(m)) for m in range(16))
_MASK_TEXTS = {sep: tuple(f" {sep} ".join(P_GENS[b].name for b in mask_bits(m)) or "1"
                          for m in range(16))
               for sep in "*^"}
MASK_FIELDS = tuple("".join("1" if m >> b & 1 else "0" for b in range(4)) for m in range(16))


def fmt_exp(key: int) -> str:
    """The PBW / symmetric monomial of a key, e.g. 'H1^2 * E3'; identity prints as '1'."""
    return " * ".join([GEN_NAMES[i] if e == 1 else f"{GEN_NAMES[i]}^{e}"
                       for i, e in enumerate(exponents(key)) if e]) or "1"


def fmt_mask(mask: int, sep: str) -> str:
    """Clifford ('*') or exterior ('^') monomial over the p-generators."""
    return _MASK_TEXTS[sep][mask]


def fmt_coeff(n: int, den: int) -> str:
    """The coefficient n / den as str(Fraction(n, den)) prints it; an
    EngineError if a part has more digits than Python turns into text."""
    g = gcd(n, den)
    try:
        return str(n // g) if g == den else f"{n // g}/{den // g}"
    except ValueError:
        raise EngineError(f"a coefficient has more than {sys.get_int_max_str_digits()} "
                          "digits, too many to print") from None


def join_terms(pairs: list[tuple[int, str]], den: int) -> str:
    """Render numerator/body pairs, each numerator over den > 0, as a sum in
    canonical text."""
    if not pairs:
        return "0"
    out = []
    for idx, (c, body) in enumerate(pairs):
        neg = c < 0
        mag = -c if neg else c
        if body == "1":
            chunk = fmt_coeff(mag, den)
        elif mag == den:
            chunk = body
        else:
            chunk = f"{fmt_coeff(mag, den)} * {body}"
        if idx == 0:
            out.append(("-" + chunk) if neg else chunk)
        else:
            out.append((" - " if neg else " + ") + chunk)
    return "".join(out)


def exp_sort_key(key: int) -> tuple:
    """(degree, exponents) of a key of mask 0."""
    return (sum(exponents(key)), key)


def mask_sort_key(mask: int) -> tuple:
    """(degree, bits): masks by degree, then by their generators in order."""
    return _MASK_SORT_KEYS[mask]


def pair_sort_key(key: int) -> tuple:
    """(total degree, exponent degree, exponents, mask degree, mask bits):
    graded, then by the exponents as exp_sort_key orders them, then by the
    mask as mask_sort_key orders it."""
    n = sum(exponents(key))
    pc, bits = _MASK_SORT_KEYS[key & 15]
    return (n + pc, n, key >> 4, pc, bits)
