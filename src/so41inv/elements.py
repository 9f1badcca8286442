"""Shared machinery for sparse linear-combination elements and the canonical
text format they print to.

Every algebra element in the package is a dict {key: Fraction} wrapped in a
thin class; subclasses choose the key type and the product. Canonical text is
frozen so that printing and re-parsing round-trips exactly.
"""
from __future__ import annotations

from fractions import Fraction

from .matrix_oracle import Gen

ZERO_EXP = (0,) * 10


def from_int_terms(el, ints: dict, d: int):
    """Fill the empty element `el` with ints[k] / d, making one Fraction per
    nonzero term; the product kernels accumulate in ints and end here."""
    el.terms = {k: Fraction(c, d) for k, c in ints.items() if c}
    return el


class LinearElement:
    """Base class: a finite rational combination of monomial keys."""

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        clean = {}
        if terms:
            for k, c in terms.items():
                c = Fraction(c)
                if c:
                    clean[k] = c
        self.terms = clean

    # -- linear structure ---------------------------------------------------

    def _wrap(self, terms):
        return type(self)(terms)

    def _compatible(self, other) -> bool:
        return type(other) is type(self)

    def __add__(self, other):
        if not self._compatible(other):
            return NotImplemented
        out = dict(self.terms)
        for k, c in other.terms.items():
            nc = out.get(k, Fraction(0)) + c
            if nc:
                out[k] = nc
            else:
                out.pop(k, None)
        return self._wrap(out)

    def __sub__(self, other):
        if not self._compatible(other):
            return NotImplemented
        return self + (-other)

    def __neg__(self):
        return self._wrap({k: -c for k, c in self.terms.items()})

    def scale(self, c):
        c = Fraction(c)
        if not c:
            return self._wrap({})
        return self._wrap({k: v * c for k, v in self.terms.items()})

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
        if isinstance(other, (int, Fraction)):
            return self.scale(Fraction(1, 1) / other)
        return NotImplemented

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
        return self._compatible(other) and self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def __bool__(self):
        return bool(self.terms)

    def is_zero(self) -> bool:
        return not self.terms

    def __len__(self):
        return len(self.terms)

    def items(self):
        return self.terms.items()


# -- canonical text ---------------------------------------------------------

def fmt_exp(exp: tuple) -> str:
    """PBW / symmetric monomial, e.g. 'H1^2 * E3'; identity prints as '1'."""
    bits = []
    for i, e in enumerate(exp):
        if e == 1:
            bits.append(Gen(i).name)
        elif e:
            bits.append(f"{Gen(i).name}^{e}")
    return " * ".join(bits) if bits else "1"


def mask_bits(mask: int) -> tuple[int, ...]:
    return tuple(b for b in range(4) if mask >> b & 1)


def fmt_mask(mask: int, sep: str) -> str:
    """Clifford ('*') or exterior ('^') monomial over the p-generators."""
    from .matrix_oracle import P_GENS

    bits = [P_GENS[b].name for b in mask_bits(mask)]
    return f" {sep} ".join(bits) if bits else "1"


def join_terms(pairs: list[tuple[Fraction, str]]) -> str:
    """Render coefficient/body pairs as a sum in canonical text."""
    if not pairs:
        return "0"
    out = []
    for idx, (c, body) in enumerate(pairs):
        neg = c < 0
        mag = -c if neg else c
        if body == "1":
            chunk = str(mag)
        elif mag == 1:
            chunk = body
        else:
            chunk = f"{mag} * {body}"
        if idx == 0:
            out.append(("-" + chunk) if neg else chunk)
        else:
            out.append((" - " if neg else " + ") + chunk)
    return "".join(out)


def exp_sort_key(exp: tuple) -> tuple:
    return (sum(exp), exp)


def mask_sort_key(mask: int) -> tuple:
    return (bin(mask).count("1"), mask_bits(mask))


def pair_sort_key(key: tuple) -> tuple:
    exp, mask = key
    deg = sum(exp) + bin(mask).count("1")
    return (deg, exp_sort_key(exp), mask_sort_key(mask))
