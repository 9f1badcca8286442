"""Plain-text element files.

Layout:

    so41inv-element v1
    algebra: uc
    sign: -1
    gram: trace/4
    order-hash: 0123456789abcdef
    terms: 2
    -1/2 | 0 0 0 0 0 0 0 0 0 0 | 1010
    3 | 1 0 0 0 0 0 0 0 0 0 | 0000

One term per line: exact rational coefficient, the ten PBW exponents in
basis order H1 H2 E1 E2 F1 F2 E3 E4 F3 F4, and the Clifford (or exterior)
mask as four characters over E3 E4 F3 F4, '1' where the generator occurs.
Terms are sorted graded-lexicographically (elements.pair_sort_key), so
dump(load(text)) == text byte for byte. A row is the formatted
coefficient followed by a text built once per monomial key and process
(_row_of, a functools.cache that also holds the key's pair_sort_key): the
ten exponents and the mask's field from elements.MASK_FIELDS. The reader
reads each coefficient with Fraction, once per distinct text (_coeff_of),
and each exponent and mask field pair once per distinct pair (_key_of),
mapping the mask field back through the inverse table, so any other four
characters are a bad mask field. Neither caches an error: a bad field
fails with the same text and line on every read. dump_element writes the
UTF-8 bytes in binary, so lines end in '\\n' on every platform. The
order-hash pins the basis order and normalization the coefficients refer
to; a file written under a different convention fails loudly instead of
reading back wrong numbers. It is a sha256 of the header fields, computed
once per header (order_hash is a functools.cache).
"""
from __future__ import annotations

import hashlib
from fractions import Fraction
from functools import cache

from .elements import GEN_NAMES, MASK_FIELDS, fmt_coeff, pair_sort_key
from .errors import ParseError
from .sym_ext import SEElement

MAGIC = "so41inv-element v1"

BASIS_ORDER = " ".join(GEN_NAMES)
P_ORDER = "E3 E4 F3 F4"

_GRAMS = ("trace", "trace/4")


@cache
def order_hash(algebra_id: str, sign: int, gram: str) -> str:
    seed = f"{algebra_id}|{sign}|{gram}|{BASIS_ORDER}|{P_ORDER}"
    return hashlib.sha256(seed.encode()).hexdigest()[:16]


def _header_of(el) -> tuple[str, int, str]:
    if isinstance(el, SEElement):
        return "se", 0, "none"
    # U(g) tensor C(p) is imported for its elements only, so se files are
    # written and read without it
    from .tensor_algebra import UCElement
    if isinstance(el, UCElement):
        pform = el.algebra.pform
        return "uc", pform.sign, pform.label
    raise TypeError(f"cannot serialize {type(el).__name__}")


_EXP_FMT = " ".join(["%d"] * 10)
_MASK_OF_FIELD = {field: mask for mask, field in enumerate(MASK_FIELDS)}


@cache
def _row_of(key: tuple) -> tuple[tuple, str]:
    """The sort key of a monomial key and the text of its row after the
    coefficient, built once per key a process writes."""
    exp, mask = key
    return pair_sort_key(key), f" | {_EXP_FMT % exp} | {MASK_FIELDS[mask]}"


def dumps_element(el) -> str:
    algebra_id, sign, gram = _header_of(el)
    lines = [
        MAGIC,
        f"algebra: {algebra_id}",
        f"sign: {sign}",
        f"gram: {gram}",
        f"order-hash: {order_hash(algebra_id, sign, gram)}",
        f"terms: {len(el)}",
    ]
    den = el.den
    # sort keys are distinct, so the sort never compares the row texts
    rows = sorted([_row_of(key) + (c,) for key, c in el.num.items()])
    lines += [f"{c}{tail}" if den == 1 else f"{fmt_coeff(c, den)}{tail}"
              for _, tail, c in rows]
    return "\n".join(lines) + "\n"


def dump_element(el, path: str) -> None:
    # binary, so every line ends in a bare newline on every platform
    with open(path, "wb") as fh:
        fh.write(dumps_element(el).encode())


def _expect(lines: list[str], lineno: int, prefix: str) -> str:
    if lineno >= len(lines):
        raise ParseError(f"missing {prefix!r} line", lineno + 1)
    line = lines[lineno]
    if not line.startswith(prefix):
        raise ParseError(f"expected {prefix!r}, found {line!r}", lineno + 1)
    return line[len(prefix):].strip()


@cache
def _coeff_of(text: str) -> Fraction:
    """A term's coefficient, read by Fraction once per distinct text."""
    return Fraction(text)


@cache
def _key_of(exp_field: str, mask_field: str) -> tuple:
    """The monomial key of a term's exponent and mask fields, read once per
    distinct pair; ValueError with the ParseError text for a bad field."""
    try:
        exp = tuple(map(int, exp_field.split()))
    except ValueError as exc:
        raise ValueError(f"bad term field: {exc}") from exc
    if len(exp) != 10 or any(e < 0 for e in exp):
        raise ValueError("exponent field needs ten nonnegative integers")
    mask = _MASK_OF_FIELD.get(mask_field)
    if mask is None:
        raise ValueError(f"bad mask field {mask_field!r}")
    return exp, mask


def _header_int(text: str, lineno: int) -> int:
    try:
        return int(text)
    except ValueError as exc:
        raise ParseError(f"bad header number: {exc}", lineno) from exc


def loads_element(text: str):
    lines = text.splitlines()
    if not lines or lines[0].strip() != MAGIC:
        raise ParseError(f"not an element file (missing {MAGIC!r})", 1)
    algebra_id = _expect(lines, 1, "algebra:")
    sign_text = _expect(lines, 2, "sign:")
    gram = _expect(lines, 3, "gram:")
    stored_hash = _expect(lines, 4, "order-hash:")
    count_text = _expect(lines, 5, "terms:")
    sign = _header_int(sign_text, 3)
    count = _header_int(count_text, 6)
    if count < 0:
        raise ParseError(f"negative term count {count}", 6)
    if len(lines) > 6 + count:
        raise ParseError(f"expected {count} terms, file has more lines", 7 + count)
    if algebra_id not in ("uc", "se"):
        raise ParseError(f"unknown algebra id {algebra_id!r}", 2)
    if stored_hash != order_hash(algebra_id, sign, gram):
        raise ParseError("order-hash mismatch: file was written under a "
                         "different basis order or normalization", 5)

    terms = {}
    for i in range(count):
        lineno = 6 + i
        if lineno >= len(lines):
            raise ParseError(f"expected {count} terms, file ends after {i}",
                             lineno + 1)
        parts = [p.strip() for p in lines[lineno].split("|")]
        if len(parts) != 3:
            raise ParseError("term line needs 'coeff | exponents | mask'",
                             lineno + 1)
        try:
            coeff = _coeff_of(parts[0])
        except (ValueError, ZeroDivisionError) as exc:
            raise ParseError(f"bad term field: {exc}", lineno + 1) from exc
        try:
            key = _key_of(parts[1], parts[2])
        except ValueError as exc:
            raise ParseError(str(exc), lineno + 1) from exc
        if key in terms:
            raise ParseError("duplicate term key", lineno + 1)
        if coeff:
            terms[key] = coeff

    if algebra_id == "se":
        return SEElement(terms)
    if gram not in _GRAMS:
        raise ParseError(f"unknown gram label {gram!r}", 4)
    if sign not in (1, -1):
        raise ParseError(f"bad sign {sign} for a uc element", 3)
    from .tensor_algebra import UCElement, convention_algebra
    return UCElement(terms, convention_algebra(f"gram={gram} sign={sign:+d}"))


def load_element(path: str):
    with open(path, encoding="utf-8") as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError as exc:
            raise ParseError(f"not an element file (byte {exc.start} is not UTF-8)", 1) from exc
    return loads_element(text)
