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
Terms are sorted graded-lexicographically, so dump(load(text)) == text
byte for byte. The order-hash pins the basis order and normalization the
coefficients refer to; a file written under a different convention fails
loudly instead of reading back wrong numbers.
"""
from __future__ import annotations

import hashlib
from fractions import Fraction

from .elements import pair_sort_key
from .errors import ParseError
from .matrix_oracle import Gen
from .sym_ext import SEElement

MAGIC = "so41inv-element v1"

BASIS_ORDER = " ".join(g.name for g in Gen)
P_ORDER = "E3 E4 F3 F4"

_GRAMS = ("trace", "trace/4")


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


def _mask_str(mask: int) -> str:
    return "".join("1" if mask >> b & 1 else "0" for b in range(4))


def _mask_of(text: str, lineno: int) -> int:
    if len(text) != 4 or any(ch not in "01" for ch in text):
        raise ParseError(f"bad mask field {text!r}", lineno)
    return sum(1 << b for b, ch in enumerate(text) if ch == "1")


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
    terms = el.terms
    for key in sorted(terms, key=pair_sort_key):
        exp, mask = key
        coeff = terms[key]
        lines.append(
            f"{coeff} | {' '.join(str(e) for e in exp)} | {_mask_str(mask)}")
    return "\n".join(lines) + "\n"


def dump_element(el, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps_element(el))


def _expect(lines: list[str], lineno: int, prefix: str) -> str:
    if lineno >= len(lines):
        raise ParseError(f"missing {prefix!r} line", lineno + 1)
    line = lines[lineno]
    if not line.startswith(prefix):
        raise ParseError(f"expected {prefix!r}, found {line!r}", lineno + 1)
    return line[len(prefix):].strip()


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
            coeff = Fraction(parts[0])
            exp = tuple(int(tok) for tok in parts[1].split())
        except (ValueError, ZeroDivisionError) as exc:
            raise ParseError(f"bad term field: {exc}", lineno + 1) from exc
        if len(exp) != 10 or any(e < 0 for e in exp):
            raise ParseError("exponent field needs ten nonnegative integers",
                             lineno + 1)
        mask = _mask_of(parts[2], lineno + 1)
        key = (exp, mask)
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
