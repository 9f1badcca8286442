"""Exact sparse linear algebra over the rationals: one elimination engine.

The sparse echelon class backs every rank and kernel of the package (graded
pieces of S(g) tensor Lambda(p), the symbols of the freeness checks and the
independence of the 5x5 basis matrices), where vectors are dictionaries
keyed by ordered column keys. It is fraction-free: rows are scaled to Python
ints once, eliminated by gcd-primitive integer combinations (in the spirit of
Bareiss, Math. Comp. 1968), and only the kernel vectors become Fractions.
"""
from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm


def _int_row(vec: dict) -> dict:
    """A sparse rational row times the lcm of its denominators: int entries,
    no zeros, and the same span. A row of ints is only copied without its
    zeros."""
    row = {c: v for c, v in vec.items() if v}
    if all(type(v) is int for v in row.values()):
        return row
    d = lcm(*(v.denominator for v in row.values()))
    return {c: v.numerator * (d // v.denominator) for c, v in row.items()}


def _eliminate(res: dict[int, int], prow: dict[int, int], col: int) -> dict[int, int]:
    """res with column col cleared by prow: res is scaled by the least factor
    that makes the step exact, and may be updated in place."""
    g = gcd(res[col], prow[col])
    f, fp = prow[col] // g, res[col] // g
    if f != 1:
        res = {c: v * f for c, v in res.items()}
    for c, v in prow.items():
        nv = res.get(c, 0) - fp * v
        if nv:
            res[c] = nv
        else:
            del res[c]
    return res


class RationalEchelon:
    """Incrementally maintained row echelon basis of a sparse rational row
    space, kept fraction-free.

    An inserted row is scaled to ints by the lcm of its denominators and
    reduced against the stored rows by integer combinations, eliminating its
    leading column each time (gcd-primitive elimination, no division). What
    is left, if anything, is stored as a primitive int row with a positive
    leading entry, keyed by that leading column: rows[pivot col] -> {column:
    int}, newest last. The rows are triangular and never back-reduced;
    sparse_kernel back-substitutes once, to the reduced echelon form."""

    def __init__(self):
        self.rows: dict[int, dict[int, int]] = {}  # pivot col -> row

    @property
    def rank(self) -> int:
        return len(self.rows)

    def _residual(self, vec: dict[int, Fraction]) -> dict[int, int]:
        """Integer multiple of vec minus a combination of the stored rows,
        whose leading column is not a pivot; empty iff vec is in the span."""
        res = _int_row(vec)
        rows = self.rows
        while res:
            col = min(res)
            prow = rows.get(col)
            if prow is None:
                break
            res = _eliminate(res, prow, col)
        return res

    def insert(self, vec: dict[int, Fraction]) -> bool:
        """Insert a vector; returns True if it enlarged the span."""
        res = self._residual(vec)
        if not res:
            return False
        piv = min(res)
        g = gcd(*res.values())
        if res[piv] < 0:
            g = -g
        self.rows[piv] = {c: v // g for c, v in res.items()}
        return True

    def contains(self, vec: dict[int, Fraction]) -> bool:
        return not self._residual(vec)


def transpose(rows: list[dict[int, Fraction]], ncols: int) -> list[dict[int, Fraction]]:
    """The sparse matrix with rows given over columns 0..ncols-1, read
    column by column: one row per column, over the row positions."""
    out: list[dict[int, Fraction]] = [{} for _ in range(ncols)]
    for i, row in enumerate(rows):
        for c, v in row.items():
            out[c][i] = v
    return out


def sparse_rank(rows: list[dict[int, Fraction]]) -> int:
    ech = RationalEchelon()
    for r in rows:
        ech.insert(r)
    return ech.rank


def sparse_kernel(rows: list[dict[int, Fraction]], ncols: int) -> list[dict[int, Fraction]]:
    """Exact kernel basis of the matrix whose rows are given (as sparse dicts
    over columns 0..ncols-1). Returns one kernel vector per free column: 1
    there, minus the reduced echelon entries of that column at the pivots."""
    ech = RationalEchelon()
    for r in rows:
        ech.insert(r)
    # back-substitute from the last pivot up: a reduced row has no entry at
    # any other pivot, so clearing one such column never brings another back
    reduced: dict[int, dict[int, int]] = {}
    for pcol in sorted(ech.rows, reverse=True):
        row = dict(ech.rows[pcol])
        for c in [c for c in row if c != pcol and c in ech.rows]:
            row = _eliminate(row, reduced[c], c)
        reduced[pcol] = row
    kernel = {free: {free: Fraction(1)} for free in range(ncols) if free not in ech.rows}
    for pcol, row in reduced.items():
        for c, v in row.items():
            if c in kernel:
                kernel[c][pcol] = Fraction(-v, row[pcol])
    return list(kernel.values())
