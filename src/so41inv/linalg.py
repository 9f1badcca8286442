"""Exact sparse linear algebra over the rationals: one elimination engine.

The sparse echelon class backs every rank and kernel of the package (graded
pieces of S(g) tensor Lambda(p), the symbols of the freeness checks and the
independence of the 5x5 basis matrices), where vectors are dictionaries
keyed by ordered column keys. It is fraction-free: rows are scaled to Python
ints once, eliminated by gcd-primitive integer combinations (in the spirit of
Bareiss, Math. Comp. 1968), and each kernel vector comes back as int
numerators over one denominator. Each step clears the leading column of the
residual, taken off a heap of its columns rather than found by a scan. The
one kernel, dependency_kernel, is read from the linear dependencies among
rows: each row carries a tag column of its own, so the tags left on a row
whose own columns reduce to zero are a dependency. The kernel of a matrix
is the dependencies among its columns, so a caller holding the columns (as
the invariant dimensions do) passes them as the rows.
"""
from __future__ import annotations

from fractions import Fraction
from heapq import heapify, heappop, heappush
from math import gcd, lcm


def _int_row(vec: dict) -> dict:
    """A sparse rational row times the lcm of its denominators: int entries,
    no zeros, and the same span, in a new dict. A row of nonzero ints is
    copied as it is."""
    values = vec.values()
    if set(map(type, values)) <= {int} and 0 not in values:
        return dict(vec)
    row = {c: v for c, v in vec.items() if v}
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
    dependency_kernel back-substitutes once, to the reduced echelon form."""

    def __init__(self):
        self.rows: dict[int, dict[int, int]] = {}  # pivot col -> row

    @property
    def rank(self) -> int:
        return len(self.rows)

    def _residual(self, vec: dict[int, Fraction]) -> dict[int, int]:
        """Integer multiple of vec minus a combination of the stored rows,
        whose leading column is not a pivot; empty iff vec is in the span.
        The elimination step of _eliminate, inlined: this loop is where the
        graded dimensions spend their time. The leading column comes off a
        heap of the columns of res, the same column min(res) would give: a
        column cleared to 0 stays on the heap and is skipped when it comes
        up, and a column filled in is pushed. A step touches only columns
        from its own on, so a cleared pivot column never comes back."""
        res = _int_row(vec)
        rows = self.rows
        get = res.get
        heap = list(res)
        heapify(heap)
        while heap:
            col = heappop(heap)
            if col not in res:
                continue
            prow = rows.get(col)
            if prow is None:
                break
            a, b = res[col], prow[col]
            if b != 1:
                g = gcd(a, b)
                if g != b:
                    f = b // g
                    res = {c: v * f for c, v in res.items()}
                    get = res.get
                a //= g
            for c, v in prow.items():
                old = get(c)
                if old is None:
                    res[c] = -a * v
                    heappush(heap, c)
                    continue
                nv = old - a * v
                if nv:
                    res[c] = nv
                else:
                    del res[c]
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
        self.rows[piv] = res if g == 1 else {c: v // g for c, v in res.items()}
        return True


def sparse_rank(rows: list[dict[int, Fraction]]) -> int:
    ech = RationalEchelon()
    for r in rows:
        ech.insert(r)
    return ech.rank


def dependency_kernel(rows: dict[int, dict[int, Fraction]]) -> list[tuple[dict[int, int], int]]:
    """The linear dependencies among rows, given as {tag: row} with int tags
    >= 0: the kernel of the matrix whose columns are the rows, as vectors
    over the tags. Returns the unique basis whose last nonzero tags are
    distinct, each vector 1 at its last tag and 0 at the others' (the
    reduced echelon form of the dependencies, last tag leading), ordered by
    last tag, each as int numerators over a positive denominator. For a
    matrix read column by column that is the basis of one vector per free
    column of its reduced echelon form. The rows are inserted in the order
    given; the basis does not depend on it.

    Each row is extended by a tag column of its own, after every column of
    the rows and in decreasing tag order, so a row that reduces to zero
    leaves a dependency led by the tag column of its last tag."""
    top = 1 + max((max(r) for r in rows.values() if r), default=-1)
    last = top + max(rows, default=0)  # tag t sits in column last - t
    ech = RationalEchelon()
    for t, row in rows.items():
        ech.insert({**row, last - t: 1})
    deps = {p: row for p, row in ech.rows.items() if p >= top}
    # back-substitute from the last pivot up: a reduced row has no entry at
    # any other pivot, so clearing one such column never brings another back
    reduced: dict[int, dict[int, int]] = {}
    for p in sorted(deps, reverse=True):
        row = deps[p]
        for c in [c for c in row if c != p and c in deps]:
            row = _eliminate(row, reduced[c], c)
        reduced[p] = row
    return [({last - c: v for c, v in row.items()}, row[p]) for p, row in reduced.items()]

