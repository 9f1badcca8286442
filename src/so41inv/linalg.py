"""Small exact linear algebra helpers over the rationals.

Dense routines are for tiny systems (structure constant extraction, the
Clifford alpha solve). The sparse echelon class backs everything that works
with graded pieces of S(g) tensor Lambda(p), where vectors are dictionaries
keyed by column index.
"""
from __future__ import annotations

from fractions import Fraction

from .errors import SolveError


def solve_exact(rows: list[list[Fraction]], rhs: list[Fraction]) -> list[Fraction]:
    """Solve A x = b exactly. Returns one solution (free variables pinned to
    zero); raises SolveError if the system is inconsistent."""
    m = len(rows)
    if m != len(rhs):
        raise ValueError("row/rhs length mismatch")
    n = len(rows[0]) if m else 0
    aug = [list(map(Fraction, rows[i])) + [Fraction(rhs[i])] for i in range(m)]
    pivots = []  # (row, col)
    r = 0
    for c in range(n):
        pr = None
        for i in range(r, m):
            if aug[i][c]:
                pr = i
                break
        if pr is None:
            continue
        aug[r], aug[pr] = aug[pr], aug[r]
        pv = aug[r][c]
        aug[r] = [v / pv for v in aug[r]]
        for i in range(m):
            if i != r and aug[i][c]:
                f = aug[i][c]
                aug[i] = [a - f * b for a, b in zip(aug[i], aug[r])]
        pivots.append((r, c))
        r += 1
        if r == m:
            break
    for i in range(r, m):
        if aug[i][n]:
            raise SolveError("inconsistent linear system")
    x = [Fraction(0)] * n
    for row, col in pivots:
        x[col] = aug[row][n]
    return x


class RationalEchelon:
    """Incrementally maintained reduced row echelon basis of a sparse row
    space. Rows are dicts {column: Fraction}."""

    def __init__(self):
        self.rows: dict[int, dict[int, Fraction]] = {}  # pivot col -> row

    @property
    def rank(self) -> int:
        return len(self.rows)

    def reduce(self, vec: dict[int, Fraction]) -> dict[int, Fraction]:
        """Fully reduce vec against the stored basis; returns the residual
        (a new dict, never aliasing vec)."""
        res = dict(vec)
        # repeatedly kill the smallest reducible coordinate
        changed = True
        while changed:
            changed = False
            for col in sorted(res):
                row = self.rows.get(col)
                if row is None:
                    continue
                f = res[col]
                for c, v in row.items():
                    nv = res.get(c, Fraction(0)) - f * v
                    if nv:
                        res[c] = nv
                    else:
                        res.pop(c, None)
                changed = True
                break
        return res

    def insert(self, vec: dict[int, Fraction]) -> bool:
        """Insert a vector; returns True if it enlarged the span."""
        res = self.reduce(vec)
        if not res:
            return False
        piv = min(res)
        inv = 1 / res[piv]
        row = {c: v * inv for c, v in res.items()}
        # keep the basis fully reduced
        for pcol, prow in self.rows.items():
            f = prow.get(piv)
            if f:
                for c, v in row.items():
                    nv = prow.get(c, Fraction(0)) - f * v
                    if nv:
                        prow[c] = nv
                    else:
                        prow.pop(c, None)
        self.rows[piv] = row
        return True

    def contains(self, vec: dict[int, Fraction]) -> bool:
        return not self.reduce(vec)

    def basis_rows(self) -> list[dict[int, Fraction]]:
        return [dict(self.rows[c]) for c in sorted(self.rows)]


def sparse_rank(rows: list[dict[int, Fraction]]) -> int:
    ech = RationalEchelon()
    for r in rows:
        ech.insert(r)
    return ech.rank


def sparse_rank_mod_p(rows: list[dict[int, int]], p: int) -> int:
    """Rank modulo the prime p of sparse integer rows, eliminated in Python
    ints (no bound on p)."""
    pivots: dict[int, dict[int, int]] = {}  # pivot col -> row, 1 at the pivot
    for row in rows:
        res = {c: v % p for c, v in row.items() if v % p}
        while res:
            col = min(res)
            prow = pivots.get(col)
            if prow is None:
                inv = pow(res[col], -1, p)
                pivots[col] = {c: v * inv % p for c, v in res.items()}
                break
            f = res[col]
            for c, v in prow.items():
                nv = (res.get(c, 0) - f * v) % p
                if nv:
                    res[c] = nv
                else:
                    res.pop(c, None)
    return len(pivots)


def sparse_kernel(rows: list[dict[int, Fraction]], ncols: int) -> list[dict[int, Fraction]]:
    """Exact kernel basis of the matrix whose rows are given (as sparse dicts
    over columns 0..ncols-1). Returns one kernel vector per free column."""
    ech = RationalEchelon()
    for r in rows:
        ech.insert(r)
    pivot_cols = set(ech.rows)
    kernel = []
    for free in range(ncols):
        if free in pivot_cols:
            continue
        vec = {free: Fraction(1)}
        for pcol, prow in ech.rows.items():
            c = prow.get(free)
            if c:
                vec[pcol] = -c
        kernel.append(vec)
    return kernel
