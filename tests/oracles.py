"""Test-only reference implementations that share no code with the engine
paths they check: a Fraction echelon kept fully reduced on every insert,
and the zero-weight block found by filtering every monomial key of a degree."""
from fractions import Fraction

from so41inv.sym_ext import key_weight


class FractionEchelon:
    """Reduced row echelon basis over Q, maintained in Fraction arithmetic:
    each new row is normalized to pivot 1 and cleared out of every stored
    row. Rows are dicts {column: Fraction}, keyed by pivot column."""

    def __init__(self):
        self.rows: dict[int, dict[int, Fraction]] = {}

    @property
    def rank(self) -> int:
        return len(self.rows)

    def reduce(self, vec: dict) -> dict[int, Fraction]:
        res = {c: Fraction(v) for c, v in vec.items() if v}
        for col in sorted(self.rows):
            f = res.get(col)
            if not f:
                continue
            for c, v in self.rows[col].items():
                nv = res.get(c, Fraction(0)) - f * v
                if nv:
                    res[c] = nv
                else:
                    res.pop(c, None)
        return res

    def insert(self, vec: dict) -> bool:
        res = self.reduce(vec)
        if not res:
            return False
        piv = min(res)
        inv = 1 / res[piv]
        row = {c: v * inv for c, v in res.items()}
        for prow in self.rows.values():
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

    def contains(self, vec: dict) -> bool:
        return not self.reduce(vec)


def rref_kernel(rows: list[dict], ncols: int) -> list[dict[int, Fraction]]:
    """One kernel vector per free column, read off the reduced echelon form."""
    ech = FractionEchelon()
    for r in rows:
        ech.insert(r)
    kernel = []
    for free in range(ncols):
        if free in ech.rows:
            continue
        vec = {free: Fraction(1)}
        for pcol, prow in ech.rows.items():
            c = prow.get(free)
            if c:
                vec[pcol] = -c
        kernel.append(vec)
    return kernel


def _compositions(total: int, slots: int):
    """All tuples of `slots` nonnegative ints summing to `total`."""
    if slots == 1:
        yield (total,)
        return
    for head in range(total + 1):
        for rest in _compositions(total - head, slots - 1):
            yield (head,) + rest


def graded_keys(n: int) -> list[tuple]:
    """All monomial keys of total degree n, symmetric part times exterior
    part, sorted."""
    out = []
    for mask in range(16):
        k = bin(mask).count("1")
        if k > n:
            continue
        for exp in _compositions(n - k, 10):
            out.append((exp, mask))
    out.sort()
    return out


def filtered_zero_weight_keys(n: int) -> list[tuple]:
    return [key for key in graded_keys(n) if key_weight(key) == (0, 0)]
