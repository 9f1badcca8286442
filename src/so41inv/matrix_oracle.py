"""Ground truth realization of the basis as 5x5 complex matrices.

All arithmetic is exact over the Gaussian rationals. The matrices realize
so(4,1) inside gl(5): X is a member iff X^T = -gamma X gamma with
gamma = diag(1,1,1,1,-1), that is x_ji = -gamma_i gamma_j x_ij entry by
entry, and every basis matrix is traceless. The abstract commutator table
used everywhere else in the package is certified by evaluating each entry
here (lie_core.certify_against_oracle), in Gaussian integers: the matrices
are scaled by the lcm D of their entry denominators (D = 2 for the basis) to
sparse maps (i, j) -> (re, im) of ints, and the bracket of two scaled basis
matrices, D^2 times theirs, must equal D^2 times the table's combination of
basis matrices. That settles the entry because the rank of the same int
coordinates proves the ten matrices linearly independent over C
(integer_real_rank).
"""
from __future__ import annotations

from enum import IntEnum
from fractions import Fraction
from functools import cache
from math import lcm

from .errors import SpanError
from .linalg import sparse_rank


class Gen(IntEnum):
    """Basis generators in the frozen order that defines the PBW normal form."""

    H1 = 0
    H2 = 1
    E1 = 2
    E2 = 3
    F1 = 4
    F2 = 5
    E3 = 6
    E4 = 7
    F3 = 8
    F4 = 9


K_GENS = (Gen.H1, Gen.H2, Gen.E1, Gen.E2, Gen.F1, Gen.F2)
P_GENS = (Gen.E3, Gen.E4, Gen.F3, Gen.F4)
GEN_BY_NAME = {g.name: g for g in Gen}


class GaussRational:
    """An element of Q(i), kept as a pair of Fractions."""

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        # the arithmetic below passes Fractions, which need no new object
        self.re = re if type(re) is Fraction else Fraction(re)
        self.im = im if type(im) is Fraction else Fraction(im)

    def __add__(self, other):
        return GaussRational(self.re + other.re, self.im + other.im)

    def __sub__(self, other):
        return GaussRational(self.re - other.re, self.im - other.im)

    def __neg__(self):
        return GaussRational(-self.re, -self.im)

    def __mul__(self, other):
        return GaussRational(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    def __eq__(self, other):
        if not isinstance(other, GaussRational):
            return NotImplemented
        return self.re == other.re and self.im == other.im

    def __hash__(self):
        return hash((self.re, self.im))

    def __bool__(self):
        return bool(self.re) or bool(self.im)

    def __repr__(self):
        if not self.im:
            return str(self.re)
        if not self.re:
            return f"{self.im}i"
        sign = "+" if self.im > 0 else "-"
        return f"{self.re}{sign}{abs(self.im)}i"


GR0 = GaussRational(0)
GR1 = GaussRational(1)
GRI = GaussRational(0, 1)

Matrix5 = tuple  # 5-tuple of 5-tuples of GaussRational


def _zero() -> list[list[GaussRational]]:
    return [[GR0 for _ in range(5)] for _ in range(5)]


def _freeze(m: list[list[GaussRational]]) -> Matrix5:
    return tuple(tuple(row) for row in m)


def _build(entries: list[tuple[int, int, GaussRational]], scale: GaussRational = GR1) -> Matrix5:
    """Matrix from 1-indexed (i, j, value) entries, times an overall scale."""
    m = _zero()
    for i, j, v in entries:
        m[i - 1][j - 1] = m[i - 1][j - 1] + scale * v
    return _freeze(m)


def mat_trace(a: Matrix5) -> GaussRational:
    t = GR0
    for i in range(5):
        t = t + a[i][i]
    return t


GAMMA_SIGNS = (1, 1, 1, 1, -1)  # the diagonal of gamma

HALF = GaussRational(Fraction(1, 2))


@cache
def basis_matrices() -> dict[Gen, Matrix5]:
    """The ten frozen basis matrices, built once per process (shared; do not
    mutate)."""
    m = {
        Gen.H1: _build([(1, 2, GRI), (2, 1, -GRI)]),
        Gen.H2: _build([(3, 4, GRI), (4, 3, -GRI)]),
        Gen.E1: _build(
            [
                (1, 3, GR1), (2, 4, -GR1), (2, 3, -GRI), (1, 4, -GRI),
                (3, 1, -GR1), (4, 2, GR1), (3, 2, GRI), (4, 1, GRI),
            ],
            HALF,
        ),
        Gen.F1: _build(
            [
                (1, 3, GR1), (2, 4, -GR1), (2, 3, GRI), (1, 4, GRI),
                (3, 1, -GR1), (4, 2, GR1), (3, 2, -GRI), (4, 1, -GRI),
            ],
            -HALF,
        ),
        Gen.E2: _build(
            [
                (1, 3, GR1), (2, 4, GR1), (2, 3, -GRI), (1, 4, GRI),
                (3, 1, -GR1), (4, 2, -GR1), (3, 2, GRI), (4, 1, -GRI),
            ],
            HALF,
        ),
        Gen.F2: _build(
            [
                (1, 3, GR1), (2, 4, GR1), (2, 3, GRI), (1, 4, -GRI),
                (3, 1, -GR1), (4, 2, -GR1), (3, 2, -GRI), (4, 1, GRI),
            ],
            -HALF,
        ),
        Gen.E3: _build([(1, 5, GR1), (2, 5, -GRI), (5, 1, GR1), (5, 2, -GRI)]),
        Gen.F3: _build([(1, 5, GR1), (2, 5, GRI), (5, 1, GR1), (5, 2, GRI)]),
        Gen.E4: _build([(3, 5, GR1), (4, 5, -GRI), (5, 3, GR1), (5, 4, -GRI)]),
        Gen.F4: _build([(3, 5, GR1), (4, 5, GRI), (5, 3, GR1), (5, 4, GRI)]),
    }
    return m


def is_so41_member(m: Matrix5) -> bool:
    """Membership test: m^T = -gamma m gamma and tr(m) = 0. As gamma is
    diagonal, the first is m_ji = -gamma_i gamma_j m_ij for each i <= j."""
    if mat_trace(m):
        return False
    for i, gi in enumerate(GAMMA_SIGNS):
        for j in range(i, 5):
            want = m[i][j] if gi != GAMMA_SIGNS[j] else -m[i][j]
            if m[j][i] != want:
                return False
    return True


def trace_form(x: Matrix5, y: Matrix5) -> GaussRational:
    """B(x, y) = tr(xy), summing only the diagonal of the product."""
    t = GR0
    for i in range(5):
        for k in range(5):
            if x[i][k] and y[k][i]:
                t = t + x[i][k] * y[k][i]
    return t


def trace_form_gens(a: Gen, b: Gen) -> Fraction:
    """Trace form between two basis generators; asserts the value is real."""
    v = trace_form(basis_matrices()[a], basis_matrices()[b])
    if v.im:
        raise SpanError(f"trace form B({a.name},{b.name}) is not real: {v!r}")
    return v.re


# -- Gaussian integer matrices --------------------------------------------------

IntMatrix = dict  # sparse (i, j) -> (re, im) of ints, 0-indexed, no zero entries


def gaussian_integer_matrices(mats) -> tuple[list[IntMatrix], int]:
    """Each matrix times D as an IntMatrix, and D: the lcm of the
    denominators of all their entries, so every scaled entry is an int."""
    mats = list(mats)
    d = lcm(*(x.denominator for m in mats for row in m for z in row for x in (z.re, z.im)))
    return [{(i, j): (int(z.re * d), int(z.im * d))
             for i, row in enumerate(m) for j, z in enumerate(row) if z}
            for m in mats], d


def int_combination(terms) -> IntMatrix:
    """The sum of c * m over the (m, c) pairs of terms, IntMatrix m and int c."""
    out: dict = {}
    for m, c in terms:
        for ij, (re, im) in m.items():
            out_re, out_im = out.get(ij, (0, 0))
            out[ij] = (out_re + c * re, out_im + c * im)
    return {ij: z for ij, z in out.items() if z != (0, 0)}


def _int_product(a: IntMatrix, b: IntMatrix) -> IntMatrix:
    """ab, possibly with zero entries."""
    out: dict = {}
    for (i, k), (ar, ai) in a.items():
        for (l, j), (br, bi) in b.items():
            if k == l:
                r, m = out.get((i, j), (0, 0))
                out[i, j] = (r + ar * br - ai * bi, m + ar * bi + ai * br)
    return out


def int_bracket(a: IntMatrix, b: IntMatrix) -> IntMatrix:
    """ab - ba, without zero entries."""
    return int_combination(((_int_product(a, b), 1), (_int_product(b, a), -1)))


def _coordinates(m: IntMatrix) -> tuple[dict[int, int], dict[int, int]]:
    """The rational coordinates of m and of i m, as sparse int rows: the real
    part of entry (i, j) at 5i + j, its imaginary part at 25 + 5i + j."""
    row, irow = {}, {}
    for (i, j), (re, im) in m.items():
        k = 5 * i + j
        if re:
            row[k] = irow[25 + k] = re
        if im:
            row[25 + k], irow[k] = im, -im
    return row, irow


def integer_real_rank(mats) -> int:
    """Rank over Q of the coordinates of each IntMatrix and of i times it.
    That is twice the rank of the matrices over C, so 20 for the ten scaled
    basis matrices exactly when they are linearly independent over C."""
    return sparse_rank([r for m in mats for r in _coordinates(m)])
