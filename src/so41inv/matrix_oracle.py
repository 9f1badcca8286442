"""Ground truth realization of the basis as 5x5 complex matrices.

All arithmetic is exact over the Gaussian rationals. The matrices realize
so(4,1) inside gl(5): X is a member iff X^T = -gamma X gamma with
gamma = diag(1,1,1,1,-1), and every basis matrix is traceless. The abstract
commutator table used everywhere else in the package is certified by
evaluating each entry here: the matrix bracket of two basis matrices must
equal the table's combination of basis matrices, which settles the entry
because real_rank proves the ten matrices linearly independent over C.
"""
from __future__ import annotations

from enum import IntEnum
from fractions import Fraction
from functools import cache

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


def mat_sub(a: Matrix5, b: Matrix5) -> Matrix5:
    return tuple(tuple(x - y for x, y in zip(ra, rb)) for ra, rb in zip(a, b))


def mat_mul(a: Matrix5, b: Matrix5) -> Matrix5:
    out = _zero()
    for i in range(5):
        ra = a[i]
        for k in range(5):
            f = ra[k]
            if not f:
                continue
            rb = b[k]
            ro = out[i]
            for j in range(5):
                if rb[j]:
                    ro[j] = ro[j] + f * rb[j]
    return _freeze(out)


def mat_scale(c: GaussRational, a: Matrix5) -> Matrix5:
    return tuple(tuple(c * x for x in row) for row in a)


def mat_transpose(a: Matrix5) -> Matrix5:
    return tuple(tuple(a[j][i] for j in range(5)) for i in range(5))


def mat_trace(a: Matrix5) -> GaussRational:
    t = GR0
    for i in range(5):
        t = t + a[i][i]
    return t


def matrix_bracket(a: Matrix5, b: Matrix5) -> Matrix5:
    return mat_sub(mat_mul(a, b), mat_mul(b, a))


GAMMA: Matrix5 = _build([(1, 1, GR1), (2, 2, GR1), (3, 3, GR1), (4, 4, GR1), (5, 5, -GR1)])

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
    """Membership test: m^T = -gamma m gamma and tr(m) = 0."""
    if mat_trace(m):
        return False
    lhs = mat_transpose(m)
    rhs = mat_scale(-GR1, mat_mul(GAMMA, mat_mul(m, GAMMA)))
    return lhs == rhs


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


def mat_combination(mats: dict[Gen, Matrix5], coeffs) -> Matrix5:
    """The sum of c * mats[g] over the (g, c) pairs of coeffs."""
    out = _zero()
    for g, c in coeffs:
        c = GaussRational(c)
        for ro, row in zip(out, mats[g]):
            for j, x in enumerate(row):
                if x:
                    ro[j] = ro[j] + c * x
    return _freeze(out)


def _coordinates(m: Matrix5) -> dict[int, Fraction]:
    """The rational coordinates of m as a sparse row: the real part of entry
    k (row-major) at k, its imaginary part at 25 + k."""
    row = {}
    for k, z in enumerate(z for r in m for z in r):
        if z.re:
            row[k] = z.re
        if z.im:
            row[25 + k] = z.im
    return row


def real_rank(mats) -> int:
    """Rank over Q of the coordinates of each matrix and of i times it. That
    is twice the rank of the matrices over C, so 20 for the ten basis
    matrices exactly when they are linearly independent over C."""
    return sparse_rank([_coordinates(x) for m in mats for x in (m, mat_scale(GRI, m))])
