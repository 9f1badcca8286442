"""Ground truth realization of the basis as 5x5 complex matrices.

The matrices realize so(4,1) inside gl(5): X is a member iff
X^T = -gamma X gamma with gamma = diag(1,1,1,1,-1), that is
x_ji = -gamma_i gamma_j x_ij entry by entry, and every basis matrix is
traceless. All arithmetic is exact, in Gaussian integers: a matrix over Q(i)
is a GaussMatrix, its nonzero entries (i, j) -> (re, im) of ints, kept as
sparse rows of tuples, over one positive int scale. The ten basis matrices
are built over D = 2 on first use, once per process, and handed out
read-only (basis_matrices). Membership, the trace, the trace form
B(x, y) = tr(xy) and the products of a bracket read these ints directly; a
product meets each entry x_ik of its left factor with row k of its right
factor.

The abstract commutator table used everywhere else in the package is
certified by evaluating each entry here, once per process
(lie_core.table_certificate, which certify_against_oracle reads):
bracket_residual gives [M_a, M_b] minus the table's combination of basis
matrices, in ints over one scale. That settles the entry because the rank of
the same int coordinates proves the ten matrices linearly independent over C
(integer_real_rank). gauss_text prints a value of Q(i) given as ints over a
scale, in the notation of the verify output.
"""
from __future__ import annotations

from enum import IntEnum
from fractions import Fraction
from functools import cache
from math import lcm
from types import MappingProxyType
from typing import NamedTuple

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

GAMMA_SIGNS = (1, 1, 1, 1, -1)  # the diagonal of gamma


def gauss_text(re: int, im: int, scale: int = 1) -> str:
    """(re + im i) / scale, printed as "0", "-3/2", "1i" or "1/2-1i"."""
    re, im = Fraction(re, scale), Fraction(im, scale)
    if not im:
        return str(re)
    if not re:
        return f"{im}i"
    return f"{re}{'+' if im > 0 else '-'}{abs(im)}i"


class GaussMatrix(NamedTuple):
    """A 5x5 matrix over Q(i), immutable: rows[i] holds one (j, re, im) of
    ints for each nonzero entry of row i, in column order, and the matrix is
    those entries over the positive int scale."""

    rows: tuple
    scale: int


def gauss_matrix(entries: dict, scale: int) -> GaussMatrix:
    """The matrix of the 0-indexed entries (i, j) -> (re, im) of ints, over scale."""
    return GaussMatrix(tuple(tuple((j, *entries[i, j]) for j in range(5)
                                   if entries.get((i, j), (0, 0)) != (0, 0))
                             for i in range(5)), scale)


@cache
def basis_matrices() -> MappingProxyType:
    """The ten basis matrices over D = 2, built on first use and once per
    process; the mapping and every matrix in it are read-only."""
    # generator -> (f, entries): f / D times the Gaussian integers
    # re + im i at the 1-indexed (i, j, re, im) of entries
    table = {
        Gen.H1: (2, ((1, 2, 0, 1), (2, 1, 0, -1))),
        Gen.H2: (2, ((3, 4, 0, 1), (4, 3, 0, -1))),
        Gen.E1: (1, ((1, 3, 1, 0), (2, 4, -1, 0), (2, 3, 0, -1), (1, 4, 0, -1),
                     (3, 1, -1, 0), (4, 2, 1, 0), (3, 2, 0, 1), (4, 1, 0, 1))),
        Gen.F1: (-1, ((1, 3, 1, 0), (2, 4, -1, 0), (2, 3, 0, 1), (1, 4, 0, 1),
                      (3, 1, -1, 0), (4, 2, 1, 0), (3, 2, 0, -1), (4, 1, 0, -1))),
        Gen.E2: (1, ((1, 3, 1, 0), (2, 4, 1, 0), (2, 3, 0, -1), (1, 4, 0, 1),
                     (3, 1, -1, 0), (4, 2, -1, 0), (3, 2, 0, 1), (4, 1, 0, -1))),
        Gen.F2: (-1, ((1, 3, 1, 0), (2, 4, 1, 0), (2, 3, 0, 1), (1, 4, 0, -1),
                      (3, 1, -1, 0), (4, 2, -1, 0), (3, 2, 0, -1), (4, 1, 0, 1))),
        Gen.E3: (2, ((1, 5, 1, 0), (2, 5, 0, -1), (5, 1, 1, 0), (5, 2, 0, -1))),
        Gen.F3: (2, ((1, 5, 1, 0), (2, 5, 0, 1), (5, 1, 1, 0), (5, 2, 0, 1))),
        Gen.E4: (2, ((3, 5, 1, 0), (4, 5, 0, -1), (5, 3, 1, 0), (5, 4, 0, -1))),
        Gen.F4: (2, ((3, 5, 1, 0), (4, 5, 0, 1), (5, 3, 1, 0), (5, 4, 0, 1))),
    }
    return MappingProxyType({
        g: gauss_matrix({(i - 1, j - 1): (f * re, f * im) for i, j, re, im in entries}, 2)
        for g, (f, entries) in table.items()})


def mat_trace(m: GaussMatrix) -> tuple[int, int]:
    """tr(m) times m.scale, as (re, im)."""
    diagonal = [(re, im) for i, row in enumerate(m.rows) for j, re, im in row if j == i]
    return sum(re for re, _ in diagonal), sum(im for _, im in diagonal)


def is_so41_member(m: GaussMatrix) -> bool:
    """Membership test: m^T = -gamma m gamma and tr(m) = 0. As gamma is
    diagonal, the first is m_ji = -gamma_i gamma_j m_ij for every i, j: the
    nonzero entries are the same set after that map (so the diagonal is
    zero)."""
    entries = {(i, j, re, im) for i, row in enumerate(m.rows) for j, re, im in row}
    mirrored = set()
    for i, j, re, im in entries:
        s = -GAMMA_SIGNS[i] * GAMMA_SIGNS[j]
        mirrored.add((j, i, s * re, s * im))
    return mat_trace(m) == (0, 0) and entries == mirrored


def trace_form(x: GaussMatrix, y: GaussMatrix) -> tuple[int, int]:
    """B(x, y) = tr(xy) times x.scale * y.scale, as (re, im): the sum of
    x_ik y_ki, each entry x_ik meeting row k of y."""
    re = im = 0
    yrows = y.rows
    for i, row in enumerate(x.rows):
        for k, ar, ai in row:
            for j, br, bi in yrows[k]:
                if j == i:
                    re += ar * br - ai * bi
                    im += ar * bi + ai * br
    return re, im


def trace_form_gens(a: Gen, b: Gen) -> Fraction:
    """Trace form between two basis generators; asserts the value is real."""
    x, y = basis_matrices()[a], basis_matrices()[b]
    re, im = trace_form(x, y)
    if im:
        raise SpanError(f"trace form B({a.name},{b.name}) is not real: "
                        f"{gauss_text(re, im, x.scale * y.scale)}")
    return Fraction(re, x.scale * y.scale)


def bracket_residual(a: GaussMatrix, b: GaussMatrix, terms) -> tuple[dict, int]:
    """[a, b] minus the sum of c * m over the (m, c) pairs of terms, with
    int or Fraction c: its nonzero entries (i, j) -> (re, im) of ints, and
    the scale they are over (den * d^2, for the lcm den of the denominators
    of the c and the lcm d of the scales). The sums run in one flat list,
    the real part of entry (i, j) at 5i + j and its imaginary part 25 later."""
    den = lcm(*(c.denominator for _, c in terms))
    d = lcm(a.scale, b.scale, *(m.scale for m, _ in terms))
    f = den * (d // a.scale) * (d // b.scale)
    out = [0] * 50
    for x, y, fx in ((a, b, f), (b, a, -f)):  # f ab - f ba
        yrows = y.rows
        for i, row in enumerate(x.rows):
            for k, ar, ai in row:
                for j, br, bi in yrows[k]:
                    out[5 * i + j] += fx * (ar * br - ai * bi)
                    out[25 + 5 * i + j] += fx * (ar * bi + ai * br)
    for m, c in terms:
        fm = -int(c * den) * (d * d // m.scale)
        for i, row in enumerate(m.rows):
            for j, mr, mi in row:
                out[5 * i + j] += fm * mr
                out[25 + 5 * i + j] += fm * mi
    return ({divmod(k, 5): (out[k], out[25 + k]) for k in range(25) if out[k] or out[25 + k]},
            den * d * d)


def _coordinates(m: GaussMatrix) -> tuple[dict[int, int], dict[int, int]]:
    """The rational coordinates of m and of i m, times m.scale, as sparse
    int rows: the real part of entry (i, j) at 5i + j, its imaginary part at
    25 + 5i + j."""
    row, irow = {}, {}
    for i, entries in enumerate(m.rows):
        for j, re, im in entries:
            k = 5 * i + j
            if re:
                row[k] = irow[25 + k] = re
            if im:
                row[25 + k], irow[k] = im, -im
    return row, irow


def integer_real_rank(mats) -> int:
    """Rank over Q of the coordinates of each matrix and of i times it.
    That is twice the rank of the matrices over C, so 20 for the ten basis
    matrices exactly when they are linearly independent over C."""
    return sparse_rank([r for m in mats for r in _coordinates(m)])
