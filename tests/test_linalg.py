"""The fraction-free echelon against an independent Fraction RREF oracle, on
random sparse rational rows with zero rows, duplicates and rational
multiples planted among them; and its heap pivot against a min scan, on
the image tables of the graded dimensions."""
from fractions import Fraction
from math import gcd

from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import FractionEchelon, MinScanEchelon, echelon_contains, rref_kernel, transpose
from so41inv.invariants import RAISING, image_rows, zero_weight_keys
from so41inv.linalg import RationalEchelon, dependency_kernel, sparse_rank

MAX_COLS = 8

coefficients = st.one_of(
    st.integers(-9, 9),
    st.builds(Fraction, st.integers(-9, 9), st.integers(1, 9)),
)


@st.composite
def matrices(draw):
    """(rows, ncols): sparse rows over columns 0..ncols-1, some of them zero,
    repeated, or rational multiples of earlier rows, in a drawn order."""
    ncols = draw(st.integers(1, MAX_COLS))
    row = st.dictionaries(st.integers(0, ncols - 1), coefficients, max_size=ncols)
    rows = [{c: v for c, v in r.items() if v} for r in draw(st.lists(row, max_size=8))]
    for _ in range(draw(st.integers(0, 4))):
        if not rows:
            break
        base = draw(st.sampled_from(rows))
        factor = draw(st.sampled_from([1, -1, Fraction(2, 3), Fraction(-7, 9), 5]))
        rows.append({c: v * factor for c, v in base.items()})
    if draw(st.booleans()):
        rows.append({})
    return draw(st.permutations(rows)), ncols


def probes(rows, ncols):
    """Vectors to test membership with: sums of pairs of rows (in the span)
    and unit vectors (mostly not)."""
    out = [{c: 1} for c in range(ncols)]
    for a, b in zip(rows, rows[1:]):
        s = dict(a)
        for c, v in b.items():
            s[c] = s.get(c, 0) + 3 * v
        out.append({c: v for c, v in s.items() if v})
    return out


@settings(max_examples=200, deadline=None)
@given(matrices())
def test_echelon_agrees_with_the_fraction_rref(data):
    rows, ncols = data
    ech, oracle = RationalEchelon(), FractionEchelon()
    for r in rows:
        assert ech.insert(r) == oracle.insert(r)
    assert ech.rank == oracle.rank == sparse_rank(rows)
    assert set(ech.rows) == set(oracle.rows)
    for vec in probes(rows, ncols):
        assert echelon_contains(ech, vec) == oracle.contains(vec)


@settings(max_examples=200, deadline=None)
@given(matrices(), st.data())
def test_kernel_equals_the_fraction_rref_kernel(data, draw):
    # the kernel of the matrix is the dependencies among its columns, and
    # the dependencies among its rows are the kernel of its transpose: both
    # in int numerators over a positive denominator, whatever the order in
    # which the vectors are inserted
    rows, ncols = data
    cols = transpose(rows, ncols)
    for vectors, want in ((cols, rref_kernel(rows, ncols)),
                          (rows, rref_kernel(cols, len(rows)))):
        for order in (range(len(vectors)), draw.draw(st.permutations(range(len(vectors))))):
            deps = dependency_kernel({t: vectors[t] for t in order})
            assert all(den > 0 and all(type(v) is int for v in num.values())
                       for num, den in deps)
            assert [{t: Fraction(v, den) for t, v in num.items()} for num, den in deps] == want
    for num, _ in dependency_kernel(dict(enumerate(cols))):
        for r in rows:
            assert sum(v * num.get(c, 0) for c, v in r.items()) == 0


@settings(max_examples=100, deadline=None)
@given(matrices())
def test_stored_rows_are_primitive_int_rows_newest_last(data):
    rows, _ = data
    ech = RationalEchelon()
    for r in rows:
        before = set(ech.rows)
        if ech.insert(r):
            (added,) = set(ech.rows) - before
            assert next(reversed(ech.rows)) == added
    for piv, row in ech.rows.items():
        assert all(type(v) is int for v in row.values())
        assert piv == min(row) and row[piv] > 0
        assert gcd(*row.values()) == 1


@st.composite
def int_matrices(draw):
    """(rows, ncols): sparse int rows over columns 0..ncols-1, with sums of
    two drawn rows planted among them, so that rank deficiency occurs."""
    ncols = draw(st.integers(1, MAX_COLS))
    row = st.dictionaries(st.integers(0, ncols - 1), st.integers(-9, 9).filter(bool),
                          max_size=ncols)
    rows = draw(st.lists(row, max_size=8))
    for _ in range(draw(st.integers(0, 3))):
        if not rows:
            break
        a, b = draw(st.sampled_from(rows)), draw(st.sampled_from(rows))
        s = {c: a.get(c, 0) + b.get(c, 0) for c in {*a, *b}}
        rows.append({c: v for c, v in s.items() if v})
    return draw(st.permutations(rows)), ncols


@settings(max_examples=200, deadline=None)
@given(int_matrices())
def test_rank_and_kernel_through_the_transpose(data):
    # rank M = rank of its transpose: the identity by which the invariant
    # dimensions rank the zero-weight block
    rows, ncols = data
    rank_t = sparse_rank(transpose(rows, ncols))
    assert sparse_rank(rows) == rank_t
    assert len(dependency_kernel(dict(enumerate(transpose(rows, ncols))))) == ncols - rank_t
    assert transpose(transpose(rows, ncols), len(rows)) == rows


def test_the_heap_pivot_stores_the_rows_of_a_min_scan():
    # the rows of the rank path (raising rows last key first) at degrees
    # 0-9, and of the kernel path (each row with its tag column) at degrees
    # 0-7: the same rows, in the same order, as when each pivot is
    # min(residual)
    for n in range(10):
        cols = zero_weight_keys(n)
        table = image_rows(RAISING, cols)
        last = len(cols) - 1
        top = 1 + max((max(r) for r in table if r), default=-1)
        runs = [table[::-1]]
        if n <= 7:
            runs.append([{**table[t], top + last - t: 1} for t in range(last, -1, -1)])
        for rows in runs:
            ech, ref = RationalEchelon(), MinScanEchelon()
            for r in rows:
                assert ech.insert(r) == ref.insert(r)
            assert list(ech.rows.items()) == list(ref.rows.items()), n

