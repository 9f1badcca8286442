"""The 5x5 matrix realization is the ground truth everything else is
checked against, so it gets its own independent float cross-check: the same
matrices rebuilt as numpy complex arrays, brackets expanded numerically by
least squares, compared entry by entry to the commutator table. Its
Gaussian integer arithmetic is checked against the GaussRational reference,
on the basis and on random matrices over Q(i)."""
import random
from fractions import Fraction

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    GAMMA,
    GR0,
    GaussRational,
    gaussian_integer_matrices,
    integer_basis,
    mat_combination,
    mat_mul,
    mat_scale,
    mat_sub,
    mat_transpose,
    matrix_bracket,
    rational_basis,
    rational_matrix,
    rational_member,
    rational_trace,
    real_rank,
    reference_basis,
)
from so41inv.lie_core import bracket_gens
from so41inv.matrix_oracle import (
    Gen,
    K_GENS,
    P_GENS,
    basis_matrices,
    bracket_residual,
    gauss_matrix,
    gauss_text,
    is_so41_member,
    mat_trace,
    trace_form,
    trace_form_gens,
)


def to_numpy(m) -> np.ndarray:
    return np.array(
        [[complex(Fraction(e.re), 0) + 1j * complex(Fraction(e.im), 0)
          for e in row] for row in m],
        dtype=complex,
    )


def test_the_basis_is_the_reference_in_gaussian_integers_over_2():
    mats = basis_matrices()
    assert mats == integer_basis(reference_basis())
    assert {m.scale for m in mats.values()} == {2}
    assert all(type(x) is int for m in mats.values() for row in m.rows
               for entry in row for x in entry)


def test_all_ten_matrices_are_members():
    mats = basis_matrices()
    assert set(mats) == set(Gen)
    for g, m in mats.items():
        assert is_so41_member(m), g.name
        assert mat_trace(m) == (0, 0), g.name


def test_membership_is_the_gamma_condition():
    # x^T = -gamma x gamma, written out for one generator by hand
    mats = rational_basis()
    m = mats[Gen.E3]
    lhs = tuple(tuple(m[j][i] for j in range(5)) for i in range(5))
    rhs = mat_scale(GaussRational(-1, 0), mat_mul(GAMMA, mat_mul(m, GAMMA)))
    assert lhs == rhs


gauss_rationals = st.builds(GaussRational, st.integers(-3, 3), st.integers(-3, 3)).filter(bool)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(list(Gen)), st.integers(0, 4), st.integers(0, 4), gauss_rationals,
       st.booleans())
def test_membership_agrees_with_the_gamma_condition_off_the_basis(g, i, j, z, paired):
    # z added at (i, j), and when paired the entry at (j, i) that keeps
    # x^T = -gamma x gamma, so both verdicts are drawn
    m = [list(row) for row in rational_basis()[g]]
    m[i][j] = m[i][j] + z
    if paired and i != j:
        m[j][i] = m[j][i] + (z if (i == 4) != (j == 4) else -z)
    m = tuple(map(tuple, m))
    want = (mat_transpose(m) == mat_scale(GaussRational(-1), mat_mul(GAMMA, mat_mul(m, GAMMA)))
            and not rational_trace(m))
    assert is_so41_member(gaussian_integer_matrices([m])[0][0]) == want
    assert want == (paired and i != j)


def test_brackets_close_in_the_span():
    # without the table: no bracket of two basis matrices adds to the rank
    mats = rational_basis()
    for a in Gen:
        for b in Gen:
            if a < b:
                assert real_rank([*mats.values(), matrix_bracket(mats[a], mats[b])]) == 20


def test_float_oracle_agrees_with_exact_extraction():
    """Independent numerics: numpy complex brackets + least squares, against
    the exact structure constants of the commutator table."""
    mats = rational_basis()
    flat = {g: to_numpy(mats[g]).reshape(-1) for g in Gen}
    basis = np.stack([flat[g] for g in Gen], axis=1)  # 25 x 10
    for a in Gen:
        for b in Gen:
            if a >= b:
                continue
            na, nb = to_numpy(mats[a]), to_numpy(mats[b])
            br = (na @ nb - nb @ na).reshape(-1)
            coeffs, residuals, rank, _ = np.linalg.lstsq(basis, br, rcond=None)
            resid = np.linalg.norm(basis @ coeffs - br)
            assert resid < 1e-9
            want = dict(bracket_gens(a, b))
            for gi, g in enumerate(Gen):
                c = complex(coeffs[gi])
                assert abs(c.imag) < 1e-9
                assert abs(c.real - float(want.get(g, 0))) < 1e-9


def test_gauss_rational_field_ops_match_complex():
    rng = random.Random(411)
    for _ in range(200):
        a = GaussRational(Fraction(rng.randint(-9, 9), rng.randint(1, 9)),
                          Fraction(rng.randint(-9, 9), rng.randint(1, 9)))
        b = GaussRational(Fraction(rng.randint(-9, 9), rng.randint(1, 9)),
                          Fraction(rng.randint(-9, 9), rng.randint(1, 9)))
        ca = complex(float(a.re), float(a.im))
        cb = complex(float(b.re), float(b.im))
        for got, want in (
            (a + b, ca + cb),
            (a - b, ca - cb),
            (a * b, ca * cb),
        ):
            assert abs(complex(float(got.re), float(got.im)) - want) < 1e-9


def test_trace_form_is_symmetric_and_splits_k_from_p():
    for a in Gen:
        for b in Gen:
            assert trace_form_gens(a, b) == trace_form_gens(b, a)
    for a in K_GENS:
        for b in P_GENS:
            assert trace_form_gens(a, b) == 0


def test_trace_form_on_p_is_nondegenerate():
    gram = [[trace_form_gens(a, b) for b in P_GENS] for a in P_GENS]
    # 4x4 determinant, expansion by minors is fine at this size
    m = np.array([[float(x) for x in row] for row in gram])
    assert abs(np.linalg.det(m)) > 1e-9


rationals = st.builds(Fraction, st.integers(-20, 20), st.integers(1, 12))


def combination(coeffs):
    """sum over g of coeffs[g] * (basis matrix of g), entry by entry."""
    mats = rational_basis()
    out = [[GaussRational(0) for _ in range(5)] for _ in range(5)]
    for g, c in coeffs.items():
        scaled = mat_scale(GaussRational(c), mats[g])
        out = [[x + y for x, y in zip(ro, rs)] for ro, rs in zip(out, scaled)]
    return tuple(tuple(row) for row in out)




def test_the_basis_matrices_are_independent_over_c():
    mats = rational_basis()
    assert real_rank(mats.values()) == 20
    # gamma is not in so(4,1), so it enlarges the span; i * H1 lies in the
    # complex span of the basis
    assert real_rank([*mats.values(), GAMMA]) == 22
    assert real_rank([*mats.values(), mat_scale(GaussRational(0, 1), mats[Gen.H1])]) == 20


@settings(max_examples=30, deadline=None)
@given(st.dictionaries(st.sampled_from(list(Gen)), rationals), st.sampled_from(list(Gen)))
def test_a_rational_combination_lies_in_the_span_and_cannot_replace_a_matrix(coeffs, g):
    mats = rational_basis()
    combo = mat_combination(mats, coeffs.items())
    assert combo == combination(coeffs)
    assert real_rank([*mats.values(), combo]) == 20
    # g replaced by a combination of the other nine: the complex rank is 9
    others = {h: c for h, c in coeffs.items() if h != g}
    assert real_rank([combination(others) if h == g else m for h, m in mats.items()]) == 18


# -- the Gaussian integer arithmetic against the GaussRational reference ----------

entries = st.one_of(
    st.just(GR0),
    st.builds(lambda a, b, c, d: GaussRational(Fraction(a, c), Fraction(b, d)),
              st.integers(-3, 3), st.integers(-3, 3), st.integers(1, 3), st.integers(1, 3)))


@st.composite
def rational_matrices(draw):
    """5x5 matrices over Q(i) with numerators -3..3 and denominators 1..3:
    members of so(4,1), an upper triangle mirrored by x_ji = -gamma_i
    gamma_j x_ij, or every entry drawn (almost never a member)."""
    if draw(st.booleans()):
        m = [[GR0] * 5 for _ in range(5)]
        for i in range(5):
            for j in range(i + 1, 5):
                z = draw(entries)
                m[i][j], m[j][i] = z, (z if (i == 4) != (j == 4) else -z)
    else:
        m = [[draw(entries) for _ in range(5)] for _ in range(5)]
    return tuple(map(tuple, m))


def int_form(m):
    """The GaussMatrix of one GaussRational matrix, over its own lcm."""
    return gaussian_integer_matrices([m])[0][0]


def test_a_matrix_converts_both_ways_and_gauss_text_prints_as_the_reference():
    m = (
        (GR0, GaussRational(Fraction(1, 2), -1), GR0, GR0, GR0),
        (GaussRational(0, Fraction(-2, 3)), GR0, GR0, GR0, GR0),
        (GR0, GR0, GaussRational(3), GR0, GR0),
        (GR0,) * 5,
        (GR0, GR0, GR0, GR0, GaussRational(Fraction(-1, 2), Fraction(3, 2))),
    )
    x = int_form(m)
    assert x == gauss_matrix({(0, 1): (3, -6), (1, 0): (0, -4), (2, 2): (18, 0),
                              (4, 4): (-3, 9)}, 6)
    assert rational_matrix(x) == m
    for z in {z for row in m for z in row}:
        assert gauss_text(int(z.re * 6), int(z.im * 6), 6) == repr(z)
    assert gauss_text(*mat_trace(x), x.scale) == repr(rational_trace(m)) == "5/2+3/2i"


@settings(max_examples=80, deadline=None)
@given(rational_matrices(), rational_matrices())
def test_membership_trace_and_trace_form_are_the_reference(m, n):
    x, y = int_form(m), int_form(n)
    assert is_so41_member(x) == rational_member(m)
    assert is_so41_member(y) == rational_member(n)
    assert gauss_text(*mat_trace(x), x.scale) == repr(rational_trace(m))
    re, im = trace_form(x, y)
    want = rational_trace(mat_mul(m, n))
    assert (Fraction(re, x.scale * y.scale), Fraction(im, x.scale * y.scale)) == (want.re, want.im)


@settings(max_examples=80, deadline=None)
@given(rational_matrices(), rational_matrices(), rational_matrices(),
       st.lists(st.builds(Fraction, st.integers(-4, 4), st.integers(1, 3)), min_size=0,
                max_size=2))
def test_bracket_minus_a_combination_is_the_reference(m, n, w, coeffs):
    # each matrix over its own scale, and the combination of w and the
    # basis matrix H1 in Fraction coefficients
    mats = {0: w, 1: rational_basis()[Gen.H1]}
    terms = list(enumerate(coeffs))
    residual, scale = bracket_residual(int_form(m), int_form(n),
                                       [(int_form(mats[g]), c) for g, c in terms])
    want = mat_sub(matrix_bracket(m, n), mat_combination(mats, terms))
    assert rational_matrix(gauss_matrix(residual, scale)) == want
    assert all(z != (0, 0) for z in residual.values())
