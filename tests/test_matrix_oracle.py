"""The 5x5 matrix realization is the ground truth everything else is
checked against, so it gets its own independent float cross-check: the same
matrices rebuilt as numpy complex arrays, brackets expanded numerically by
least squares, compared entry by entry to the commutator table."""
import random
from fractions import Fraction

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    GAMMA,
    mat_combination,
    mat_mul,
    mat_scale,
    mat_transpose,
    matrix_bracket,
    real_rank,
)
from so41inv.lie_core import bracket_gens
from so41inv.matrix_oracle import (
    GaussRational,
    Gen,
    K_GENS,
    P_GENS,
    basis_matrices,
    is_so41_member,
    mat_trace,
    trace_form_gens,
)


def to_numpy(m) -> np.ndarray:
    return np.array(
        [[complex(Fraction(e.re), 0) + 1j * complex(Fraction(e.im), 0)
          for e in row] for row in m],
        dtype=complex,
    )


def test_all_ten_matrices_are_members():
    mats = basis_matrices()
    assert set(mats) == set(Gen)
    for g, m in mats.items():
        assert is_so41_member(m), g.name
        assert not mat_trace(m), g.name


def test_membership_is_the_gamma_condition():
    # x^T = -gamma x gamma, written out for one generator by hand
    mats = basis_matrices()
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
    m = [list(row) for row in basis_matrices()[g]]
    m[i][j] = m[i][j] + z
    if paired and i != j:
        m[j][i] = m[j][i] + (z if (i == 4) != (j == 4) else -z)
    m = tuple(map(tuple, m))
    want = (mat_transpose(m) == mat_scale(GaussRational(-1), mat_mul(GAMMA, mat_mul(m, GAMMA)))
            and not mat_trace(m))
    assert is_so41_member(m) == want
    assert want == (paired and i != j)


def test_brackets_close_in_the_span():
    # without the table: no bracket of two basis matrices adds to the rank
    mats = basis_matrices()
    for a in Gen:
        for b in Gen:
            if a < b:
                assert real_rank([*mats.values(), matrix_bracket(mats[a], mats[b])]) == 20


def test_float_oracle_agrees_with_exact_extraction():
    """Independent numerics: numpy complex brackets + least squares, against
    the exact structure constants of the commutator table."""
    mats = basis_matrices()
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
    mats = basis_matrices()
    out = [[GaussRational(0) for _ in range(5)] for _ in range(5)]
    for g, c in coeffs.items():
        scaled = mat_scale(GaussRational(c), mats[g])
        out = [[x + y for x, y in zip(ro, rs)] for ro, rs in zip(out, scaled)]
    return tuple(tuple(row) for row in out)




def test_the_basis_matrices_are_independent_over_c():
    mats = basis_matrices()
    assert real_rank(mats.values()) == 20
    # gamma is not in so(4,1), so it enlarges the span; i * H1 lies in the
    # complex span of the basis
    assert real_rank([*mats.values(), GAMMA]) == 22
    assert real_rank([*mats.values(), mat_scale(GaussRational(0, 1), mats[Gen.H1])]) == 20


@settings(max_examples=30, deadline=None)
@given(st.dictionaries(st.sampled_from(list(Gen)), rationals), st.sampled_from(list(Gen)))
def test_a_rational_combination_lies_in_the_span_and_cannot_replace_a_matrix(coeffs, g):
    mats = basis_matrices()
    combo = mat_combination(mats, coeffs.items())
    assert combo == combination(coeffs)
    assert real_rank([*mats.values(), combo]) == 20
    # g replaced by a combination of the other nine: the complex rank is 9
    others = {h: c for h, c in coeffs.items() if h != g}
    assert real_rank([combination(others) if h == g else m for h, m in mats.items()]) == 18
