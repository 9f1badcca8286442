"""Abstract Lie layer: table vs oracle, Jacobi, the Cartan split, weights."""
import contextlib
import io
from fractions import Fraction
from types import MappingProxyType

import pytest

from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    GaussRational,
    cartan_split_check,
    gen_weight,
    integer_basis,
    is_in_p,
    mat_combination,
    rational_basis,
    rational_mismatch,
    reference_basis,
    sl2_triple_check,
    table_stdout,
)
from so41inv import cli, lie_core, matrix_oracle
from so41inv.errors import DomainError
from so41inv.lie_core import (
    GEN_WEIGHTS,
    bracket,
    bracket_gens,
    certify_against_oracle,
    default_cartan_split,
    is_in_k,
    jacobi_check,
    lie_gen,
    require_in_k,
)
from so41inv.matrix_oracle import Gen, K_GENS, P_GENS


def test_table_certifies_against_matrix_oracle():
    assert certify_against_oracle() == []


def test_each_call_hands_out_a_new_list_of_mismatches(cold_caches):
    mismatches = certify_against_oracle()
    mismatches.append("[H1,H2]: appended by a caller")
    assert certify_against_oracle() == []
    assert lie_core.table_certificate.cache_info().misses == 1


def test_the_table_certificate_refuses_assignment():
    cert = lie_core.table_certificate()
    assert cert.rank == 20 and len(cert.matrices) == 10 and len(cert.pairs) == 45
    with pytest.raises(AttributeError):
        cert.rank = 18
    with pytest.raises(AttributeError):
        cert.pairs = ()
    assert lie_core.table_certificate() == cert and cert.rank == 20


@pytest.mark.parametrize("table, key", [("_T", (Gen.E1, Gen.F1)), ("GEN_WEIGHTS", Gen.E1)],
                         ids=["table", "weights"])
def test_the_structure_constants_refuse_an_item_write(table, key):
    mapping = getattr(lie_core, table)
    before = dict(mapping)
    with pytest.raises(TypeError):
        mapping[key] = ()
    with pytest.raises(TypeError):
        del mapping[key]
    assert dict(getattr(lie_core, table)) == before


PAIRS = [(a, b) for a in Gen for b in Gen if a < b]


def gauss_rational_mismatch(a: Gen, b: Gen) -> str | None:
    """The mismatch text for [a, b] read off the GaussRational matrices: the
    nonzero entries of [M_a, M_b] minus the table's combination, or None."""
    return rational_mismatch(rational_basis(), a, b)


def tampered_table(pair, value) -> MappingProxyType:
    """The commutator table with the entry of pair replaced by value."""
    return MappingProxyType({**lie_core._T, pair: value})


def test_dropping_the_h2_term_of_e1_f1_names_its_two_entries(monkeypatch, cold_caches):
    monkeypatch.setattr(lie_core, "_T", tampered_table((Gen.E1, Gen.F1), ((Gen.H1, 1),)))
    assert certify_against_oracle() == [
        "[E1,F1]: matrix bracket minus table is nonzero at (3,4)=1i (4,3)=-1i"]


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(PAIRS), st.sampled_from(list(Gen)),
       st.builds(Fraction, st.integers(-5, 5).filter(bool), st.integers(1, 3)))
def test_a_tampered_table_entry_is_the_one_mismatch(pair, g, c):
    a, b = pair
    lie_core.table_certificate.cache_clear()
    try:
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(lie_core, "_T", tampered_table(pair, lie_core._T[pair] + ((g, c),)))
            mismatches = certify_against_oracle()
            want = gauss_rational_mismatch(a, b)
    finally:
        lie_core.table_certificate.cache_clear()
    assert mismatches == [want]
    assert mismatches[0].startswith(f"[{a.name},{b.name}]: ")
    assert "nonzero at (" in mismatches[0]


def dependent_basis() -> dict:
    # F4 replaced by 3/2 E3 - H1: still in so(4,1), but the ten matrices
    # span only nine complex dimensions, so no table entry is settled
    mats = rational_basis()
    mats[Gen.F4] = mat_combination(mats, ((Gen.E3, Fraction(3, 2)), (Gen.H1, -1)))
    return integer_basis(mats)


def assert_every_pair_fails(capsys) -> None:
    assert cli.main(["verify", "table"]) == 1
    out = capsys.readouterr().out
    fails = [ln for ln in out.splitlines() if ln.endswith("FAIL")]
    assert fails == [f"TABLE [{a.name},{b.name}] FAIL" for a, b in PAIRS] + [
        "VERIFY table checks=55 failures=45 FAIL"]
    assert "TABLE SUMMARY 0/45" in out


def test_a_dependent_basis_certifies_no_bracket(monkeypatch, capsys, cold_caches):
    mats = dependent_basis()
    monkeypatch.setattr(matrix_oracle, "basis_matrices", lambda: mats)
    mismatches = certify_against_oracle()
    assert [m.split(":", 1)[0] for m in mismatches] == [
        f"[{a.name},{b.name}]" for a, b in PAIRS]
    assert all("rank 18, not 20" in m for m in mismatches)
    assert_every_pair_fails(capsys)


def test_a_dependent_basis_after_a_warm_table_run_fails_every_pair(monkeypatch, capsys,
                                                                   cold_caches):
    # warm runs read one verdict, and after cache_clear() the dependent
    # basis fails every pair
    for _ in range(2):
        assert cli.main(["verify", "table"]) == 0
    assert capsys.readouterr().out.endswith("VERIFY table checks=55 failures=0 PASS\n")
    info = lie_core.table_certificate.cache_info()
    assert (info.misses, info.hits) == (1, 1)
    mats = dependent_basis()
    monkeypatch.setattr(matrix_oracle, "basis_matrices", lambda: mats)
    assert cli.main(["verify", "table"]) == 0  # the verdict proved on the first run
    capsys.readouterr()
    lie_core.table_certificate.cache_clear()
    assert_every_pair_fails(capsys)


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(list(Gen)), st.integers(0, 4), st.integers(0, 4),
       st.builds(GaussRational, st.builds(Fraction, st.integers(-3, 3), st.integers(1, 3)),
                 st.builds(Fraction, st.integers(-3, 3), st.integers(1, 3))).filter(bool))
def test_a_tampered_basis_entry_prints_as_the_reference_path(g, i, j, z):
    # one entry of one basis matrix moved by z: the MATRIX, TABLE and
    # "# [A,B]: ..." lines are those computed in GaussRational throughout
    mats = reference_basis()
    m = [list(row) for row in mats[g]]
    m[i][j] = m[i][j] + z
    mats[g] = tuple(map(tuple, m))
    tampered = integer_basis(mats)
    out = io.StringIO()
    lie_core.table_certificate.cache_clear()
    try:
        with pytest.MonkeyPatch.context() as mp, contextlib.redirect_stdout(out):
            mp.setattr(matrix_oracle, "basis_matrices", lambda: tampered)
            assert cli.main(["verify", "table"]) == 1
    finally:
        lie_core.table_certificate.cache_clear()
    assert out.getvalue() == table_stdout(mats)
    assert f"MATRIX {g.name} membership trace=" in out.getvalue()


def test_the_untouched_basis_prints_the_golden_as_the_reference_path(capsys):
    assert cli.main(["verify", "table"]) == 0
    assert capsys.readouterr().out == table_stdout(reference_basis())


def test_jacobi_all_triples():
    assert jacobi_check() == []


def test_bracket_antisymmetry():
    for a in Gen:
        for b in Gen:
            x, y = lie_gen(a), lie_gen(b)
            assert bracket(x, y) == -bracket(y, x)


def test_bracket_bilinear():
    x = 2 * lie_gen(Gen.E1) - lie_gen(Gen.H2)
    y = lie_gen(Gen.F1) + 3 * lie_gen(Gen.E3)
    z = lie_gen(Gen.F3)
    assert bracket(x + y, z) == bracket(x, z) + bracket(y, z)
    assert bracket(x, y + z) == bracket(x, y) + bracket(x, z)


def test_cartan_split_relations():
    assert cartan_split_check() == []


def test_both_sl2_triples():
    split = default_cartan_split()
    assert sl2_triple_check(*split.k1) == []
    assert sl2_triple_check(*split.k2) == []


def test_sl2_check_catches_wrong_triple():
    h, e, f = lie_gen(Gen.H1), lie_gen(Gen.E1), lie_gen(Gen.F2)
    assert sl2_triple_check(h, e, f) != []


def test_k_brackets_stay_in_k_and_p_is_a_k_module():
    for a in K_GENS:
        for b in K_GENS:
            assert is_in_k(bracket(lie_gen(a), lie_gen(b)))
        for b in P_GENS:
            assert is_in_p(bracket(lie_gen(a), lie_gen(b)))


def test_p_brackets_land_in_k():
    for a in P_GENS:
        for b in P_GENS:
            assert is_in_k(bracket(lie_gen(a), lie_gen(b)))


def test_require_in_k_raises_off_k():
    require_in_k(lie_gen(Gen.E1) - 5 * lie_gen(Gen.H2))
    with pytest.raises(DomainError):
        require_in_k(lie_gen(Gen.E3))


def test_weights_match_the_cartan_action():
    for g in Gen:
        w1, w2 = gen_weight(g)
        assert bracket_gens(Gen.H1, g) == (((g, w1),) if w1 else ())
        assert bracket_gens(Gen.H2, g) == (((g, w2),) if w2 else ())


def test_weight_table_spot_values():
    assert GEN_WEIGHTS[Gen.H1] == (0, 0)
    assert GEN_WEIGHTS[Gen.E1] == (1, 1)
    assert GEN_WEIGHTS[Gen.E2] == (1, -1)
    assert GEN_WEIGHTS[Gen.E3] == (1, 0)
    assert GEN_WEIGHTS[Gen.E4] == (0, 1)
    assert GEN_WEIGHTS[Gen.F4] == (0, -1)


def test_bracket_spot_values():
    e3, e4 = lie_gen(Gen.E3), lie_gen(Gen.E4)
    f3, f4 = lie_gen(Gen.F3), lie_gen(Gen.F4)
    assert bracket(e3, e4) == 2 * lie_gen(Gen.E1)
    assert bracket(e3, f3) == 2 * lie_gen(Gen.H1)
    assert bracket(e4, f4) == 2 * lie_gen(Gen.H2)
    assert bracket(f3, f4) == -2 * lie_gen(Gen.F1)
    assert bracket(lie_gen(Gen.E1), lie_gen(Gen.F1)) == \
        lie_gen(Gen.H1) + lie_gen(Gen.H2)
    assert bracket(lie_gen(Gen.E2), lie_gen(Gen.F2)) == \
        lie_gen(Gen.H1) - lie_gen(Gen.H2)


def test_scalar_coefficients_are_fractions():
    x = Fraction(1, 2) * lie_gen(Gen.E1)
    for c in x.terms.values():
        assert isinstance(c, Fraction)
