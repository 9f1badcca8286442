"""Invariant dimension counts: closed-form prediction, exact kernels from
the image table of the raising operators, the Weyl character count as an
independent oracle, the kernel basis certification, and the freeness checks
on symbols against the U(g) tensor C(p) products they stand for."""
import os
import random
import subprocess
import sys
from fractions import Fraction

import pytest

from oracles import (
    FractionEchelon,
    filtered_zero_weight_keys,
    rref_kernel,
    st_product_vectors,
    uc_rank,
)
from so41inv import cli, invariants, tensor_algebra, uea
from so41inv.clifford import CliffordAlgebra
from so41inv.errors import InvarianceError
from so41inv.invariants import (
    image_table,
    independence_check,
    invariant_dimension,
    predicted_dimension,
    symbol_ranks,
    t_count,
    truncated_rank16_check,
    zero_weight_keys,
)
from so41inv.linalg import RationalEchelon, sparse_rank, transpose
from so41inv.matrix_oracle import Gen, K_GENS
from so41inv.sym_ext import SEElement, ad_action_se, ad_on_key, s_monomial_element
from so41inv.tensor_algebra import TensorAlgebra, catalog_for_sign


def test_t_count_values():
    assert [t_count(n) for n in range(8)] == [1, 0, 1, 4, 4, 4, 4, 4]
    assert t_count(-1) == 0


def test_predicted_dimensions():
    assert [predicted_dimension(n) for n in range(8)] == [1, 0, 4, 4, 13, 16, 32, 40]


def test_character_count_matches_prediction(character_counts):
    assert character_counts[:8] == [1, 0, 4, 4, 13, 16, 32, 40]
    assert character_counts == [predicted_dimension(n) for n in range(21)]
    assert character_counts[20] == 781


@pytest.mark.parametrize("n", range(6))
def test_exact_dimension_matches_prediction(n, character_counts):
    rep = invariant_dimension(n)
    assert rep.dimension == predicted_dimension(n) == character_counts[n]
    assert rep.ok


def test_exact_block_sizes():
    # weight-zero block is what the kernel runs on; sizes are part of the contract
    reps = [invariant_dimension(n) for n in range(6)]
    assert [r.block_dim for r in reps] == [1, 2, 13, 40, 118, 292]
    assert [r.ambient_dim for r in reps] == [1, 14, 101, 504, 1966, 6412]


@pytest.mark.parametrize("n", [2, 3, 4])
@pytest.mark.parametrize("seed", [0, 7])
def test_shuffled_raising_rows_have_the_predicted_corank(n, seed):
    # the exact rank of the integral raising rows (the image table read
    # column-wise) in a seeded order: rank deficient, and the block size
    # minus that rank is the predicted dimension
    cols = zero_weight_keys(n)
    table, gens = image_table(cols)
    rows = transpose(table, len(gens))
    random.Random(seed).shuffle(rows)
    assert all(c.denominator == 1 for row in rows for c in row.values())
    exact = sparse_rank(rows)
    assert exact < len(rows)
    assert len(cols) - exact == predicted_dimension(n)


def test_degree_six_and_seven(character_counts):
    six = invariant_dimension(6)
    seven = invariant_dimension(7)
    assert six.dimension == 32 == character_counts[6]
    assert seven.dimension == 40 == character_counts[7]
    assert six.ok and seven.ok


@pytest.mark.parametrize("n", range(7))
def test_raising_kernel_equals_six_generator_kernel(n):
    # the reference path: all six k-generators on the zero-weight block, with
    # the block found by filtering every key of degree n and the kernel read
    # off the test-only Fraction RREF, gives the same kernel vectors as the
    # E1/E2 rows, term for term
    cols = filtered_zero_weight_keys(n)
    rows: dict = {}
    for z in K_GENS:
        for j, key in enumerate(cols):
            for tkey, c in ad_on_key(z, key).items():
                rows.setdefault((int(z), tkey), {})[j] = c
    reference = [SEElement({cols[j]: c for j, c in vec.items()})
                 for vec in rref_kernel([rows[k] for k in sorted(rows)], len(cols))]
    assert invariant_dimension(n, want_basis=True).basis == reference


@pytest.mark.parametrize("n", range(9))
def test_zero_weight_keys_equal_the_filtered_keys(n):
    assert zero_weight_keys(n) == filtered_zero_weight_keys(n)


def test_degree_eight(character_counts):
    # new evidence past the default cap: h(8) = 65 from the exact kernel
    rep = invariant_dimension(8, allow_large=True)
    assert rep.dimension == 65 == character_counts[8] == predicted_dimension(8)


def test_degree_nine(character_counts):
    rep = invariant_dimension(9)
    assert rep.dimension == 80 == character_counts[9]


def test_dims_ranks_each_block_through_its_transpose(monkeypatch, capsys):
    # one insert per block key, and only the h(n) dependent ones reduce to
    # zero: sum of the block sizes and of h(n) over degrees 0-7
    inserted = []
    insert = RationalEchelon.insert

    def counted(self, vec):
        inserted.append(insert(self, vec))
        return inserted[-1]

    monkeypatch.setattr(RationalEchelon, "insert", counted)
    assert cli.main(["verify", "dims", "--max-degree", "7"]) == 0
    capsys.readouterr()
    assert len(inserted) == 2496 == sum(len(zero_weight_keys(n)) for n in range(8))
    assert inserted.count(False) == 110 == sum(predicted_dimension(n) for n in range(8))


def test_dropping_the_e2_images_fails_the_count_and_the_certificate(monkeypatch):
    # with ad E2 gone from the table the kernel is that of ad E1 alone: the
    # count exceeds h(4), and the six-generator certificate rejects the
    # basis, through the four generators it does not read from the table
    true_table = invariants.image_table

    def without_e2(keys):
        rows, gens = true_table(keys)
        return [{r: c for r, c in row.items() if gens[r] != Gen.E2} for row in rows], gens

    monkeypatch.setattr(invariants, "image_table", without_e2)
    assert not invariant_dimension(4).ok
    with pytest.raises(InvarianceError) as exc:
        invariant_dimension(4, want_basis=True)
    assert exc.value.generator == "F2"


def test_verify_dims_passes_past_degree_seven_in_a_fresh_process():
    # no degree gate: the command line computes h(8) like every lower degree
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    run = subprocess.run([sys.executable, "-m", "so41inv.cli", "verify", "dims",
                          "--max-degree", "8"], env=env, capture_output=True, text=True,
                         timeout=300)
    assert run.returncode == 0, run.stderr
    assert "DIM degree=8 dim=65 expected=65 method=exact PASS" in run.stdout.splitlines()


def test_sparse_rank_matches_the_fraction_echelon_on_random_matrices():
    rng = random.Random(2026)
    for trial in range(6):
        rows_n = rng.randint(3, 8)
        cols = rng.randint(3, 8)
        rows = []
        for _ in range(rows_n):
            rows.append({j: Fraction(rng.randint(-4, 4))
                         for j in range(cols) if rng.random() < 0.6})
        # plant a dependent row so rank deficiency actually occurs
        if rows[0]:
            rows.append({k: 3 * v for k, v in rows[0].items()})
        reference = FractionEchelon()
        for r in rows:
            reference.insert(r)
        assert sparse_rank(rows) == reference.rank, trial


def test_want_basis_returns_certified_invariants():
    from so41inv.lie_core import lie_gen
    from so41inv.sym_ext import key_weight

    rep = invariant_dimension(4, want_basis=True)
    assert rep.basis is not None
    assert len(rep.basis) == 13
    for vec in rep.basis:
        assert not vec.is_zero()
        assert all(key_weight(k) == (0, 0) for k in vec.terms)
        for z in K_GENS:
            assert ad_action_se(lie_gen(z), vec).is_zero()


def test_unknown_method_rejected():
    # --method takes only values that name the one exact kernel; no --seed
    for argv in (["--method", "modp"], ["--method", "float"], ["--seed", "0"]):
        with pytest.raises(SystemExit) as exc:
            cli.build_parser().parse_args(["verify", "dims", *argv])
        assert exc.value.code == 2, argv


def test_independence_up_to_degree_six(st):
    rep = independence_check(cap=6)
    assert rep.total == 70
    assert rep.rank == 70
    assert rep.ok
    assert rep.per_degree == {0: (1, 1), 1: (0, 0), 2: (4, 4), 3: (4, 4),
                              4: (13, 13), 5: (16, 16), 6: (32, 32)}


def test_independence_small_cap():
    rep = independence_check(cap=3)
    assert rep.per_degree == {0: (1, 1), 1: (0, 0), 2: (4, 4), 3: (4, 4)}
    assert rep.rank == rep.total == 9
    assert rep.ok


# -- freeness on symbols -------------------------------------------------------

def degree_part(el, n: int) -> dict:
    return {k: c for k, c in el.terms.items() if sum(k[0]) + bin(k[1]).count("1") == n}


@pytest.mark.parametrize("sign", ["accepted", "+1"])
def test_symbols_of_the_uc_products(cat, st, sign):
    # gr sigma = gr rho = id: sigma(s) rho(t) has nothing above degree n and
    # its degree-n part is s.t, under either sign of the Clifford form, so the
    # symbol family has the rank of the U(g) tensor C(p) family
    uc_cat = cat if sign == "accepted" else catalog_for_sign(+1)
    products = st_product_vectors(uc_cat, 6)
    for n, q, name, el in products:
        assert el.degree() == n, (q, name)
        symbol = s_monomial_element(st, q) * st.t_elements[name]
        assert degree_part(el, n) == symbol.terms, (q, name)
    ranks = symbol_ranks(6)
    assert len(products) == sum(c for c, _ in ranks.values()) == 70
    assert uc_rank([el for *_, el in products]) == sum(r for _, r in ranks.values()) == 70


def test_independence_counts_against_the_exact_kernel(monkeypatch):
    # the expected count per degree is the kernel dimension, not the
    # closed-form prediction that the kernels are checked against
    true_dimension = invariants.invariant_dimension

    def off_by_one_at_four(n, **kw):
        rep = true_dimension(n, **kw)
        if n == 4:
            rep.dimension += 1
        return rep

    monkeypatch.setattr(invariants, "invariant_dimension", off_by_one_at_four)
    rep = independence_check(cap=5)
    assert rep.per_degree[4] == (13, 14)
    assert rep.rank == rep.total == 38
    assert not rep.ok


def test_freeness_checks_build_no_clifford_algebra(monkeypatch, capsys):
    def sentinel(*args, **kwargs):
        raise AssertionError("the freeness checks must not reach U(g) tensor C(p)")

    targets = [tensor_algebra.adjudicate_convention, uea.symmetrize,
               uea.symmetrize_monomial]
    for mod in [m for name, m in sys.modules.items() if name.startswith("so41inv")]:
        for var, value in list(vars(mod).items()):
            if any(value is t for t in targets):
                monkeypatch.setattr(mod, var, sentinel)
    monkeypatch.setattr(CliffordAlgebra, "__init__", sentinel)
    monkeypatch.setattr(TensorAlgebra, "rho", sentinel)
    assert independence_check(cap=6).ok
    assert truncated_rank16_check(cap=6).ok
    for argv in (["verify", "independence"], ["verify", "rank16"],
                 ["verify", "rank16", "--sign", "+1"]):
        assert cli.main(argv) == 0, argv
    assert "RANK16 vectors=70 rank=70 expected=70 PASS" in capsys.readouterr().out


@pytest.mark.parametrize("which", [0, -1])
def test_basis_certification_rejects_a_tampered_kernel_vector(monkeypatch, which):
    # the key images are shared across the kernel vectors of a degree; a
    # wrong coefficient in any vector must still fail certification
    true_kernel = invariants.sparse_kernel

    def tampered(rows, ncols):
        kernel = true_kernel(rows, ncols)
        vec = kernel[which]
        col = min(vec)
        vec[col] *= 2
        return kernel

    monkeypatch.setattr(invariants, "sparse_kernel", tampered)
    with pytest.raises(InvarianceError):
        invariant_dimension(3, want_basis=True)
