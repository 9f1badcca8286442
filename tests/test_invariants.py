"""Invariant dimension counts: closed-form prediction, exact kernels from
the raising rows, the Weyl character count as an independent oracle, and
the freeness cross-check."""
import random
from fractions import Fraction

import pytest

from oracles import filtered_zero_weight_keys, rref_kernel
from so41inv import cli
from so41inv.errors import DomainError
from so41inv.invariants import (
    _operator_rows,
    independence_check,
    invariant_dimension,
    predicted_dimension,
    t_count,
    zero_weight_keys,
)
from so41inv.linalg import sparse_rank, sparse_rank_mod_p
from so41inv.matrix_oracle import K_GENS
from so41inv.sym_ext import SEElement, ad_action_se, ad_on_key
from so41inv.tensor_algebra import CERTIFICATE_PRIME


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
def test_modp_agrees_with_exact(n, seed):
    # the modular rank that certifies uc_rank, on the integral raising rows
    # in a seeded order: rank deficient, so the certificate must not claim
    # full rank, and it agrees with the exact rank over Q
    cols = zero_weight_keys(n)
    rows = _operator_rows(cols)
    random.Random(seed).shuffle(rows)
    assert all(c.denominator == 1 for row in rows for c in row.values())
    int_rows = [{j: int(c) for j, c in row.items()} for row in rows]
    exact = sparse_rank(rows)
    assert exact < len(rows)
    assert sparse_rank_mod_p(int_rows, CERTIFICATE_PRIME) == exact
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


def test_large_degree_requires_opt_in():
    with pytest.raises(DomainError):
        invariant_dimension(8)


def test_rank_mod_p_matches_exact_rank_on_random_matrices():
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
        exact = sparse_rank(rows)
        int_rows = [{j: int(v) for j, v in r.items()} for r in rows]
        for p in (813847339, 999999937, CERTIFICATE_PRIME):
            assert sparse_rank_mod_p(int_rows, p) == exact, trial


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
