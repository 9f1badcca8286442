"""Invariant dimension counts: closed-form prediction, exact kernels from
the image rows of the raising operators, the Weyl character count as an
independent oracle, the kernel basis certification, and the freeness
certificate, with the symbols it proves independent formed and ranked
directly and compared with the U(g) tensor C(p) products they stand for."""
import os
import random
import subprocess
import sys
from fractions import Fraction
from math import comb

import pytest

from oracles import (
    FractionEchelon,
    decode,
    filtered_zero_weight_keys,
    fraction_det,
    graded_keys,
    pack,
    rref_kernel,
    s_monomial_element,
    s_monomials_up_to,
    st_product_vectors,
    symbol_ranks,
    transpose,
    uc_rank,
)
from so41inv import cli, invariants, tensor_algebra, uea
from so41inv.clifford import CliffordAlgebra
from so41inv.errors import InvarianceError
from so41inv.invariants import (
    DegreeReport,
    JACOBIAN_POINT,
    S_DEGREES,
    T_DEGREES,
    T_POINT,
    eliminated_degree,
    freeness_certificate,
    image_rows,
    independence_check,
    invariant_dimension,
    predicted_dimension,
    product_counts,
    truncated_rank16_check,
    zero_weight_keys,
)
from so41inv.linalg import RationalEchelon, sparse_rank
from so41inv.matrix_oracle import Gen, K_GENS
from so41inv.sym_ext import T_ORDER, SEElement, ad_action_se, ad_on_key, build_st_catalog
from so41inv.tensor_algebra import TensorAlgebra, catalog_for_sign


def test_t_degrees_are_the_catalog_t_degrees(st):
    # the prediction types the degrees of the sixteen module generators
    # rather than reading the catalog; they are the catalog's
    assert T_DEGREES == tuple(sorted(st.t_degrees.values()))


def test_s_degrees_are_the_degrees_of_a1_a2_b_c(st):
    assert S_DEGREES == tuple(st.named[name].degree() for name in ("a1", "a2", "b", "c"))


def test_predicted_dimensions():
    assert [predicted_dimension(n) for n in range(8)] == [1, 0, 4, 4, 13, 16, 32, 40]
    assert predicted_dimension(-1) == 0


def test_ambient_dim_is_the_binomial_count(monkeypatch):
    # dim of degree n in S(g) tensor Lambda(p): k of the four p-vectors
    # wedged with a monomial of degree n - k in the ten slots; no kernel is
    # eliminated to read it
    monkeypatch.setattr(invariants, "eliminated_degree", lambda n, want_basis: (0, 0, None))
    for n in range(41):
        want = sum(comb(4, k) * comb(n - k + 9, 9) for k in range(min(4, n) + 1))
        assert invariant_dimension(n).ambient_dim == want, n


@pytest.mark.parametrize("cap", range(13))
def test_product_counts_enumerate_the_pairs(cap, st):
    # every pair (s, t) with s a monomial in a1, a2, b, c, counted by degree
    counts = dict.fromkeys(range(cap + 1), 0)
    for q in s_monomials_up_to(cap):
        s_deg = sum(e * st.named[name].degree() for e, name in zip(q, ("a1", "a2", "b", "c")))
        for t_deg in st.t_degrees.values():
            if s_deg + t_deg <= cap:
                counts[s_deg + t_deg] += 1
    assert product_counts(cap) == counts


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
    # the exact rank of the integral raising rows (the raising images read
    # column-wise, their packed targets numbered in order) in a seeded
    # order: rank deficient, and the block size minus that rank is the
    # predicted dimension
    cols = zero_weight_keys(n)
    images = image_rows(invariants.RAISING, cols)
    number = {t: i for i, t in enumerate(sorted(set().union(*images)))}
    rows = transpose([{number[t]: c for t, c in row.items()} for row in images], len(number))
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
            for tkey, c in ad_on_key(z, pack(key)):
                rows.setdefault((int(z), tkey), {})[j] = c
    reference = [SEElement({cols[j]: c for j, c in vec.items()})
                 for vec in rref_kernel([rows[k] for k in sorted(rows)], len(cols))]
    assert invariant_dimension(n, want_basis=True).basis == reference


@pytest.mark.parametrize("n", range(9))
def test_zero_weight_keys_equal_the_filtered_keys(n):
    # the packed walk finds the filtered keys, packing round-trips each of
    # them, and the int order of the packed keys is their sorted order
    keys = filtered_zero_weight_keys(n)
    packed = zero_weight_keys(n)
    assert [decode(key) for key in packed] == keys
    assert [pack(key) for key in keys] == packed == sorted(packed)
    assert len(set(packed)) == len(packed)


@pytest.mark.parametrize("n", range(7))
def test_packed_images_equal_ad_on_key(n):
    # every k-generator on every zero-weight key and, for n <= 3, on every
    # key of any weight, whose ad H1 and ad H2 images are the key times its
    # weight, summed over the moves that meet on it: one row per key from
    # image_rows, split by the place of the generator in K_GENS; and the
    # raising rows that the rank and the kernel read, built from ad_on_key on
    # the targets 8 * packed target key + place of the generator
    keys = zero_weight_keys(n)
    every = keys + ([pack(key) for key in graded_keys(n)] if n <= 3 else [])
    for key, row in zip(every, image_rows(K_GENS, every)):
        assert all(t & 7 < len(K_GENS) for t in row)
        for place, z in enumerate(K_GENS):
            image = {decode(t >> 3): c for t, c in row.items() if c and t & 7 == place}
            assert image == {decode(t): c for t, c in ad_on_key(z, key)}, (z, decode(key))
    want = [{8 * t + K_GENS.index(z): c for z in invariants.RAISING
             for t, c in ad_on_key(z, key)} for key in keys]
    assert image_rows(invariants.RAISING, keys) == want


def test_packed_keys_hold_degrees_up_to_255():
    assert decode(pack(((255,) * 10, 15))) == ((255,) * 10, 15)
    with pytest.raises(ValueError):
        zero_weight_keys(256)


def test_degree_eight(character_counts):
    # new evidence past the default cap: h(8) = 65 from the exact kernel
    rep = invariant_dimension(8)
    assert rep.dimension == 65 == character_counts[8] == predicted_dimension(8)


def test_degree_nine(character_counts):
    rep = invariant_dimension(9)
    assert rep.dimension == 80 == character_counts[9]


def test_dims_ranks_each_block_through_its_transpose(monkeypatch, capsys, cold_caches):
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


def test_dropping_the_e2_images_fails_the_count_and_the_certificate(monkeypatch, cold_caches):
    # with ad E2 gone from the raising rows the kernel is that of ad E1
    # alone: the count exceeds h(4), and the six-generator certificate
    # rejects the basis, naming E2, the generator the rows left out
    monkeypatch.setattr(invariants, "RAISING", (Gen.E1,))
    rep = invariant_dimension(4)
    assert (rep.dimension, rep.expected) == (38, 13) and not rep.ok
    with pytest.raises(InvarianceError) as exc:
        invariant_dimension(4, want_basis=True)
    assert exc.value.generator == "E2"


def test_a_certificate_failing_several_generators_names_the_first_in_k(monkeypatch, cold_caches):
    # with no raising generator every key is a kernel vector, the first key
    # first: ad H1 and ad H2 kill it, and ad E1, E2, F1 and F2 all move it,
    # so the certificate names E1, first in K_GENS, with the count of its
    # own residual terms
    monkeypatch.setattr(invariants, "RAISING", ())
    with pytest.raises(InvarianceError) as exc:
        invariant_dimension(2, want_basis=True)
    key = zero_weight_keys(2)[0]
    assert [len(ad_on_key(z, key)) for z in K_GENS] == [0, 0, 1, 1, 1, 1]
    assert exc.value.generator == "E1"
    assert str(exc.value) == "degree-2 kernel vector 0 is not invariant under ad(E1): 1 residual terms"


# -- one elimination per degree per process -----------------------------------------

def test_independence_after_dims_eliminates_no_degree_again(monkeypatch, capsys, cold_caches):
    # verify independence reads the dimensions of degrees 0-6 that verify dims
    # computed: once the certificate's own 16 + 4 rows are ranked, the suite
    # inserts no row into an echelon
    inserted = []
    insert = RationalEchelon.insert

    def counted(self, vec):
        inserted.append(vec)
        return insert(self, vec)

    monkeypatch.setattr(RationalEchelon, "insert", counted)
    assert cli.main(["verify", "dims", "--max-degree", "7"]) == 0
    assert len(inserted) == 2496
    inserted.clear()
    freeness_certificate()
    assert len(inserted) == 16 + 4
    inserted.clear()
    assert cli.main(["verify", "independence"]) == 0
    capsys.readouterr()
    assert inserted == []


def test_rank16_eliminates_no_degree_and_independence_each_degree_once(capsys, cold_caches):
    # rank16 prints the freeness report without its per-degree comparison;
    # independence then eliminates each of degrees 0-6 once
    assert cli.main(["verify", "rank16"]) == 0
    assert eliminated_degree.cache_info().misses == 0
    assert cli.main(["verify", "independence"]) == 0
    capsys.readouterr()
    info = eliminated_degree.cache_info()
    assert (info.misses, info.currsize) == (7, 7)


@pytest.mark.parametrize("want_basis", [False, True])
def test_a_changed_report_leaves_the_next_answer_as_it_was(cold_caches, want_basis):
    first = invariant_dimension(4, want_basis=want_basis)
    basis = None if first.basis is None else list(first.basis)
    nums = None if basis is None else [dict(v.num) for v in basis]
    # the report is a record, so it refuses every rebind
    with pytest.raises(AttributeError):
        first.dimension += 1
    with pytest.raises(AttributeError):
        first.basis = []
    if want_basis:
        # the vectors are the cached ones, read-only by their type
        vector = first.basis[0]
        with pytest.raises(TypeError):
            vector.num[next(iter(vector.num))] = 0
        with pytest.raises(AttributeError):
            vector.num.clear()
        with pytest.raises(AttributeError):
            vector.den = 7
        # the list is the report's own
        first.basis.pop()
        first.basis[0] = first.basis[1]
    again = invariant_dimension(4, want_basis=want_basis)
    assert (again.dimension, again.block_dim, again.basis) == (13, 118, basis)
    assert nums is None or [dict(v.num) for v in again.basis] == nums
    assert again.ok


def test_the_degree_memo_holds_no_error(monkeypatch, cold_caches):
    # a negative degree is refused before the memo, and a failed
    # certification raises without leaving an entry behind
    with pytest.raises(ValueError):
        invariant_dimension(-1)
    true_kernel = invariants.dependency_kernel

    def tampered(rows):
        kernel = true_kernel(rows)
        num, _ = kernel[0]
        num[min(num)] *= 2
        return kernel

    monkeypatch.setattr(invariants, "dependency_kernel", tampered)
    for _ in range(2):
        with pytest.raises(InvarianceError):
            invariant_dimension(3, want_basis=True)
    assert eliminated_degree.cache_info().currsize == 0
    monkeypatch.undo()
    assert len(invariant_dimension(3, want_basis=True).basis) == 4


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
        assert all(key_weight(k) == (0, 0) for k in vec.num)
        for z in K_GENS:
            assert ad_action_se(lie_gen(z), vec).is_zero()


def test_unknown_method_rejected():
    # --method takes only values that name the one exact kernel; no --seed,
    # and no --ambient, which no suite reads
    for argv in (["--method", "modp"], ["--method", "float"], ["--seed", "0"],
                 ["--ambient", "se"]):
        with pytest.raises(SystemExit) as exc:
            cli.parse_args(["verify", "dims", *argv])
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
    # the expected count per degree is the kernel dimension the elimination
    # keeps, not the closed-form prediction that the kernels are checked against
    true_elimination = invariants.eliminated_degree

    def off_by_one_at_four(n, want_basis):
        dim, block, basis = true_elimination(n, want_basis)
        return (dim + 1 if n == 4 and not want_basis else dim), block, basis

    monkeypatch.setattr(invariants, "eliminated_degree", off_by_one_at_four)
    rep = independence_check(cap=5)
    assert rep.per_degree[4] == (13, 14)
    assert rep.rank == rep.total == 38
    assert not rep.ok


def test_a_warm_freeness_report_expands_one_series_and_builds_no_degree_report(
        monkeypatch, capsys):
    # the product counts are the one series; each dimension is read from the
    # kept elimination, not from a DegreeReport and its two series
    argv = ["verify", "independence", "--max-degree", "6"]
    assert cli.main(argv) == 0
    first = capsys.readouterr().out
    series, reports = [], []
    true_series, true_report = invariants._series, DegreeReport
    monkeypatch.setattr(invariants, "_series",
                        lambda *args: series.append(args) or true_series(*args))
    monkeypatch.setattr(invariants, "DegreeReport",
                        lambda *args, **kw: reports.append(args) or true_report(*args, **kw))
    assert cli.main(argv) == 0
    assert capsys.readouterr().out == first
    assert (len(series), len(reports)) == (1, 0)


def test_a_warm_verify_all_builds_one_freeness_report(monkeypatch, capsys):
    # the independence and rank16 suites of one command share its report
    with open(os.path.join(os.path.dirname(__file__), "data", "verify_all.stdout")) as fh:
        golden = fh.read()
    assert cli.main(["verify", "all"]) == 0
    assert capsys.readouterr().out == golden
    calls = []
    true_check = invariants.independence_check
    monkeypatch.setattr(invariants, "independence_check",
                        lambda cap: calls.append(cap) or true_check(cap))
    assert cli.main(["verify", "all"]) == 0
    assert capsys.readouterr().out == golden
    assert calls == [6]


def test_the_ambient_dimension_is_the_expanded_series():
    # C(4, k) exterior masks of degree k times the monomials of degree n - k
    # in ten symmetric generators, against the series of the masks by degree
    # over one 1 / (1 - t) per slot
    series = invariants._series([bin(m).count("1") for m in range(16)], (1,) * 10, 40)
    assert [invariants.ambient_dimension(n) for n in range(41)] == series


def test_a_warm_dims_run_expands_one_series_per_degree(monkeypatch, capsys):
    # h(n) is the one series of each degree; the ambient count is a closed form
    argv = ["verify", "dims", "--max-degree", "7"]
    assert cli.main(argv) == 0
    first = capsys.readouterr().out
    series = []
    true_series = invariants._series
    monkeypatch.setattr(invariants, "_series",
                        lambda *args: series.append(args) or true_series(*args))
    assert cli.main(argv) == 0
    assert capsys.readouterr().out == first
    assert len(series) == 8


def test_the_freeness_report_reads_the_reported_dimensions():
    for cap in range(9):
        rep = independence_check(cap)
        assert list(rep.counts) == list(range(cap + 1)), cap
        assert rep.per_degree == {n: (count, invariant_dimension(n).dimension)
                                  for n, count in rep.counts.items()}, cap


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


# -- the freeness certificate --------------------------------------------------

def test_the_freeness_certificate_has_full_ranks_once_per_process():
    cert = freeness_certificate()
    assert (cert.t_rank, cert.jacobian_rank) == (16, 4)
    assert cert.ok and cert.failures() == []
    assert freeness_certificate() is cert


def test_the_freeness_certificate_is_frozen():
    cert = freeness_certificate()
    with pytest.raises(AttributeError):
        cert.t_rank = 15
    with pytest.raises(AttributeError):
        del cert.jacobian_rank
    again = freeness_certificate()
    assert (again.t_rank, again.jacobian_rank) == (16, 4)


def test_certificate_a_against_the_fraction_echelon_and_determinant(st):
    # the mask coefficients of the t at the fixed point, as Fractions: the
    # test-only Fraction echelon finds rank 16, and the determinant (rows in
    # T_ORDER, columns by ascending mask) is the value recorded for the point
    rows = []
    for name in T_ORDER:
        row = [Fraction(0)] * 16
        for (exp, mask), c in st.t_elements[name].terms.items():
            value = Fraction(c)
            for x, e in zip(T_POINT, exp):
                value *= x ** e
            row[mask] += value
        rows.append(row)
    ech = FractionEchelon()
    for row in rows:
        ech.insert(dict(enumerate(row)))
    assert ech.rank == 16
    assert fraction_det(rows) == 8338896329091743371954765824


def test_certificate_b_is_the_jacobian_of_the_four_polynomial_invariants(st):
    # the Jacobian read off the terms by hand, in Fractions, has rank 4
    ech = FractionEchelon()
    for name in ("a1", "a2", "b", "c"):
        row: dict = {}
        for (exp, mask), c in st.named[name].terms.items():
            assert mask == 0
            for slot, e in enumerate(exp):
                if e:
                    lowered = exp[:slot] + (e - 1,) + exp[slot + 1:]
                    value = Fraction(c * e)
                    for x, k in zip(JACOBIAN_POINT, lowered):
                        value *= x ** k
                    row[slot] = row.get(slot, 0) + value
        ech.insert(row)
    assert ech.rank == 4


def test_the_formed_symbols_have_the_certified_rank_at_cap_eight():
    # the direct cross-check of what the certificate proves: the products
    # s.t formed and ranked degree by degree have rank = count, 175 in all,
    # and the counts are the pairs the checks count without forming them
    ranks = symbol_ranks(8)
    assert all(count == rank for count, rank in ranks.values())
    assert sum(count for count, _ in ranks.values()) == 175
    assert {n: count for n, (count, _) in ranks.items()} == product_counts(8)


def duplicate_a_t(st, monkeypatch):
    # fg becomes a copy of dg, a product of the same degree already in the list
    t = dict(st.t_elements)
    t["fg"] = t["dg"]
    monkeypatch.setitem(vars(st), "t_elements", t)


def c_as_a1_squared(st, monkeypatch):
    named = {**st.named, "c": st.named["a1"] * st.named["a1"]}
    monkeypatch.setitem(vars(st), "named", named)


@pytest.mark.parametrize("mutate, ranks, message", [
    (duplicate_a_t, (15, 4),
     "# freeness certificate A: the mask coefficients of the 16 module generators "
     "at (-5, 9, -7, -1, -6, 6, 5, 6, 3, -3) have rank 15, not 16"),
    (c_as_a1_squared, (16, 3),
     "# freeness certificate B: the Jacobian of a1, a2, b, c "
     "at (-8, -7, -7, 2, -4, 0, -1, -3, -8, 9) has rank 3, not 4"),
], ids=["t-duplicate", "c-is-a1-squared"])
def test_a_failed_certificate_fails_both_freeness_checks(monkeypatch, cold_caches, capsys,
                                                         mutate, ranks, message):
    # the mutations keep every degree, so the per-degree counts still equal
    # h(n): only the certificate can fail the rank
    mutate(build_st_catalog(), monkeypatch)
    cert = freeness_certificate()
    assert (cert.t_rank, cert.jacobian_rank) == ranks
    assert cert.failures() == [message[2:]]
    ind = independence_check(6)
    assert all(got == want for got, want in ind.per_degree.values())
    assert ind.rank is None and not ind.ok
    r16 = truncated_rank16_check(6)
    assert r16.rank is None and not r16.ok
    assert cli.main(["verify", "independence"]) == 1
    assert cli.main(["verify", "rank16"]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines.count(message) == 2
    assert "INDEPENDENCE rank=unproven vectors=70 FAIL" in lines
    assert "RANK16 vectors=70 rank=unproven expected=70 FAIL" in lines
    assert "VERIFY independence checks=8 failures=1 FAIL" in lines
    assert "VERIFY rank16 checks=1 failures=1 FAIL" in lines


def test_the_freeness_checks_form_no_product(monkeypatch, cold_caches, capsys):
    # after the catalog has built its sixteen t, neither check nor suite
    # multiplies two elements of S(g) tensor Lambda(p), certificate included
    build_st_catalog().t_elements

    def sentinel(self, other):
        raise AssertionError("the freeness checks must not form a product")

    monkeypatch.setattr(SEElement, "_product", sentinel)
    assert independence_check(8).ok
    assert truncated_rank16_check(8).ok
    for argv in (["verify", "independence"], ["verify", "rank16"]):
        assert cli.main(argv) == 0, argv
    assert "INDEPENDENCE rank=70 vectors=70 PASS" in capsys.readouterr().out.splitlines()


@pytest.mark.parametrize("which", [0, -1])
def test_basis_certification_rejects_a_tampered_kernel_vector(monkeypatch, which, cold_caches):
    # the key images are shared across the kernel vectors of a degree; a
    # wrong coefficient in any vector must still fail certification
    true_kernel = invariants.dependency_kernel

    def tampered(rows):
        kernel = true_kernel(rows)
        num, _ = kernel[which]
        col = min(num)
        num[col] *= 2
        return kernel

    monkeypatch.setattr(invariants, "dependency_kernel", tampered)
    with pytest.raises(InvarianceError):
        invariant_dimension(3, want_basis=True)
