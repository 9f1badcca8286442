"""PBW straightening and symmetrization.

The independent oracle for sigma is the literal definition: average the
product over every permutation of the word, computed with itertools and
nothing from the memoized implementation path. The oracles for the
straightening are the 5x5 matrices of the defining representation, a
product of which needs no normal form, and the textbook first-descent
rewriting in tests/oracles.py.
"""
import random
from fractions import Fraction
from itertools import permutations, product

import pytest
from hypothesis import given, settings, strategies as st

from oracles import (
    GR0,
    GR1,
    GaussRational,
    first_descent_straighten,
    lie_to_u,
    mat_mul,
    mat_scale,
    mat_sub,
    rational_basis,
    straighten_word,
    u_k_invariant,
)
from so41inv import uea
from so41inv.elements import ZERO_EXP
from so41inv.lie_core import GEN_WEIGHTS, bracket, lie_gen
from so41inv.matrix_oracle import Gen, K_GENS, basis_matrices
from so41inv.sym_ext import SEElement, ad_action_se
from so41inv.uea import (
    SElement,
    UElement,
    s_gen,
    s_one,
    exp_to_word,
    gen_commutator,
    pbw_pair_product,
    symmetrize,
    symmetrize_monomial,
    u_gen,
    u_one,
    word_to_exp,
)


def random_u(rng: random.Random, max_deg: int = 4, terms: int = 3) -> UElement:
    out = UElement({})
    for _ in range(terms):
        word = tuple(sorted(Gen(rng.randrange(10))
                            for _ in range(rng.randint(0, max_deg))))
        coeff = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
        out = out + coeff * UElement({word_to_exp(word): 1})
    return out


def random_s(rng: random.Random, max_deg: int = 3, terms: int = 3) -> SElement:
    out = SElement({})
    for _ in range(terms):
        word = tuple(sorted(Gen(rng.randrange(10))
                            for _ in range(rng.randint(0, max_deg))))
        coeff = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
        out = out + coeff * SElement({word_to_exp(word): 1})
    return out


def test_generator_commutators_reproduce_the_bracket():
    for a in Gen:
        for b in Gen:
            x, y = u_gen(a), u_gen(b)
            assert x * y - y * x == lie_to_u(bracket(lie_gen(a), lie_gen(b)))


def test_straighten_fixes_sorted_words():
    word = (Gen.H1, Gen.E1, Gen.F3)
    assert straighten_word(word) == {word_to_exp(word): Fraction(1)}


def test_straighten_swap_lowers_degree_by_bracket():
    # F3 E3 = E3 F3 - [E3, F3] = E3 F3 - 2 H1
    got = straighten_word((Gen.F3, Gen.E3))
    want = {word_to_exp((Gen.E3, Gen.F3)): Fraction(1),
            word_to_exp((Gen.H1,)): Fraction(-2)}
    assert got == want


IDENTITY5 = tuple(tuple(GR1 if i == j else GR0 for j in range(5)) for i in range(5))
BASIS = rational_basis()


def word_matrix(word):
    out = IDENTITY5
    for g in word:
        out = mat_mul(out, BASIS[Gen(g)])
    return out


gen_words = st.lists(st.sampled_from(list(Gen)), max_size=5).map(tuple)
pbw_monomials = st.lists(st.sampled_from(list(Gen)), max_size=5).map(word_to_exp)


@settings(max_examples=60, deadline=None)
@given(gen_words)
def test_straightened_word_acts_as_the_product_of_its_matrices(word):
    # u_g -> M_g is a representation of U(g), so a PBW expansion of a word
    # maps to the product of the word's matrices
    got = mat_sub(IDENTITY5, IDENTITY5)
    for exp, c in straighten_word(word).items():
        got = mat_sub(got, mat_scale(GaussRational(-c), word_matrix(exp_to_word(exp))))
    assert got == word_matrix(word)


@settings(max_examples=40, deadline=None)
@given(pbw_monomials)
def test_gen_commutator_is_the_difference_of_the_pair_products(exp):
    for g in K_GENS:
        gen = word_to_exp((g,))
        want = dict(pbw_pair_product(gen, exp))
        for m, c in pbw_pair_product(exp, gen):
            want[m] = want.get(m, 0) - c
        assert dict(gen_commutator(g, exp)) == {m: c for m, c in want.items() if c}
    for i, h in enumerate((Gen.H1, Gen.H2)):
        weight = sum(e * GEN_WEIGHTS[g][i] for g, e in zip(Gen, exp))
        assert dict(gen_commutator(h, exp)) == ({exp: weight} if weight else {})


def test_insertion_agrees_with_first_descent_on_every_short_word():
    memo = {}
    words = [w for n in range(5) for w in product(range(10), repeat=n)]
    assert len(words) == 11111
    for w in words:
        assert straighten_word(w) == first_descent_straighten(w, memo), w


def test_associativity_seeded_random():
    rng = random.Random(20240517)
    for _ in range(60):
        x, y, z = (random_u(rng, max_deg=3, terms=2) for _ in range(3))
        assert (x * y) * z == x * (y * z)


def test_unit_and_scalars():
    one = u_one()
    x = u_gen(Gen.E3) * u_gen(Gen.F3)
    assert one * x == x == x * one
    assert 2 * x - x == x


def test_symmetrize_monomial_matches_permutation_average():
    rng = random.Random(77)
    for _ in range(12):
        word = tuple(sorted(Gen(rng.randrange(10))
                            for _ in range(rng.randint(1, 3))))
        # independent oracle: literal average over all |word|! orderings
        acc = UElement({})
        perms = list(permutations(word))
        for p in perms:
            prod = u_one()
            for g in p:
                prod = prod * u_gen(g)
            acc = acc + prod
        want = Fraction(1, len(perms)) * acc
        got = symmetrize(SElement({word_to_exp(word): 1}))
        assert got == want


@st.composite
def words_with_repeats(draw, max_degree: int = 5):
    """Sorted generator words of degree 1..max_degree over at most three
    distinct letters, so most words repeat a letter."""
    letters = draw(st.lists(st.sampled_from(list(Gen)), min_size=1, max_size=3, unique=True))
    extra = draw(st.lists(st.sampled_from(letters), max_size=max_degree - len(letters)))
    return tuple(sorted(letters + extra))


@settings(max_examples=25, deadline=None)
@given(words_with_repeats())
def test_symmetrize_monomial_is_the_average_over_distinct_orderings(word):
    orderings = set(permutations(word))
    acc = UElement({})
    for w in orderings:
        prod = u_one()
        for g in w:
            prod = prod * u_gen(g)
        acc = acc + prod
    want = Fraction(1, len(orderings)) * acc
    assert UElement(symmetrize_monomial(word_to_exp(word))) == want


def test_straightening_and_orderings_memos_hold_only_ints():
    # sigma divides once per output term; everything below it stays integral:
    # P of every sub-multiset that sigma of exp recurses through, the pair
    # products of a square, a generator commutator, and every word of
    # length at most 3
    exp = word_to_exp((Gen.H1, Gen.E3, Gen.F3, Gen.F3))
    x = u_gen(Gen.F4) * u_gen(Gen.E3)
    assert symmetrize_monomial(exp).terms and (x * x).terms
    values = [uea._orderings_sum(sub) for sub in product(*(range(e + 1) for e in exp))]
    values += [uea.pbw_pair_product(a, b) for a in x.num for b in x.num]
    values.append(uea.gen_commutator(Gen.E1, exp))
    values += [straighten_word(w) for n in range(4) for w in product(range(10), repeat=n)]
    for terms in values:
        assert terms and all(type(c) is int for c in dict(terms).values())


def test_the_straightening_memos_hold_rows():
    # one row format: a tuple of (PBW monomial, int) pairs, each monomial
    # once, with no zero entry
    exp = word_to_exp((Gen.H1, Gen.E3, Gen.F3, Gen.F3))
    rows = [uea._orderings_sum(sub) for sub in product(*(range(e + 1) for e in exp))]
    rows += [uea.insert_gen(g, exp) for g in range(10)]
    rows += [uea.pbw_pair_product(exp, exp), uea.gen_commutator(Gen.E1, exp),
             uea.gen_commutator(Gen.H1, exp), uea.gen_commutator(Gen.E1, ZERO_EXP)]
    for row in rows:
        assert type(row) is tuple and len({m for m, _ in row}) == len(row)
        assert all(type(m) is tuple and len(m) == 10 and type(c) is int and c for m, c in row)


def test_every_memoized_table_is_read_only():
    # the four straightening memos hand the same row to every caller, so a
    # write must raise rather than change what later calls return
    exp = word_to_exp((Gen.H1, Gen.E3, Gen.F3))
    calls = [
        lambda: uea.insert_gen(Gen.H1, exp),
        lambda: uea.insert_gen(Gen.F4, exp),
        lambda: uea.pbw_pair_product(exp, exp),
        lambda: uea.gen_commutator(Gen.E1, exp),
        lambda: uea.gen_commutator(Gen.E1, ZERO_EXP),
        lambda: uea._orderings_sum(exp),
        lambda: uea._orderings_sum(ZERO_EXP),
    ]
    def assign(table):
        table[exp] = 7

    def delete(table):
        del table[exp]

    for call in calls:
        table = call()
        want = dict(table)
        for write in (assign, delete):
            with pytest.raises(TypeError, match="'tuple' object"):
                write(table)
        for method in ("clear", "pop", "update", "setdefault"):
            assert not hasattr(table, method)
        assert call() is table and dict(table) == want


def test_the_basis_matrices_are_read_only(cold_caches):
    # one mapping of ten matrices serves the whole process: neither it nor
    # a matrix in it can be written to
    mats = basis_matrices()
    want = dict(mats)
    with pytest.raises(TypeError, match="mappingproxy"):
        mats[Gen.H1] = None
    with pytest.raises(TypeError, match="mappingproxy"):
        del mats[Gen.H1]
    h1 = mats[Gen.H1]
    with pytest.raises(TypeError):
        h1.rows[0] = ()
    with pytest.raises(TypeError):
        h1.rows[0][0] = (1, 0, 0)
    assert basis_matrices() is mats and dict(basis_matrices()) == want


def test_a_cached_sigma_of_a_monomial_is_read_only(cold_caches):
    # every caller shares the one element of the cache: a write to its
    # numerators raises instead of changing every later symmetrization
    e = word_to_exp((Gen.E1, Gen.F1))
    want = str(symmetrize(s_gen(Gen.E1) * s_gen(Gen.F1)))
    assert want == "-1/2 * H2 - 1/2 * H1 + E1 * F1"
    with pytest.raises(TypeError, match="mappingproxy"):
        symmetrize_monomial(e).num[e] = 99
    assert str(symmetrize(s_gen(Gen.E1) * s_gen(Gen.F1))) == want
    assert symmetrize_monomial(e) is symmetrize_monomial(e)
    assert symmetrize_monomial.cache_info().hits >= 1


def test_symmetrize_is_linear():
    rng = random.Random(78)
    x, y = random_s(rng), random_s(rng)
    assert symmetrize(x + y) == symmetrize(x) + symmetrize(y)
    assert symmetrize(Fraction(3, 2) * x) == Fraction(3, 2) * symmetrize(x)


def test_symmetrize_g_equivariant_random(cat):
    # sigma is rho on S(g) tensor 1, where every generator of g acts
    alg = cat.algebra
    rng = random.Random(79)
    for _ in range(10):
        s = random_s(rng)
        x = SEElement._of({(exp, 0): c for exp, c in s.num.items()}, s.den)
        assert alg.rho(x) == alg.from_u(symmetrize(s))
        for zg in Gen:
            z = lie_gen(zg)
            assert alg.ad_action(z, alg.rho(x)) == alg.rho(ad_action_se(z, x))


def test_symmetrize_filtration_identity():
    # sigma(monomial) differs from the sorted PBW word by lower degree terms
    rng = random.Random(80)
    for _ in range(10):
        word = tuple(sorted(Gen(rng.randrange(10))
                            for _ in range(rng.randint(1, 4))))
        n = len(word)
        diff = symmetrize(SElement({word_to_exp(word): 1})) \
            - UElement({word_to_exp(word): 1})
        assert all(sum(exp) < n for exp in diff.terms)


def test_ad_is_a_derivation_on_u(cat):
    # on U(g) tensor 1 every generator of g acts, by the commutator
    alg = cat.algebra
    rng = random.Random(81)
    for _ in range(8):
        x, y = (alg.from_u(random_u(rng, max_deg=2, terms=2)) for _ in range(2))
        for zg in Gen:
            z = lie_gen(zg)
            zu = alg.from_u(lie_to_u(z))
            assert alg.ad_action(z, x) == zu * x - x * zu
            lhs = alg.ad_action(z, x * y)
            rhs = alg.ad_action(z, x) * y + x * alg.ad_action(z, y)
            assert lhs == rhs


def test_quadratic_casimir_of_k1_is_k_invariant():
    # (H1+H2)^2 + 4 E1 F1, symmetrized: invariant under all of k
    h = s_gen(Gen.H1) + s_gen(Gen.H2)
    a1 = h * h + 4 * s_gen(Gen.E1) * s_gen(Gen.F1)
    assert u_k_invariant(symmetrize(a1))


def test_s_product_is_commutative():
    rng = random.Random(82)
    x, y = random_s(rng), random_s(rng)
    assert x * y == y * x
    assert s_one() * x == x
