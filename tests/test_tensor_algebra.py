"""U(g) tensor C(p): catalog invariance, the identity suite under every
candidate Clifford normalization, the generator chain, truncated freeness
with its exact rank, and the integer product and k-action kernels
against Fraction oracles. The residual-count tables below were computed
once with this engine and frozen; they double as a regression oracle for
the whole adjudication pipeline."""
import random
import re
from fractions import Fraction
from functools import cache, partial

import pytest
from hypothesis import assume, given, settings, strategies as st

from oracles import (FractionEchelon, decode, decode_exp, exp_key, lie_to_u, relation_residuals,
                     st_product_vectors, term_by_term_ad_action, term_by_term_multiply, uc_rank,
                     word_to_exp)
from so41inv import tensor_algebra
from so41inv.clifford import ExtElement, PForm
from so41inv.elements import mask_bits, pair_sort_key
from so41inv.errors import InvarianceError
from so41inv.invariants import truncated_rank16_check
from so41inv.lie_core import LieElement, lie_gen
from so41inv.matrix_oracle import Gen, K_GENS
from so41inv.sym_ext import SEElement, ad_action_se, build_st_catalog, certify_invariance, se_gen
from so41inv.tensor_algebra import (
    CONVENTION_LABELS,
    RELATION_NAMES,
    TensorAlgebra,
    accepted_catalog,
    build_catalog,
    convention_algebra,
    convention_pform,
    effective_checks,
    generator_chain_check,
    refuted_by_j,
    verify_relations,
)
from so41inv.uea import SElement, pbw_pair_product, symmetrize

# frozen adjudication oracle: literal residual term counts per convention
LITERAL_RESIDUALS = {
    "gram=trace sign=+1": dict(b=8, d=10, e=10, j=8, f=16, g=16, h=44, c=30),
    "gram=trace sign=-1": dict(b=8, d=10, e=10, j=8, f=16, g=16, h=44, c=30),
    "gram=trace/4 sign=+1": dict(b=8, d=8, e=6, j=8, f=16, g=16, h=44, c=30),
    "gram=trace/4 sign=-1": dict(b=0, d=0, e=0, j=0, f=0, g=0, h=16, c=8),
}
REGROUPED_RESIDUALS = {
    "gram=trace sign=+1": dict(h=28, c=29),
    "gram=trace sign=-1": dict(h=28, c=29),
    "gram=trace/4 sign=+1": dict(h=28, c=29),
    "gram=trace/4 sign=-1": dict(h=0, c=0),
}
ACCEPTED = "gram=trace/4 sign=-1"


def test_adjudication_accepts_exactly_one_convention(adjudication):
    assert adjudication == tensor_algebra.Adjudication(accepted=ACCEPTED)
    passing = [label for label in CONVENTION_LABELS if convention_algebra(label).catalog.passes]
    assert passing == [ACCEPTED]


def test_every_convention_builds_a_catalog():
    for label in CONVENTION_LABELS:
        alg = convention_algebra(label)
        assert alg.catalog.algebra is alg, label


def test_frozen_residual_tables():
    for label in CONVENTION_LABELS:
        checks = convention_algebra(label).catalog.checks
        lit = {c.name: c.residual_terms for c in checks if c.variant == "literal"}
        reg = {c.name: c.residual_terms for c in checks if c.variant == "regrouped"}
        assert lit == LITERAL_RESIDUALS[label], label
        assert reg == REGROUPED_RESIDUALS[label], label


def test_dk_paired_reading_is_the_invariant_one():
    # under every convention, the accepted one included
    for label in CONVENTION_LABELS:
        assert convention_algebra(label).catalog.dk_reading == "paired", label


def test_a_forced_sign_keeps_the_accepted_form(adjudication):
    # algebra_for_sign hard-codes the quarter trace form: a change to it, or
    # an adjudication that accepts another form, fails here
    minus, plus = tensor_algebra.algebra_for_sign(-1), tensor_algebra.algebra_for_sign(+1)
    assert minus is convention_algebra(adjudication.accepted)
    assert (plus.pform.label, plus.pform.sign) == (minus.pform.label, +1)


def test_dk_literal_reading_is_not_invariant(cat):
    alg = cat.algebra
    with pytest.raises(InvarianceError) as exc:
        certify_invariance(alg.ad_action, {"Dk": alg.k_dirac("literal")})
    assert str(exc.value) == "Dk is not invariant under ad(H2): 1 residual terms"
    assert certify_invariance(alg.ad_action, {"Dk": alg.k_dirac("paired")}) == \
        {("Dk", z): 0 for z in K_GENS}


def test_build_catalog_certifies_each_dk_reading_with_the_one_certificate(cat, monkeypatch):
    certified = []

    def recorded(ad, elements, label="{}"):
        certified.append([label.format(name) for name in elements])
        return certify_invariance(ad, elements, label)

    monkeypatch.setattr(tensor_algebra, "certify_invariance", recorded)
    rebuilt = build_catalog(cat.algebra)
    # the literal reading is tried and refused, then the paired one passes
    assert certified == [[f"rho({name})" for name in build_st_catalog().named], ["Dk"], ["Dk"]]
    assert (rebuilt.dk_reading, rebuilt.elements, rebuilt.invariance) == \
        (cat.dk_reading, cat.elements, cat.invariance)


@pytest.mark.parametrize("label", ["bogus", "gram=trace*2/3 sign=-1", "gram=trace sign=+1 ",
                                   "gram=trace/4 sign=0", "sign=+1 gram=trace/4"])
def test_convention_pform_refuses_an_unknown_label(label):
    with pytest.raises(ValueError, match=f"^unknown convention label: {re.escape(repr(label))}$"):
        convention_pform(label)


def test_catalog_invariance_78_checks(cat):
    alg = cat.algebra
    count = 0
    for name in (*build_st_catalog().named, "Dk"):
        el = cat.elements[name]
        for z in K_GENS:
            assert alg.ad_action(lie_gen(z), el).is_zero(), (name, z.name)
            count += 1
    assert count == 78


def test_the_invariance_certificate_is_keyed_by_name_then_generator(cat):
    assert list(cat.invariance) == \
        [(name, z) for name in (*build_st_catalog().named, "Dk") for z in K_GENS]
    assert set(cat.invariance.values()) == {0}


def test_a_failed_rho_certificate_names_the_image_and_generator():
    # a fresh algebra whose rho(e) carries the weight-zero E1 F1: ad H1 and
    # ad H2 kill it, ad E1 leaves the residual
    class Tampered(TensorAlgebra):
        def rho_named(self, name):
            image = super().rho_named(name)
            return image + self.u_gen(Gen.E1) * self.u_gen(Gen.F1) if name == "e" else image

    alg = Tampered(convention_pform("gram=trace/4 sign=-1"))
    with pytest.raises(InvarianceError) as exc:
        build_catalog(alg)
    assert str(exc.value) == "rho(e) is not invariant under ad(E1): 3 residual terms"
    assert (exc.value.element, exc.value.generator) == ("rho(e)", "E1")


def test_effective_suite_all_zero(cat):
    checks = effective_checks(verify_relations(cat))
    assert [c.name for c in checks] == list(RELATION_NAMES)
    for c in checks:
        assert c.ok and c.residual_terms == 0, c
    # the report records compare field by field, and being frozen, they
    # hash by their fields
    assert verify_relations(cat) == cat.checks
    assert hash(checks[0]) == hash(effective_checks(verify_relations(cat))[0])


def _count_products(monkeypatch) -> list:
    calls = []
    multiply = TensorAlgebra.multiply

    def counted(self, x, y):
        calls.append((x, y))
        return multiply(self, x, y)

    monkeypatch.setattr(TensorAlgebra, "multiply", counted)
    return calls


def test_verify_relations_computes_each_distinct_product_once(cat, monkeypatch):
    # 24 products per variant, 48 in all; the two variants of h and c share
    # theirs, and d and e share Dk i + i Dk: 22 distinct
    calls = _count_products(monkeypatch)
    checks = verify_relations(cat)
    assert len(calls) == 22
    assert len(set(calls)) == 22
    assert [(c.name, c.variant) for c in checks] == \
        [(n, "literal") for n in RELATION_NAMES] + [("h", "regrouped"), ("c", "regrouped")]


@pytest.mark.parametrize("label", CONVENTION_LABELS)
def test_j_refutes_exactly_the_conventions_the_full_suite_rejects(label, monkeypatch):
    # sound: a refuted convention has a nonzero j residual in the full suite,
    # and j alone rules out every rejected convention in two products
    calls = _count_products(monkeypatch)
    refuted = refuted_by_j(label)
    assert len(calls) == 2
    assert refuted == (LITERAL_RESIDUALS[label]["j"] != 0) == (label != ACCEPTED)


def test_literal_h_and_c_residuals_decode_to_the_regrouping(cat):
    el = cat.elements
    res = relation_residuals(cat, "literal")
    D = el["D"]
    f, g = el["f"], el["g"]
    a1, a2, b = el["a1"], el["a2"], el["b"]
    # literal minus regrouped differ by exactly these invariant combinations
    assert res["h"] == Fraction(-9, 16) * (f - g - D)
    assert res["c"] == a1 + a2 - Fraction(3, 2) * b


def test_relation_residuals_rejects_unknown_variant(cat):
    with pytest.raises(ValueError):
        relation_residuals(cat, "other")


def test_generator_chain(cat):
    steps = generator_chain_check(cat)
    assert [s.name for s in steps] == ["b", "d", "e", "j", "f", "g", "h", "c"]
    for s in steps:
        assert s.ok and s.residual_terms == 0, s.name


def test_rho_is_k_equivariant_on_random_elements(cat):
    alg = cat.algebra
    rng = random.Random(91)
    gens = list(Gen)
    for _ in range(8):
        exp = [0] * 10
        for _ in range(rng.randint(1, 3)):
            exp[rng.randrange(10)] += 1
        x = SEElement({(tuple(exp), rng.randrange(16)): Fraction(1)}) \
            + Fraction(1, 2) * se_gen(gens[rng.randrange(10)])
        for zg in K_GENS:
            z = lie_gen(zg)
            assert alg.ad_action(z, alg.rho(x)) == alg.rho(ad_action_se(z, x))


def test_ad_action_uc_is_a_derivation(cat):
    alg = cat.algebra
    x = cat.elements["D"]
    y = cat.elements["i"]
    for zg in K_GENS:
        z = lie_gen(zg)
        lhs = alg.ad_action(z, alg.multiply(x, y))
        rhs = alg.multiply(alg.ad_action(z, x), y) + alg.multiply(x, alg.ad_action(z, y))
        assert lhs == rhs


def test_dirac_square_identity(cat):
    # b = -D^2/2 + Dk, rearranged: D^2 = 2 (Dk - rho(b))
    el = cat.elements
    D = el["D"]
    assert D * D == 2 * (el["Dk"] - el["b"])


def test_alpha_uc_commutator_reproduces_the_p_action(cat):
    alg = cat.algebra
    for zg in K_GENS:
        z = lie_gen(zg)
        az = alg.alpha_uc(z)
        for v in (Gen.E3, Gen.E4, Gen.F3, Gen.F4):
            cv = alg.c_gen(v)
            lhs = alg.multiply(az, cv) - alg.multiply(cv, az)
            img = lie_gen(zg)
            want = alg.zero()
            from so41inv.lie_core import bracket
            for g, c in bracket(img, lie_gen(v)).terms.items():
                want = want + c * alg.c_gen(g)
            assert lhs == want


def test_st_products_and_rank(cat):
    products = st_product_vectors(cat, 4)
    per_degree = {}
    for deg, *_ in products:
        per_degree[deg] = per_degree.get(deg, 0) + 1
    assert per_degree == {0: 1, 2: 4, 3: 4, 4: 13}
    assert uc_rank([v for *_, v in products]) == len(products)


def echelon_rank(vectors) -> int:
    """Reference rank: every vector through the test-only Fraction echelon."""
    ech = FractionEchelon()
    index = {}
    for v in vectors:
        ech.insert({index.setdefault(k, len(index)): c for k, c in v.terms.items()})
    return ech.rank


def test_uc_rank_of_an_independent_family_is_its_size(cat):
    family = [cat.elements[name] for name in ("D", "Dk", "b", "c", "h")]
    assert uc_rank(family) == echelon_rank(family) == len(family)


def test_uc_rank_of_the_empty_family_is_zero():
    assert uc_rank([]) == 0


# D has coefficients +-1, so this multiple of D, scaled by 3, has every
# coefficient +-(2^61 - 1): it vanishes modulo that prime but not over Q,
# and the exact rank over Q must count it
ZERO_MOD_P = Fraction((1 << 61) - 1, 3)


@pytest.mark.parametrize("build, rank", [
    (lambda D, Dk: [D, Dk, D], 2),
    (lambda D, Dk: [Dk, Fraction(-5, 3) * Dk, D], 2),
    (lambda D, Dk: [ZERO_MOD_P * D], 1),
    (lambda D, Dk: [ZERO_MOD_P * D, Dk], 2),
], ids=["duplicate", "rational multiple", "zero mod p alone", "zero mod p among others"])
def test_uc_rank_is_the_exact_rank_over_q(cat, build, rank):
    family = build(cat.elements["D"], cat.elements["Dk"])
    assert uc_rank(family) == echelon_rank(family) == rank


def test_truncated_rank16():
    rep = truncated_rank16_check(cap=6)
    assert rep.total == 70
    assert rep.rank == 70
    assert rep.ok


def test_uc_str_is_stable(cat):
    d = cat.elements["D"]
    assert str(d) == ("(F4) ot (E4) + (F3) ot (E3) "
                      "+ (E4) ot (F4) + (E3) ot (F3)")


def test_incompatible_algebras_do_not_mix(cat):
    other = TensorAlgebra(convention_pform("gram=trace sign=+1"))
    x = cat.elements["D"]
    y = other.one()
    with pytest.raises(Exception):
        _ = x + y


# -- the integer kernels against Fraction oracles, under every convention ---------

# the four candidate conventions have integral Clifford tables; the extra
# form gives table denominator 9 and k-action denominator 3, so the scaling
# between the integer views is exercised too
FORMS = {label: convention_pform(label) for label in CONVENTION_LABELS}
FORMS["gram=trace*2/3 sign=-1"] = PForm.from_trace_form(sign=-1, scale=Fraction(2, 3))


@cache
def algebra_for(label: str) -> TensorAlgebra:
    return TensorAlgebra(FORMS[label])


def fraction_multiply(alg: TensorAlgebra, x, y):
    """The product as a plain Fraction double loop, each Clifford monomial
    product straightened on the spot: no integer view, no shared table."""
    out = {}
    for (eu, mu), cu in x.terms.items():
        for (ev, mv), cv in y.terms.items():
            f = cu * cv
            cprod = alg.cl.word_product(mask_bits(mu) + mask_bits(mv)).terms
            for ee, a in pbw_pair_product(exp_key(eu), exp_key(ev)):
                for mm, bc in cprod.items():
                    k = (decode_exp(ee), mm)
                    nc = out.get(k, Fraction(0)) + f * a * bc
                    if nc:
                        out[k] = nc
                    else:
                        out.pop(k, None)
    return alg.element(out)


coefficients = st.builds(Fraction, st.integers(-6, 6).filter(bool), st.integers(1, 6))
uc_keys = st.tuples(st.lists(st.sampled_from(list(Gen)), max_size=3).map(word_to_exp),
                    st.integers(0, 15))
uc_terms = st.dictionaries(uc_keys, coefficients, min_size=1, max_size=4)
k_combinations = st.dictionaries(st.sampled_from(K_GENS), coefficients,
                                 min_size=1, max_size=3).map(LieElement)
labels = pytest.mark.parametrize("label", FORMS)


@labels
@settings(max_examples=20, deadline=None)
@given(z=k_combinations, terms=uc_terms)
def test_ad_action_is_the_commutator_with_z_plus_alpha_z(label, z, terms):
    alg = algebra_for(label)
    x = alg.element(terms)
    z_hat = alg.from_u(lie_to_u(z)) + alg.alpha_uc(z)
    want = fraction_multiply(alg, z_hat, x) - fraction_multiply(alg, x, z_hat)
    assume(not want.is_zero())
    assert alg.ad_action(z, x) == want


@labels
@settings(max_examples=20, deadline=None)
@given(x=uc_terms, y=uc_terms)
def test_multiply_matches_the_fraction_double_loop(label, x, y):
    alg = algebra_for(label)
    x, y = alg.element(x), alg.element(y)
    assert alg.multiply(x, y) == fraction_multiply(alg, x, y)


@labels
@settings(max_examples=15, deadline=None)
@given(x=uc_terms, y=uc_terms, z=uc_terms)
def test_multiply_is_associative(label, x, y, z):
    alg = algebra_for(label)
    x, y, z = alg.element(x), alg.element(y), alg.element(z)
    assert (x * y) * z == x * (y * z)


@labels
@settings(max_examples=20, deadline=None)
@given(terms=st.dictionaries(
    st.tuples(st.lists(st.sampled_from(list(Gen)), min_size=1, max_size=3).map(word_to_exp),
              st.integers(1, 15)),
    coefficients, min_size=1, max_size=4))
def test_rho_of_mixed_keys_is_sigma_times_tau(label, terms):
    # keys with both an S(g) and a Lambda(p) part, against rho = sigma (x) tau
    # one term at a time: sigma(s) (x) 1 times 1 (x) tau(t), each from its own
    # map; words of one to three letters, repeated or not, give sigma(s)
    # different denominators, which rho must put over their lcm
    alg = algebra_for(label)
    want = alg.zero()
    for (exp, mask), c in terms.items():
        s = alg.from_u(symmetrize(SElement({exp: 1})))
        t = alg.from_c(alg.cl.chevalley(ExtElement({mask: 1})))
        want = want + c * (s * t)
    assert alg.rho(SEElement(terms)) == want


@cache
def catalog_keys() -> list:
    """Every monomial key of the accepted catalog's elements, as (exponent
    tuple, mask) pairs."""
    return [decode(k) for k in sorted({k for el in accepted_catalog().elements.values()
                                       for k in el.num}, key=pair_sort_key)]


@labels
@settings(max_examples=15, deadline=None)
@given(data=st.data())
def test_product_and_action_rows_give_the_term_by_term_results(label, data):
    # int combinations of catalog keys: the product and the ad of each
    # k-generator, from the rows of a used algebra and of a fresh one (its
    # tables empty), against the term-by-term oracle; k_den and table_den
    # are 1 under the four conventions and 9 and 81 under trace*2/3
    terms = st.dictionaries(st.sampled_from(catalog_keys()), st.integers(-9, 9).filter(bool),
                            min_size=1, max_size=5)
    x, y = data.draw(terms), data.draw(terms)
    zs = [lie_gen(g) for g in K_GENS]

    def results(alg, multiply, ad_action):
        ex, ey = alg.element(x), alg.element(y)
        return [(el.num, el.den) for el in
                [multiply(ex, ey), *(ad_action(z, ex) for z in zs)]]

    used = algebra_for(label)
    fresh = TensorAlgebra(used.pform)
    assert fresh._products.cache_info().currsize == fresh._actions.cache_info().currsize == 0
    want = results(used, partial(term_by_term_multiply, used), partial(term_by_term_ad_action, used))
    for alg in (used, used, fresh):  # the used algebra on first and on second read
        assert results(alg, alg.multiply, alg.ad_action) == want


def test_mutating_a_returned_product_leaves_later_calls_intact(cat):
    # both kernels read shared memo tables; every result refuses a write
    alg = cat.algebra
    e1 = lie_gen(Gen.E1)
    x = alg.u_gen(Gen.F1) * alg.c_gen(Gen.E3)
    y = alg.u_gen(Gen.E3) * alg.c_gen(Gen.F3)
    calls = [
        lambda: alg.ad_action(e1, x),
        lambda: alg.ad_action(e1, cat.elements["D"] * x),
        lambda: alg.multiply(x, y),
        lambda: alg.multiply(alg.u_gen(Gen.F3), alg.u_gen(Gen.E3)),
        lambda: alg.cl.k_action(e1, alg.cl.gen(Gen.F3)),
        lambda: alg.cl.multiply(alg.cl.gen(Gen.E3), alg.cl.gen(Gen.F3)),
    ]
    for call in calls:
        first = call()
        want = dict(first.num)
        assert want
        # a write to a packed key past the machine word falls back to the
        # sequence protocol and is refused with IndexError
        with pytest.raises((TypeError, IndexError)):
            first.num[next(iter(first.num))] += 1
        with pytest.raises(TypeError):
            first.num[(None, None)] = 7
        with pytest.raises(AttributeError):
            first.den = 5
        assert call().num == want
