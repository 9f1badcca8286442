"""The element representation: int numerators over one positive denominator
in lowest terms, the laws of the linear structure, and the round trips
through canonical text and element files."""
import operator
import os
import subprocess
import sys
from fractions import Fraction
from itertools import combinations_with_replacement
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

import so41inv
import oracles
from oracles import oracle_dumps, oracle_text, relation_residuals
from so41inv import elements
from so41inv.clifford import ExtElement
from so41inv.elements import (MASK_FIELDS, ZERO_EXP, accumulate, combine, exp_sort_key, fmt_mask,
                              mask_sort_key, nonzero_row, pair_sort_key, signed_sum)
from so41inv.evaluator import evaluate
from so41inv.errors import DomainError
from so41inv.lie_core import LieElement, lie_gen
from so41inv.matrix_oracle import Gen, K_GENS
from so41inv.serialization import dumps_element, loads_element
from so41inv.sym_ext import SEElement, ad_action_se, se_ext_gen, se_gen
from so41inv.tensor_algebra import convention_algebra, derive_chain
from so41inv.uea import SElement, UElement, symmetrize, word_to_exp

ALG = convention_algebra("gram=trace/4 sign=-1")


def assert_normal(el):
    assert type(el.den) is int and el.den > 0
    assert all(type(c) is int and c for c in el.num.values())
    assert gcd(el.den, *el.num.values()) == 1


# -- strategies --------------------------------------------------------------------

coefficients = st.one_of(st.integers(-6, 6),
                         st.builds(Fraction, st.integers(-6, 6), st.integers(1, 6)))
exps = st.lists(st.sampled_from(list(Gen)), max_size=3).map(word_to_exp)
masks = st.integers(0, 15)
pairs = st.tuples(exps, masks)


def term_dicts(keys, max_size=4):
    return st.dictionaries(keys, coefficients, max_size=max_size)


# kind -> (constructor from a term dict, key strategy, has a product)
KINDS = {
    "lie": (LieElement, st.sampled_from(list(Gen)), False),
    "u": (UElement, exps, True),
    "s": (SElement, exps, True),
    "ext": (ExtElement, masks, True),
    "c": (ALG.cl.element, masks, True),
    "se": (SEElement, pairs, True),
    "uc": (ALG.element, pairs, True),
}
kinds = pytest.mark.parametrize("kind", KINDS)


# -- the normal form ---------------------------------------------------------------

@kinds
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_every_operation_returns_the_normal_form(kind, data):
    make, keys, has_product = KINDS[kind]
    t1, t2 = data.draw(term_dicts(keys)), data.draw(term_dicts(keys))
    a = data.draw(coefficients)
    x, y = make(t1), make(t2)
    # construction from mixed int / Fraction dicts keeps every nonzero
    # coefficient exactly
    assert x.terms == {k: Fraction(c) for k, c in t1.items() if c}
    results = [x, y, x + y, x - y, -x, x.scale(a), a * x]
    if a:
        results.append(x / a)
    if has_product:
        results.append(x * y)
    for el in results:
        assert_normal(el)


@kinds
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_additive_group_and_scalar_laws(kind, data):
    make, keys, _ = KINDS[kind]
    x, y, z = (make(data.draw(term_dicts(keys))) for _ in range(3))
    a, b = data.draw(coefficients), data.draw(coefficients)
    zero = make({})
    assert (x + y) + z == x + (y + z)
    assert x + y == y + x and hash(x + y) == hash(y + x)
    assert x + zero == x and (x - x).is_zero() and x - y == x + (-y)
    assert -(-x) == x
    assert (x + y).scale(a) == x.scale(a) + y.scale(a)
    assert x.scale(a + b) == x.scale(a) + x.scale(b)
    assert x.scale(a * b) == x.scale(a).scale(b)
    assert x.scale(1) == x and x.scale(0).is_zero()
    if a:
        assert (x / a).scale(a) == x


# -- sums ----------------------------------------------------------------------------

def test_accumulate_adds_into_one_dict_and_combine_puts_elements_over_the_lcm():
    out = {"a": 1}
    assert accumulate([((("a", 2), ("b", 1)), 3), ((("b", 3),), -1)], out) is out
    assert out == {"a": 7, "b": 0}  # a cancelled entry stays until the normal form
    assert nonzero_row(out) == (("a", 7),)
    e1 = word_to_exp((Gen.E1,))
    x, y = UElement({ZERO_EXP: Fraction(1, 2)}), UElement({e1: Fraction(1, 3)})
    assert combine([(x, 1), (y, -2)]) == ({ZERO_EXP: 3, e1: -4}, 6)
    assert combine([]) == ({}, 1)


@kinds
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_the_one_pass_sum_equals_the_left_fold(kind, data):
    make, keys, _ = KINDS[kind]
    run = data.draw(st.lists(st.tuples(term_dicts(keys).map(make), st.sampled_from((1, -1))),
                             min_size=1, max_size=6))
    first, sign = run[0]
    fold = first if sign > 0 else -first
    for el, sign in run[1:]:
        fold = fold + el if sign > 0 else fold - el
    total = signed_sum(run)
    assert type(total) is type(fold) and total == fold and hash(total) == hash(fold)
    assert_normal(total)


def test_a_sum_that_mixes_kinds_raises_the_type_error_of_the_operator(cat):
    u, s = UElement({ZERO_EXP: 1}), SElement({ZERO_EXP: 1})
    with pytest.raises(TypeError) as op:
        u - s
    with pytest.raises(TypeError) as one_pass:
        signed_sum([(u, 1), (u, 1), (s, -1)])
    assert str(one_pass.value) == str(op.value)
    assert str(op.value) == "unsupported operand type(s) for -: 'UElement' and 'SElement'"
    # a run that mixes the algebras of two conventions
    other = convention_algebra("gram=trace sign=+1")
    run = [(other.u_gen(Gen.E1), 1), (2 * other.u_gen(Gen.H1), 1), (cat.elements["a1"], 1)]
    with pytest.raises(TypeError, match=r"for \+: 'UCElement' and 'UCElement'$"):
        signed_sum(run)


# -- the one scalar rule: a coefficient is an int or a Fraction, and no
# element is a scalar -----------------------------------------------------------

@kinds
@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_a_coefficient_is_an_int_or_a_fraction(kind, data):
    make, keys, _ = KINDS[kind]
    key = data.draw(keys)
    x = make({key: 1})
    for c in (0.5, "1/2"):  # both read by Fraction(), neither taken
        with pytest.raises(TypeError, match="a coefficient is an int or a Fraction, not"):
            make({key: c})
        with pytest.raises(TypeError, match="a coefficient is an int or a Fraction, not"):
            x.scale(c)


@kinds
@settings(max_examples=20, deadline=None)
@given(data=st.data(), q=coefficients)
def test_no_element_is_a_scalar(kind, data, q):
    make, keys, has_product = KINDS[kind]
    x = make(data.draw(term_dicts(keys)))
    for y in (x, make({})) + ((x ** 0, (x ** 0).scale(q)) if has_product else ()):
        for op in (operator.add, operator.sub):
            with pytest.raises(TypeError):
                op(y, q)
            with pytest.raises(TypeError):
                op(q, y)
        assert y != q and q != y and not y == q


@settings(max_examples=20, deadline=None)
@given(coefficients)
def test_a_multiple_of_one_is_not_its_fraction(q):
    # the one lift of a scalar into the algebra is explicit
    x = ALG.scalar(q)
    assert x == ALG.one().scale(q) and x != q and {x: 1}.get(q) is None


# Keys of one shape: two U(g) generators and two Clifford generators, so
# every printed term '2 * (X * Y) ot (V * W)' costs the same to evaluate.
SAME_SHAPE_KEYS = [(word_to_exp(w), mask) for w in combinations_with_replacement(range(10), 2)
                   for mask in (3, 5, 6, 9, 10, 12)]


def test_a_printed_sum_evaluates_in_time_linear_in_its_length(monkeypatch):
    received = [0]
    normal_form = elements._normal_form

    def counted(el, num, den):
        received[0] += len(num)
        normal_form(el, num, den)

    monkeypatch.setattr(elements, "_normal_form", counted)

    def cost(n):
        x = ALG.element({key: 2 for key in SAME_SHAPE_KEYS[:n]})
        text = str(x)
        received[0] = 0
        assert evaluate(text, algebra=ALG) == x
        return received[0]

    # the entries the normal form receives: folding term by term re-reads
    # the whole sum so far at every + and costs about four times as much
    # for twice the terms
    small, large = cost(150), cost(300)
    assert large <= 2 * small + 20


def test_catalog_residuals_and_chain_hold_int_numerators_in_lowest_terms(cat):
    elements = list(cat.elements.values()) + list(derive_chain(cat).values())
    for variant in ("literal", "regrouped"):
        elements += relation_residuals(cat, variant).values()
    assert any(el.den > 1 for el in elements)
    for el in elements:
        assert_normal(el)


# Counts the Fractions made while the four conventions are adjudicated in a
# fresh process, after every import.
COUNT_FRACTIONS = """
import fractions
from so41inv import tensor_algebra
made = [0]
new = fractions.Fraction.__new__
def counted(cls, *args, **kwargs):
    made[0] += 1
    return new(cls, *args, **kwargs)
fractions.Fraction.__new__ = counted
assert tensor_algebra.adjudicate_convention().accepted
print(made[0])
"""


def test_adjudication_makes_few_fractions():
    # the kernels run in ints; what is left is the matrix oracle of the trace
    # form and a few literal coefficients (about 1,200 on Python 3.11)
    src = os.path.dirname(os.path.dirname(so41inv.__file__))
    run = subprocess.run([sys.executable, "-c", COUNT_FRACTIONS],
                         env=dict(os.environ, PYTHONPATH=src),
                         capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stderr
    assert int(run.stdout) < 4000


# -- algebra laws ------------------------------------------------------------------

short_exps = st.lists(st.sampled_from(list(Gen)), max_size=2).map(word_to_exp)


@settings(max_examples=30, deadline=None)
@given(term_dicts(short_exps, 3), term_dicts(short_exps, 3), term_dicts(short_exps, 3))
def test_u_product_is_associative(a, b, c):
    x, y, z = UElement(a), UElement(b), UElement(c)
    assert (x * y) * z == x * (y * z)


k_combinations = st.dictionaries(st.sampled_from(K_GENS), coefficients,
                                 min_size=1, max_size=3).map(LieElement)


# rho = sigma tensor tau intertwines the two ambient actions: k acts on all
# of S(g) tensor Lambda(p) and U(g) tensor C(p), and all of g on S(g) tensor 1
# and U(g) tensor 1, so sigma is g-equivariant
@settings(max_examples=30, deadline=None)
@given(k_combinations, term_dicts(pairs, 3))
def test_rho_is_k_equivariant(z, terms):
    x = SEElement(terms)
    assert ALG.rho(ad_action_se(z, x)) == ALG.ad_action(z, ALG.rho(x))


@pytest.mark.parametrize("gen", list(Gen), ids=lambda g: g.name)
@settings(max_examples=15, deadline=None)
@given(terms=term_dicts(exps, 3))
def test_sigma_is_g_equivariant(gen, terms):
    x = SEElement({(exp, 0): c for exp, c in terms.items()})
    z = lie_gen(gen)
    assert ALG.rho(x) == ALG.from_u(symmetrize(SElement(terms)))
    assert ALG.rho(ad_action_se(z, x)) == ALG.ad_action(z, ALG.rho(x))


@pytest.mark.parametrize("x", [
    se_ext_gen(Gen.F3), se_gen(Gen.H1) * se_ext_gen(Gen.F3), se_gen(Gen.H1) + se_ext_gen(Gen.F3),
], ids=["p", "s-ot-p", "s-plus-p"])
def test_only_k_acts_where_there_is_a_clifford_or_exterior_part(x):
    z = lie_gen(Gen.E3)
    for act, y in ((ad_action_se, x), (ALG.ad_action, ALG.rho(x))):
        with pytest.raises(DomainError, match=r"^element has p-components: E3$"):
            act(z, y)
    # off that part, z acts
    s = SEElement({key: c for key, c in x.terms.items() if not key[1]})
    assert ALG.rho(ad_action_se(z, s)) == ALG.ad_action(z, ALG.rho(s))


# -- round trips -------------------------------------------------------------------

@settings(max_examples=40, deadline=None)
@given(term_dicts(pairs, 5), term_dicts(pairs, 5))
def test_text_and_file_round_trips(uc_terms, se_terms):
    for x, ambient in ((ALG.element(uc_terms), "uc"), (SEElement(se_terms), "se")):
        assert evaluate(str(x), ambient=ambient, algebra=ALG) == x
        text = dumps_element(x)
        back = loads_element(text)
        assert back == x and dumps_element(back) == text


# -- the formatter against the term-by-term reference --------------------------------

# exponents up to 12 in every slot, every mask, and coefficients of either
# sign, integral or not; a drawn zero coefficient drops its term, and an
# empty dict is the zero element
wide_coefficients = st.one_of(st.integers(-40, 40),
                              st.builds(Fraction, st.integers(-40, 40), st.integers(1, 12)))
wide_exps = st.lists(st.integers(0, 12), min_size=10, max_size=10).map(tuple)
sparse_exps = st.lists(st.sampled_from(list(Gen)), max_size=12).map(word_to_exp)
any_exps = st.one_of(wide_exps, sparse_exps)
any_pairs = st.tuples(any_exps, masks)

# kind -> (constructor from a term dict, key strategy)
FORMATTED = {
    "u": (UElement, any_exps),
    "s": (SElement, any_exps),
    "ext": (ExtElement, masks),
    "c": (ALG.cl.element, masks),
    "se": (SEElement, any_pairs),
    "uc": (ALG.element, any_pairs),
}


@pytest.mark.parametrize("kind", FORMATTED)
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_canonical_text_and_element_files_equal_the_reference_byte_for_byte(kind, data):
    make, keys = FORMATTED[kind]
    x = make(data.draw(st.dictionaries(keys, wide_coefficients, max_size=12)))
    assert str(x) == oracle_text(x)
    if kind in ("se", "uc"):
        assert dumps_element(x) == oracle_dumps(x)


@settings(max_examples=60, deadline=None)
@given(st.lists(any_pairs, max_size=30))
def test_the_flat_sort_keys_order_keys_as_the_nested_ones(keys):
    assert sorted(keys, key=pair_sort_key) == sorted(keys, key=oracles.pair_sort_key)
    exps_only = [exp for exp, _ in keys]
    assert sorted(exps_only, key=exp_sort_key) == sorted(exps_only, key=oracles.exp_sort_key)


def test_every_mask_prints_and_sorts_as_the_reference():
    every = list(range(16))
    for m in every:
        assert mask_sort_key(m) == oracles.mask_sort_key(m)
        assert MASK_FIELDS[m] == oracles._mask_str(m)
        for sep in "*^":
            assert fmt_mask(m, sep) == oracles.fmt_mask(m, sep)
    # one element over all 16 masks, under each exponent shape
    for exp in (ZERO_EXP, word_to_exp((Gen.H1, Gen.H1, Gen.F4)), (12,) * 10):
        for x in (ALG.element({(exp, m): Fraction(2 * m - 15, 3) for m in every}),
                  SEElement({(exp, m): 2 * m - 15 for m in every})):
            assert str(x) == oracle_text(x)
            assert dumps_element(x) == oracle_dumps(x)
