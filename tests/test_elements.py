"""The element representation: int numerators over one positive denominator
in lowest terms, the laws of the linear structure, and the round trips
through canonical text and element files."""
import os
import subprocess
import sys
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

import so41inv
from so41inv.clifford import ExtElement
from so41inv.evaluator import evaluate
from so41inv.errors import DomainError
from so41inv.lie_core import LieElement, lie_gen
from so41inv.matrix_oracle import Gen, K_GENS
from so41inv.serialization import dumps_element, loads_element
from so41inv.sym_ext import SEElement, ad_action_se, se_ext_gen, se_gen
from so41inv.tensor_algebra import (
    RELATION_VARIANTS,
    convention_algebra,
    derive_chain,
    relation_residuals,
)
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


def test_catalog_residuals_and_chain_hold_int_numerators_in_lowest_terms(cat):
    elements = list(cat.elements.values()) + list(derive_chain(cat).values())
    for variant in RELATION_VARIANTS:
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
