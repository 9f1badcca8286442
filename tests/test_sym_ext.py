"""S(g) tensor Lambda(p): the invariant catalog, k-module decompositions,
and the harmonic splitting of S^n(p)."""
import pytest
from collections import Counter
from itertools import combinations_with_replacement

from hypothesis import given, settings, strategies as hs

from oracles import (
    ZERO_EXP,
    GaussRational,
    KModuleLabel,
    decode,
    decompose_k_module,
    graded_keys,
    harmonic_decomposition_check,
    mat_scale,
    pack,
    rational_basis,
    se_k_invariant,
)
from so41inv import cli, sym_ext
from so41inv.clifford import WEDGE, ExtElement, ext_ad_on_mask, popcount
from so41inv.errors import DomainError, NotStableError
from so41inv.lie_core import bracket_gens, lie_gen
from so41inv.matrix_oracle import Gen, K_GENS, P_GENS
from so41inv.sym_ext import (
    SEElement,
    ad_action_se,
    ad_on_key,
    key_degree,
    key_weight,
    se_ext_gen,
    se_gen,
    se_one,
    se_wedge,
    T_ORDER,
)
from so41inv.uea import SElement


def test_catalog_builds_and_certifies(st):
    assert set(st.t_elements) == set(T_ORDER)
    assert len(st.t_elements) == 16


# (k-degree, p-degree, exterior degree) of each closed form, in catalog order
TRIGRADES = {"a1": (2, 0, 0), "a2": (2, 0, 0), "b": (0, 2, 0), "c": (2, 2, 0),
             "D": (0, 1, 1), "d": (1, 0, 2), "e": (1, 0, 2), "f": (1, 1, 1),
             "g": (1, 1, 1), "h": (2, 1, 1), "i": (0, 0, 4), "j": (0, 1, 3)}


def test_each_closed_form_is_homogeneous_in_the_three_gradings(st):
    forms = sym_ext.closed_forms()
    assert list(forms) == list(st.named) == list(TRIGRADES)
    for name, el in forms.items():
        assert el == st.named[name], name
        grades = {(sum(exp[g] for g in K_GENS), sum(exp[g] for g in P_GENS), popcount(mask))
                  for exp, mask in map(decode, el.num)}
        assert grades == {TRIGRADES[name]}, name


@pytest.mark.parametrize("argv, calls", [
    (["verify", "table"], 0),
    (["verify", "dims", "--max-degree", "7"], 0),
    (["verify", "invariance"], 1),
], ids=["table", "dims-7", "invariance"])
def test_a_cold_command_builds_the_closed_forms_only_if_it_reads_the_catalog(
        monkeypatch, capsys, cold_caches, argv, calls):
    made = []
    forms = sym_ext.closed_forms
    monkeypatch.setattr(sym_ext, "closed_forms", lambda: made.append(1) or forms())
    assert cli.main(argv) == 0
    capsys.readouterr()
    assert len(made) == calls


def test_catalog_certifies_each_distinct_element_once(monkeypatch, cold_caches):
    # 12 named elements at build; on the first read of the t, "1" and the
    # seven products: 20 distinct elements, 120 certificates in all
    from so41inv import sym_ext

    calls = []
    ad = sym_ext.ad_action_se

    def counted(z, x):
        calls.append(x)
        return ad(z, x)

    monkeypatch.setattr(sym_ext, "ad_action_se", counted)
    cat = sym_ext.build_st_catalog()
    assert len(calls) == 72 == 6 * len({id(x) for x in calls})
    assert {id(x) for x in calls} == {id(x) for x in cat.named.values()}
    t = cat.t_elements
    assert cat.t_elements is t and cat.t_degrees and sym_ext.build_st_catalog() is cat
    assert len(calls) == 120 == 6 * len({id(x) for x in calls})
    assert {id(x) for x in calls} == \
        {id(x) for x in list(cat.named.values()) + list(t.values())}


def test_cold_verify_relations_never_reads_the_t_elements(monkeypatch, capsys, cold_caches):
    from so41inv import cli, sym_ext

    calls = []
    ad = sym_ext.ad_action_se

    def counted(z, x):
        calls.append(x)
        return ad(z, x)

    monkeypatch.setattr(sym_ext, "ad_action_se", counted)
    assert cli.main(["verify", "relations"]) == 0
    capsys.readouterr()
    cat = sym_ext.build_st_catalog()
    assert "t_elements" not in vars(cat) and "t_degrees" not in vars(cat)
    assert len(calls) == 72


def test_a_failed_t_certificate_names_the_product(cold_caches):
    # the products are certified on first read, so a non-invariant product
    # still raises, and names itself
    from so41inv import sym_ext
    from so41inv.errors import InvarianceError

    named = sym_ext.build_st_catalog().named
    cat = sym_ext.STCatalog({**named, "g": named["g"] + se_gen(Gen.E3)})
    with pytest.raises(InvarianceError) as exc:
        cat.t_elements
    assert str(exc.value) == "Dg is not invariant under ad(H1): 4 residual terms"


def test_a_failed_named_certificate_names_the_element_and_generator(monkeypatch, cold_caches):
    # E1 F1 has weight zero, so ad H1 and ad H2 kill it and ad E1 is the
    # first generator of K_GENS to leave a residual
    from so41inv import sym_ext
    from so41inv.errors import InvarianceError

    forms = sym_ext.closed_forms()
    tampered = {**forms, "g": forms["g"] + se_gen(Gen.E1) * se_gen(Gen.F1)}
    monkeypatch.setattr(sym_ext, "closed_forms", lambda: tampered)
    with pytest.raises(InvarianceError) as exc:
        sym_ext.build_st_catalog()
    assert str(exc.value) == "g is not invariant under ad(E1): 2 residual terms"
    assert (exc.value.element, exc.value.generator) == ("g", "E1")


def test_catalog_elements_all_invariant(st):
    for name, el in st.named.items():
        assert se_k_invariant(el), name
    for name, el in st.t_elements.items():
        assert se_k_invariant(el), name


def test_t_degree_multiset(st):
    degs = sorted(st.t_degrees[name] for name in T_ORDER)
    assert degs == [0, 2, 3, 3, 3, 3, 4, 4, 4, 5, 5, 5, 5, 6, 6, 6]


def test_t_elements_are_homogeneous(st):
    for name, el in st.t_elements.items():
        want = st.t_degrees[name]
        if el.is_zero():
            continue
        assert {key_degree(k) for k in el.num} == {want}, name


def test_key_weight_and_degree():
    k = pack(((1, 0, 0, 0, 0, 0, 2, 0, 0, 0), 0b0101))  # H1 E3^2 ; E3^F3
    assert key_degree(k) == 5
    # H1: (0,0), E3^2: (2,0), ext E3: (1,0), ext F3: (-1,0)
    assert key_weight(k) == (2, 0)


def test_invariants_concentrate_in_weight_zero(st):
    for name, el in st.named.items():
        for key in el.num:
            assert key_weight(key) == (0, 0), name


def test_exterior_square_decomposition():
    space = [se_wedge(a, b) for a, b in
             [(Gen.E3, Gen.E4), (Gen.E3, Gen.F3), (Gen.E3, Gen.F4),
              (Gen.E4, Gen.F3), (Gen.E4, Gen.F4), (Gen.F3, Gen.F4)]]
    got = decompose_k_module(space)
    assert got == Counter({KModuleLabel(1, 1): 1, KModuleLabel(1, -1): 1})


def test_p_itself_is_irreducible():
    space = [se_ext_gen(g) for g in P_GENS]
    assert decompose_k_module(space) == Counter({KModuleLabel(1, 0): 1})


def test_symmetric_square_decomposition():
    space = []
    for a, b in combinations_with_replacement(P_GENS, 2):
        space.append(se_gen(a) * se_gen(b))
    got = decompose_k_module(space)
    assert got == Counter({KModuleLabel(2, 0): 1, KModuleLabel(0, 0): 1})


def test_decompose_rejects_unstable_spans():
    # E3 alone is not a k-submodule
    with pytest.raises(NotStableError):
        decompose_k_module([se_gen(Gen.E3)])


def test_module_label_validation():
    assert KModuleLabel(2, -1).dim() == 2 * 4
    with pytest.raises(ValueError):
        KModuleLabel(1, 2)


def test_harmonic_decomposition_small_degrees():
    for n in range(2, 6):
        rep = harmonic_decomposition_check(n)
        assert rep.ok, rep
        assert rep.top_dim == (n + 1) ** 2


def test_ad_action_se_is_a_derivation():
    x = se_gen(Gen.E3) * se_gen(Gen.F3) + 2 * se_wedge(Gen.E4, Gen.F4)
    y = se_gen(Gen.H1) - se_wedge(Gen.E3, Gen.F4)
    for zg in K_GENS:
        z = lie_gen(zg)
        lhs = ad_action_se(z, x * y)
        rhs = ad_action_se(z, x) * y + x * ad_action_se(z, y)
        assert lhs == rhs


def test_supercommutativity_of_the_exterior_part():
    a, b = se_ext_gen(Gen.E3), se_ext_gen(Gen.F4)
    assert a * b == -(b * a)
    s = se_gen(Gen.H1)
    assert s * a == a * s


def test_b_is_the_printed_quadratic(st):
    want = se_gen(Gen.E3) * se_gen(Gen.F3) + se_gen(Gen.E4) * se_gen(Gen.F4)
    assert st.named["b"] == want


def test_dirac_is_the_printed_sum(st):
    want = SEElement({})
    for g, dual in ((Gen.E3, Gen.F3), (Gen.F3, Gen.E3),
                    (Gen.E4, Gen.F4), (Gen.F4, Gen.E4)):
        want = want + se_gen(g) * se_ext_gen(dual)
    assert st.named["D"] == want


LOW_DEGREE_KEYS = [pack(key) for n in range(4) for key in graded_keys(n)]


def test_ad_on_key_and_ext_ad_on_mask_return_ints():
    # rows: int coefficients, none of them 0, on distinct keys
    for z in K_GENS:
        for row in [ext_ad_on_mask(z, mask) for mask in range(16)] + \
                [ad_on_key(z, key) for key in LOW_DEGREE_KEYS]:
            assert type(row) is tuple and all(type(c) is int and c for _, c in row)
            assert len(dict(row)) == len(row)


def test_ad_on_key_refuses_a_generator_outside_k_on_an_exterior_part():
    # outside k a generator acts on S(g) tensor 1 only, as in ad_action_se
    with pytest.raises(DomainError):
        ad_on_key(Gen.E3, pack((ZERO_EXP, 1)))
    with pytest.raises(DomainError):
        ad_action_se(lie_gen(Gen.E3), se_ext_gen(Gen.E3))
    unit = [tuple(int(g == x) for x in Gen) for g in Gen]
    assert {decode(k): c for k, c in ad_on_key(Gen.E3, pack((unit[Gen.F4], 0)))} == \
        {(unit[g], 0): c for g, c in bracket_gens(Gen.E3, Gen.F4)}


def test_import_time_tables_are_read_only():
    # the wedge and k-action tables are shared by every caller: a write to
    # the table raises, and its entries are tuples
    for table, key in ((WEDGE, (1, 2)), (sym_ext._SLOT_AD, Gen.H1),
                       (sym_ext._EXT_AD, (Gen.H1, 1))):
        with pytest.raises(TypeError):
            table[key] = ()
        with pytest.raises(TypeError):
            del table[key]
        assert all(type(value) is tuple for value in table.values())
    # a WEDGE or _EXT_AD row holds (mask, int) pairs
    for table in (WEDGE, sym_ext._EXT_AD):
        for row in table.values():
            assert all(type(m) is int and 0 <= m < 16 and type(c) is int for m, c in row)


def _ad(z, vec: dict) -> dict:
    out = {}
    for key, c in vec.items():
        for k, cc in ad_on_key(z, key):
            out[k] = out.get(k, 0) + c * cc
    return {k: c for k, c in out.items() if c}


def _combine(*parts) -> dict:
    out = {}
    for scale, vec in parts:
        for k, c in vec.items():
            out[k] = out.get(k, 0) + scale * c
    return {k: c for k, c in out.items() if c}


def test_ad_on_key_is_a_representation_of_k():
    # ad_z1 ad_z2 - ad_z2 ad_z1 = ad_[z1,z2] on every key of degree <= 3
    for z1 in K_GENS:
        for z2 in K_GENS:
            for key in LOW_DEGREE_KEYS:
                unit = {key: 1}
                lhs = _combine((1, _ad(z1, _ad(z2, unit))), (-1, _ad(z2, _ad(z1, unit))))
                rhs = _combine(*((c, _ad(g, unit)) for g, c in bracket_gens(z1, z2)))
                assert lhs == rhs, (z1.name, z2.name, key)


# -- the three graded products against each other ------------------------------
# S(g) and Lambda(p) sit in S(g) tensor Lambda(p) as the keys of mask 0 and of
# exponent 0, so their products must agree with its product there; and its
# product must be associative and graded-commutative. Small exponents and a
# few terms with rational coefficients keep each example cheap.

_exps = hs.lists(hs.integers(0, 2), min_size=10, max_size=10).map(tuple)
_coeffs = hs.fractions(min_value=-3, max_value=3, max_denominator=4)
_s_elements = hs.dictionaries(_exps, _coeffs, max_size=4).map(SElement)
_ext_elements = hs.dictionaries(hs.integers(0, 15), _coeffs, max_size=5).map(ExtElement)
_se_elements = hs.dictionaries(hs.tuples(_exps, hs.integers(0, 15)), _coeffs,
                               max_size=4).map(SEElement)


def _from_s(x: SElement) -> SEElement:
    return SEElement({(exp, 0): c for exp, c in x.terms.items()})


def _from_ext(x: ExtElement) -> SEElement:
    return SEElement({(ZERO_EXP, mask): c for mask, c in x.terms.items()})


def _parity_parts(x: SEElement) -> tuple[SEElement, SEElement]:
    """The parts of x of even and of odd exterior degree."""
    return tuple(SEElement({k: c for k, c in x.terms.items() if popcount(k[1]) % 2 == odd})
                 for odd in (0, 1))


@settings(max_examples=60, deadline=None)
@given(_s_elements, _s_elements)
def test_s_products_equal_se_products_on_mask_zero_keys(x, y):
    assert _from_s(x * y) == _from_s(x) * _from_s(y)


@settings(max_examples=60, deadline=None)
@given(_ext_elements, _ext_elements)
def test_ext_products_equal_se_products_on_exponent_zero_keys(x, y):
    assert _from_ext(x * y) == _from_ext(x) * _from_ext(y)


@settings(max_examples=40, deadline=None)
@given(_se_elements, _se_elements, _se_elements)
def test_se_product_is_associative_and_graded_commutative(x, y, z):
    assert (x * y) * z == x * (y * z)
    for px, a in enumerate(_parity_parts(x)):
        for py, b in enumerate(_parity_parts(y)):
            assert a * b == (-1) ** (px * py) * (b * a)
    assert x * se_one() == se_one() * x == x


# -- theta, the swap of the two sl2 factors -----------------------------------------------
# theta = Ad diag(1, 1, 1, -1, -1) lies in the other component of
# S(O(4) x O(1)): it normalizes K, so it maps K-invariants to K-invariants.
# It is derived here from the 5 x 5 matrices alone.

THETA_DIAG = (1, 1, 1, -1, -1)
THETA = {Gen.H1: (Gen.H1, 1), Gen.H2: (Gen.H2, -1), Gen.E1: (Gen.E2, 1), Gen.E2: (Gen.E1, 1),
         Gen.F1: (Gen.F2, 1), Gen.F2: (Gen.F1, 1), Gen.E3: (Gen.E3, -1), Gen.F3: (Gen.F3, -1),
         Gen.E4: (Gen.F4, -1), Gen.F4: (Gen.E4, -1)}
# the image of each closed form: (name, sign)
THETA_IMAGES = {"a1": ("a2", 1), "a2": ("a1", 1), "b": ("b", 1), "c": ("c", 1), "D": ("D", 1),
                "d": ("e", -1), "e": ("d", -1), "f": ("g", -1), "g": ("f", -1), "h": ("h", 1),
                "i": ("i", -1), "j": ("j", -1)}


def theta_on_generators() -> dict:
    """Each generator's image under conjugation by diag(1, 1, 1, -1, -1), as
    (generator, sign): the one basis matrix, up to sign, that it equals."""
    mats = rational_basis()
    image = {}
    for g, m in mats.items():
        conj = tuple(tuple(x if THETA_DIAG[i] == THETA_DIAG[j] else -x for j, x in enumerate(row))
                     for i, row in enumerate(m))
        hits = [(h, s) for h, n in mats.items() for s in (1, -1)
                if conj == mat_scale(GaussRational(s), n)]
        assert len(hits) == 1, g
        image[g] = hits[0]
    return image


def theta_key(theta: dict, key: tuple) -> tuple:
    """theta of one key of S(g) tensor Lambda(p), as (key, sign): the
    exponents permuted and signed, and the images of the exterior factors,
    in the bit order of the mask, wedged through WEDGE."""
    exp, mask = key
    out, sign, m = [0] * 10, 1, 0
    for g, e in zip(Gen, exp):
        h, s = theta[g]
        out[h] += e
        sign *= s ** e
    for bit, g in enumerate(P_GENS):
        if mask >> bit & 1:
            h, s = theta[g]
            (m, c), = WEDGE[m, 1 << P_GENS.index(h)]
            sign *= s * c
    return (tuple(out), m), sign


def theta_se(theta: dict, x: SEElement) -> SEElement:
    images = {key: theta_key(theta, key) for key in x.terms}
    return SEElement({images[key][0]: images[key][1] * c for key, c in x.terms.items()})


def test_theta_of_the_matrices_is_the_swap_of_the_sl2_factors():
    assert theta_on_generators() == THETA


def test_theta_preserves_the_bracket():
    theta = theta_on_generators()
    for a in Gen:
        for b in Gen:
            (ta, sa), (tb, sb) = theta[a], theta[b]
            image = sorted((theta[g][0], theta[g][1] * c) for g, c in bracket_gens(a, b))
            assert image == sorted((g, sa * sb * c) for g, c in bracket_gens(ta, tb)), (a, b)


def test_theta_maps_each_closed_form_to_its_partner(st):
    # a1 <-> a2, d <-> -e, f <-> -g, i -> -i, j -> -j; b, c, D and h fixed
    theta = theta_on_generators()
    assert set(THETA_IMAGES) == set(st.named)
    for name, (image, sign) in THETA_IMAGES.items():
        assert theta_se(theta, st.named[name]) == sign * st.named[image], name
