"""Clifford algebra of p: relations, associativity, the Chevalley map, and
the quadratic lift alpha of the k-action."""
import random
from fractions import Fraction

import pytest

from so41inv.clifford import (
    WEDGE,
    CliffordAlgebra,
    ExtElement,
    PForm,
    TOP_MASK,
    ext_ad_on_mask,
    ext_gen,
    ext_wedge,
    popcount,
)
from oracles import ZERO_EXP
from so41inv.errors import DomainError
from so41inv.lie_core import bracket, lie_gen
from so41inv.matrix_oracle import Gen, K_GENS, P_GENS
from so41inv.sym_ext import SEElement, ad_action_se
from so41inv.tensor_algebra import CONVENTION_LABELS, TensorAlgebra, convention_pform


@pytest.fixture(scope="module", params=[-1, 1], ids=["sign=-1", "sign=+1"])
def algebra(request):
    return CliffordAlgebra(PForm.from_trace_form(sign=request.param,
                                                 scale=Fraction(1, 4)))


def random_c(alg, rng, terms=3):
    out = alg.zero()
    for _ in range(terms):
        mask = rng.randrange(16)
        coeff = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
        out = out + coeff * alg.element({mask: 1})
    return out


def test_generator_relations(algebra):
    for a in P_GENS:
        for b in P_GENS:
            va, vb = algebra.gen(a), algebra.gen(b)
            i, j = P_GENS.index(a), P_GENS.index(b)
            want = algebra.scalar(2 * algebra.pform.phi(i, j))
            assert va * vb + vb * va == want


TABLE_MUTATORS = ("__setitem__", "__delitem__", "__ior__", "update", "pop", "popitem", "clear",
                  "setdefault")


def test_product_and_k_action_tables_hold_only_ints(algebra):
    # the tables fill on first read: read every entry
    assert type(algebra.table_den) is int and type(algebra.k_den) is int
    for table, keys in ((algebra.table, [(ma, mb) for ma in range(16) for mb in range(16)]),
                        (algebra.k_table, [(zg, m) for zg in K_GENS for m in range(16)])):
        entries = [table(*key) for key in keys]
        assert table.cache_info().currsize == len(keys)
        assert all(type(c) is int for row in entries for _, c in row)
        assert not [name for name in TABLE_MUTATORS if hasattr(table, name)]


def test_tables_fill_only_the_entries_read():
    alg = CliffordAlgebra(PForm.from_trace_form(sign=-1, scale=Fraction(1, 4)))
    tables = (alg.table, alg.k_table, alg._tau_table, alg._insert_table)
    assert [t.cache_info().currsize for t in tables] == [0] * 4
    v = alg.gen(P_GENS[0])
    assert v * v == alg.scalar(alg.pform.phi(0, 0))
    # only (1, 1) filled: one miss, then a re-read is a hit
    assert alg.table.cache_info()[:2] == (0, 1) and alg.table.cache_info().currsize == 1
    alg.table(1, 1)
    assert alg.table.cache_info()[:2] == (1, 1) and alg.table.cache_info().currsize == 1
    assert [t.cache_info().currsize for t in (alg.k_table, alg._tau_table)] == [0, 0]


@pytest.mark.parametrize("sign", [-1, 1], ids=["sign=-1", "sign=+1"])
def test_every_cached_row_is_read_only(sign):
    # every product reads the same row of a shared table, so a write to an
    # entry of the four Clifford tables or of the U(g) (x) C(p) product and
    # action rows, or to any of those tables itself, must raise rather than
    # change what later products print
    alg = TensorAlgebra(PForm.from_trace_form(sign=sign, scale=Fraction(1, 4)))
    cl, e1 = alg.cl, lie_gen(Gen.E1)
    x = alg.u_gen(Gen.F1) * alg.c_gen(Gen.E3)
    y = alg.u_gen(Gen.E3) * alg.c_gen(Gen.F3)
    calls = [
        lambda: cl.gen(Gen.E3) * cl.gen(Gen.F3),
        lambda: cl.k_action(e1, cl.gen(Gen.F3) * cl.gen(Gen.F4)),
        lambda: cl.chevalley(ext_wedge(Gen.E3, Gen.F3, Gen.F4)),
        lambda: cl.alpha(e1),
        lambda: x * y,
        lambda: alg.ad_action(e1, x * y),
        lambda: alg.rho_named("D"),
    ]
    want = [str(call()) for call in calls]
    # the calls filled every table, and read E3 * F3 from cl.table
    hits = cl.table.cache_info().hits
    cl.table(1, 4)
    assert cl.table.cache_info().hits == hits + 1
    kx, ky, key = next(iter(x.num)), next(iter(y.num)), next(iter((x * y).num))
    read = {cl.table: (1, 4), cl.k_table: (Gen.E1, 12), cl._tau_table: (13,),
            cl._insert_table: (1, 2), alg._products: (kx, ky), alg._actions: (Gen.E1, key)}

    bogus = ((0, 999),)

    def set_item(t, k):
        t[k] = bogus

    def del_item(t, k):
        del t[k]

    def merge(t, k):
        t |= {k: bogus}

    for table, k in read.items():
        assert table.cache_info().currsize
        assert not [name for name in TABLE_MUTATORS if hasattr(table, name)]
        size = table.cache_info().currsize
        for write in (set_item, del_item, merge):
            with pytest.raises(TypeError):
                write(table, k)
        assert table.cache_info().currsize == size and table(*k) is not bogus

    def assign(row):
        row[0] = 999

    def delete(row):
        del row[0]

    # every row the calls read, and more: each Clifford table over its whole
    # domain, the product and action rows over the keys of x, y and x y
    domains = {cl.table: [(ma, mb) for ma in range(16) for mb in range(16)],
               cl.k_table: [(zg, m) for zg in K_GENS for m in range(16)],
               cl._tau_table: [(m,) for m in range(16)],
               cl._insert_table: [(m, b) for m in range(16) for b in range(4)],
               alg._products: [(a, b) for a in x.num for b in (*y.num, *(x * y).num)],
               alg._actions: [(zg, k) for zg in K_GENS for k in (*x.num, *(x * y).num)]}
    for table, keys in domains.items():
        for row in (table(*k) for k in keys):
            for write in (assign, delete):
                with pytest.raises(TypeError):
                    write(row)
            assert type(row) is tuple and all(type(c) is int and c for _, c in row)
    assert [str(call()) for call in calls] == want


def test_associativity_all_monomial_triples(algebra):
    monos = [algebra.element({m: 1}) for m in range(16)]
    for x in monos:
        for y in monos:
            xy = x * y
            for z in monos:
                assert (xy) * z == x * (y * z)


def test_unit_and_scalar_embedding(algebra):
    x = random_c(algebra, random.Random(5))
    assert algebra.one() * x == x == x * algebra.one()
    assert algebra.scalar(Fraction(3, 2)) * x == Fraction(3, 2) * x


def test_ext_wedge_antisymmetry():
    for a in P_GENS:
        for b in P_GENS:
            ab = ext_gen(a) * ext_gen(b)
            ba = ext_gen(b) * ext_gen(a)
            assert ab == -ba
            if a == b:
                assert ab.is_zero()


def test_ext_wedge_associative_exhaustive():
    monos = [ExtElement({m: 1}) for m in range(16)]
    for x in monos:
        for y in monos:
            xy = x * y
            for z in monos:
                assert xy * z == x * (y * z)


@pytest.mark.parametrize("label", CONVENTION_LABELS)
def test_wedge_is_the_top_degree_part_of_the_clifford_product(label):
    # an independent oracle for WEDGE, under every convention: the straightened
    # Clifford product ma * mb is ma ^ mb plus terms of lower degree, and
    # overlapping masks have no part of degree |ma| + |mb|
    alg = CliffordAlgebra(convention_pform(label))
    for ma in range(16):
        for mb in range(16):
            degree = popcount(ma) + popcount(mb)
            top = {m: Fraction(c, alg.table_den) for m, c in alg.table(ma, mb)
                   if c and popcount(m) == degree}
            if ma & mb:
                assert WEDGE[ma, mb] == () and top == {}
                assert (ExtElement({ma: 1}) * ExtElement({mb: 1})).is_zero()
                continue
            (mask, sign), = WEDGE[ma, mb]
            assert top == {mask: sign}, (ma, mb)
            assert ExtElement({ma: 1}) * ExtElement({mb: 1}) == ExtElement({mask: sign})
    assert len(WEDGE) == 16 * 16
    assert sum(1 for row in WEDGE.values() if row) == 3 ** 4  # each bit in ma, in mb or in neither


def test_wedge_is_graded_commutative():
    # ma ^ mb = (-1)^(|ma| |mb|) mb ^ ma
    for (ma, mb), row in WEDGE.items():
        assert WEDGE[mb, ma] == tuple((mask, (-1) ** (popcount(ma) * popcount(mb)) * sign)
                                      for mask, sign in row)


def _ext_ad(zg, x: ExtElement) -> ExtElement:
    out = ExtElement({})
    for mask, c in x.terms.items():
        out = out + c * ExtElement(dict(ext_ad_on_mask(zg, mask)))
    return out


def test_ext_ad_on_mask_is_a_derivation_of_the_wedge():
    # ad z (x ^ y) = ad z (x) ^ y + x ^ ad z (y) for every k-generator and
    # every pair of masks, the disjoint pairs read from WEDGE
    monos = [ExtElement({m: 1}) for m in range(16)]
    for zg in K_GENS:
        for x in monos:
            for y in monos:
                assert _ext_ad(zg, x * y) == _ext_ad(zg, x) * y + x * _ext_ad(zg, y), (zg, x, y)


def test_ext_gen_rejects_k():
    with pytest.raises(DomainError):
        ext_gen(Gen.H1)


def test_top_wedge():
    top = ext_wedge(Gen.E3, Gen.E4, Gen.F3, Gen.F4)
    assert top == ExtElement({TOP_MASK: 1})


def test_chevalley_on_degree_two(algebra):
    # tau(v ^ w) = (vw - wv)/2 = vw - phi(v, w)
    for a in P_GENS:
        for b in P_GENS:
            if a >= b:
                continue
            i, j = P_GENS.index(a), P_GENS.index(b)
            got = algebra.chevalley(ext_gen(a) * ext_gen(b))
            want = algebra.gen(a) * algebra.gen(b) \
                - algebra.scalar(algebra.pform.phi(i, j))
            assert got == want


def test_chevalley_filtration(algebra):
    # tau(monomial) = clifford word + strictly lower clifford degree
    for mask in range(16):
        gens = [P_GENS[b] for b in range(4) if mask >> b & 1]
        word = algebra.one()
        for g in gens:
            word = word * algebra.gen(g)
        diff = algebra.chevalley(ExtElement({mask: 1})) - word
        deg = len(gens)
        assert all(bin(m).count("1") < deg for m in diff.terms)


def test_chevalley_k_equivariant(algebra):
    # tau is rho on 1 tensor Lambda(p): k acts there by ad_on_key before tau
    # and by the Clifford derivation after it
    alg = TensorAlgebra(algebra.pform)
    rng = random.Random(31)
    for _ in range(10):
        x = ExtElement({rng.randrange(16): Fraction(rng.randint(-3, 3), 1)
                        for _ in range(3)})
        xse = SEElement({(ZERO_EXP, m): c for m, c in x.terms.items()})
        tx = algebra.chevalley(x)
        assert alg.rho(xse) == alg.from_c(tx)
        for zg in K_GENS:
            z = lie_gen(zg)
            assert alg.rho(ad_action_se(z, xse)) == alg.ad_action(z, alg.rho(xse)) \
                == alg.from_c(algebra.k_action(z, tx))


def test_k_action_is_a_derivation(algebra):
    rng = random.Random(32)
    for _ in range(8):
        x, y = random_c(algebra, rng), random_c(algebra, rng)
        for zg in K_GENS:
            z = lie_gen(zg)
            lhs = algebra.k_action(z, x * y)
            rhs = algebra.k_action(z, x) * y + x * algebra.k_action(z, y)
            assert lhs == rhs


def test_k_table_is_a_derivation_of_the_clifford_table(algebra):
    # ad z (x y) = ad z (x) y + x ad z (y) on every pair of monomials, through
    # the k_table and the product table
    monos = [algebra.element({m: 1}) for m in range(16)]
    for zg in K_GENS:
        z = lie_gen(zg)
        ad = [algebra.k_action(z, x) for x in monos]
        for a, x in enumerate(monos):
            for b, y in enumerate(monos):
                assert algebra.k_action(z, x * y) == ad[a] * y + x * ad[b], (zg, a, b)


def test_alpha_defining_property_all_24_pairs(algebra):
    # [alpha(z), v] = [z, v] inside the Clifford algebra, for every
    # k-generator z and p-generator v
    for zg in K_GENS:
        z = lie_gen(zg)
        az = algebra.alpha(z)
        for v in P_GENS:
            lhs = algebra.commutator(az, algebra.gen(v))
            img = bracket(z, lie_gen(v))
            rhs = algebra.zero()
            for g, c in img.terms.items():
                rhs = rhs + c * algebra.gen(g)
            assert lhs == rhs, (zg.name, v.name)


def test_alpha_is_linear_in_z(algebra):
    z1, z2 = lie_gen(Gen.E1), lie_gen(Gen.H2)
    assert algebra.alpha(z1 + z2) == algebra.alpha(z1) + algebra.alpha(z2)
    assert algebra.alpha(3 * z1) == 3 * algebra.alpha(z1)


def test_alpha_is_a_lie_homomorphism(algebra):
    # the chosen gauge (image of the Chevalley map on Lambda^2 p) makes
    # alpha respect brackets, not just commutator actions
    kg = [lie_gen(g) for g in K_GENS]
    for z in kg:
        for w in kg:
            lhs = algebra.commutator(algebra.alpha(z), algebra.alpha(w))
            assert lhs == algebra.alpha(bracket(z, w))


def test_alpha_lands_in_the_chevalley_image_of_two_forms(algebra):
    # alpha(z) = tau(omega) for a 2-form omega: quadratic leading part plus
    # whatever scalar tau produces, and nothing else
    for zg in K_GENS:
        az = algebra.alpha(lie_gen(zg))
        degrees = {bin(mask).count("1") for mask in az.terms}
        assert 2 in degrees
        assert degrees <= {0, 2}
        two_part = ExtElement(
            {m: c for m, c in az.terms.items() if bin(m).count("1") == 2})
        assert algebra.chevalley(two_part) == az


def test_degenerate_form_is_rejected():
    zero_gram = tuple(tuple(Fraction(0) for _ in range(4)) for _ in range(4))
    with pytest.raises(ValueError):
        CliffordAlgebra(PForm(gram=zero_gram, sign=1, label="zero"))


# each gram is refused by PForm itself, before any algebra is built; a float
# entry by the one scalar rule
@pytest.mark.parametrize("gram, error, message", [
    (((1,),), ValueError, "gram matrix must be 4 x 4"),
    (tuple(tuple(int(i == j) for j in range(5)) for i in range(5)), ValueError,
     "gram matrix must be 4 x 4"),
    (tuple(tuple(float(v) for v in row) for row in PForm.from_trace_form().gram), TypeError,
     "a coefficient is an int or a Fraction, not 'float'"),
], ids=["1x1", "5x5-identity", "float-trace"])
def test_pform_refuses_a_malformed_gram(gram, error, message):
    with pytest.raises(error, match=f"^{message}$"):
        PForm(gram)


def test_pform_is_a_validated_immutable_value():
    gram = PForm.from_trace_form().gram
    form = PForm(gram)
    assert (form.sign, form.label) == (1, "custom")
    with pytest.raises(ValueError):
        PForm(gram=gram, sign=0)
    skew = tuple(tuple(Fraction(i - j) for j in range(4)) for i in range(4))
    with pytest.raises(ValueError):
        PForm(skew)
    with pytest.raises(TypeError):
        PForm(gram, 1, "trace", "extra")
    with pytest.raises(TypeError):
        PForm(gram, sign=1, scale=2)
    with pytest.raises(AttributeError):
        form.sign = -1
    with pytest.raises(AttributeError):
        del form.label
    same = PForm(gram=tuple(map(tuple, gram)), sign=1, label="custom")
    assert same == form and hash(same) == hash(form) and same is not form
    assert PForm(gram, -1) != form and PForm(gram, label="trace") != form
    assert form != (gram, 1, "custom")
    assert repr(form).startswith("PForm(gram=((Fraction(")
    assert repr(form).endswith(", sign=1, label='custom')")
