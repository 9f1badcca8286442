"""Test-only reference implementations. A Fraction echelon kept fully
reduced on every insert, the zero-weight block found by filtering every
monomial key of a degree and keys packed digit by digit share no code with
the engine paths they check.
The textbook first-descent rewriting of a generator word checks the
straightening by generator insertion. The products sigma(s) rho(t) in
U(g) tensor C(p) are the objects whose symbols the freeness certificate
proves independent; the symbols themselves are formed and ranked degree by
degree as its cross-check, and a Fraction determinant checks the rank of
its certificate A. The k-module decomposition (weights plus highest weight
counting) and the invariance predicates by all six k-generators back the
tests of the closed-form catalog; no verify path uses them. The 5x5
matrix products, brackets and combinations over Q(i), entry by entry in
GaussRational, check the Gaussian integer evaluation of the commutator
table. A sparse transpose turns the dependencies among rows, the engine's
one kernel, into a matrix kernel for the Fraction RREF to check."""
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from itertools import combinations_with_replacement
from math import comb

from so41inv.errors import NotStableError
from so41inv.lie_core import LieElement, bracket_gens, lie_gen
from so41inv.linalg import RationalEchelon, sparse_rank
from so41inv.matrix_oracle import GR0, GaussRational, Gen, K_GENS, P_GENS
from so41inv.sym_ext import (
    SEElement,
    ad_action_se,
    build_b,
    build_st_catalog,
    key_weight,
    s_monomials_up_to,
    se_one,
)
from so41inv.uea import SElement, UElement, symmetrize, word_to_exp


class FractionEchelon:
    """Reduced row echelon basis over Q, maintained in Fraction arithmetic:
    each new row is normalized to pivot 1 and cleared out of every stored
    row. Rows are dicts {column: Fraction}, keyed by pivot column."""

    def __init__(self):
        self.rows: dict[int, dict[int, Fraction]] = {}

    @property
    def rank(self) -> int:
        return len(self.rows)

    def reduce(self, vec: dict) -> dict[int, Fraction]:
        res = {c: Fraction(v) for c, v in vec.items() if v}
        for col in sorted(self.rows):
            f = res.get(col)
            if not f:
                continue
            for c, v in self.rows[col].items():
                nv = res.get(c, Fraction(0)) - f * v
                if nv:
                    res[c] = nv
                else:
                    res.pop(c, None)
        return res

    def insert(self, vec: dict) -> bool:
        res = self.reduce(vec)
        if not res:
            return False
        piv = min(res)
        inv = 1 / res[piv]
        row = {c: v * inv for c, v in res.items()}
        for prow in self.rows.values():
            f = prow.get(piv)
            if f:
                for c, v in row.items():
                    nv = prow.get(c, Fraction(0)) - f * v
                    if nv:
                        prow[c] = nv
                    else:
                        prow.pop(c, None)
        self.rows[piv] = row
        return True

    def contains(self, vec: dict) -> bool:
        return not self.reduce(vec)


# -- 5x5 matrices over Q(i), as tuples of GaussRational rows -------------------

GAMMA = tuple(tuple(GaussRational(d if i == j else 0) for j in range(5))
              for i, d in enumerate((1, 1, 1, 1, -1)))


def mat_sub(a, b):
    return tuple(tuple(x - y for x, y in zip(ra, rb)) for ra, rb in zip(a, b))


def mat_mul(a, b):
    return tuple(tuple(sum((a[i][k] * b[k][j] for k in range(5)), GR0)
                       for j in range(5)) for i in range(5))


def mat_scale(c: GaussRational, a):
    return tuple(tuple(c * x for x in row) for row in a)


def mat_transpose(a):
    return tuple(tuple(a[j][i] for j in range(5)) for i in range(5))


def matrix_bracket(a, b):
    return mat_sub(mat_mul(a, b), mat_mul(b, a))


def mat_combination(mats, coeffs):
    """The sum of c * mats[g] over the (g, c) pairs of coeffs."""
    out = tuple(tuple(GR0 for _ in range(5)) for _ in range(5))
    for g, c in coeffs:
        out = mat_sub(out, mat_scale(GaussRational(-c), mats[g]))
    return out


def transpose(rows: list[dict], ncols: int) -> list[dict]:
    """The sparse matrix with rows given over columns 0..ncols-1, read
    column by column: one row per column, over the row positions."""
    out: list[dict] = [{} for _ in range(ncols)]
    for i, row in enumerate(rows):
        for c, v in row.items():
            out[c][i] = v
    return out


def rref_kernel(rows: list[dict], ncols: int) -> list[dict[int, Fraction]]:
    """One kernel vector per free column, read off the reduced echelon form."""
    ech = FractionEchelon()
    for r in rows:
        ech.insert(r)
    kernel = []
    for free in range(ncols):
        if free in ech.rows:
            continue
        vec = {free: Fraction(1)}
        for pcol, prow in ech.rows.items():
            c = prow.get(free)
            if c:
                vec[pcol] = -c
        kernel.append(vec)
    return kernel


def _compositions(total: int, slots: int):
    """All tuples of `slots` nonnegative ints summing to `total`."""
    if slots == 1:
        yield (total,)
        return
    for head in range(total + 1):
        for rest in _compositions(total - head, slots - 1):
            yield (head,) + rest


def graded_keys(n: int) -> list[tuple]:
    """All monomial keys of total degree n, symmetric part times exterior
    part, sorted."""
    out = []
    for mask in range(16):
        k = bin(mask).count("1")
        if k > n:
            continue
        for exp in _compositions(n - k, 10):
            out.append((exp, mask))
    out.sort()
    return out


def first_descent_straighten(word: tuple[int, ...], memo: dict) -> dict[tuple, int]:
    """The product of the generators `word` over PBW monomials, by the
    textbook rewriting g_a g_b -> g_b g_a + [g_a, g_b] at the first descent.
    `memo` maps words to their results and is filled as it goes."""
    word = tuple(int(g) for g in word)
    if word in memo:
        return memo[word]
    pos = next((i for i in range(len(word) - 1) if word[i] > word[i + 1]), None)
    if pos is None:
        out = {word_to_exp(word): 1}
    else:
        a, b = word[pos], word[pos + 1]
        out = dict(first_descent_straighten(word[:pos] + (b, a) + word[pos + 2:], memo))
        for g, cg in bracket_gens(a, b):
            for m, c in first_descent_straighten(word[:pos] + (g,) + word[pos + 2:], memo).items():
                out[m] = out.get(m, 0) + c * cg
        out = {m: c for m, c in out.items() if c}
    memo[word] = out
    return out


def filtered_zero_weight_keys(n: int) -> list[tuple]:
    return [key for key in graded_keys(n) if key_weight(key) == (0, 0)]


def pack(key: tuple) -> int:
    """The packed key that invariants.unpack reads: the ten exponents as
    base-256 digits, H1 most significant, then the mask as the low 4 bits."""
    exp, mask = key
    out = 0
    for e in exp:
        assert 0 <= e < 256
        out = out * 256 + e
    return out * 16 + mask


def s_monomial_element(cat, q: tuple[int, int, int, int]) -> SEElement:
    """a1^n1 a2^n2 b^n3 c^n4 in S(g) tensor Lambda(p), for q = (n1, n2, n3, n4)."""
    n1, n2, n3, n4 = q
    out = se_one()
    for name, n in (("a1", n1), ("a2", n2), ("b", n3), ("c", n4)):
        for _ in range(n):
            out = out * cat.named[name]
    return out


def symbol_ranks(cap: int) -> dict[int, tuple[int, int]]:
    """For each degree n <= cap: the number of products s.t of degree n, s a
    monomial in a1, a2, b, c and t one of the sixteen module generators, and
    the rank over Q of those products in S(g) tensor Lambda(p), formed and
    ranked degree by degree: the direct check of what the freeness
    certificate proves for every degree."""
    st = build_st_catalog()
    families: dict[int, list[SEElement]] = {n: [] for n in range(cap + 1)}
    for q in s_monomials_up_to(cap):
        s_deg = 2 * (q[0] + q[1] + q[2]) + 4 * q[3]
        s_el = s_monomial_element(st, q)
        for name, t_el in st.t_elements.items():
            n = s_deg + st.t_degrees[name]
            if n <= cap:
                families[n].append(s_el * t_el)
    return {n: (len(family), sparse_rank([el.num for el in family]))
            for n, family in families.items()}


def fraction_det(matrix: list[list]) -> Fraction:
    """Determinant of a square matrix by Gaussian elimination in Fractions."""
    m = [[Fraction(v) for v in row] for row in matrix]
    n = len(m)
    det = Fraction(1)
    for col in range(n):
        piv = next((r for r in range(col, n) if m[r][col]), None)
        if piv is None:
            return Fraction(0)
        if piv != col:
            m[col], m[piv] = m[piv], m[col]
            det = -det
        det *= m[col][col]
        for r in range(col + 1, n):
            f = m[r][col] / m[col][col]
            if f:
                m[r] = [a - f * b for a, b in zip(m[r], m[col])]
    return det


def st_product_vectors(cat, cap: int = 6) -> list[tuple]:
    """All products sigma(s) rho(t) in U(g) tensor C(p), s over monomials in
    the four polynomial invariants and t over the sixteen module generators,
    with total degree deg s + deg t <= cap. Returns (degree, s exponents,
    t name, element) tuples."""
    st = build_st_catalog()
    alg = cat.algebra
    rho_t = {name: alg.rho(el) for name, el in st.t_elements.items()}
    out = []
    for q in s_monomials_up_to(cap):
        s_deg = 2 * (q[0] + q[1] + q[2]) + 4 * q[3]
        s_el = s_monomial_element(st, q)
        # s is a pure S(g) element; symmetrize and lift
        s_u = symmetrize(SElement({exp: c for (exp, mask), c in s_el.terms.items()}))
        s_uc = alg.from_u(s_u)
        for name, t_el in rho_t.items():
            total = s_deg + st.t_degrees[name]
            if total <= cap:
                out.append((total, q, name, alg.multiply(s_uc, t_el)))
    return out


def uc_rank(vectors) -> int:
    """Rank over Q of a family of U(g) tensor C(p) elements."""
    return sparse_rank([v.terms for v in vectors])


def se_k_invariant(x: SEElement) -> bool:
    return all(ad_action_se(lie_gen(z), x).is_zero() for z in K_GENS)


def lie_to_u(x: LieElement) -> UElement:
    """The Lie algebra element x as an element of U(g)."""
    return UElement._of({word_to_exp((g,)): c for g, c in x.num.items()}, x.den)


def u_k_invariant(x: UElement) -> bool:
    """x commutes in U(g) with every k-generator."""
    return all(z * x == x * z for z in (lie_to_u(lie_gen(g)) for g in K_GENS))


# -- k-module decomposition ----------------------------------------------------

@dataclass(frozen=True)
class KModuleLabel:
    """Label (a, b) of the simple k-module with highest weight a on H1 and b
    on H2; necessarily a >= |b|."""

    a: int
    b: int

    def __post_init__(self):
        if self.a < abs(self.b):
            raise ValueError(f"({self.a},{self.b}) is not a dominant label")

    def dim(self) -> int:
        return (self.a + self.b + 1) * (self.a - self.b + 1)

    def __repr__(self):
        return f"V({self.a},{self.b})"


def _coords(key_index: dict[tuple, int], el: SEElement) -> dict[int, int]:
    """Coordinates of el times el.den, which no span sees, numbering keys in
    the order key_index sees them."""
    return {key_index.setdefault(k, len(key_index)): c for k, c in el.num.items()}


def decompose_k_module(space: list[SEElement]) -> Counter:
    """Decompose the span of `space` into simple k-modules.

    Checks stability under the k-action first (NotStableError otherwise),
    then counts highest weight vectors per dominant weight. Returns a Counter
    {KModuleLabel: multiplicity}.
    """
    span = RationalEchelon()
    basis: list[SEElement] = []
    coords = partial(_coords, {})

    for el in space:
        if el.is_zero():
            continue
        if span.insert(coords(el)):
            basis.append(el)
    if not basis:
        return Counter()
    for z in K_GENS:
        zel = lie_gen(z)
        for el in basis:
            img = ad_action_se(zel, el)
            if img.is_zero():
                continue
            if not span.contains(coords(img)):
                raise NotStableError(f"span not closed under ad({z.name})")
    # split the span basis into weight components; each basis vector may mix
    # weights, so project and re-collect
    by_weight: dict[tuple[int, int], RationalEchelon] = {}
    weight_vecs: dict[tuple[int, int], list[SEElement]] = {}
    for el in basis:
        buckets: dict[tuple[int, int], dict[tuple, int]] = {}
        for k, c in el.num.items():
            buckets.setdefault(key_weight(k), {})[k] = c
        for w, num in buckets.items():
            piece = SEElement._of(num, el.den)
            ech = by_weight.setdefault(w, RationalEchelon())
            if ech.insert(coords(piece)):
                weight_vecs.setdefault(w, []).append(piece)
    # count highest weight vectors per weight: kernel of stacked ad(E1), ad(E2)
    result: Counter = Counter()
    total_dim = 0
    for w in sorted(weight_vecs, reverse=True):
        vecs = weight_vecs[w]
        img_keys: dict[tuple, int] = {}
        # the row of v holds both images of v times v.den (img.den divides
        # it), a scaling that leaves the kernel dimension alone
        rows_t: list[dict[int, int]] = []
        for v in vecs:
            col: dict[int, int] = {}
            for z in (Gen.E1, Gen.E2):
                img = ad_action_se(lie_gen(z), v)
                f = v.den // img.den
                for k, c in img.num.items():
                    kk = (z, k)
                    if kk not in img_keys:
                        img_keys[kk] = len(img_keys)
                    col[img_keys[kk]] = c * f
            rows_t.append(col)
        # kernel dimension of the map (coefficients on vecs) -> images,
        # ranked through its transpose rows_t
        hw_count = len(vecs) - sparse_rank(rows_t)
        if hw_count:
            label = KModuleLabel(*w)
            result[label] += hw_count
            total_dim += hw_count * label.dim()
    span_dim = span.rank
    if total_dim != span_dim:
        raise NotStableError(
            f"module dimensions do not add up: {total_dim} != {span_dim}"
        )
    return result


@dataclass
class HarmonicReport:
    degree: int
    space_dim: int
    top_dim: int
    lower_dim: int
    ok: bool


def harmonic_decomposition_check(n: int) -> HarmonicReport:
    """Check S^n(p) = V(n,0) + b . S^(n-2)(p) with V(n,0) generated by E3^n."""
    def p_monomials(deg: int) -> list[SEElement]:
        out = []
        for combo in combinations_with_replacement(P_GENS, deg):
            exp = [0] * 10
            for g in combo:
                exp[g] += 1
            out.append(SEElement({(tuple(exp), 0): 1}))
        return out

    space = p_monomials(n)
    space_dim = comb(n + 3, 3)
    assert len(space) == space_dim

    # orbit of the highest weight vector E3^n under repeated lowering
    exp = [0] * 10
    exp[Gen.E3] = n
    hw = SEElement({(tuple(exp), 0): 1})
    for z in (Gen.E1, Gen.E2):
        if not ad_action_se(lie_gen(z), hw).is_zero():
            return HarmonicReport(n, space_dim, -1, -1, False)
    span = RationalEchelon()
    coords = partial(_coords, {})

    frontier = [hw]
    span.insert(coords(hw))
    while frontier:
        nxt = []
        for v in frontier:
            for z in (Gen.F1, Gen.F2, Gen.E1, Gen.E2):
                img = ad_action_se(lie_gen(z), v)
                if not img.is_zero() and span.insert(coords(img)):
                    nxt.append(img)
        frontier = nxt
    top_dim = span.rank
    # now add b * S^(n-2)(p) and check the sum fills the space
    b = build_b()
    lower = [b * m for m in p_monomials(n - 2)] if n >= 2 else []
    lower_dim = comb(n + 1, 3) if n >= 2 else 0
    for el in lower:
        span.insert(coords(el))
    ok = (
        top_dim == (n + 1) ** 2
        and span.rank == space_dim
        and top_dim + lower_dim == space_dim
    )
    return HarmonicReport(n, space_dim, top_dim, lower_dim, ok)
