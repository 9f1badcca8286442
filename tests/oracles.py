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
matrices over Q(i), entry by entry in GaussRational (pairs of Fractions):
the ten basis matrices built from the realization's entries, their
products, brackets, combinations, traces and membership, a Fraction
echelon for their rank, and from these the whole stdout of `verify table`,
check the package's basis and its Gaussian integer arithmetic; converters
carry matrices between the two forms. A min-scan echelon, which finds each
pivot as min over the whole residual, checks the heap the engine finds it
with. A sparse transpose turns the dependencies among rows, the engine's
one kernel, into a matrix kernel for the Fraction RREF to check.

The rest are test-only entry points into the engine, which no verify path
reads: the membership test of the sparse echelon, the real rank of any
5x5 matrices, the straightening of a whole generator word, the residual
of each identity under one variant, and the checks of the Cartan split and
its sl2 triples.

Then the element formatter as it was before canonical text and element
files were printed from per-generator and per-mask string tables: the
reference the byte-for-byte property tests of the formatter compare with.

Last, the product and the k-action of U(g) tensor C(p) as they were
before the algebra kept a product row per pair of monomial keys and an
action row per generator and key: term by term, reading the PBW memos
and the Clifford tables in the inner loop."""
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from itertools import combinations_with_replacement
from math import comb, gcd, lcm

from so41inv import uea
from so41inv.clifford import CElement, ExtElement
from so41inv.elements import ZERO_EXP, fmt_coeff, join_terms
from so41inv.errors import NotStableError
from so41inv.lie_core import (
    GEN_WEIGHTS,
    LieElement,
    bracket,
    bracket_gens,
    default_cartan_split,
    is_in_k,
    lie_gen,
)
from so41inv.linalg import RationalEchelon, _int_row, sparse_rank
from so41inv.matrix_oracle import (
    GaussMatrix,
    Gen,
    K_GENS,
    P_GENS,
    basis_matrices,
    gauss_matrix,
    integer_real_rank,
)
from so41inv.serialization import MAGIC, _header_of, order_hash
from so41inv.sym_ext import (
    SEElement,
    ad_action_se,
    build_b,
    build_st_catalog,
    key_weight,
    se_one,
)
from so41inv.tensor_algebra import (
    IDENTITIES,
    RELATION_NAMES,
    UCElement,
    _residual,
    _Terms,
)
from so41inv.uea import (SElement, UElement, gen_commutator, pbw_pair_product, symmetrize,
                         word_to_exp)


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


def echelon_contains(ech: RationalEchelon, vec: dict) -> bool:
    """Whether vec lies in the span of the rows of the engine's echelon."""
    return not ech._residual(vec)


class MinScanEchelon(RationalEchelon):
    """The engine's echelon with each pivot found by min over the whole
    residual at every step, instead of off a heap."""

    def _residual(self, vec: dict) -> dict[int, int]:
        res = _int_row(vec)
        while res:
            col = min(res)
            prow = self.rows.get(col)
            if prow is None:
                break
            g = gcd(res[col], prow[col])
            f, fp = prow[col] // g, res[col] // g
            res = {c: v * f for c, v in res.items()}
            for c, v in prow.items():
                res[c] = res.get(c, 0) - fp * v
            res = {c: v for c, v in res.items() if v}
        return res


# -- 5x5 matrices over Q(i), as tuples of GaussRational rows -------------------

class GaussRational:
    """An element of Q(i), kept as a pair of Fractions."""

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        # the arithmetic below passes Fractions, which need no new object
        self.re = re if type(re) is Fraction else Fraction(re)
        self.im = im if type(im) is Fraction else Fraction(im)

    def __add__(self, other):
        return GaussRational(self.re + other.re, self.im + other.im)

    def __sub__(self, other):
        return GaussRational(self.re - other.re, self.im - other.im)

    def __neg__(self):
        return GaussRational(-self.re, -self.im)

    def __mul__(self, other):
        return GaussRational(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    def __eq__(self, other):
        if not isinstance(other, GaussRational):
            return NotImplemented
        return self.re == other.re and self.im == other.im

    def __hash__(self):
        return hash((self.re, self.im))

    def __bool__(self):
        return bool(self.re) or bool(self.im)

    def __repr__(self):
        if not self.im:
            return str(self.re)
        if not self.re:
            return f"{self.im}i"
        sign = "+" if self.im > 0 else "-"
        return f"{self.re}{sign}{abs(self.im)}i"


GR0 = GaussRational(0)
GR1 = GaussRational(1)
GRI = GaussRational(0, 1)
HALF = GaussRational(Fraction(1, 2))


def _build(entries: list[tuple[int, int, GaussRational]], scale: GaussRational = GR1) -> tuple:
    """Matrix from 1-indexed (i, j, value) entries, times an overall scale."""
    m = [[GR0 for _ in range(5)] for _ in range(5)]
    for i, j, v in entries:
        m[i - 1][j - 1] = m[i - 1][j - 1] + scale * v
    return tuple(tuple(row) for row in m)


def reference_basis() -> dict:
    """The ten basis matrices in GaussRational, built from the entries of
    the realization: the reference for matrix_oracle.basis_matrices."""
    return {
        Gen.H1: _build([(1, 2, GRI), (2, 1, -GRI)]),
        Gen.H2: _build([(3, 4, GRI), (4, 3, -GRI)]),
        Gen.E1: _build(
            [
                (1, 3, GR1), (2, 4, -GR1), (2, 3, -GRI), (1, 4, -GRI),
                (3, 1, -GR1), (4, 2, GR1), (3, 2, GRI), (4, 1, GRI),
            ],
            HALF,
        ),
        Gen.F1: _build(
            [
                (1, 3, GR1), (2, 4, -GR1), (2, 3, GRI), (1, 4, GRI),
                (3, 1, -GR1), (4, 2, GR1), (3, 2, -GRI), (4, 1, -GRI),
            ],
            -HALF,
        ),
        Gen.E2: _build(
            [
                (1, 3, GR1), (2, 4, GR1), (2, 3, -GRI), (1, 4, GRI),
                (3, 1, -GR1), (4, 2, -GR1), (3, 2, GRI), (4, 1, -GRI),
            ],
            HALF,
        ),
        Gen.F2: _build(
            [
                (1, 3, GR1), (2, 4, GR1), (2, 3, GRI), (1, 4, -GRI),
                (3, 1, -GR1), (4, 2, -GR1), (3, 2, -GRI), (4, 1, GRI),
            ],
            -HALF,
        ),
        Gen.E3: _build([(1, 5, GR1), (2, 5, -GRI), (5, 1, GR1), (5, 2, -GRI)]),
        Gen.F3: _build([(1, 5, GR1), (2, 5, GRI), (5, 1, GR1), (5, 2, GRI)]),
        Gen.E4: _build([(3, 5, GR1), (4, 5, -GRI), (5, 3, GR1), (5, 4, -GRI)]),
        Gen.F4: _build([(3, 5, GR1), (4, 5, GRI), (5, 3, GR1), (5, 4, GRI)]),
    }


def gaussian_integer_matrices(mats) -> tuple[list[GaussMatrix], int]:
    """Each GaussRational matrix as a GaussMatrix over D, and D: the lcm of
    the denominators of all their entries, so every scaled entry is an int."""
    mats = list(mats)
    d = lcm(*(x.denominator for m in mats for row in m for z in row for x in (z.re, z.im)))
    return [gauss_matrix({(i, j): (int(z.re * d), int(z.im * d))
                          for i, row in enumerate(m) for j, z in enumerate(row)}, d)
            for m in mats], d


def integer_basis(mats: dict) -> dict:
    """A {generator: GaussRational matrix} dict as GaussMatrix over one D,
    the form matrix_oracle.basis_matrices hands out."""
    return dict(zip(mats, gaussian_integer_matrices(mats.values())[0]))


def rational_matrix(m: GaussMatrix) -> tuple:
    """A GaussMatrix as a 5-tuple of 5-tuples of GaussRational."""
    out = [[GR0 for _ in range(5)] for _ in range(5)]
    for i, row in enumerate(m.rows):
        for j, re, im in row:
            out[i][j] = GaussRational(Fraction(re, m.scale), Fraction(im, m.scale))
    return tuple(tuple(row) for row in out)


def rational_basis() -> dict:
    """matrix_oracle.basis_matrices() in GaussRational, in a new dict."""
    return {g: rational_matrix(m) for g, m in basis_matrices().items()}


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


def real_rank(mats) -> int:
    """integer_real_rank of the matrices scaled to Gaussian integers (which
    leaves the rank as it is)."""
    return integer_real_rank(gaussian_integer_matrices(mats)[0])


def rational_trace(m) -> GaussRational:
    return sum((m[i][i] for i in range(5)), GR0)


def rational_member(m) -> bool:
    """m^T = -gamma m gamma and tr(m) = 0, as whole matrices."""
    return (mat_transpose(m) == mat_scale(GaussRational(-1), mat_mul(GAMMA, mat_mul(m, GAMMA)))
            and not rational_trace(m))


def fraction_real_rank(mats) -> int:
    """Rank over Q of the real coordinates of each matrix and of i times
    it, in a Fraction echelon: twice the rank over C."""
    ech = FractionEchelon()
    for m in mats:
        for z_of in (lambda z: z, lambda z: GRI * z):
            coords = {}
            for k, z in enumerate(z_of(z) for row in m for z in row):
                coords[k], coords[25 + k] = z.re, z.im
            ech.insert(coords)
    return ech.rank


def rational_mismatch(mats: dict, a: Gen, b: Gen) -> str | None:
    """The mismatch text for [a, b] read off GaussRational matrices: the
    nonzero entries of [M_a, M_b] minus the table's combination, or None."""
    residual = mat_sub(matrix_bracket(mats[a], mats[b]),
                       mat_combination(mats, bracket_gens(a, b)))
    nonzero = [f"({i},{j})={z!r}" for i, row in enumerate(residual, 1)
               for j, z in enumerate(row, 1) if z]
    if not nonzero:
        return None
    return f"[{a.name},{b.name}]: matrix bracket minus table is nonzero at {' '.join(nonzero)}"


def table_stdout(mats: dict) -> str:
    """The stdout of `verify table` on the GaussRational basis mats, every
    check computed in GaussRational and the rank in a Fraction echelon."""
    lines, failures = [], 0
    for g in Gen:
        ok = rational_member(mats[g])
        failures += not ok
        lines.append(f"MATRIX {g.name} membership trace={rational_trace(mats[g])!r} "
                     f"{'PASS' if ok else 'FAIL'}")
    pairs = [(a, b) for a in Gen for b in Gen if a < b]
    rank = fraction_real_rank(mats.values())
    if rank != 20:
        bad = {(a, b): f"[{a.name},{b.name}]: the basis coordinates have rank {rank}, "
                       "not 20, so no bracket is certified" for a, b in pairs}
    else:
        bad = {(a, b): rational_mismatch(mats, a, b) for a, b in pairs}
        bad = {pair: text for pair, text in bad.items() if text}
    lines += [f"# {text}" for text in bad.values()]
    lines += [f"TABLE [{a.name},{b.name}] {'FAIL' if (a, b) in bad else 'PASS'}"
              for a, b in pairs]
    failures += len(bad)
    lines.append(f"TABLE SUMMARY {len(pairs) - len(bad)}/{len(pairs)}")
    lines.append(f"VERIFY table checks=55 failures={failures} {'FAIL' if failures else 'PASS'}")
    return "".join(f"{ln}\n" for ln in lines)


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


def straighten_word(word) -> dict[tuple, int]:
    """Expand the product of generators `word` over PBW monomials, through
    the engine's generator insertions, as a dict."""
    return dict(uea._fold(word, ZERO_EXP))


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


def s_monomials_up_to(cap: int) -> list[tuple[int, int, int, int]]:
    """Exponent tuples (n1, n2, n3, n4) for a1 a2 b c with degree
    2(n1+n2+n3) + 4 n4 <= cap, in a deterministic order."""
    out = []
    for n4 in range(cap // 4 + 1):
        for n1 in range(cap // 2 + 1):
            for n2 in range(cap // 2 + 1):
                for n3 in range(cap // 2 + 1):
                    if 2 * (n1 + n2 + n3) + 4 * n4 <= cap:
                        out.append((n1, n2, n3, n4))
    out.sort(key=lambda q: (2 * (q[0] + q[1] + q[2]) + 4 * q[3], q))
    return out


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


def relation_residuals(cat, variant: str = "literal") -> dict:
    """Left minus right side of each identity in the suite; the six
    identities with one form read the literal one under either variant."""
    if variant not in {v for _, v in IDENTITIES}:
        raise ValueError(f"unknown relation variant: {variant}")
    t = _Terms(cat.elements)
    return {name: _residual(t, name, variant if (name, variant) in IDENTITIES else "literal")
            for name in RELATION_NAMES}


# -- the Cartan split g = (k1 + k2) + p ------------------------------------------

def gen_weight(g: Gen) -> tuple[int, int]:
    return GEN_WEIGHTS[g]


def is_in_p(x: LieElement) -> bool:
    return all(g in P_GENS for g in x.num)


def sl2_triple_check(h: LieElement, e: LieElement, f: LieElement) -> list[str]:
    """Relations of a standard sl2 triple; returns a list of violations."""
    bad = []
    if bracket(h, e) != 2 * e:
        bad.append("[h,e] != 2e")
    if bracket(h, f) != -2 * f:
        bad.append("[h,f] != -2f")
    if bracket(e, f) != h:
        bad.append("[e,f] != h")
    return bad


def cartan_split_check() -> list[str]:
    """Closure and structure checks for the default split."""
    split = default_cartan_split()
    bad = []
    for label, triple in (("k1", split.k1), ("k2", split.k2)):
        for msg in sl2_triple_check(*triple):
            bad.append(f"{label}: {msg}")
    for x in split.k1:
        for y in split.k2:
            if bracket(x, y):
                bad.append(f"[k1, k2] != 0 on {x!r}, {y!r}")
    for part, pred, label in (
        (split.k1 + split.k2, is_in_k, "k"),
        (split.p, is_in_p, "p"),
    ):
        for x in part:
            if not pred(x):
                bad.append(f"{x!r} not inside {label}")
    # [k, p] in p and [p, p] in k
    for kg in K_GENS:
        for pg in P_GENS:
            if not is_in_p(bracket(lie_gen(kg), lie_gen(pg))):
                bad.append(f"[{kg.name},{pg.name}] leaves p")
    for a in P_GENS:
        for b in P_GENS:
            if not is_in_k(bracket(lie_gen(a), lie_gen(b))):
                bad.append(f"[{a.name},{b.name}] leaves k")
    return bad


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
            if not echelon_contains(span, coords(img)):
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


# -- the element formatter before the string tables --------------------------------
# Canonical text and the term lines of element files as the package wrote them
# term by term: generator names through the Gen enum, masks through their bit
# tuples, and the nested sort key. `oracle_text` and `oracle_dumps` must print
# what `str` and `serialization.dumps_element` print.

def fmt_exp(exp: tuple) -> str:
    """PBW / symmetric monomial, e.g. 'H1^2 * E3'; identity prints as '1'."""
    bits = []
    for i, e in enumerate(exp):
        if e == 1:
            bits.append(Gen(i).name)
        elif e:
            bits.append(f"{Gen(i).name}^{e}")
    return " * ".join(bits) if bits else "1"


def mask_bits(mask: int) -> tuple[int, ...]:
    return tuple(b for b in range(4) if mask >> b & 1)


def fmt_mask(mask: int, sep: str) -> str:
    """Clifford ('*') or exterior ('^') monomial over the p-generators."""
    bits = [P_GENS[b].name for b in mask_bits(mask)]
    return f" {sep} ".join(bits) if bits else "1"


def exp_sort_key(exp: tuple) -> tuple:
    return (sum(exp), exp)


def mask_sort_key(mask: int) -> tuple:
    return (bin(mask).count("1"), mask_bits(mask))


def pair_sort_key(key: tuple) -> tuple:
    exp, mask = key
    deg = sum(exp) + bin(mask).count("1")
    return (deg, exp_sort_key(exp), mask_sort_key(mask))


def _mask_str(mask: int) -> str:
    return "".join("1" if mask >> b & 1 else "0" for b in range(4))


def oracle_text(el) -> str:
    """Canonical text of an element of U(g), S(g), Lambda(p), C(p),
    S(g) tensor Lambda(p) or U(g) tensor C(p)."""
    if isinstance(el, (UElement, SElement)):
        sort_key, body = exp_sort_key, fmt_exp
    elif isinstance(el, (ExtElement, CElement)):
        sep = "^" if isinstance(el, ExtElement) else "*"
        sort_key, body = mask_sort_key, lambda m: fmt_mask(m, sep)
    else:
        sep = "^" if isinstance(el, SEElement) else "*"
        sort_key, body = pair_sort_key, lambda k: f"({fmt_exp(k[0])}) ot ({fmt_mask(k[1], sep)})"
    num = el.num
    return join_terms([(num[k], body(k)) for k in sorted(num, key=sort_key)], el.den)


def oracle_dumps(el) -> str:
    """The element file of an S(g) tensor Lambda(p) or U(g) tensor C(p) element."""
    algebra_id, sign, gram = _header_of(el)
    lines = [
        MAGIC,
        f"algebra: {algebra_id}",
        f"sign: {sign}",
        f"gram: {gram}",
        f"order-hash: {order_hash(algebra_id, sign, gram)}",
        f"terms: {len(el)}",
    ]
    num, den = el.num, el.den
    for exp, mask in sorted(num, key=pair_sort_key):
        lines.append(f"{fmt_coeff(num[exp, mask], den)} | {' '.join(map(str, exp))} | "
                     f"{_mask_str(mask)}")
    return "\n".join(lines) + "\n"


# -- the product and k-action before the per-algebra rows ------------------------------
# `TensorAlgebra.multiply` and `ad_action` must give what these give.

def term_by_term_multiply(alg, x, y):
    """x y, each term pair's PBW product crossed with its Clifford product."""
    cl_table = alg.cl.table
    out = {}
    for (eu, mu), cu in x.num.items():
        for (ev, mv), cv in y.num.items():
            f = cu * cv
            cprod = cl_table[(mu, mv)]
            for ee, a in pbw_pair_product(eu, ev):
                fa = f * a
                for mm, bc in cprod:
                    k = (ee, mm)
                    out[k] = out.get(k, 0) + fa * bc
    return UCElement._of(out, x.den * y.den * alg.cl.table_den, alg)


def term_by_term_ad_action(alg, z, x):
    """ad(z) x for z in k: the commutator on the U-side, times k_den, plus
    the Clifford derivation on the C-side."""
    k_table, k_den = alg.cl.k_table, alg.cl.k_den
    out = {}
    for zg, zc in z.num.items():
        for (exp, mask), xc in x.num.items():
            f = zc * xc
            fu = f * k_den
            for ee, a in gen_commutator(zg, exp):
                k = (ee, mask)
                out[k] = out.get(k, 0) + fu * a
            for m, b in k_table[(zg, mask)]:
                k = (exp, m)
                out[k] = out.get(k, 0) + f * b
    return UCElement._of(out, z.den * x.den * k_den, alg)
