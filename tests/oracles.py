"""Test-only reference implementations. A Fraction echelon kept fully
reduced on every insert and the zero-weight block found by filtering every
monomial key of a degree share no code with the engine paths they check.
The products sigma(s) rho(t) in U(g) tensor C(p) are the objects whose
symbols the freeness checks rank in S(g) tensor Lambda(p)."""
from fractions import Fraction

from so41inv.linalg import certified_rank
from so41inv.sym_ext import build_st_catalog, key_weight, s_monomial_element, s_monomials_up_to
from so41inv.uea import SElement, symmetrize


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


def filtered_zero_weight_keys(n: int) -> list[tuple]:
    return [key for key in graded_keys(n) if key_weight(key) == (0, 0)]


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
    return certified_rank([v.terms for v in vectors])
