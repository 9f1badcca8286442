"""Graded dimensions of the K-invariants in S(g) tensor Lambda(p).

The adjoint action of k preserves the grading and the Cartan weights, so
the invariants of degree n are the weight-(0,0) vectors killed by ad E1 and
ad E2: one exact sparse kernel over Q per degree, with no modular or
floating-point arithmetic anywhere. The weight-(0,0) keys are enumerated
directly, and one image table per degree holds the ad E1 and ad E2 images
of each key with int entries: the transpose of the raising matrix M. The
dimension is the number of keys minus the rank of the table, ranked by the
fraction-free echelon in ints; a kernel basis is read off M, taken
column-wise from the same table, and certified against all six
k-generators, also in ints.

The expected values come from an independent counting oracle: the invariant
algebra is a free module over the polynomial invariants of k with a known
count of module generators per degree, which turns the dimension h(n) into
a short convolution.

Truncated freeness is checked on symbols: the products s.t of the
polynomial invariants and the module generators, ranked degree by degree
in S(g) tensor Lambda(p) by the same exact echelon, must be independent and
exactly h(n) in number.
"""
from __future__ import annotations

from functools import cache, partial
from math import comb

from ._record import record
from .clifford import popcount
from .elements import ZERO_EXP
from .errors import InvarianceError
from .lie_core import GEN_WEIGHTS
from .linalg import sparse_kernel, sparse_rank, transpose
from .matrix_oracle import Gen, K_GENS
from .sym_ext import (
    SEElement,
    ad_on_key,
    build_st_catalog,
    key_weight,
    s_monomial_element,
    s_monomials_up_to,
)

SEKey = tuple[tuple[int, ...], int]


# -- counting oracle -----------------------------------------------------------

# Number of module generators of each degree over the three quadratic
# polynomial invariants of k: one in degree 0 (the identity), one in degree 2,
# and four in every degree from 3 on.
def t_count(n: int) -> int:
    if n < 0:
        return 0
    if n >= 3:
        return 4
    return {0: 1, 1: 0, 2: 1}[n]


def predicted_dimension(n: int) -> int:
    """h(n) = sum over m of C(m+2, 2) * t(n - 2m): monomials in the three
    degree-2 polynomial invariants times module generators."""
    return sum(comb(m + 2, 2) * t_count(n - 2 * m) for m in range(n // 2 + 1))


# -- the zero-weight block -------------------------------------------------------

_WEIGHTS = [GEN_WEIGHTS[g] for g in Gen]
# exterior monomials by (degree, weight), each list ascending
_MASKS: dict[tuple[int, tuple[int, int]], list[int]] = {}
for _mask in range(16):
    _MASKS.setdefault((popcount(_mask), key_weight((ZERO_EXP, _mask))), []).append(_mask)


def zero_weight_keys(n: int) -> list[SEKey]:
    """The monomial keys of degree n and weight (0, 0), in sorted order; the
    kernel computation is restricted to this block, where invariants live.
    Exponents are chosen slot by slot in ascending order (the sorted order),
    a branch ends once the degree left cannot bring the weight back to zero
    (a unit of degree moves |w1| + |w2| by at most 2), and the ascending
    masks of the degree and weight left close each exponent."""
    out: list[SEKey] = []
    exp = [0] * 10

    def walk(slot: int, left: int, w1: int, w2: int) -> None:
        if abs(w1) + abs(w2) > 2 * left:
            return
        if slot == 10:
            for mask in _MASKS.get((left, (-w1, -w2)), ()):
                out.append((tuple(exp), mask))
            return
        a, b = _WEIGHTS[slot]
        for e in range(left + 1):
            exp[slot] = e
            walk(slot + 1, left - e, w1 + a * e, w2 + b * e)
        exp[slot] = 0

    walk(0, n, 0, 0)
    return out


# k is sl2 + sl2 through the commuting triples (E1, F1, H1+H2) and
# (E2, F2, H1-H2). In a finite-dimensional sl2-module a weight-0 vector
# killed by e spans a trivial submodule, so a weight-(0,0) vector killed by
# ad E1 and ad E2 is killed by all six generators. On the zero-weight block
# the raising matrix M (rows the targets (target key, generator), columns the block keys)
# therefore has the same kernel as the six-generator matrix, hence the same
# row space and the same reduced echelon form, which is what makes the
# emitted kernel bases identical to the six-generator ones.
RAISING = (Gen.E1, Gen.E2)


def image_table(keys: list[SEKey]) -> tuple[list[dict[int, int]], list[int]]:
    """The transpose of M on the span of keys: one row per key, holding its
    ad E1 and ad E2 images with int coefficients. The columns number the
    targets (target key, generator) in ascending order; returns the rows
    and the generator of each column."""
    seen: dict[tuple[SEKey, int], int] = {}  # target -> number in order of first sight
    rows = [{seen.setdefault((tkey, int(z)), len(seen)): c
             for z in RAISING for tkey, c in ad_on_key(z, key).items()} for key in keys]
    targets = sorted(seen)
    column = [0] * len(targets)
    for r, t in enumerate(targets):
        column[seen[t]] = r
    return [{column[i]: c for i, c in row.items()} for row in rows], [z for _, z in targets]


# -- per-degree reports ------------------------------------------------------------

@record
class DegreeReport:
    degree: int
    dimension: int
    expected: int
    ambient_dim: int
    block_dim: int
    basis: list[SEElement] | None = None

    @property
    def ok(self) -> bool:
        return self.dimension == self.expected


def invariant_dimension(
    n: int,
    want_basis: bool = False,
    allow_large: bool = False,
) -> DegreeReport:
    """Dimension of the degree-n K-invariants of S(g) tensor Lambda(p): the
    block size minus the rank of M, both read from one image table. With
    want_basis the kernel basis of M comes back too, each vector certified
    against all six k-generators in ints: E1 and E2 from the table, the
    other four from the image of each block key, computed once per degree.
    allow_large is accepted and ignored: every degree is computed."""
    if n < 0:
        raise ValueError("degree must be nonnegative")

    ambient = sum(comb(4, k) * comb(n - k + 9, 9) for k in range(min(4, n) + 1))
    cols = zero_weight_keys(n)
    table, gens = image_table(cols)
    basis = None
    if want_basis:
        kernel = sparse_kernel(transpose(table, len(gens))[::-1], len(cols))
        basis = [SEElement({cols[j]: c for j, c in vec.items()}) for vec in kernel]
        index = {key: j for j, key in enumerate(cols)}
        # E1 and E2 read the table (residual keys are its columns), the other
        # four generators one image per block key
        images = [(None, lambda key: table[index[key]])]
        images += [(z, cache(partial(ad_on_key, z))) for z in K_GENS if z not in RAISING]
        for i, el in enumerate(basis):
            for z, image in images:
                res = _residual(el, image)
                if res:
                    name = (Gen(gens[min(res)]) if z is None else z).name
                    raise InvarianceError(f"degree-{n} kernel vector {i}", name,
                                          f"{len(res)} residual terms")
        dim = len(basis)
    else:
        # rank M = rank of the table; last key first runs ~3x faster than first key first at n=8
        dim = len(cols) - sparse_rank(table[::-1])
    return DegreeReport(n, dim, predicted_dimension(n), ambient, len(cols), basis)


def _residual(el: SEElement, image) -> dict:
    """The nonzero terms of el.num pushed through image, key by key, in ints."""
    out: dict = {}
    for key, c in el.num.items():
        for k, cc in image(key).items():
            out[k] = out.get(k, 0) + c * cc
    return {k: c for k, c in out.items() if c}


# -- freeness through the associated graded ----------------------------------------

# Filter U(g) tensor C(p) by PBW degree plus Clifford degree: the associated
# graded algebra is S(g) tensor Lambda(p) under every nondegenerate form, and
# gr sigma = gr rho = id, so sigma(s) rho(t) with deg s + deg t = n has the
# degree-n symbol s.t. Independent symbols in each degree make the family
# independent over Q, so both checks below rank s.t degree by degree (a
# deficit in the symbols fails them, conservatively).
def symbol_ranks(cap: int) -> dict[int, tuple[int, int]]:
    """For each degree n <= cap: the number of products s.t of degree n, s a
    monomial in a1, a2, b, c and t one of the sixteen module generators, and
    the rank over Q of those products in S(g) tensor Lambda(p)."""
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


@record
class IndependenceReport:
    cap: int
    per_degree: dict[int, tuple[int, int]]  # degree -> (product count, h(n))
    total: int
    rank: int

    @property
    def ok(self) -> bool:
        return self.rank == self.total and all(
            got == want for got, want in self.per_degree.values())


def independence_check(cap: int = 6) -> IndependenceReport:
    """The products sigma(s) rho(t) of total degree <= cap are linearly
    independent, and in each degree there are exactly as many of them as
    the exact kernel dimension h(n): they are a basis of the invariants of
    each degree."""
    ranks = symbol_ranks(cap)
    per_degree = {n: (count, invariant_dimension(n).dimension)
                  for n, (count, _) in ranks.items()}
    return IndependenceReport(cap=cap, per_degree=per_degree,
                              total=sum(c for c, _ in ranks.values()),
                              rank=sum(r for _, r in ranks.values()))


@record
class Rank16Report:
    vector_count: int
    rank: int
    expected: int
    ok: bool


def truncated_rank16_check(cap: int = 6) -> Rank16Report:
    """Truncated freeness evidence: the products sigma(s) rho(t) for s over
    the polynomial generators and t over the sixteen module generators, with
    deg s + deg t <= cap, must be linearly independent over Q."""
    ranks = symbol_ranks(cap)
    count = sum(c for c, _ in ranks.values())
    rank = sum(r for _, r in ranks.values())
    return Rank16Report(vector_count=count, rank=rank, expected=count, ok=rank == count)
