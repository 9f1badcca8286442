"""Graded dimensions of the K-invariants in S(g) tensor Lambda(p).

The adjoint action of k preserves the grading and the Cartan weights, so
the invariants of degree n are the weight-(0,0) vectors killed by ad E1 and
ad E2: one exact sparse kernel over Q per degree, with no modular or
floating-point arithmetic anywhere. The weight-(0,0) keys are enumerated
directly, the rows of ad E1 and ad E2 on them have int entries, and the
fraction-free echelon ranks them in ints; a kernel basis is certified
against all six k-generators, also in ints.

The expected values come from an independent counting oracle: the invariant
algebra is a free module over the polynomial invariants of k with a known
count of module generators per degree, which turns the dimension h(n) into
a short convolution.
"""
from __future__ import annotations

from dataclasses import dataclass
from math import comb

from .clifford import popcount
from .elements import ZERO_EXP
from .errors import DomainError, InvarianceError
from .lie_core import GEN_WEIGHTS, lie_gen
from .linalg import sparse_kernel, sparse_rank
from .matrix_oracle import Gen, K_GENS
from .sym_ext import SEElement, ad_action_se, ad_on_key, key_weight

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
# the raising rows therefore have the same kernel as the six-generator rows,
# hence the same row space and the same reduced echelon form, which is what
# makes the emitted kernel bases identical to the six-generator ones.
def _operator_rows(cols: list[SEKey]) -> list[dict[int, int]]:
    """Stacked matrices of ad E1 and ad E2 on the span of cols. Rows are
    indexed by (generator, target monomial), columns by position in cols;
    on the zero-weight block the joint kernel is the invariant subspace.
    Descending row order leaves the echelon ~40% less fill at degrees 7-8."""
    rows: dict[tuple[int, SEKey], dict[int, int]] = {}
    for z in (Gen.E1, Gen.E2):
        zi = int(z)
        for j, key in enumerate(cols):
            for tkey, c in ad_on_key(z, key).items():
                rows.setdefault((zi, tkey), {})[j] = c
    return [rows[k] for k in sorted(rows, reverse=True)]


# -- per-degree reports ------------------------------------------------------------

@dataclass
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
    exact kernel over Q of the raising rows on the zero-weight block. With
    want_basis the kernel basis comes back too, each vector certified
    against all six k-generators by the integer ad_action_se."""
    if n < 0:
        raise ValueError("degree must be nonnegative")
    if n > 7 and not allow_large:
        raise DomainError(
            f"degree {n} kernel is large; pass allow_large=True to force it")

    ambient = sum(comb(4, k) * comb(n - k + 9, 9) for k in range(min(4, n) + 1))
    cols = zero_weight_keys(n)
    rows = _operator_rows(cols)
    basis = None
    if want_basis:
        basis = []
        for vec in sparse_kernel(rows, len(cols)):
            el = SEElement({cols[j]: c for j, c in vec.items()})
            for z in K_GENS:
                if not ad_action_se(lie_gen(z), el).is_zero():
                    raise InvarianceError(f"degree-{n} kernel vector", z.name,
                                          "kernel vector fails certification")
            basis.append(el)
        dim = len(basis)
    else:
        dim = len(cols) - sparse_rank(rows)
    return DegreeReport(n, dim, predicted_dimension(n), ambient, len(cols), basis)


# -- independence of the spanning products ---------------------------------------

@dataclass
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
    """The products sigma(s) . rho(t) of total degree <= cap are linearly
    independent, and there are exactly h(n) of them in each degree."""
    from .tensor_algebra import accepted_catalog, st_product_vectors, uc_rank

    cat = accepted_catalog()
    pairs = st_product_vectors(cat, cap)
    per_degree: dict[int, tuple[int, int]] = {}
    for n in range(cap + 1):
        count = sum(1 for deg, _ in pairs if deg == n)
        per_degree[n] = (count, predicted_dimension(n))
    rank = uc_rank([v for _, v in pairs])
    return IndependenceReport(cap=cap, per_degree=per_degree,
                              total=len(pairs), rank=rank)
