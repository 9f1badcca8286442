"""Graded dimensions of the K-invariants in S(g) tensor Lambda(p).

The adjoint action of k preserves the grading and the Cartan weights, so
the invariants of degree n are the weight-(0,0) vectors killed by ad E1 and
ad E2: one exact sparse kernel over Q per degree, with no modular or
floating-point arithmetic anywhere. The weight-(0,0) keys are enumerated
directly, packed into one int each, and the ad E1 and ad E2 images of each
key, one row per key with int entries labelled by their packed targets,
are the transpose of the raising matrix M. The dimension is the number of
keys minus the rank of those rows, ranked by the fraction-free echelon in
ints; a kernel basis is the dependencies among the same rows, certified
against all six k-generators at once on packed keys, also in ints, before
its keys are unpacked into elements. Each degree's result is memoized once per
process and path (a rank, or a kernel with its certified basis) by one
functools.cache holding ints and a tuple of elements, all read-only by their
type, and every call builds a fresh report from it; cache_clear() puts the
process back in its cold state.

The expected values come from an independent counting oracle: the invariant
algebra is a free module over the polynomial invariants of k with a known
count of module generators per degree, so h(n) is a coefficient of the
Hilbert series P(t) / ((1 - t^2)^3 (1 - t^4)), P listing the degrees of the
module generators. One expansion of such a series serves every graded
count here: h(n), the products s.t per degree, and the ambient dimension.

Freeness is proved on symbols for every degree by two point certificates,
each one rank under the same exact echelon: the sixteen module generators
are independent over S(g), and the polynomial invariants a1, a2, b, c are
algebraically independent. The products s.t are then independent in every
degree; up to a cap, their count per degree must be the exact h(n). One
FreenessReport holds both checks; only its per-degree comparison, computed
when first read, eliminates degrees.
"""
from __future__ import annotations

from functools import cache, cached_property
from math import prod

from ._record import record
from .clifford import popcount
from .elements import ZERO_EXP, accumulate
from .errors import InvarianceError
from .lie_core import GEN_WEIGHTS
from .linalg import dependency_kernel, sparse_rank
from .matrix_oracle import Gen, K_GENS, P_GENS
from .sym_ext import (
    _EXT_AD,
    _SLOT_AD,
    T_ORDER,
    SEElement,
    build_st_catalog,
    key_weight,
)

SEKey = tuple[tuple[int, ...], int]


# -- counting oracle -----------------------------------------------------------

# The degrees of the sixteen module generators and of the four polynomial
# invariants a1, a2, b, c, typed here so that the prediction does not read
# the catalog it checks.
T_DEGREES = (0, 2, 3, 3, 3, 3, 4, 4, 4, 5, 5, 5, 5, 6, 6, 6)
S_DEGREES = (2, 2, 2, 4)


def _series(tops, bottoms, cap: int) -> list[int]:
    """The coefficients of t^0 .. t^cap in the sum of t^d over d in tops
    divided by the product of (1 - t^d) over d in bottoms: each factor
    1 / (1 - t^d) is a prefix sum with step d."""
    out = [0] * (cap + 1)
    for d in tops:
        if d <= cap:
            out[d] += 1
    for d in bottoms:
        for n in range(d, cap + 1):
            out[n] += out[n - d]
    return out


def predicted_dimension(n: int) -> int:
    """h(n), the coefficient of t^n in the sum of t^d over T_DEGREES divided
    by the product of (1 - t^d) over S_DEGREES: monomials in the polynomial
    invariants times module generators. 0 below degree 0."""
    return _series(T_DEGREES, S_DEGREES, n)[n] if n >= 0 else 0


# -- the zero-weight block, on packed keys -------------------------------------

# Inside this module a key (exp, mask) is one int: the ten exponents as
# bytes, H1 most significant, over the mask in the low 4 bits. An exponent
# is at most the degree, so up to degree 255 the int order is the sorted
# (exp, mask) order, and the ad image of a key is the key plus a fixed delta
# per move, times the exponent read off its byte.
MAX_PACKED_DEGREE = 255


def _shift(slot: int) -> int:
    return 4 + 8 * (9 - slot)


def unpack(key: int) -> SEKey:
    """The (exp, mask) key of a packed key."""
    return tuple((key >> 4).to_bytes(10, "big")), key & 15


_WEIGHTS = [GEN_WEIGHTS[g] for g in Gen]
# the (degree, mask) of the exterior monomials of each weight, masks ascending
_MASKS: dict[tuple[int, int], list[tuple[int, int]]] = {}
for _mask in range(16):
    _MASKS.setdefault(key_weight((ZERO_EXP, _mask)), []).append((popcount(_mask), _mask))
# the most one unit of degree moves |w1| + |w2| from each slot on, the
# exterior masks (slot 10) included: 2 while a k-root is left, then 1
_REACH = [max(abs(a) + abs(b) for a, b in _WEIGHTS[slot:] + [GEN_WEIGHTS[v] for v in P_GENS])
          for slot in range(11)]


def zero_weight_keys(n: int) -> list[int]:
    """The packed keys of degree n and weight (0, 0), in ascending order; the
    kernel computation is restricted to this block, where invariants live.
    H1 and H2 have weight zero, so each key is H1^a H2^b times a
    zero-weight tail of degree n - a - b over the slots from E1 on, and one
    walk finds the tails of every degree up to n. Exponents are chosen slot
    by slot in ascending order (the sorted order), a branch ends once the
    degree left cannot bring the weight back to zero (a unit of degree moves
    |w1| + |w2| by at most _REACH of its slot), and the ascending masks of
    the weight left, of at most the degree left, close each exponent."""
    if n > MAX_PACKED_DEGREE:
        raise ValueError(f"packed keys hold degrees up to {MAX_PACKED_DEGREE}")
    tails: list[list[int]] = [[] for _ in range(n + 1)]  # by degree

    def walk(slot: int, left: int, w1: int, w2: int, key: int) -> None:
        if abs(w1) + abs(w2) > _REACH[slot] * left:
            return
        if slot == 10:
            for degree, mask in _MASKS.get((-w1, -w2), ()):
                if degree <= left:
                    tails[n - left + degree].append(key | mask)
            return
        a, b = _WEIGHTS[slot]
        step = 1 << _shift(slot)
        for e in range(left + 1):
            walk(slot + 1, left - e, w1 + a * e, w2 + b * e, key + e * step)

    walk(2, n, 0, 0, 0)
    out: list[int] = []
    for a in range(n + 1):
        for b in range(n - a + 1):
            head = a << _shift(0) | b << _shift(1)
            out.extend([head + t for t in tails[n - a - b]])
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


def image_rows(gens: tuple[Gen, ...], keys: list[int]) -> list[dict[int, int]]:
    """ad z on each packed key for each k-generator z in gens, one row per
    key with int coefficients, onto the targets 8 * target key + place of z
    in K_GENS, which sort as the pairs (target key, generator). A move adds
    a fixed delta to the key, its coefficient times the exponent of its slot.
    Moves that change the key never meet and are assigned; only the moves of
    ad H1 and ad H2 fix it, and those are summed, so such an entry may be 0."""
    slots: dict[int, tuple[list, list]] = {}  # shift: (moves, fixes)
    ext: list[list[tuple[int, int]]] = [[] for _ in range(16)]
    for z in gens:
        place = K_GENS.index(z)
        for slot, pairs in _SLOT_AD[z]:
            moves, fixes = slots.setdefault(_shift(slot), ([], []))
            for g, c in pairs:
                if g == slot:
                    fixes.append((place, c))
                else:
                    moves.append((8 * ((1 << _shift(g)) - (1 << _shift(slot))) + place, c))
        for mask in range(16):
            ext[mask].extend((8 * (m - mask) + place, c) for m, c in _EXT_AD[z, mask])
    rows = []
    for key in keys:
        key8 = 8 * key
        # the exterior moves of one key land on distinct targets
        row = {key8 + d: c for d, c in ext[key & 15]}
        for shift, (moves, fixes) in slots.items():
            e = key >> shift & 255
            if e:
                for d, c in moves:
                    row[key8 + d] = e * c
                for d, c in fixes:
                    row[key8 + d] = row.get(key8 + d, 0) + e * c
        rows.append(row)
    return rows


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


def invariant_dimension(n: int, want_basis: bool = False) -> DegreeReport:
    """Dimension of the degree-n K-invariants of S(g) tensor Lambda(p): the
    block size minus the rank of M, read from the raising image rows. With
    want_basis the kernel basis of M comes back too, each vector certified
    against all six k-generators in ints. The elimination runs once per
    process for each degree and path (eliminated_degree); every call gets a
    fresh report, with the basis as a new list."""
    if n < 0:
        raise ValueError("degree must be nonnegative")
    dim, block, basis = eliminated_degree(n, bool(want_basis))
    # the exterior masks by degree over one 1 / (1 - t) per slot
    ambient = _series([popcount(m) for m in range(16)], (1,) * 10, n)[n]
    return DegreeReport(n, dim, predicted_dimension(n), ambient, block,
                        None if basis is None else list(basis))


@cache
def eliminated_degree(n: int, want_basis: bool) -> tuple[int, int, tuple[SEElement, ...] | None]:
    """The exact elimination of degree n >= 0, once per process and path:
    (dimension, block size, certified kernel basis or None). The rows are the
    raising images of the block keys, with the packed targets as column
    labels: the echelon reads only the order of its columns. The kernel of
    M is the dependencies among those rows, inserted last key first like
    the rank. The basis vectors are certified against all six generators
    from one image row per key in a kernel vector, computed once per
    degree; a failure names the first failing generator in K_GENS. An
    InvarianceError propagates and nothing is cached."""
    cols = zero_weight_keys(n)
    rows = image_rows(RAISING, cols)
    if not want_basis:
        # rank M = rank of its transpose; last key first runs ~3x faster than first key first at n=8.
        # Its own path: rank / dependency_kernel took 0.033 / 0.053 s at n=7, 0.19 / 0.25 s at n=9,
        # 0.33 / 0.44 s at n=10, 0.78 / 1.15 s at n=11 (in process, min of 3, 2 vCPU, Python 3.11.7).
        return len(cols) - sparse_rank(rows[::-1]), len(cols), None
    kernel = dependency_kernel({j: rows[j] for j in range(len(cols) - 1, -1, -1)})
    support = sorted(set().union(*(num for num, _ in kernel)))
    images = dict(zip(support, image_rows(K_GENS, [cols[j] for j in support])))
    for i, (num, _) in enumerate(kernel):
        places = [t & 7 for t in _residual(num, images)]
        if places:
            first = min(places)
            raise InvarianceError(f"degree-{n} kernel vector {i}", K_GENS[first].name,
                                  f"{places.count(first)} residual terms")
    # one key object per monomial, and the terms of each vector in key
    # order, which the element file's sort then finds as one run
    keys = {j: unpack(cols[j]) for j in support}
    basis = tuple(SEElement._of({keys[j]: c for j, c in sorted(num.items())}, den)
                  for num, den in kernel)
    return len(basis), len(cols), basis


def _residual(num: dict[int, int], rows) -> dict:
    """The nonzero terms of the sum of c * rows[j] over the items (j, c) of
    num, in ints."""
    return {k: c for k, c in accumulate((rows[j].items(), c) for j, c in num.items()).items() if c}


# -- freeness in every degree, from two point certificates ---------------------------

# Filter U(g) tensor C(p) by PBW degree plus Clifford degree: the associated
# graded algebra is S(g) tensor Lambda(p) under every nondegenerate form, and
# gr sigma = gr rho = id, so sigma(s) rho(t) with deg s + deg t = n has the
# degree-n symbol s.t. Independent symbols in each degree make the family
# independent over Q. The symbols are independent in every degree when
#   A. the sixteen t are independent over S(g): S(g) tensor Lambda(p) is free
#      over S(g) on the sixteen exterior masks, so the t form a 16 x 16
#      matrix over S(g), and its determinant, a polynomial, is nonzero once
#      it is nonzero at one point;
#   B. a1, a2, b and c are algebraically independent: by the Jacobian
#      criterion (characteristic 0) it suffices that their Jacobian has
#      rank 4 at one point.
# Then a relation sum r_t(a1, a2, b, c) t = 0 forces every r_t to vanish in
# S(g) (A) and then as a polynomial (B). Each is one rank at an integer point
# fixed here, in slot order H1..F4, under the fraction-free echelon.
T_POINT = (-5, 9, -7, -1, -6, 6, 5, 6, 3, -3)
JACOBIAN_POINT = (-8, -7, -7, 2, -4, 0, -1, -3, -8, 9)
S_NAMES = ("a1", "a2", "b", "c")


def _partials_at(el: SEElement, point: tuple[int, ...]) -> dict[int, int]:
    """The partial derivative of a polynomial (mask 0) by each slot, at point,
    times el.den."""
    def partials(exp):
        for slot, e in enumerate(exp):
            if e:
                yield slot, e * prod(map(pow, point, exp[:slot] + (e - 1,) + exp[slot + 1:]))

    return accumulate((partials(exp), c) for (exp, _), c in el.num.items())


def _masks_at(el: SEElement, point: tuple[int, ...]) -> dict[int, int]:
    """The coefficient of each exterior mask, at point, times el.den."""
    return accumulate((((mask, prod(map(pow, point, exp))),), c)
                      for (exp, mask), c in el.num.items())


@record
class FreenessCertificate:
    t_rank: int  # rank of the 16 x 16 mask coefficients of the t at T_POINT
    jacobian_rank: int  # rank of the 4 x 10 Jacobian of a1, a2, b, c at JACOBIAN_POINT

    @property
    def ok(self) -> bool:
        return not self.failures()

    def failures(self) -> list[str]:
        """One line for each certificate short of full rank."""
        out = []
        if self.t_rank != len(T_ORDER):
            out.append(f"freeness certificate A: the mask coefficients of the "
                       f"{len(T_ORDER)} module generators at {T_POINT} have rank "
                       f"{self.t_rank}, not {len(T_ORDER)}")
        if self.jacobian_rank != len(S_NAMES):
            out.append(f"freeness certificate B: the Jacobian of {', '.join(S_NAMES)} "
                       f"at {JACOBIAN_POINT} has rank {self.jacobian_rank}, "
                       f"not {len(S_NAMES)}")
        return out


@cache
def freeness_certificate() -> FreenessCertificate:
    """Certificates A and B, once per process: with both ranks full, the
    products s.t are independent in every degree."""
    st = build_st_catalog()
    t_rows = [_masks_at(st.t_elements[name], T_POINT) for name in T_ORDER]
    jacobian = [_partials_at(st.named[name], JACOBIAN_POINT) for name in S_NAMES]
    return FreenessCertificate(t_rank=sparse_rank(t_rows),
                               jacobian_rank=sparse_rank(jacobian))


def product_counts(cap: int) -> dict[int, int]:
    """For each degree n <= cap, the number of pairs (s, t) of degree n, s a
    monomial in a1, a2, b, c and t one of the sixteen module generators:
    counted by degree, not formed, as the coefficients of the catalog's kept
    t degrees over one 1 / (1 - t^d) per kept degree of a1, a2, b and c."""
    st = build_st_catalog()
    s_degrees = [st.named_degrees[name] for name in S_NAMES]
    return dict(enumerate(_series(st.t_degrees.values(), s_degrees, cap)))


@record
class FreenessReport:
    cap: int
    counts: dict[int, int]  # degree -> number of products s.t
    certificate: FreenessCertificate

    @property
    def total(self) -> int:
        return sum(self.counts.values())

    @property
    def rank(self) -> int | None:
        """total when the certificate holds, else None (unproven)."""
        return self.total if self.certificate.ok else None

    @cached_property
    def per_degree(self) -> dict[int, tuple[int, int]]:
        """degree -> (product count, h(n)): the exact kernel dimensions, on
        first read, as the rank path of eliminated_degree keeps them (the
        dimension invariant_dimension(n) reports, with no report built)."""
        return {n: (count, eliminated_degree(n, False)[0]) for n, count in self.counts.items()}

    @property
    def ok(self) -> bool:
        return self.rank == self.total and all(
            got == want for got, want in self.per_degree.values())


def independence_check(cap: int = 6) -> FreenessReport:
    """The products sigma(s) rho(t) of total degree <= cap are linearly
    independent (by the freeness certificate, in every degree), and in each
    degree there are exactly as many of them as the exact kernel dimension
    h(n): they are a basis of the invariants of each degree up to cap."""
    return FreenessReport(cap, product_counts(cap), freeness_certificate())


truncated_rank16_check = independence_check
