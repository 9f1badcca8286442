"""Abstract so(5, C) given by its frozen commutator table.

The table is the single source of truth for every symbolic computation in
the package, and read-only, as are the weights read off it. The table
certificate (table_certificate) proves it agrees with brackets of the
explicit 5x5 matrices by evaluating every entry there, in the Gaussian
integers the basis matrices are kept in, together with the membership and
trace of each matrix; it is proved on first use, once per process, like
every other certificate of the package. Weights are taken with respect to
(ad H1, ad H2), which act diagonally on the basis.
"""
from __future__ import annotations

from functools import cache
from itertools import combinations
from types import MappingProxyType

from . import matrix_oracle
from ._record import record
from .elements import LinearElement, bilinear, fmt_coeff
from .errors import DomainError
from .matrix_oracle import Gen, K_GENS, P_GENS, gauss_text, is_so41_member, mat_trace

# Unordered commutator table, keys (a, b) with a < b in basis order.
# Values are tuples of (generator, integer coefficient).
_T: MappingProxyType[tuple[int, int], tuple[tuple[int, int], ...]] = MappingProxyType({
    (Gen.H1, Gen.H2): (),
    (Gen.H1, Gen.E1): ((Gen.E1, 1),),
    (Gen.H1, Gen.E2): ((Gen.E2, 1),),
    (Gen.H1, Gen.F1): ((Gen.F1, -1),),
    (Gen.H1, Gen.F2): ((Gen.F2, -1),),
    (Gen.H1, Gen.E3): ((Gen.E3, 1),),
    (Gen.H1, Gen.E4): (),
    (Gen.H1, Gen.F3): ((Gen.F3, -1),),
    (Gen.H1, Gen.F4): (),
    (Gen.H2, Gen.E1): ((Gen.E1, 1),),
    (Gen.H2, Gen.E2): ((Gen.E2, -1),),
    (Gen.H2, Gen.F1): ((Gen.F1, -1),),
    (Gen.H2, Gen.F2): ((Gen.F2, 1),),
    (Gen.H2, Gen.E3): (),
    (Gen.H2, Gen.E4): ((Gen.E4, 1),),
    (Gen.H2, Gen.F3): (),
    (Gen.H2, Gen.F4): ((Gen.F4, -1),),
    (Gen.E1, Gen.E2): (),
    (Gen.E1, Gen.F1): ((Gen.H1, 1), (Gen.H2, 1)),
    (Gen.E1, Gen.F2): (),
    (Gen.E1, Gen.E3): (),
    (Gen.E1, Gen.E4): (),
    (Gen.E1, Gen.F3): ((Gen.E4, -1),),
    (Gen.E1, Gen.F4): ((Gen.E3, 1),),
    (Gen.E2, Gen.F1): (),
    (Gen.E2, Gen.F2): ((Gen.H1, 1), (Gen.H2, -1)),
    (Gen.E2, Gen.E3): (),
    (Gen.E2, Gen.E4): ((Gen.E3, 1),),
    (Gen.E2, Gen.F3): ((Gen.F4, -1),),
    (Gen.E2, Gen.F4): (),
    (Gen.F1, Gen.F2): (),
    (Gen.F1, Gen.E3): ((Gen.F4, 1),),
    (Gen.F1, Gen.E4): ((Gen.F3, -1),),
    (Gen.F1, Gen.F3): (),
    (Gen.F1, Gen.F4): (),
    (Gen.F2, Gen.E3): ((Gen.E4, 1),),
    (Gen.F2, Gen.E4): (),
    (Gen.F2, Gen.F3): (),
    (Gen.F2, Gen.F4): ((Gen.F3, -1),),
    (Gen.E3, Gen.E4): ((Gen.E1, 2),),
    (Gen.E3, Gen.F3): ((Gen.H1, 2),),
    (Gen.E3, Gen.F4): ((Gen.E2, 2),),
    (Gen.E4, Gen.F3): ((Gen.F2, 2),),
    (Gen.E4, Gen.F4): ((Gen.H2, 2),),
    (Gen.F3, Gen.F4): ((Gen.F1, -2),),
})


def bracket_gens(a: Gen, b: Gen) -> tuple[tuple[Gen, int], ...]:
    """[a, b] as a tuple of (generator, integer coefficient)."""
    if a == b:
        return ()
    if a < b:
        return _T[(a, b)]
    return tuple((g, -c) for g, c in _T[(b, a)])


class LieElement(LinearElement):
    """A g-element: sparse rational combination of the ten generators."""

    __slots__ = ()

    def __init__(self, terms: dict | None = None):
        super().__init__({Gen(g): c for g, c in terms.items()} if terms else None)

    def __repr__(self):
        if not self.num:
            return "0"
        num, den = self.num, self.den
        return " + ".join(f"{fmt_coeff(num[g], den)}*{g.name}" if num[g] != den else g.name
                          for g in sorted(num))


def lie_gen(g: Gen) -> LieElement:
    return LieElement._of({g: 1})


LIE_ZERO = LieElement()


def bracket(x: LieElement, y: LieElement) -> LieElement:
    return LieElement._of(bilinear(bracket_gens, x.num, y.num), x.den * y.den)


def is_in_k(x: LieElement) -> bool:
    return all(g in K_GENS for g in x.num)


def require_in_k(x: LieElement) -> None:
    if not is_in_k(x):
        raise DomainError(f"element has p-components: {x!r}")


def _compute_weights() -> MappingProxyType[Gen, tuple[int, int]]:
    w = {}
    for g in Gen:
        pair = []
        for h in (Gen.H1, Gen.H2):
            br = bracket_gens(h, g)
            if not br:
                pair.append(0)
            elif len(br) == 1 and br[0][0] == g:
                pair.append(br[0][1])
            else:
                raise DomainError(f"(ad {h.name}) is not diagonal on {g.name}")
        w[g] = tuple(pair)
    return MappingProxyType(w)


GEN_WEIGHTS = _compute_weights()


@record
class CartanSplit:
    """The splitting g = (k1 + k2) + p with both k_i isomorphic to sl2."""

    k1: tuple[LieElement, ...]
    k2: tuple[LieElement, ...]
    p: tuple[LieElement, ...]


def default_cartan_split() -> CartanSplit:
    h1, h2 = lie_gen(Gen.H1), lie_gen(Gen.H2)
    return CartanSplit(
        k1=(h1 + h2, lie_gen(Gen.E1), lie_gen(Gen.F1)),
        k2=(h1 - h2, lie_gen(Gen.E2), lie_gen(Gen.F2)),
        p=tuple(lie_gen(g) for g in P_GENS),
    )


def jacobi_check() -> list[str]:
    """Exhaustive Jacobi identity check over basis triples."""
    bad = []
    gens = [lie_gen(g) for g in Gen]
    for i in range(10):
        for j in range(i + 1, 10):
            for k in range(j + 1, 10):
                x, y, z = gens[i], gens[j], gens[k]
                s = bracket(x, bracket(y, z)) + bracket(y, bracket(z, x)) + bracket(z, bracket(x, y))
                if s:
                    bad.append(f"jacobi fails on ({Gen(i).name},{Gen(j).name},{Gen(k).name}): {s!r}")
    return bad


@record
class TableCertificate:
    """The verdict of verify table. matrices holds (generator, membership
    bit, trace text) for each basis matrix, rank the real rank of their
    coordinates, and pairs ("[A,B]", mismatch) for each pair a < b, the
    mismatch None when the table entry is certified."""

    matrices: tuple[tuple[Gen, bool, str], ...]
    rank: int
    pairs: tuple[tuple[str, str | None], ...]


def _bracket_mismatch(mats, a: Gen, b: Gen) -> str | None:
    """The nonzero entries of [M_a, M_b] minus the table's combination of
    the M_g as Gaussian rationals, or None when there are none."""
    residual, scale = matrix_oracle.bracket_residual(
        mats[a], mats[b], [(mats[g], c) for g, c in bracket_gens(a, b)])
    if not residual:
        return None
    return "matrix bracket minus table is nonzero at " + " ".join(
        f"({i + 1},{j + 1})={gauss_text(re, im, scale)}"
        for (i, j), (re, im) in sorted(residual.items()))


@cache
def table_certificate() -> TableCertificate:
    """Prove the table against the 5x5 matrices, in Gaussian integers, on
    first use and once per process. Each matrix must be a traceless member
    of so(4,1) (is_so41_member). [a, b] is certified when [M_a, M_b] minus
    the table's combination of the M_g, computed in ints over one scale
    from the int entries of the basis (matrix_oracle.bracket_residual), is
    zero. That settles the entry because the ten M_g are linearly
    independent over C, which the same int coordinates prove (real rank
    20); if they are not, every pair fails and its mismatch names the rank.
    A mismatch starts "[A,B]: " and names the nonzero entries of
    [M_a, M_b] minus the claim."""
    mats = matrix_oracle.basis_matrices()
    matrices = tuple((g, is_so41_member(mats[g]), gauss_text(*mat_trace(mats[g]), mats[g].scale))
                     for g in Gen)
    rank = matrix_oracle.integer_real_rank(mats.values())
    pairs = []
    for a, b in combinations(Gen, 2):
        label = f"[{a.name},{b.name}]"
        detail = (f"the basis coordinates have rank {rank}, not 20, so no bracket is "
                  "certified" if rank != 20 else _bracket_mismatch(mats, a, b))
        pairs.append((label, None if detail is None else f"{label}: {detail}"))
    return TableCertificate(matrices, rank, tuple(pairs))


def certify_against_oracle() -> list[str]:
    """The mismatch of each failing pair of the table certificate, in a new
    list (empty = certified); see table_certificate."""
    return [mismatch for _, mismatch in table_certificate().pairs if mismatch]
