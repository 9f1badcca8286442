"""Abstract so(5, C) given by its frozen commutator table.

The table is the single source of truth for every symbolic computation in
the package; certify_against_oracle() proves it agrees with brackets of the
explicit 5x5 matrices by evaluating every entry there, in the Gaussian
integers the basis matrices are kept in. Weights are taken with respect to
(ad H1, ad H2), which act diagonally on the basis.
"""
from __future__ import annotations

from . import matrix_oracle
from ._record import record
from .elements import LinearElement, accumulate
from .errors import DomainError
from .matrix_oracle import Gen, K_GENS, P_GENS, gauss_text

# Unordered commutator table, keys (a, b) with a < b in basis order.
# Values are tuples of (generator, integer coefficient).
_T: dict[tuple[int, int], tuple[tuple[int, int], ...]] = {
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
}


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
        terms = self.terms
        return " + ".join(f"{terms[g]}*{g.name}" if terms[g] != 1 else g.name
                          for g in sorted(terms))


def lie_gen(g: Gen) -> LieElement:
    return LieElement._of({g: 1})


LIE_ZERO = LieElement()


def bracket(x: LieElement, y: LieElement) -> LieElement:
    pairs = ((bracket_gens(a, b), ca * cb) for a, ca in x.num.items() for b, cb in y.num.items())
    return LieElement._of(accumulate(pairs), x.den * y.den)


def is_in_k(x: LieElement) -> bool:
    return all(g in K_GENS for g in x.num)


def require_in_k(x: LieElement) -> None:
    if not is_in_k(x):
        raise DomainError(f"element has p-components: {x!r}")


def _compute_weights() -> dict[Gen, tuple[int, int]]:
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
    return w


GEN_WEIGHTS: dict[Gen, tuple[int, int]] = _compute_weights()


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


def certify_against_oracle() -> list[str]:
    """Evaluate every table entry in the 5x5 matrices, in Gaussian integers:
    [a, b] passes when [M_a, M_b] minus the table's combination of the M_g,
    computed in ints over one scale from the int entries of the basis
    (matrix_oracle.bracket_residual), is zero. That settles the entry
    because the ten M_g are linearly independent over C, which is proved on
    every call from the same int coordinates (real rank 20); if they are
    not, every pair fails and names the rank. Returns one mismatch
    description per failing pair, starting "[A,B]: " and naming the nonzero
    entries of [M_a, M_b] minus the claim as Gaussian rationals (empty =
    certified). Nothing is cached."""
    mats = matrix_oracle.basis_matrices()
    rank = matrix_oracle.integer_real_rank(mats.values())
    pairs = [(a, b) for a in Gen for b in Gen if a < b]
    if rank != 20:
        return [f"[{a.name},{b.name}]: the basis coordinates have rank {rank}, "
                "not 20, so no bracket is certified" for a, b in pairs]
    mismatches = []
    for a, b in pairs:
        residual, scale = matrix_oracle.bracket_residual(
            mats[a], mats[b], [(mats[g], c) for g, c in bracket_gens(a, b)])
        if residual:
            nonzero = [f"({i + 1},{j + 1})={gauss_text(re, im, scale)}"
                       for (i, j), (re, im) in sorted(residual.items())]
            mismatches.append(f"[{a.name},{b.name}]: matrix bracket minus table "
                              f"is nonzero at {' '.join(nonzero)}")
    return mismatches
