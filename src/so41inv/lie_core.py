"""Abstract so(5, C) given by its frozen commutator table.

The table is the single source of truth for every symbolic computation in
the package; certify_against_oracle() proves it agrees with brackets of the
explicit 5x5 matrices. Weights are taken with respect to (ad H1, ad H2),
which act diagonally on the basis.
"""
from __future__ import annotations

from fractions import Fraction

from . import matrix_oracle
from ._record import record
from .elements import LinearElement
from .errors import DomainError
from .matrix_oracle import Gen, K_GENS, P_GENS

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
    out: dict[Gen, int] = {}
    for a, ca in x.num.items():
        for b, cb in y.num.items():
            f = ca * cb
            for g, c in bracket_gens(a, b):
                out[g] = out.get(g, 0) + f * c
    return LieElement._of(out, x.den * y.den)


def is_in_k(x: LieElement) -> bool:
    return all(g in K_GENS for g in x.num)


def is_in_p(x: LieElement) -> bool:
    return all(g in P_GENS for g in x.num)


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


def gen_weight(g: Gen) -> tuple[int, int]:
    return GEN_WEIGHTS[g]


@record(frozen=True)
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
    """Compare every table entry with the matrix bracket, expanded over the
    matrix basis. Returns a list of mismatch descriptions (empty = certified)."""
    mismatches = []
    oracle = matrix_oracle.extract_structure_constants()
    for (a, b), expansion in oracle.items():
        table = {g: Fraction(c) for g, c in bracket_gens(a, b)}
        if table != expansion:
            mismatches.append(
                f"[{a.name},{b.name}]: table {table} vs matrices {expansion}"
            )
    return mismatches
