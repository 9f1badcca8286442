"""Evaluate parsed expressions against the engine.

Evaluation is realm-directed: the ambient algebra fixes the realm of the
whole expression ('uc' for U(g) tensor C(p), 'se' for S(g) tensor Lambda(p)),
and call nodes switch realms for their arguments - sigma reads its argument
in S(g), tau in Lambda(p), rho in the graded ambient, ad's first slot in the
Lie algebra. Bare generator names mean the enveloping (or symmetric) slot;
the Clifford/exterior slot is reached through 'ot', tau, or a wedge.

Each realm is one Realm record in _REALMS: the noun its errors name, its
generators, its identity for lifting scalars, and its ad action - the
bracket in the Lie algebra, the adjoint action of g in U(g) and S(g), and
of k alone in the other four realms. Scalars float through every realm and
are lifted on demand. Engine errors surface as EvalError with the original
as cause.
"""
from __future__ import annotations

import operator
from collections.abc import Callable
from fractions import Fraction
from functools import cached_property

from ._record import record
from .clifford import ExtElement, ext_gen, ext_k_action
from .elements import ZERO_EXP
from .errors import EngineError, EvalError, ExprTypeError
from .lie_core import LIE_ZERO, LieElement, bracket, lie_gen, require_in_k
from .matrix_oracle import GEN_BY_NAME, Gen
from .parser import BinOp, Call, Neg, Node, Num, Sym, parse
from .sym_ext import SEElement, ad_action_se, build_st_catalog, se_gen
from .tensor_algebra import Catalog, TensorAlgebra, accepted_catalog
from .uea import (
    ad_action_s,
    ad_action_u,
    s_gen,
    s_one,
    symmetrize,
    u_gen,
    u_one,
)

AMBIENTS = ("uc", "se")

_SCALAR = "scalar"


class EvalContext:
    """The ambient realm, the U(g) tensor C(p) algebra and the catalogs, each
    resolved on first use. Without a catalog or an algebra, both are the
    adjudicated ones; given an algebra, its catalog is built only when an
    expression reads a catalog name."""

    def __init__(self, ambient: str = "uc", catalog: Catalog | None = None,
                 algebra: TensorAlgebra | None = None):
        if ambient not in AMBIENTS:
            raise ValueError(f"unknown ambient algebra: {ambient}")
        self.ambient = ambient
        self._algebra = algebra
        if catalog is not None:
            self.catalog = catalog

    @cached_property
    def catalog(self) -> Catalog:
        return accepted_catalog() if self._algebra is None else self._algebra.catalog

    @cached_property
    def algebra(self) -> TensorAlgebra:
        return self.catalog.algebra if self._algebra is None else self._algebra

    st = cached_property(lambda self: build_st_catalog())


def evaluate(src: str | Node, ambient: str = "uc",
             catalog: Catalog | None = None, algebra: TensorAlgebra | None = None):
    """Parse (if needed) and evaluate; returns a UCElement or SEElement."""
    node = parse(src) if isinstance(src, str) else src
    ctx = EvalContext(ambient, catalog, algebra)
    try:
        pair = _eval(node, ctx.ambient, ctx)
    except (EvalError, ExprTypeError):
        raise
    except EngineError as exc:
        raise EvalError(f"evaluation failed: {exc}") from exc
    return _coerce(pair, ctx.ambient, ctx)


# -- realm plumbing ----------------------------------------------------------------

@record(frozen=True)
class Realm:
    """One realm: its noun in error messages, its element for a generator,
    its multiple of the identity for a scalar, ad z on its elements (only z
    in k unless k_only is false), and the names it reads beyond the
    generators."""
    noun: str
    gen: Callable[[EvalContext, Gen], object]
    lift: Callable[[EvalContext, Fraction], object]
    ad: Callable[[LieElement, object], object]
    k_only: bool = True
    names: Callable[[EvalContext], dict] = lambda ctx: {}


def _lie_scalar(ctx: EvalContext, q: Fraction) -> LieElement:
    if q == 0:
        return LIE_ZERO
    raise EvalError("a nonzero scalar is not a Lie algebra element")


# a U(g) ot C(p) or C(p) element carries its algebra
_REALMS = {
    "uc": Realm("the tensor algebra U(g) ot C(p)", lambda ctx, g: ctx.algebra.u_gen(g),
                lambda ctx, q: ctx.algebra.scalar(q), lambda z, x: x.algebra.ad_action(z, x),
                names=lambda ctx: ctx.catalog.elements),
    "se": Realm("the graded algebra S(g) ot Lambda(p)", lambda ctx, g: se_gen(g),
                lambda ctx, q: SEElement({(ZERO_EXP, 0): q}), ad_action_se,
                names=lambda ctx: ctx.st.named),
    "u": Realm("the enveloping algebra", lambda ctx, g: u_gen(g),
               lambda ctx, q: q * u_one(), ad_action_u, k_only=False),
    "s": Realm("the symmetric algebra", lambda ctx, g: s_gen(g),
               lambda ctx, q: q * s_one(), ad_action_s, k_only=False),
    # ext_gen raises DomainError off p
    "ext": Realm("the exterior algebra on p", lambda ctx, g: ext_gen(g),
                 lambda ctx, q: ExtElement({0: q}), ext_k_action),
    "c": Realm("the Clifford algebra", lambda ctx, g: ctx.algebra.cl.gen(g),
               lambda ctx, q: ctx.algebra.cl.scalar(q), lambda z, x: x.algebra.k_action(z, x)),
    "lie": Realm("the Lie algebra", lambda ctx, g: lie_gen(g), _lie_scalar, bracket,
                 k_only=False),
}


def _coerce(pair, realm: str, ctx: EvalContext):
    r, v = pair
    return _REALMS[realm].lift(ctx, v) if r == _SCALAR else v


def _eval_in(node: Node, realm: str, ctx: EvalContext):
    """The value of node as an element of realm, a scalar lifted into it."""
    return _coerce(_eval(node, realm, ctx), realm, ctx)


def _resolve_name(name: str, realm: str, ctx: EvalContext):
    spec = _REALMS[realm]
    g = GEN_BY_NAME.get(name)
    if g is not None:
        return spec.gen(ctx, g)
    named = spec.names(ctx)
    if name in named:
        return named[name]
    raise EvalError(f"unknown name {name!r} in {spec.noun}")


# -- node dispatch -----------------------------------------------------------------

def _eval(node: Node, realm: str, ctx: EvalContext):
    if isinstance(node, Num):
        return (_SCALAR, node.value)

    if isinstance(node, Sym):
        return (realm, _resolve_name(node.name, realm, ctx))

    if isinstance(node, Neg):
        r, v = _eval(node.operand, realm, ctx)
        return (r, -v)

    if isinstance(node, BinOp):
        return _eval_binop(node, realm, ctx)

    if isinstance(node, Call):
        return _eval_call(node, realm, ctx)

    raise EvalError(f"cannot evaluate node {node!r}")


_ARITHMETIC = {"+": operator.add, "-": operator.sub, "*": operator.mul}


def _eval_binop(node: BinOp, realm: str, ctx: EvalContext):
    op = node.op

    if op == "ot":
        if realm == "uc":
            left = _eval_in(node.left, "u", ctx)
            right = _eval_in(node.right, "c", ctx)
            return (realm, ctx.algebra.multiply(
                ctx.algebra.from_u(left), ctx.algebra.from_c(right)))
        if realm == "se":
            left = _eval_in(node.left, "s", ctx)
            right = _eval_in(node.right, "ext", ctx)
            lse = SEElement._of({(exp, 0): c for exp, c in left.num.items()}, left.den)
            rse = SEElement._of({(ZERO_EXP, m): c for m, c in right.num.items()}, right.den)
            return (realm, lse * rse)
        raise EvalError(f"'ot' cannot appear inside {_REALMS[realm].noun}")

    if op == "^" and isinstance(node.right, Num):
        n = node.right.value
        if n.denominator != 1 or n < 0:
            raise EvalError(f"exponent {n} is not a nonnegative integer")
        r, v = _eval(node.left, realm, ctx)
        if r != _SCALAR and realm == "lie":
            raise EvalError("the Lie algebra has no associative product; "
                            "use ad(z, x) for brackets")
        return (r, v ** int(n))

    if op == "^":
        if realm == "ext":
            left = _eval_in(node.left, "ext", ctx)
            right = _eval_in(node.right, "ext", ctx)
            return (realm, left * right)
        if realm == "se":
            left = _eval_in(node.left, "ext", ctx)
            right = _eval_in(node.right, "ext", ctx)
            wedge = left * right
            return (realm, SEElement._of(
                {(ZERO_EXP, m): c for m, c in wedge.num.items()}, wedge.den))
        raise EvalError(
            f"a wedge lives in the exterior algebra, not {_REALMS[realm].noun}; "
            "wrap it in tau(...) for the Clifford side")

    lp = _eval(node.left, realm, ctx)
    rp = _eval(node.right, realm, ctx)

    if lp[0] == _SCALAR and rp[0] == _SCALAR:
        return (_SCALAR, _ARITHMETIC[op](lp[1], rp[1]))

    if op == "*":
        # scalar times element stays a plain scaling in any realm
        if lp[0] == _SCALAR:
            return (rp[0], lp[1] * rp[1])
        if rp[0] == _SCALAR:
            return (lp[0], lp[1] * rp[1])
        if realm == "lie":
            raise EvalError("the Lie algebra has no associative product; "
                            "use ad(z, x) for brackets")
        return (realm, lp[1] * rp[1])

    left = _coerce(lp, realm, ctx)
    right = _coerce(rp, realm, ctx)
    return (realm, _ARITHMETIC[op](left, right))


def _eval_call(node: Call, realm: str, ctx: EvalContext):
    fn = node.fn

    if fn == "ad":
        z = _eval_in(node.args[0], "lie", ctx)  # a LieElement: see _REALMS["lie"]
        spec = _REALMS[realm]
        if spec.k_only:
            require_in_k(z)
        xr, xv = _eval(node.args[1], realm, ctx)
        if xr == _SCALAR:
            return (_SCALAR, Fraction(0))
        return (realm, spec.ad(z, xv))

    if fn == "sigma":
        if realm not in ("uc", "u"):
            raise EvalError("sigma produces an enveloping algebra element; "
                            "it needs the uc ambient")
        arg = _eval_in(node.args[0], "s", ctx)
        out = symmetrize(arg)
        if realm == "uc":
            return (realm, ctx.algebra.from_u(out))
        return (realm, out)

    if fn == "tau":
        if realm not in ("uc", "c"):
            raise EvalError("tau produces a Clifford element; "
                            "it needs the uc ambient")
        arg = _eval_in(node.args[0], "ext", ctx)
        out = ctx.algebra.cl.chevalley(arg)
        if realm == "uc":
            return (realm, ctx.algebra.from_c(out))
        return (realm, out)

    if fn == "rho":
        if realm != "uc":
            raise EvalError("rho lands in the tensor algebra; "
                            "it needs the uc ambient")
        arg = _eval_in(node.args[0], "se", ctx)
        return (realm, ctx.algebra.rho(arg))

    raise EvalError(f"unknown function {fn!r}")
