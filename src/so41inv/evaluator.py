"""Evaluate parsed expressions against the engine.

Evaluation is realm-directed: the ambient algebra fixes the realm of the
whole expression ('uc' for U(g) tensor C(p), 'se' for S(g) tensor Lambda(p)),
and call nodes switch realms for their arguments - sigma reads its argument
in S(g), tau in Lambda(p), rho in the graded ambient, ad's first slot in the
Lie algebra. Bare generator names mean the enveloping (or symmetric) slot;
the Clifford/exterior slot is reached through 'ot', tau, or a wedge.

Scalars float through every realm and are lifted to the appropriate identity
on demand. Engine errors surface as EvalError with the original as cause.
"""
from __future__ import annotations

from fractions import Fraction
from functools import cached_property

from .clifford import ExtElement, ext_gen, ext_k_action
from .elements import ZERO_EXP
from .errors import EngineError, EvalError, ExprTypeError
from .lie_core import LIE_ZERO, LieElement, lie_gen, require_in_k
from .matrix_oracle import GEN_BY_NAME
from .parser import BinOp, Call, Neg, Node, Num, Sym, parse
from .sym_ext import SEElement, ad_action_se, build_st_catalog, se_gen
from .tensor_algebra import Catalog, TensorAlgebra, accepted_catalog
from .uea import (
    SElement,
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
        realm, value = _eval(node, ctx.ambient, ctx)
    except EvalError:
        raise
    except ExprTypeError:
        raise
    except EngineError as exc:
        raise EvalError(f"evaluation failed: {exc}") from exc
    if realm == _SCALAR:
        return _lift_scalar(value, ctx.ambient, ctx)
    return value


# -- realm plumbing ----------------------------------------------------------------

def _lift_scalar(q: Fraction, realm: str, ctx: EvalContext):
    if realm == "uc":
        return ctx.algebra.scalar(q)
    if realm == "se":
        return SEElement({(ZERO_EXP, 0): q})
    if realm == "u":
        return q * u_one()
    if realm == "s":
        return q * s_one()
    if realm == "ext":
        return ExtElement({0: q})
    if realm == "c":
        return ctx.algebra.cl.scalar(q)
    if realm == "lie":
        if q == 0:
            return LIE_ZERO
        raise EvalError("a nonzero scalar is not a Lie algebra element")
    raise EvalError(f"cannot lift a scalar into realm {realm!r}")


def _coerce(pair, realm: str, ctx: EvalContext):
    r, v = pair
    if r == _SCALAR:
        return _lift_scalar(v, realm, ctx)
    return v


# ad(z, x) per realm; a U(g) ot C(p) or C(p) element carries its algebra
_AD_ACTIONS = {
    "uc": lambda z, x: x.algebra.ad_action(z, x),
    "se": ad_action_se,
    "u": ad_action_u,
    "s": ad_action_s,
    "ext": ext_k_action,
    "c": lambda z, x: x.algebra.k_action(z, x),
}

_REALM_NOUN = {
    "uc": "the tensor algebra U(g) ot C(p)",
    "se": "the graded algebra S(g) ot Lambda(p)",
    "u": "the enveloping algebra",
    "s": "the symmetric algebra",
    "ext": "the exterior algebra on p",
    "c": "the Clifford algebra",
    "lie": "the Lie algebra",
}


def _resolve_name(name: str, realm: str, ctx: EvalContext):
    g = GEN_BY_NAME.get(name)
    if g is not None:
        if realm == "uc":
            return ctx.algebra.u_gen(g)
        if realm == "se":
            return se_gen(g)
        if realm == "u":
            return u_gen(g)
        if realm == "s":
            return s_gen(g)
        if realm == "ext":
            return ext_gen(g)  # raises DomainError off p
        if realm == "c":
            return ctx.algebra.cl.gen(g)
        if realm == "lie":
            return lie_gen(g)
    if realm == "uc" and name in ctx.catalog.elements:
        return ctx.catalog.elements[name]
    if realm == "se" and name in ctx.st.named:
        return ctx.st.named[name]
    raise EvalError(f"unknown name {name!r} in {_REALM_NOUN[realm]}")


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


def _eval_binop(node: BinOp, realm: str, ctx: EvalContext):
    op = node.op

    if op == "ot":
        if realm == "uc":
            left = _coerce(_eval(node.left, "u", ctx), "u", ctx)
            right = _coerce(_eval(node.right, "c", ctx), "c", ctx)
            return (realm, ctx.algebra.multiply(
                ctx.algebra.from_u(left), ctx.algebra.from_c(right)))
        if realm == "se":
            left = _coerce(_eval(node.left, "s", ctx), "s", ctx)
            right = _coerce(_eval(node.right, "ext", ctx), "ext", ctx)
            lse = SEElement._of({(exp, 0): c for exp, c in left.num.items()}, left.den)
            rse = SEElement._of({(ZERO_EXP, m): c for m, c in right.num.items()}, right.den)
            return (realm, lse * rse)
        raise EvalError(f"'ot' cannot appear inside {_REALM_NOUN[realm]}")

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
            left = _coerce(_eval(node.left, "ext", ctx), "ext", ctx)
            right = _coerce(_eval(node.right, "ext", ctx), "ext", ctx)
            return (realm, left * right)
        if realm == "se":
            left = _coerce(_eval(node.left, "ext", ctx), "ext", ctx)
            right = _coerce(_eval(node.right, "ext", ctx), "ext", ctx)
            wedge = left * right
            return (realm, SEElement._of(
                {(ZERO_EXP, m): c for m, c in wedge.num.items()}, wedge.den))
        raise EvalError(
            f"a wedge lives in the exterior algebra, not {_REALM_NOUN[realm]}; "
            "wrap it in tau(...) for the Clifford side")

    lp = _eval(node.left, realm, ctx)
    rp = _eval(node.right, realm, ctx)

    if lp[0] == _SCALAR and rp[0] == _SCALAR:
        a, b = lp[1], rp[1]
        if op == "+":
            return (_SCALAR, a + b)
        if op == "-":
            return (_SCALAR, a - b)
        return (_SCALAR, a * b)

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
    return (realm, left + right if op == "+" else left - right)


def _eval_call(node: Call, realm: str, ctx: EvalContext):
    fn = node.fn

    if fn == "ad":
        z = _coerce(_eval(node.args[0], "lie", ctx), "lie", ctx)
        if not isinstance(z, LieElement):
            raise EvalError("the first argument of ad must be a Lie element")
        if realm in ("uc", "se", "ext", "c"):  # only k acts here
            require_in_k(z)
        xr, xv = _eval(node.args[1], realm, ctx)
        if xr == _SCALAR:
            return (_SCALAR, Fraction(0))
        action = _AD_ACTIONS.get(realm)
        if action is None:
            raise EvalError(f"ad is not defined in {_REALM_NOUN[realm]}")
        return (realm, action(z, xv))

    if fn == "sigma":
        if realm not in ("uc", "u"):
            raise EvalError("sigma produces an enveloping algebra element; "
                            "it needs the uc ambient")
        arg = _coerce(_eval(node.args[0], "s", ctx), "s", ctx)
        if not isinstance(arg, SElement):
            raise EvalError("sigma expects a symmetric algebra element")
        out = symmetrize(arg)
        if realm == "uc":
            return (realm, ctx.algebra.from_u(out))
        return (realm, out)

    if fn == "tau":
        if realm not in ("uc", "c"):
            raise EvalError("tau produces a Clifford element; "
                            "it needs the uc ambient")
        arg = _coerce(_eval(node.args[0], "ext", ctx), "ext", ctx)
        out = ctx.algebra.cl.chevalley(arg)
        if realm == "uc":
            return (realm, ctx.algebra.from_c(out))
        return (realm, out)

    if fn == "rho":
        if realm != "uc":
            raise EvalError("rho lands in the tensor algebra; "
                            "it needs the uc ambient")
        arg = _coerce(_eval(node.args[0], "se", ctx), "se", ctx)
        if not isinstance(arg, SEElement):
            raise EvalError("rho expects a graded S(g) ot Lambda(p) element")
        return (realm, ctx.algebra.rho(arg))

    raise EvalError(f"unknown function {fn!r}")
