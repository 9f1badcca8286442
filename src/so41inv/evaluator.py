"""Evaluate parsed expressions against the engine.

Evaluation is realm-directed: the ambient algebra fixes the realm of the
whole expression ('uc' for U(g) tensor C(p), 'se' for S(g) tensor Lambda(p)),
and call nodes switch realms for their arguments - sigma reads its argument
in S(g), tau in Lambda(p), rho in the graded ambient, ad's first slot in the
Lie algebra. Bare generator names mean the enveloping (or symmetric) slot;
the Clifford/exterior slot is reached through 'ot', tau, or a wedge.

Each realm is one Realm record in _REALMS: the noun its errors name, its
generators, and the scalar lift and ad action of its ambient. Every realm
but the Lie algebra evaluates in an ambient: U(g), C(p) and U(g) tensor C(p)
in ctx.algebra, S(g), Lambda(p) and S(g) tensor Lambda(p) in the graded
model. Each ambient's ad lets all of g act on U(g) and S(g), and k alone
where a Clifford or exterior part is present. So 'ot' and the wedge are
products, and sigma, tau and rho are rho of an argument read in S(g),
Lambda(p) or S(g) tensor Lambda(p).

The algebra is the evaluator's one handle on a convention: ctx.algebra is
the algebra given, or else the adjudicated catalog's, and the catalog
names read algebra.catalog, built only when an expression reads one. A
scalar is a Fraction, and no element is one, so every value is plain and
its type says whether it is a scalar: scalars float through every realm
and are lifted (_lift) only where an element is needed. Engine errors
surface as EvalError with the original as cause.
"""
from __future__ import annotations

import operator
from collections.abc import Callable
from fractions import Fraction
from functools import cached_property

from ._record import record
from .elements import signed_sum
from .errors import EngineError, EvalError, ExprTypeError
from .lie_core import LIE_ZERO, LieElement, bracket, lie_gen, require_in_k
from .matrix_oracle import GEN_BY_NAME, Gen
from .parser import BinOp, Call, Neg, Node, Num, Sym, parse
from .sym_ext import ad_action_se, build_st_catalog, se_ext_gen, se_gen, se_one
from .tensor_algebra import TensorAlgebra, accepted_catalog

AMBIENTS = ("uc", "se")


class EvalContext:
    """The ambient realm and the U(g) tensor C(p) algebra: the one given, or
    else the adjudicated catalog's, resolved on first use."""

    def __init__(self, ambient: str = "uc", algebra: TensorAlgebra | None = None):
        if ambient not in AMBIENTS:
            raise ValueError(f"unknown ambient algebra: {ambient}")
        self.ambient = ambient
        if algebra is not None:
            self.algebra = algebra

    @cached_property
    def algebra(self) -> TensorAlgebra:
        return accepted_catalog().algebra


def evaluate(src: str | Node, ambient: str = "uc", algebra: TensorAlgebra | None = None):
    """Parse (if needed) and evaluate; returns a UCElement or SEElement."""
    node = parse(src) if isinstance(src, str) else src
    ctx = EvalContext(ambient, algebra)
    try:
        value = _eval(node, ctx.ambient, ctx)
    except (EvalError, ExprTypeError):
        raise
    except EngineError as exc:
        raise EvalError(f"evaluation failed: {exc}") from exc
    return _lift(value, ctx.ambient, ctx)


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


# the scalar lift and ad action of each ambient, shared by its realms; a
# U(g) ot C(p) element carries its algebra
_UC = (lambda ctx, q: ctx.algebra.scalar(q), lambda z, x: x.algebra.ad_action(z, x))
_SE = (lambda ctx, q: q * se_one(), ad_action_se)

_REALMS = {
    "uc": Realm("the tensor algebra U(g) ot C(p)", lambda ctx, g: ctx.algebra.u_gen(g), *_UC,
                names=lambda ctx: ctx.algebra.catalog.elements),
    "se": Realm("the graded algebra S(g) ot Lambda(p)", lambda ctx, g: se_gen(g), *_SE,
                names=lambda ctx: build_st_catalog().named),
    "u": Realm("the enveloping algebra", lambda ctx, g: ctx.algebra.u_gen(g), *_UC,
               k_only=False),
    "s": Realm("the symmetric algebra", lambda ctx, g: se_gen(g), *_SE, k_only=False),
    # se_ext_gen and c_gen raise DomainError off p
    "ext": Realm("the exterior algebra on p", lambda ctx, g: se_ext_gen(g), *_SE),
    "c": Realm("the Clifford algebra", lambda ctx, g: ctx.algebra.c_gen(g), *_UC),
    "lie": Realm("the Lie algebra", lambda ctx, g: lie_gen(g), _lie_scalar, bracket,
                 k_only=False),
}

# the realms of the two sides of 'ot' in each ambient
_OT_SIDES = {"uc": ("u", "c"), "se": ("s", "ext")}

# sigma, tau and rho are each rho of an argument read in one realm: its
# source realm, the realms its image lies in, and the refusal elsewhere
_RHO_CALLS = {
    "sigma": ("s", ("uc", "u"), "sigma produces an enveloping algebra element; "
                                "it needs the uc ambient"),
    "tau": ("ext", ("uc", "c"), "tau produces a Clifford element; it needs the uc ambient"),
    "rho": ("se", ("uc",), "rho lands in the tensor algebra; it needs the uc ambient"),
}


def _lift(v, realm: str, ctx: EvalContext):
    """v as an element of realm: a scalar, a Fraction, lifted into it."""
    return _REALMS[realm].lift(ctx, v) if isinstance(v, Fraction) else v


def _eval_in(node: Node, realm: str, ctx: EvalContext):
    """The value of node as an element of realm, a scalar lifted into it."""
    return _lift(_eval(node, realm, ctx), realm, ctx)


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
    """The value of node read in realm: an element of it, or a Fraction."""
    if isinstance(node, Num):
        return node.value

    if isinstance(node, Sym):
        return _resolve_name(node.name, realm, ctx)

    if isinstance(node, Neg):
        return -_eval(node.operand, realm, ctx)

    if isinstance(node, BinOp):
        if node.op in _ARITHMETIC:
            return _eval_chain(node, realm, ctx)
        return _eval_binop(node, realm, ctx)

    if isinstance(node, Call):
        return _eval_call(node, realm, ctx)

    raise EvalError(f"cannot evaluate node {node!r}")


_ARITHMETIC = {"+": operator.add, "-": operator.sub, "*": operator.mul}

_NO_LIE_PRODUCT = "the Lie algebra has no associative product; use ad(z, x) for brackets"


def _eval_chain(node: BinOp, realm: str, ctx: EvalContext):
    """A chain of + - * folded left to right in a loop: the printed form of
    an element is one long sum, and recursing down its left spine would take
    a stack frame per term. The + and - steps since the last * are kept as
    (element, sign) pairs and summed in one pass before the next * and at
    the end, so a sum costs time linear in its length."""
    spine = []
    while isinstance(node, BinOp) and node.op in _ARITHMETIC:
        spine.append(node)
        node = node.left
    left, run = _eval(node, realm, ctx), []
    for step in reversed(spine):
        op, right = step.op, _eval(step.right, realm, ctx)
        if not run and isinstance(left, Fraction) and isinstance(right, Fraction):
            left = _ARITHMETIC[op](left, right)
        elif op != "*":
            run = run or [(_lift(left, realm, ctx), 1)]
            run.append((_lift(right, realm, ctx), 1 if op == "+" else -1))
        else:
            if run:
                left, run = signed_sum(run), []
            if realm == "lie" and Fraction not in (type(left), type(right)):
                raise EvalError(_NO_LIE_PRODUCT)
            # scalar times element stays a plain scaling in any realm
            left = left * right
    return signed_sum(run) if run else left


def _eval_binop(node: BinOp, realm: str, ctx: EvalContext):
    # 'ot' is the product of its sides read in the two slots of the ambient,
    # a wedge that of two exterior elements; '^' before a number is a power
    if node.op == "ot":
        if realm not in _OT_SIDES:
            raise EvalError(f"'ot' cannot appear inside {_REALMS[realm].noun}")
        left, right = _OT_SIDES[realm]
    elif isinstance(node.right, Num):
        n = node.right.value
        if n.denominator != 1 or n < 0:
            raise EvalError(f"exponent {n} is not a nonnegative integer")
        v = _eval(node.left, realm, ctx)
        if realm == "lie" and not isinstance(v, Fraction):
            raise EvalError(_NO_LIE_PRODUCT)
        return v ** int(n)
    elif realm in ("ext", "se"):
        left = right = "ext"
    else:
        raise EvalError(
            f"a wedge lives in the exterior algebra, not {_REALMS[realm].noun}; "
            "wrap it in tau(...) for the Clifford side")
    return _eval_in(node.left, left, ctx) * _eval_in(node.right, right, ctx)


def _eval_call(node: Call, realm: str, ctx: EvalContext):
    fn = node.fn

    if fn == "ad":
        z = _eval_in(node.args[0], "lie", ctx)  # a LieElement: see _REALMS["lie"]
        spec = _REALMS[realm]
        if spec.k_only:
            require_in_k(z)
        x = _eval(node.args[1], realm, ctx)
        return Fraction(0) if isinstance(x, Fraction) else spec.ad(z, x)

    if fn not in _RHO_CALLS:
        raise EvalError(f"unknown function {fn!r}")
    source, targets, refusal = _RHO_CALLS[fn]
    if realm not in targets:
        raise EvalError(refusal)
    return ctx.algebra.rho(_eval_in(node.args[0], source, ctx))
