"""Exact symbolic verification of the K-invariant catalog in U(so(5,C)) ot C(p).

The package builds so(5,C) with its Cartan split for G = SO_e(4,1) from an
explicit 5x5 matrix realization, constructs U(g) (PBW normal form) and the
Clifford algebra of p (exact rational bilinear form), maps the closed-form
invariant catalog across rho = sigma tensor tau, and verifies the commutator
table, K-invariance, the identity suite, the generator theorem, graded
invariant dimensions, and truncated freeness - all in exact arithmetic.
"""

from .errors import (
    DomainError,
    EngineError,
    EvalError,
    ExprTypeError,
    InvarianceError,
    NotStableError,
    ParseError,
    PrimeDisagreement,
    SolveError,
    SpanError,
)
from .matrix_oracle import Gen, K_GENS, P_GENS
from .lie_core import (
    LieElement,
    bracket,
    certify_against_oracle,
    default_cartan_split,
    jacobi_check,
    lie_gen,
)
from .uea import SElement, UElement, s_gen, symmetrize, u_gen
from .clifford import CliffordAlgebra, ExtElement, PForm, ext_gen, ext_wedge
from .sym_ext import SEElement, build_st_catalog, se_gen, se_wedge
from .tensor_algebra import (
    Catalog,
    TensorAlgebra,
    UCElement,
    accepted_catalog,
    adjudicate_convention,
    catalog_for_sign,
    generator_chain_check,
    verify_relations,
)
from .invariants import (
    independence_check,
    invariant_dimension,
    predicted_dimension,
    truncated_rank16_check,
)
from .parser import parse
from .evaluator import evaluate
from .serialization import dump_element, dumps_element, load_element, loads_element

__version__ = "1.0.0"

__all__ = [
    "Catalog",
    "CliffordAlgebra",
    "DomainError",
    "EngineError",
    "EvalError",
    "ExprTypeError",
    "ExtElement",
    "Gen",
    "InvarianceError",
    "K_GENS",
    "LieElement",
    "NotStableError",
    "P_GENS",
    "PForm",
    "ParseError",
    "PrimeDisagreement",
    "SEElement",
    "SElement",
    "SolveError",
    "SpanError",
    "TensorAlgebra",
    "UCElement",
    "UElement",
    "accepted_catalog",
    "adjudicate_convention",
    "bracket",
    "build_st_catalog",
    "catalog_for_sign",
    "certify_against_oracle",
    "default_cartan_split",
    "dump_element",
    "dumps_element",
    "evaluate",
    "ext_gen",
    "ext_wedge",
    "generator_chain_check",
    "independence_check",
    "invariant_dimension",
    "jacobi_check",
    "lie_gen",
    "load_element",
    "loads_element",
    "parse",
    "predicted_dimension",
    "s_gen",
    "se_gen",
    "se_wedge",
    "symmetrize",
    "truncated_rank16_check",
    "u_gen",
    "verify_relations",
]
