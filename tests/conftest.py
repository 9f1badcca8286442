"""Shared fixtures. The engine caches its heavyweight objects at module
level, so these are thin handles that also make test dependencies explicit."""
from collections import Counter

import pytest

from so41inv.lie_core import GEN_WEIGHTS
from so41inv.matrix_oracle import Gen, P_GENS
from so41inv.sym_ext import build_st_catalog
from so41inv.tensor_algebra import accepted_catalog, adjudicate_convention


@pytest.fixture(scope="session")
def adjudication():
    return adjudicate_convention()


@pytest.fixture(scope="session")
def cat(adjudication):
    return accepted_catalog()


@pytest.fixture(scope="session")
def st():
    return build_st_catalog()


CHARACTER_MAX_DEGREE = 20


def _shifted(weights: Counter, w: tuple[int, int]) -> Counter:
    return Counter({(a + w[0], b + w[1]): m for (a, b), m in weights.items()})


@pytest.fixture(scope="session")
def character_counts():
    """Invariant dimensions h(0..20) from the Weyl character alone, an oracle
    that shares no code with the kernels: with simple roots a1 = wt(E1) and
    a2 = wt(E2) of k = sl2 + sl2, the trivial multiplicity of a k-module
    with weight multiplicities m is m(0) - m(a1) - m(a2) + m(a1 + a2).
    Here m is read off the degree-n part of S(g) tensor Lambda(p), built as
    the product of 1/(1 - t x^wt(g)) over g and (1 + t x^wt(v)) over v in p."""
    top = CHARACTER_MAX_DEGREE
    series = [Counter() for _ in range(top + 1)]
    series[0][(0, 0)] = 1
    for g in Gen:  # symmetric factor: every power of t x^w
        for n in range(1, top + 1):
            series[n] += _shifted(series[n - 1], GEN_WEIGHTS[g])
    for v in P_GENS:  # exterior factor: at most one t x^w
        for n in range(top, 0, -1):
            series[n] += _shifted(series[n - 1], GEN_WEIGHTS[v])
    a1, a2 = GEN_WEIGHTS[Gen.E1], GEN_WEIGHTS[Gen.E2]
    a12 = (a1[0] + a2[0], a1[1] + a2[1])
    return [m[(0, 0)] - m[a1] - m[a2] + m[a12] for m in series]
