"""Shared fixtures. The engine keeps its process-wide results in functools
caches (module functions) and its per-algebra results in tables of each
algebra; the catalog fixtures are thin handles that read through the cached
functions, so they always return what the command line would see, also
after a test empties the caches."""
import importlib
import os
import pkgutil
from collections import Counter

import pytest
from hypothesis import settings

import so41inv
from so41inv.lie_core import GEN_WEIGHTS
from so41inv.matrix_oracle import Gen, P_GENS
from so41inv.sym_ext import build_st_catalog
from so41inv.tensor_algebra import accepted_catalog, adjudicate_convention

# HYPOTHESIS_PROFILE=ci draws the same examples on every run and Python
# version; the default profile draws fresh ones.
settings.register_profile("ci", derandomize=True)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))


def package_caches() -> dict[str, object]:
    """Every function of the package under functools.cache, by qualified name."""
    found = {}
    for info in pkgutil.iter_modules(so41inv.__path__):
        module = importlib.import_module(f"so41inv.{info.name}")
        for fn in vars(module).values():
            if hasattr(fn, "cache_clear") and fn.__module__ == module.__name__:
                found[f"{info.name}.{fn.__name__}"] = fn
    return found


@pytest.fixture
def cold_caches():
    """Empty every package cache before and after the test, as in a fresh
    process. The test may call the returned function to empty them again.
    The caches are found before the test, so one it patches is still cleared."""
    caches = list(package_caches().values())

    def clear():
        for fn in caches:
            fn.cache_clear()

    clear()
    yield clear
    clear()


@pytest.fixture
def adjudication():
    return adjudicate_convention()


@pytest.fixture
def cat():
    return accepted_catalog()


@pytest.fixture
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
