"""Nothing a process cache shares is writable. Every record refuses
assignment, every element refuses a write to its numerators and a rebind of
num, den and algebra, the algebras refuse a rebind, and the catalog
mappings and the _OnDemand tables refuse item writes. So no caller can
change what a later caller reads."""
import operator
import os
from collections.abc import Mapping
from fractions import Fraction

import pytest

from conftest import package_caches
from so41inv import cli
from so41inv.elements import ZERO_EXP
from so41inv.invariants import invariant_dimension
from so41inv.matrix_oracle import Gen
from so41inv.sym_ext import build_st_catalog
from so41inv.tensor_algebra import CONVENTION_LABELS, accepted_catalog
from so41inv.uea import symmetrize_monomial, word_to_exp

DATA = os.path.join(os.path.dirname(__file__), "data")
E1F1 = word_to_exp((Gen.E1, Gen.F1))


def snapshot(value) -> object:
    """The canonical text of an element, or of each element of a mapping
    or a sequence of them."""
    if isinstance(value, Mapping):
        return {k: str(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [str(v) for v in value]
    return str(value)


# Each write a caller could make to a shared value, the error it must raise,
# and what a later call reads.
WRITES = {
    "basis-den": (lambda: setattr(invariant_dimension(2, True).basis[0], "den", 7),
                  AttributeError, lambda: invariant_dimension(2, True).basis),
    "sigma-den": (lambda: setattr(symmetrize_monomial(E1F1), "den", 5),
                  AttributeError, lambda: symmetrize_monomial(E1F1)),
    "rho-num": (lambda: accepted_catalog().algebra.rho_named("D").num.clear(),
                AttributeError, lambda: accepted_catalog().elements["D"]),
    "catalog-elements": (lambda: operator.setitem(accepted_catalog().elements, "D",
                                                  accepted_catalog().elements["a1"]),
                         TypeError, lambda: accepted_catalog().elements),
    "st-named": (lambda: operator.setitem(build_st_catalog().named, "a1",
                                          build_st_catalog().named["a2"]),
                 TypeError, lambda: build_st_catalog().named),
}


@pytest.mark.parametrize("write, error, read", WRITES.values(), ids=WRITES)
def test_a_write_to_a_shared_value_raises_and_changes_nothing(cold_caches, write, error, read):
    before = snapshot(read())
    with pytest.raises(error):
        write()
    assert snapshot(read()) == before


def cache_calls() -> dict[str, list[tuple]]:
    """Arguments for each package cache but the command-line parser, which
    is argparse's own object: the catalogs of every convention, the kernel
    bases of degrees 0-5, and the U(g) rows and sigma of every monomial of
    the closed-form catalog."""
    exps = sorted({exp for el in build_st_catalog().named.values() for exp, _ in el.num})
    key = (ZERO_EXP, 5)
    return {
        "clifford._trace_gram": [()],
        "invariants.eliminated_degree": [(n, b) for n in range(6) for b in (False, True)],
        "invariants.freeness_certificate": [()],
        "matrix_oracle.basis_matrices": [()],
        "serialization._coeff_of": [("-3/4",)],
        "serialization._key_of": [(" ".join(map(str, key[0])), "1010")],
        "serialization._row_of": [(key,)],
        "serialization.order_hash": [("uc", -1, "trace/4"), ("se", 0, "none")],
        "sym_ext.build_st_catalog": [()],
        "tensor_algebra.adjudicate_convention": [()],
        "tensor_algebra.convention_algebra": [(label,) for label in CONVENTION_LABELS],
        "uea._orderings_sum": [(exp,) for exp in exps],
        "uea.gen_commutator": [(g, exp) for g in range(10) for exp in exps],
        "uea.insert_gen": [(g, exp) for g in range(10) for exp in exps],
        "uea.pbw_pair_product": [(a, b) for a in exps[:12] for b in exps[:12]],
        "uea.symmetrize_monomial": [(exp,) for exp in exps],
    }


def reachable(roots):
    """Every value reachable from roots through the items of tuples and
    mappings and the attributes of every other object, each once, except
    the leaves: ints (so also Gen), strings, Fractions, None and functions."""
    seen, stack = set(), list(roots)
    while stack:
        value = stack.pop()
        if (isinstance(value, (int, str, Fraction, type(None))) or callable(value)
                or id(value) in seen):
            continue
        seen.add(id(value))
        yield value
        if isinstance(value, (tuple, frozenset)):
            stack.extend(value)
            continue
        if isinstance(value, Mapping):
            stack.extend(value.keys())
            stack.extend(value.values())
        stack.extend(getattr(value, name) for name in attribute_names(value))


def attribute_names(value) -> list[str]:
    """The slots and the instance attributes of an object."""
    names = [n for cls in type(value).__mro__ for n in getattr(cls, "__slots__", ())]
    return names + list(getattr(value, "__dict__", {}))


def test_every_value_a_cache_holds_refuses_every_write(capsys, cold_caches):
    with open(os.path.join(DATA, "verify_all.stdout")) as fh:
        golden = fh.read()
    assert cli.main(["verify", "all"]) == 0
    assert capsys.readouterr().out == golden
    calls = cache_calls()
    assert set(calls) | {"cli.build_parser"} == set(package_caches())
    roots = [fn(*args) for name, fn in package_caches().items() if name in calls
             for args in calls[name]]
    kinds = set()
    for value in reachable(roots):
        kinds.add(type(value).__name__)
        assert type(value) not in (list, dict, set, bytearray), f"a shared {type(value).__name__}"
        if isinstance(value, Mapping):
            for key in list(value)[:1] + [object()]:
                with pytest.raises(TypeError):
                    value[key] = 0
            with pytest.raises((TypeError, AttributeError)):
                value.clear()
        if not isinstance(value, (tuple, frozenset)):
            for name in attribute_names(value) + ["extra"]:
                with pytest.raises(AttributeError):
                    setattr(value, name, None)
                with pytest.raises(AttributeError):
                    delattr(value, name)
    # the walk reached every kind of shared value
    assert {"TensorAlgebra", "CliffordAlgebra", "_OnDemand", "Catalog", "STCatalog",
            "Adjudication", "ConventionReport", "RelationCheck", "ChainStep", "PForm",
            "FreenessCertificate", "UCElement", "CElement", "SEElement", "UElement",
            "mappingproxy", "GaussMatrix"} <= kinds
    assert cli.main(["verify", "all"]) == 0
    assert capsys.readouterr().out == golden
