"""Nothing a process cache shares is writable. Every record refuses
assignment, every element refuses a write to its numerators and a rebind of
num, den and algebra, the algebras refuse a rebind, the catalog mappings
and the structure constants (the commutator table and the weights) refuse
item writes, and every row a per-algebra table hands out is a tuple. So no
caller can change what a later caller reads. The command line grammar and
its option tables, which every parse reads, refuse writes as well."""
import contextlib
import io
import operator
import os
from collections.abc import Mapping
from fractions import Fraction

import pytest

from conftest import package_caches
from so41inv import cli, lie_core
from oracles import ZERO_EXP, pack
from so41inv.elements import pair_sort_key
from so41inv.invariants import invariant_dimension
from so41inv.matrix_oracle import K_GENS
from so41inv.sym_ext import build_st_catalog
from so41inv.tensor_algebra import CONVENTION_LABELS, accepted_catalog, convention_algebra

DATA = os.path.join(os.path.dirname(__file__), "data")


def snapshot(value) -> object:
    """The canonical text of an element, or of each element of a mapping
    or a sequence of them."""
    if isinstance(value, Mapping):
        return {k: str(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [str(v) for v in value]
    return str(value)


def printed(*argv: str) -> list[str]:
    """The lines a command that passes prints."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(list(argv)) == 0
    return out.getvalue().splitlines()


def dims_degrees(*flags: str) -> list[str]:
    """The degree field of each DIM line `verify dims` prints at its default
    cap, 7, or with flags that keep it: degree=0 ... degree=7, which a write
    to the grammar must keep."""
    return [line.split()[1] for line in printed("verify", "dims", *flags)
            if line.startswith("DIM ")]


def independence_lines() -> list[str]:
    """The INDEPENDENCE lines `verify independence` prints at its default cap, 6."""
    return [line for line in printed("verify", "independence") if line.startswith("INDEPENDENCE ")]


def set_default(command: str, flag: str, value) -> None:
    """Rebind the default of one option of a command in the grammar."""
    row = next(row for row in cli.GRAMMAR[command][1] if row[0] == flag)
    row[1] = value


# Each write a caller could make to a value the engine hands out, the error
# it must raise, and what a later call reads.
WRITES = {
    "basis-den": (lambda: setattr(invariant_dimension(2, True).basis[0], "den", 7),
                  AttributeError, lambda: invariant_dimension(2, True).basis),
    "st-den": (lambda: setattr(build_st_catalog().named["b"], "den", 5),
               AttributeError, lambda: build_st_catalog().named["b"]),
    "rho-num": (lambda: accepted_catalog().elements["D"].num.clear(),
                AttributeError, lambda: accepted_catalog().elements["D"]),
    "catalog-elements": (lambda: operator.setitem(accepted_catalog().elements, "D",
                                                  accepted_catalog().elements["a1"]),
                         TypeError, lambda: accepted_catalog().elements),
    "st-named": (lambda: operator.setitem(build_st_catalog().named, "a1",
                                          build_st_catalog().named["a2"]),
                 TypeError, lambda: build_st_catalog().named),
    "st-degrees": (lambda: operator.setitem(build_st_catalog().named_degrees, "c", 2),
                   TypeError, independence_lines),
    "grammar-default": (lambda: set_default("verify", "--max-degree", 0), TypeError, dims_degrees),
    "grammar-command": (lambda: operator.setitem(cli.GRAMMAR, "verify", cli.GRAMMAR["load"]),
                        TypeError, dims_degrees),
    "option-table": (lambda: operator.setitem(cli._OPTIONS["verify"], "--max-degree", None),
                     TypeError, lambda: dims_degrees("--max-degree", "7")),
}


@pytest.mark.parametrize("write, error, read", WRITES.values(), ids=WRITES)
def test_a_write_to_a_shared_value_raises_and_changes_nothing(cold_caches, write, error, read):
    before = snapshot(read())
    with pytest.raises(error):
        write()
    assert snapshot(read()) == before


def cache_calls() -> dict[str, list[tuple]]:
    """Arguments for each package cache: the catalogs of every convention,
    the kernel bases of degrees 0-5, and the U(g) rows of every monomial of
    the closed-form catalog."""
    # the PBW monomial of each key: the key with its mask cleared
    exps = sorted({k & -16 for el in build_st_catalog().named.values() for k in el.num})
    key = (ZERO_EXP, 5)
    return {
        "invariants.eliminated_degree": [(n, b) for n in range(6) for b in (False, True)],
        "invariants.freeness_certificate": [()],
        "lie_core.table_certificate": [()],
        "matrix_oracle.basis_matrices": [()],
        "serialization._coeff_of": [("-3/4",)],
        "serialization._key_of": [(" ".join(map(str, key[0])), "1010")],
        "serialization._row_of": [(pack(key),)],
        "sym_ext.build_st_catalog": [()],
        "tensor_algebra.adjudicate_convention": [()],
        "tensor_algebra.convention_algebra": [(label,) for label in CONVENTION_LABELS],
        "uea._orderings_sum": [(exp,) for exp in exps],
        "uea.gen_commutator": [(g, exp) for g in range(10) for exp in exps],
        "uea.insert_gen": [(g, exp) for g in range(10) for exp in exps],
        "uea.pbw_pair_product": [(a, b) for a in exps[:12] for b in exps[:12]],
    }


def table_reads() -> list:
    """The walk stops at a function, so at every per-algebra table: each
    table read over its whole domain, for every convention (the Clifford
    monomial products, k-action, tau and insertion), and the U(g)
    (x) C(p) product and action rows on keys of the accepted catalog."""
    keys = sorted({k for el in accepted_catalog().elements.values() for k in el.num},
                  key=pair_sort_key)
    reads = []
    for label in CONVENTION_LABELS:
        alg = convention_algebra(label)
        cl = alg.cl
        reads += [cl.table(ma, mb) for ma in range(16) for mb in range(16)]
        reads += [cl.k_table(zg, m) for zg in K_GENS for m in range(16)]
        reads += [cl._tau_table(m) for m in range(16)]
        reads += [cl._insert_table(m, b) for m in range(16) for b in range(4)]
        reads += [alg._products(a, b) for a in keys[:12] for b in keys[:12]]
        reads += [alg._actions(zg, k) for zg in K_GENS for k in keys]
    return reads


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
    assert set(calls) == set(package_caches())
    roots = [fn(*args) for name, fn in package_caches().items() if name in calls
             for args in calls[name]] + table_reads() + [lie_core._T, lie_core.GEN_WEIGHTS]
    kinds = set()
    for value in reachable(roots):
        kinds.add(type(value).__name__)
        assert type(value) not in (list, dict, set, bytearray), f"a shared {type(value).__name__}"
        if isinstance(value, Mapping):
            # a mappingproxy refuses an int key past the machine word, such
            # as a packed monomial key, with IndexError from its sequence fallback
            for key in list(value)[:1] + [object()]:
                with pytest.raises((TypeError, IndexError)):
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
    assert {"TensorAlgebra", "CliffordAlgebra", "Catalog", "STCatalog",
            "Adjudication", "RelationCheck", "ChainStep", "PForm", "FreenessCertificate",
            "TableCertificate", "UCElement", "SEElement", "mappingproxy", "GaussMatrix"} <= kinds
    # and no cache hands out an element of U(g) or of C(p) alone
    assert not {"UElement", "CElement"} & kinds
    assert cli.main(["verify", "all"]) == 0
    assert capsys.readouterr().out == golden
