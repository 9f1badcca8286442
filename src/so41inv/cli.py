"""Command line front end.

Subcommands:

    verify {table|relations|invariance|dims|independence|chain|rank16|all}
    eval EXPR
    dump NAME --out PATH
    load PATH

All reports are line-oriented plain text, one line per check, ending in
PASS or FAIL; the process exits 0 exactly when every check passed. Nothing
here is randomized, and every kernel and rank verdict is exact over Q.
"""
from __future__ import annotations

import argparse
import os
import sys
from contextlib import suppress
from functools import cache

from .errors import EngineError, InvarianceError

# Each suite and command imports the modules it runs when it runs, so a cold
# process loads no more of the package than its command needs.


class Reporter:
    """Collects one line per check and tracks the overall verdict."""

    def __init__(self):
        self.checks = 0
        self.failures = 0

    def line(self, text: str) -> None:
        print(text)

    def check(self, text: str, ok: bool) -> None:
        self.checks += 1
        if not ok:
            self.failures += 1
        print(f"{text} {'PASS' if ok else 'FAIL'}")

    @property
    def ok(self) -> bool:
        return self.failures == 0


def _catalog_for(args):
    from .tensor_algebra import accepted_catalog, catalog_for_sign
    if args.sign == "auto":
        return accepted_catalog()
    return catalog_for_sign(int(args.sign))


# -- suites ----------------------------------------------------------------------

def suite_table(rep: Reporter, args) -> None:
    from .lie_core import table_certificate
    cert = table_certificate()  # proved on first use, once per process
    for g, member, trace in cert.matrices:
        rep.check(f"MATRIX {g.name} membership trace={trace}", member)
    for _, mismatch in cert.pairs:
        if mismatch:
            rep.line(f"# {mismatch}")
    for label, mismatch in cert.pairs:
        rep.check(f"TABLE {label}", mismatch is None)
    passed = sum(mismatch is None for _, mismatch in cert.pairs)
    rep.line(f"TABLE SUMMARY {passed}/{len(cert.pairs)}")


def suite_relations(rep: Reporter, args) -> None:
    from .tensor_algebra import (CONVENTION_LABELS, adjudicate_convention, convention_algebra,
                                 effective_checks)
    if args.sign == "auto" and adjudicate_convention().accepted is None:
        # no convention passes: the residuals of each one whose catalog builds
        for label in CONVENTION_LABELS:
            with suppress(InvarianceError):
                for ch in convention_algebra(label).catalog.checks:
                    rep.check(f"RELATION {ch.name}[{ch.variant},{label}] "
                              f"residual_terms={ch.residual_terms}", ch.ok)
        return
    cat = _catalog_for(args)
    checks = cat.checks  # run once per convention, shared with adjudication
    sign = cat.algebra.pform.sign
    gram = cat.algebra.pform.label
    rep.line(f"CONVENTION sign={sign:+d} gram={gram} dk_reading={cat.dk_reading}")
    for ch in effective_checks(checks):
        rep.check(f"RELATION {ch.name} sign={sign:+d} "
                  f"residual_terms={ch.residual_terms}", ch.ok)
    # the two identities whose displayed grouping differs from the form the
    # suite checks: surface the literal residuals alongside, as findings
    by_key = {(ch.name, ch.variant): ch for ch in checks}
    for name in ("h", "c"):
        lit = by_key[(name, "literal")]
        reg = by_key[(name, "regrouped")]
        if not lit.ok:
            rep.line(f"FINDING relation={name} literal_residual_terms="
                     f"{lit.residual_terms} regrouped_residual_terms="
                     f"{reg.residual_terms}")


def suite_invariance(rep: Reporter, args) -> None:
    cat = _catalog_for(args)
    alg = cat.algebra
    rep.line(f"CONVENTION sign={alg.pform.sign:+d} gram={alg.pform.label} "
             f"dk_reading={cat.dk_reading}")
    # the certificate build_catalog computed, one record per (name, z)
    for (name, z), terms in cat.invariance.items():
        rep.check(f"INVARIANT {name} generator={z.name} residual_terms={terms}",
                  terms == 0)
    rep.line(f"INVARIANCE SUMMARY checks={len(cat.invariance)}")


def suite_dims(rep: Reporter, args) -> None:
    from .invariants import invariant_dimension
    cap = args.max_degree if args.max_degree is not None else 7
    emit_dir = args.emit_basis
    if emit_dir:
        from .serialization import dump_element
        os.makedirs(emit_dir, exist_ok=True)
    for n in range(cap + 1):
        try:
            r = invariant_dimension(n, want_basis=bool(emit_dir))
        except EngineError as exc:
            rep.check(f"DIM degree={n} error={exc}", False)
            continue
        rep.check(f"DIM degree={n} dim={r.dimension} expected={r.expected} "
                  "method=exact", r.ok)
        if r.basis is not None:
            for i, vec in enumerate(r.basis):
                path = os.path.join(emit_dir, f"deg{n}_vec{i}.element")
                dump_element(vec, path)
            rep.line(f"EMIT degree={n} vectors={len(r.basis)} dir={emit_dir}")


def _freeness(rep: Reporter, args, per_degree: bool):
    """The freeness report at the degree cap (default 6) and its rank as
    printed, after the per-degree lines if asked and the failed certificates."""
    from .invariants import independence_check
    r = independence_check(args.max_degree if args.max_degree is not None else 6)
    if per_degree:
        for n, (got, want) in sorted(r.per_degree.items()):
            rep.check(f"INDEPENDENCE degree={n} products={got} expected={want}",
                      got == want)
    for msg in r.certificate.failures():
        rep.line(f"# {msg}")
    return r, "unproven" if r.rank is None else r.rank


def suite_independence(rep: Reporter, args) -> None:
    r, rank = _freeness(rep, args, per_degree=True)
    rep.check(f"INDEPENDENCE rank={rank} vectors={r.total}", r.rank == r.total)


def suite_chain(rep: Reporter, args) -> None:
    from .tensor_algebra import generator_chain_check
    cat = _catalog_for(args)
    for step in generator_chain_check(cat):
        rep.check(f"CHAIN {step.name} residual_terms={step.residual_terms}",
                  step.ok)


def suite_rank16(rep: Reporter, args) -> None:
    # the rank alone: no degree is eliminated
    r, rank = _freeness(rep, args, per_degree=False)
    rep.check(f"RANK16 vectors={r.total} rank={rank} expected={r.total}", r.rank == r.total)


SUITES = {
    "table": suite_table,
    "relations": suite_relations,
    "invariance": suite_invariance,
    "dims": suite_dims,
    "independence": suite_independence,
    "chain": suite_chain,
    "rank16": suite_rank16,
}


# -- argument plumbing --------------------------------------------------------------

def _degree_cap(text: str) -> int:
    """A --max-degree value: a nonnegative int (a negative cap checks nothing)."""
    try:
        cap = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if cap < 0:
        raise argparse.ArgumentTypeError(f"must be nonnegative, got {cap}")
    return cap


def _emit_dir(text: str) -> str:
    """An --emit-basis value: a nonempty directory name (an empty one writes
    nothing)."""
    if not text:
        raise argparse.ArgumentTypeError("must name a directory, got ''")
    return text


@cache
def build_parser() -> argparse.ArgumentParser:
    """The command line grammar, built once per process (parse_args leaves
    the parser as it is)."""
    top = argparse.ArgumentParser(
        prog="so41inv",
        description="Exact verification engine for the invariant catalog of "
                    "U(so(5,C)) tensor C(p).")
    sub = top.add_subparsers(dest="command", required=True)

    def common(p, ambient=True):
        p.add_argument("--sign", choices=("+1", "-1", "auto"), default="auto",
                       help="Clifford sign convention (default: adjudicated)")
        if ambient:  # no suite reads an ambient
            p.add_argument("--ambient", choices=("uc", "se"), default="uc",
                           help="ambient algebra for expressions and names")

    pv = sub.add_parser("verify", help="run a verification suite")
    pv.add_argument("suite", choices=tuple(SUITES) + ("all",))
    common(pv, ambient=False)
    pv.add_argument("--max-degree", type=_degree_cap, default=None,
                    help="degree cap for dims/independence/rank16")
    pv.add_argument("--method", choices=("exact", "auto"), default="auto",
                    help="kernel arithmetic for dims; both values run the "
                         "one exact kernel over Q")
    pv.add_argument("--emit-basis", metavar="DIR", type=_emit_dir, default=None,
                    help="write exact kernel bases as element files here")

    pe = sub.add_parser("eval", help="evaluate an expression")
    pe.add_argument("expr")
    common(pe)

    pd = sub.add_parser("dump", help="serialize a named catalog element")
    pd.add_argument("name")
    pd.add_argument("--out", required=True)
    common(pd)

    pl = sub.add_parser("load", help="load an element file and print it")
    pl.add_argument("path")
    return top


def cmd_verify(args) -> int:
    rep = Reporter()
    suites = list(SUITES) if args.suite == "all" else [args.suite]
    for name in suites:
        SUITES[name](rep, args)
    rep.line(f"VERIFY {args.suite} checks={rep.checks} failures={rep.failures} "
             f"{'PASS' if rep.ok else 'FAIL'}")
    return 0 if rep.ok else 1


def cmd_eval(args) -> int:
    from .evaluator import evaluate
    from .tensor_algebra import algebra_for_sign
    # a forced sign fixes the algebra; its catalog is built only if read
    algebra = None if args.ambient == "se" or args.sign == "auto" \
        else algebra_for_sign(int(args.sign))
    result = evaluate(args.expr, ambient=args.ambient, algebra=algebra)
    print(result)
    return 0


def cmd_dump(args) -> int:
    from .serialization import dump_element
    if args.ambient == "se":
        from .sym_ext import build_st_catalog
        named = build_st_catalog().named
    else:
        named = _catalog_for(args).elements
    if args.name not in named:
        print(f"unknown element {args.name!r}; have: {', '.join(sorted(named))}",
              file=sys.stderr)
        return 2
    dump_element(named[args.name], args.out)
    print(f"DUMP {args.name} -> {args.out}")
    return 0


def cmd_load(args) -> int:
    from .serialization import load_element
    el = load_element(args.path)
    kind = type(el).__name__
    print(f"LOAD {args.path} kind={kind} terms={len(el)}")
    print(el)
    return 0


COMMANDS = {"verify": cmd_verify, "eval": cmd_eval, "dump": cmd_dump, "load": cmd_load}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return COMMANDS[args.command](args)
    except (EngineError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
