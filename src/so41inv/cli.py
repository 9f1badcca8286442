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

from .errors import EngineError

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
    from .lie_core import certify_against_oracle
    from .matrix_oracle import Gen, basis_matrices, is_so41_member, mat_trace
    mats = basis_matrices()
    for g in Gen:
        m = mats[g]
        rep.check(f"MATRIX {g.name} membership trace={mat_trace(m)}",
                  is_so41_member(m) and not mat_trace(m))
    mismatches = certify_against_oracle()
    bad_pairs = set()
    for msg in mismatches:
        bad_pairs.add(msg.split(":", 1)[0])
        rep.line(f"# {msg}")
    names = [g.name for g in Gen]
    total = 0
    good = 0
    for i in range(10):
        for j in range(i + 1, 10):
            total += 1
            pair = f"[{names[i]},{names[j]}]"
            ok = pair not in bad_pairs
            good += ok
            rep.check(f"TABLE {pair}", ok)
    rep.line(f"TABLE SUMMARY {good}/{total}")


def suite_relations(rep: Reporter, args) -> None:
    from .tensor_algebra import adjudicate_convention, effective_checks
    if args.sign == "auto":
        adj = adjudicate_convention()
        if adj.accepted is None:
            # no convention satisfies the suite: report residuals everywhere
            for report in adj.reports:
                for ch in report.checks:
                    rep.check(
                        f"RELATION {ch.name}[{ch.variant},{report.label}] "
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


def suite_independence(rep: Reporter, args) -> None:
    from .invariants import independence_check
    cap = args.max_degree if args.max_degree is not None else 6
    r = independence_check(cap)
    for n in sorted(r.per_degree):
        got, want = r.per_degree[n]
        rep.check(f"INDEPENDENCE degree={n} products={got} expected={want}",
                  got == want)
    rep.check(f"INDEPENDENCE rank={r.rank} vectors={r.total}",
              r.rank == r.total)


def suite_chain(rep: Reporter, args) -> None:
    from .tensor_algebra import generator_chain_check
    cat = _catalog_for(args)
    for step in generator_chain_check(cat):
        rep.check(f"CHAIN {step.name} residual_terms={step.residual_terms}",
                  step.ok)


def suite_rank16(rep: Reporter, args) -> None:
    from .invariants import truncated_rank16_check
    cap = args.max_degree if args.max_degree is not None else 6
    r = truncated_rank16_check(cap)
    rep.check(f"RANK16 vectors={r.vector_count} rank={r.rank} "
              f"expected={r.expected}", r.ok)


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

def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="so41inv",
        description="Exact verification engine for the invariant catalog of "
                    "U(so(5,C)) tensor C(p).")
    sub = top.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--sign", choices=("+1", "-1", "auto"), default="auto",
                       help="Clifford sign convention (default: adjudicated)")
        p.add_argument("--ambient", choices=("uc", "se"), default="uc",
                       help="ambient algebra for expressions and names")

    pv = sub.add_parser("verify", help="run a verification suite")
    pv.add_argument("suite", choices=tuple(SUITES) + ("all",))
    common(pv)
    pv.add_argument("--max-degree", type=int, default=None,
                    help="degree cap for dims/independence/rank16")
    pv.add_argument("--method", choices=("exact", "auto"), default="auto",
                    help="kernel arithmetic for dims; both values run the "
                         "one exact kernel over Q")
    pv.add_argument("--emit-basis", metavar="DIR", default=None,
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


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "verify":
            return cmd_verify(args)
        if args.command == "eval":
            return cmd_eval(args)
        if args.command == "dump":
            return cmd_dump(args)
        if args.command == "load":
            return cmd_load(args)
    except EngineError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    raise AssertionError("unreachable")


if __name__ == "__main__":
    sys.exit(main())
