"""Command line front end: the commands verify, eval, dump and load, read by
one grammar, GRAMMAR (`so41inv --help` and `so41inv <command> --help` print it).

All reports are line-oriented plain text, one line per check, ending in
PASS or FAIL; the process exits 0 exactly when every check passed. Nothing
here is randomized, and every kernel and rank verdict is exact over Q.
"""
from __future__ import annotations

import os
import sys
from contextlib import suppress
from types import MappingProxyType, SimpleNamespace

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
        raise ValueError(f"invalid int value: {text!r}") from None
    if cap < 0:
        raise ValueError(f"must be nonnegative, got {cap}")
    return cap


def _emit_dir(text: str) -> str:
    """An --emit-basis value: a nonempty directory name (an empty one writes
    nothing)."""
    if not text:
        raise ValueError("must name a directory, got ''")
    return text


_SIGN = ("--sign", "auto", ("+1", "-1", "auto"), False,
         "Clifford sign convention (default: adjudicated)")
_AMBIENT = ("--ambient", "uc", ("uc", "se"), False, "ambient algebra for expressions and names")

# The command line grammar by command, "" for so41inv itself: its help and its
# arguments, each (flag, default, choices or a converter that raises ValueError,
# required, help), the first its one positional. A name is its flag, "_" for "-".
GRAMMAR = MappingProxyType({
    "": ("Exact verification engine for the invariant catalog of U(so(5,C)) tensor C(p).",
         (("command", None, ("verify", "eval", "dump", "load"), True, ""),)),
    "verify": ("run a verification suite", (
        ("suite", None, (*SUITES, "all"), True, ""), _SIGN,  # no suite reads an ambient
        ("--max-degree", None, _degree_cap, False, "degree cap for dims/independence/rank16"),
        ("--method", "auto", ("exact", "auto"), False,
         "kernel arithmetic for dims; both values run the one exact kernel over Q"),
        ("--emit-basis", None, _emit_dir, False, "write exact kernel bases as element files here"))),
    "eval": ("evaluate an expression", (("expr", None, str, True, ""), _SIGN, _AMBIENT)),
    "dump": ("serialize a named catalog element", (("name", None, str, True, ""),
             ("--out", None, str, True, "element file to write (required)"), _SIGN, _AMBIENT)),
    "load": ("load an element file and print it", (("path", None, str, True, ""),)),
})


# Each command's options by flag, from GRAMMAR: -h and --help (None) and the rows of its flags.
_OPTIONS = MappingProxyType({command: MappingProxyType({"-h": None, "--help": None, **{
    row[0]: row for row in rows[1:]}}) for command, (_, rows) in GRAMMAR.items()})


def _exit(command: str, error=None):
    """Exit 0 after the help of a command, or 2 after its usage and the error on stderr."""
    def metavar(flag: str, check) -> str:
        return "{" + ",".join(check) + "}" if isinstance(check, tuple) else flag.lstrip("-").upper()
    about, ((flag, _, check, _, _), *options) = GRAMMAR[command]
    prog = f"so41inv {command}".rstrip()
    usage = f"usage: {prog} [-h] {metavar(flag, check)} {'[options]' if command else '...'}"
    if error is not None:
        print(usage, f"{prog}: error: {error}", sep="\n", file=sys.stderr)
        raise SystemExit(2)
    rows = [(f"{flag} {metavar(flag, check)}", text) for flag, _, check, _, text in options]
    rows += [(name, GRAMMAR[name][0]) for name in GRAMMAR if name and not command]
    print(usage, "", about, "", *(f"  {a:<26}{b}" for a, b in rows), sep="\n")
    raise SystemExit(0)


def _convert(command: str, flag: str, check, text: str):
    """The value of an argument: its converter's, or its text if a choice."""
    try:
        if callable(check):
            return check(text)
        if text not in check:
            raise ValueError(f"invalid choice: {text!r} (choose from {', '.join(map(repr, check))})")
        return text
    except ValueError as exc:
        _exit(command, f"argument {flag}: {exc}")


def _option(command: str, arg: str):
    """None for a positional, else the option arg names (None for help) and its =value or None:
    a flag or the unique prefix of a long one, unless arg is a negative number or has a space."""
    if len(arg) < 2 or arg[0] != "-" or arg == "--":
        return None
    flag, eq, value = arg.partition("=")
    options = _OPTIONS[command]
    hits = [flag] if flag in options else [f for f in options
                                           if flag[:2] == "--" and f.startswith(flag)]
    if len(hits) > 1:
        _exit(command, f"ambiguous option: {arg} could match {', '.join(hits)}")
    if hits:
        return options[hits[0]], value if eq else None
    whole, dot, frac = arg[1:].partition(".")
    if " " in arg or (whole == "" or whole.isdecimal()) and (frac if dot else whole).isdecimal():
        return None
    _exit(command, f"unrecognized arguments: {arg}")


def parse_args(argv=None) -> SimpleNamespace:
    """The arguments of argv (sys.argv[1:] if None) by GRAMMAR: --flag value or --flag=value, --
    to end the options, the last of a repeated option, and -h or --help. A usage error exits 2."""
    rest, command, given, ended = iter(sys.argv[1:] if argv is None else argv), "", {}, False
    for arg in rest:
        if arg == "--" and command and not ended:
            ended = True
            continue
        option = None if ended else _option(command, arg)
        row, value = option or (GRAMMAR[command][1][0], arg)
        if row is None:
            _exit(command, None if value is None else f"argument --help: ignored {value!r}")
        if option is None and row[0] in given:
            _exit(command, f"unrecognized arguments: {arg}")
        if value is None:
            value = next(rest, "--")
            if value == "--" or _option(command, value):
                _exit(command, f"argument {row[0]}: expected one argument")
        given[row[0]] = _convert(command, row[0], row[2], value)
        command = command or given.pop(row[0])  # so41inv's positional: the command
    rows = GRAMMAR[command][1]
    if missing := [row[0] for row in rows if row[3] and row[0] not in given]:
        _exit(command, f"the following arguments are required: {', '.join(missing)}")
    return SimpleNamespace(command=command, **{
        row[0].lstrip("-").replace("-", "_"): given.get(row[0], row[1]) for row in rows})


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
    args = parse_args(argv)
    try:
        return COMMANDS[args.command](args)
    except (EngineError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
