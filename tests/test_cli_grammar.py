"""The command line grammar read by `cli.parse_args` against argparse.

`oracles.build_parser` is the argparse parser the command line had before
it read its grammar itself. On every argv form of CI, the README and the
tests, on edge cases and on generated well-formed argvs, both parsers must
give the same values, or both exit 2 (0 for help). Error wording is
compared only for the package's own converters: argparse's own wording
changes between Python versions."""
import ast
import contextlib
import io
import os
import shlex

import pytest
from hypothesis import given
from hypothesis import strategies as st

import oracles
from so41inv import cli

TESTS = os.path.dirname(__file__)
DATA = os.path.join(TESTS, "data")
COMMANDS = tuple(name for name in cli.GRAMMAR if name)


def outcome(parse, argv) -> object:
    """The values a parse reads, or its exit code, stdout and stderr."""
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            return vars(parse(list(argv)))
    except SystemExit as exc:
        return exc.code, out.getvalue(), err.getvalue()


def assert_parity(argv) -> object:
    """Both parsers read argv alike; returns what cli.parse_args read."""
    new = outcome(cli.parse_args, argv)
    old = outcome(lambda a: oracles.build_parser().parse_args(a), argv)
    if isinstance(old, dict):
        assert new == old, argv
        return new
    assert isinstance(new, tuple) and new[0] == old[0] in (0, 2), (argv, new, old)
    code, out, err = new
    assert (bool(out), bool(err)) == ((True, False) if code == 0 else (False, True)), argv
    assert err.startswith("usage: so41inv") and "error: " in err or code == 0, argv
    if "argument --max-degree: " in old[2] or "argument --emit-basis: " in old[2]:
        assert err.splitlines()[-1] == old[2].splitlines()[-1], argv
    return new


# -- the corpus ----------------------------------------------------------------------

def data_rows(name: str, sep: str | None = None) -> list[list[str]]:
    with open(os.path.join(DATA, name), encoding="utf-8") as fh:
        return [line.rstrip("\n").split(sep) for line in fh if not line.startswith("#")]


def ci_argvs() -> list[list[str]]:
    """The argv of each so41inv command of the CI workflow, its data rows
    expanded."""
    argvs = [["verify", "all"], ["verify", "dims", "--max-degree", "10"],
             ["verify", "independence", "--max-degree", "8"], ["verify", "table"],
             ["verify", "invariance"]]
    for suite in ("rank16", "invariance", "relations", "chain"):
        argvs += [["verify", suite, "--sign", "+1"], ["verify", suite, "--sign", "-1"]]
    for cap in ("7", "9"):
        argvs.append(["verify", "dims", "--max-degree", cap, "--emit-basis", "basis"])
    for sign, name in (("auto", "dump_sha256.txt"), ("+1", "dump_sha256_sign_plus.txt")):
        for ambient, element, *_ in data_rows(name):
            path = f"{sign}.{ambient}.{element}.element"
            argvs += [["dump", element, "--ambient", ambient, "--sign", sign, "--out", path],
                      ["load", path]]
    for expr in ("D * D - 2 * (Dk - b)", "i * D - D * i - 2 * j", "ad(ad(E1, F1), d)", "x",
                 "2^100000", "h * h", "c * c * D"):
        argvs.append(["eval", expr])
    for ambient, expr, *_ in data_rows("eval_realms.txt", "|") + data_rows(
            "eval_long_sha256.txt", "|"):
        argvs.append(["eval", "--ambient", ambient, "--", expr])
    return argvs + [["--help"], ["verify", "--help"], ["verify", "dims", "--max-degree", "-1"],
                    ["verify", "dims", "--max-deg=10"],
                    ["eval", "--amb=uc", "--", "D * D - 2 * (Dk - b)"]]


def readme_argvs() -> list[list[str]]:
    """The arguments of each `so41inv` line of the README's code blocks."""
    with open(os.path.join(TESTS, "..", "README.md"), encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    return [shlex.split(line, comments=True)[1:] for line in lines
            if line.startswith("so41inv ")]


def argvs_of_the_tests() -> list[list[str]]:
    """Each argv the other test files hand the command line: every list or
    tuple of strings that starts with a command, and the arguments of
    run_cli and fresh_imports, with ARG for each argument that is not a
    literal."""
    found = []
    for name in sorted(os.listdir(TESTS)):
        if not name.endswith(".py") or name == os.path.basename(__file__):
            continue
        with open(os.path.join(TESTS, name), encoding="utf-8") as fh:
            tree = ast.parse(fh.read())
        for node in ast.walk(tree):
            if isinstance(node, (ast.List, ast.Tuple)):
                items = node.elts
            elif isinstance(node, ast.Call) and getattr(node.func, "id", None) in (
                    "run_cli", "fresh_imports"):
                items = node.args[node.func.id == "run_cli":]
            else:
                continue
            if (not items or any(isinstance(item, ast.Starred) for item in items)
                    or not isinstance(items[0], ast.Constant) or items[0].value not in COMMANDS):
                continue
            found.append([item.value if isinstance(item, ast.Constant)
                          and isinstance(item.value, str) else "ARG" for item in items])
    return found


EDGE_CASES = [
    [], ["verify"], ["bogus"], ["verify", "bogus"],
    ["-h"], ["--help"], ["--he"], ["verify", "-h"], ["eval", "x", "--help"], ["dump", "--help"],
    ["load", "-h"], ["--help=1"], ["eval", "-h=1"],
    ["verify", "dims", "--max-deg", "3"], ["verify", "dims", "--max-deg=3"],
    ["verify", "dims", "--m", "3"], ["verify", "dims", "--me=exact"], ["eval", "--s", "+1", "E1"],
    ["eval", "--amb=se", "--", "-x"], ["eval", "--", "-h"], ["eval", "--sign", "+1", "--", "--sign"],
    ["eval", "-1"], ["eval", "-1 * E1"], ["eval", "-1.5"], ["eval", "-.5"],
    ["eval", "-E1"], ["eval", "-x y"], ["eval", "-"], ["eval", ""], ["eval", "--=x", "a"],
    ["eval", "x", "--sign", "-1"], ["eval", "x", "--sign=-1"], ["dump", "h", "--out", "-1"],
    ["verify", "dims", "--max-degree", "3", "--max-degree", "4"],
    ["verify", "dims", "--max-degree", "-1", "--max-degree", "3"],
    ["verify", "dims", "--max-degree", "x"], ["verify", "dims", "--max-degree", "-2"],
    ["verify", "dims", "--max-degree", "99999999999999999999"],
    ["verify", "dims", "--emit-basis", ""], ["verify", "dims", "--emit-basis="],
    ["verify", "dims", "--max-degree"], ["dump", "h", "--out"],
    ["dump", "h", "--out", "--sign"], ["eval", "a", "b"], ["eval", "x", "--", "y"],
    ["load", "p", "q"], ["dump", "h"], ["dump", "--out", "f"],
    ["verify", "dims", "--sign", "1"], ["eval", "--sign="], ["eval", "x", "--ambient", "us"],
    ["verify", "table", "--method", "modp"], ["verify", "dims", "--ambient", "uc"],
    ["verify", "dims", "--amb=uc"], ["load", "p", "--sign", "+1"], ["eval", "--bogus", "x"],
    ["eval", "x", "-Q"], ["verify", "dims", "--max-degree", "2", "--out", "f"],
]


@pytest.mark.parametrize("source", ["ci", "readme", "tests", "edge"])
def test_both_parsers_read_every_known_argv_alike(source):
    argvs = {"ci": ci_argvs, "readme": readme_argvs, "tests": argvs_of_the_tests,
             "edge": lambda: EDGE_CASES}[source]()
    assert len(argvs) >= {"ci": 100, "readme": 16, "tests": 40, "edge": 50}[source]
    for argv in argvs:
        assert_parity(argv)


def test_the_corpus_covers_the_eval_realms_and_the_dump_rows():
    argvs = ci_argvs()
    assert sum(argv[:2] == ["eval", "--ambient"] for argv in argvs) == \
        len(data_rows("eval_realms.txt")) + len(data_rows("eval_long_sha256.txt"))
    assert sum(argv[0] == "dump" for argv in argvs) == 38


@pytest.mark.parametrize("argv, message", [
    (["verify", "dims", "--max-degree", "-1"], "argument --max-degree: must be nonnegative, got -1"),
    (["verify", "rank16", "--max-degree=x"], "argument --max-degree: invalid int value: 'x'"),
    (["verify", "dims", "--emit-basis", ""], "argument --emit-basis: must name a directory, got ''"),
])
def test_a_converter_error_keeps_its_text(argv, message):
    code, out, err = assert_parity(argv)
    assert (code, out) == (2, "")
    assert err.splitlines() == [err.splitlines()[0], f"so41inv verify: error: {message}"]


@pytest.mark.parametrize("command", ("",) + COMMANDS)
def test_help_lists_the_grammar_of_its_command(command):
    code, out, err = assert_parity([command, "--help"] if command else ["--help"])
    assert (code, err) == (0, "")
    about, (positional, *options) = cli.GRAMMAR[command]
    assert out.startswith(f"usage: so41inv {command}".rstrip() + " [-h] ")
    for word in [about] + [opt[0] for opt in options] + [
            text for *_, text in options] + (list(COMMANDS) if not command else []):
        assert word in out, word
    choices = positional[2]
    if isinstance(choices, tuple):
        assert "{" + ",".join(choices) + "}" in out.splitlines()[0]


def test_a_spaced_argument_that_starts_with_h_is_an_expression():
    # argparse 3.11 reads "-h * D" as -h with the explicit argument " * D"
    # and exits 2; this grammar reads every argument with a space as a
    # positional, as argparse reads "-H1 * D"
    assert outcome(cli.parse_args, ["eval", "-h * D"])["expr"] == "-h * D"
    assert outcome(cli.parse_args, ["eval", "-H1 * D"])["expr"] == "-H1 * D"


def test_the_grammar_names_every_command_once():
    assert cli.GRAMMAR[""][1][0][2] == COMMANDS == tuple(cli.COMMANDS)
    assert isinstance(cli.GRAMMAR, type(type.__dict__))
    assert all(type(row) is tuple for _, rows in cli.GRAMMAR.values() for row in rows)


def test_a_parse_leaves_no_value_behind():
    first = cli.parse_args(["verify", "dims", "--max-degree", "3", "--emit-basis", "x"])
    assert (first.max_degree, first.emit_basis) == (3, "x")
    again = cli.parse_args(["verify", "dims"])
    assert (again.max_degree, again.emit_basis, again.method) == (None, None, "auto")


# -- generated well-formed argvs -------------------------------------------------------

# Values that no parser reads as an option, and values that only the
# --flag=value form or a place after -- can carry. Not "--" itself, which
# argparse 3.11 drops from --out=-- (out is then []) and later versions keep.
PLAIN = ("basis", "dk.element", "a b", "-1", "-2.5", "x=y", "-x y", "-1 * E1", "ad(E1, D)")
OPTION_LIKE = ("-x", "--sign", "-h", "-E1", "--out=y")


def unique_prefix(flag: str, flags: list[str]) -> int:
    """The length of the shortest prefix of flag that no other flag has."""
    return next(k for k in range(3, len(flag) + 1)
                if not any(f != flag and f.startswith(flag[:k]) for f in flags))


def values_of(check, form_eq: bool):
    if check is cli._degree_cap:
        return st.integers(0, 12).map(str)
    if isinstance(check, tuple):
        return st.sampled_from(check)
    return st.sampled_from(PLAIN + OPTION_LIKE * form_eq)


@st.composite
def well_formed(draw) -> list[str]:
    """An argv of one command: its options in random order, each in the
    --flag value or the --flag=value form under a random unique prefix,
    some repeated, and its positional among them or after --."""
    command = draw(st.sampled_from(COMMANDS))
    (_, _, check, _, _), *options = cli.GRAMMAR[command][1]
    flags = [opt[0] for opt in options] + ["--help"]
    picked = draw(st.lists(st.sampled_from(options), max_size=6)) if options else []
    picked += [opt for opt in options if opt[3] and opt not in picked]
    picked = draw(st.permutations(picked))
    words = []
    for flag, _, opt_check, _, _ in picked:
        flag = flag[:draw(st.integers(unique_prefix(flag, flags), len(flag)))]
        form_eq = draw(st.booleans())
        value = draw(values_of(opt_check, form_eq))
        words.append([f"{flag}={value}"] if form_eq else [flag, value])
    after_dashes = draw(st.booleans())
    positional = draw(values_of(check, after_dashes))
    if after_dashes:
        words.append(["--", positional])
    else:
        words.insert(draw(st.integers(0, len(words))), [positional])
    return [command] + [word for group in words for word in group]


@given(well_formed())
def test_both_parsers_read_a_well_formed_argv_alike(argv):
    assert isinstance(assert_parity(argv), dict), argv
