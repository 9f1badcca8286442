"""Workload definitions, seeded inputs and the known answers they are checked against.

An operation is a plain dict, so it can be handed to a child process as JSON:

    {"id": ..., "kind": ..., "argv": [...], "file": path | None, "dir": path | None, ...}

`argv` is what follows `python -m so41inv.cli`. `file` / `dir` name the
element file or basis directory the operation writes, under the run's work
directory, relative to the checkout root. Every verdict is checked against
answers.json, which was recorded once from the CLI of the parent commit;
nothing here calls the package.
"""
from __future__ import annotations

import hashlib
import json
import math
import random
import re
import shutil
from fractions import Fraction
from pathlib import Path

ANSWERS = json.loads((Path(__file__).with_name("answers.json")).read_text())

WORKLOADS = ("catalog", "freeness", "dims")
# The steps of a --trace 0 run, all of which always run: cold passes and warm
# sessions, and the number of timed passes in each warm session. Each
# operation counts with the median of its samples. The counts are fixed, so
# that a faster or slower program gets as many samples as its parent, and
# sized so that a run takes about 30-45 s on a 2-vCPU VM. A catalog warm
# session is cheap, so there is one at each end of the run; a freeness warm
# session costs about half a cold pass plus its timed passes, and a dims warm
# pass about one cold pass (dims has no memo tables).
SCHEDULE = {"catalog": ("warm", "cold", "warm"),
            "freeness": ("cold", "warm"),
            "dims": ("cold", "warm", "cold")}
WARM_TIMED_PASSES = {"catalog": 3, "freeness": 3, "dims": 1}

# -- seeded catalog expressions ----------------------------------------------------

K_GENERATORS = ("H1", "H2", "E1", "E2", "F1", "F2")
# total degree (U-degree plus Clifford degree) and term count of each catalog name
NAME_DEGREE = {"a1": 2, "a2": 2, "b": 2, "D": 2, "Dk": 3, "d": 3, "e": 3,
               "f": 3, "g": 3, "c": 4, "h": 4, "i": 4, "j": 4}
NAME_TERMS = {"a1": 6, "a2": 6, "b": 4, "D": 4, "Dk": 8, "d": 8, "e": 6,
              "f": 16, "g": 16, "c": 30, "h": 44, "i": 4, "j": 8}
MAX_PRODUCT_DEGREE = 8
# Products are drawn with the product of their factors' term counts in this
# band, so that every seed costs about the same.
PRODUCT_TERMS = (32, 100)
# Identities of the generator chain, each written as an expression that is 0.
IDENTITIES = (
    "D * D - 2 * (Dk - b)",
    "i * D - D * i - 2 * j",
    "Dk - 1/2 * (Dk * i + i * Dk) - d",
    "-1 * Dk - 1/2 * (Dk * i + i * Dk) - e",
    "1/2 * (d * D - D * d - 3 * j) - f",
    "1/2 * (e * D - D * e - 3 * j) - g",
)


def _draw_product(rng: random.Random, factors: int) -> str:
    while True:
        names = [rng.choice(sorted(NAME_DEGREE)) for _ in range(factors)]
        size = math.prod(NAME_TERMS[n] for n in names)
        if (sum(NAME_DEGREE[n] for n in names) <= MAX_PRODUCT_DEGREE
                and PRODUCT_TERMS[0] <= size <= PRODUCT_TERMS[1]):
            return "*".join(names)


def _draw_term(rng: random.Random, kind: str) -> str:
    if kind == "identity":
        q = Fraction(rng.randint(1, 9), rng.randint(1, 9)) * rng.choice((1, -1))
        return f"{q} * ({rng.choice(IDENTITIES)})"
    factors = 2 if kind == "ad2" else 3
    return f"ad({rng.choice(K_GENERATORS)}, {_draw_product(rng, factors)})"


def catalog_expressions(seed: int, count: int) -> list[str]:
    """`count` expressions whose value is 0 whatever the engine does: each is
    a sum of k-actions on products of two and of three invariants (a product
    of invariants is invariant) and one scaled identity."""
    rng = random.Random(seed)
    kinds = ("ad2", "ad3", "ad2", "ad3", "identity")
    return [" + ".join(_draw_term(rng, kind) for kind in kinds) for _ in range(count)]


# -- operations ------------------------------------------------------------------

def _op(op_id: str, kind: str, argv: list[str], **extra) -> dict:
    return {"id": op_id, "kind": kind, "argv": argv, "file": None, "dir": None, **extra}


def build_ops(workload: str, seed: int, work: str, smoke: bool = False) -> list[dict]:
    """The operations of one workload, in run order. Every degree cap is
    pinned so that a change of a CLI default does not change the input."""
    if workload == "catalog":
        ops = [_op("table", "table", ["verify", "table"]),
               _op("relations", "relations", ["verify", "relations"])]
        if not smoke:
            ops += [_op("relations+1", "relations_plus", ["verify", "relations", "--sign", "+1"]),
                    _op("invariance", "invariance", ["verify", "invariance"]),
                    _op("chain", "chain", ["verify", "chain"])]
        for k, expr in enumerate(catalog_expressions(seed, 1 if smoke else 2)):
            ops.append(_op(f"eval{k}", "eval_zero", ["eval", expr]))
        dumps = [("Dk", "uc"), ("h", "uc"), ("c", "uc"), ("h", "se")]
        for name, ambient in dumps[:1] if smoke else dumps:
            key = name if ambient == "uc" else f"{name}_{ambient}"
            path = f"{work}/{key}.element"
            argv = ["dump", name, "--out", path]
            if ambient != "uc":
                argv += ["--ambient", ambient]
            ops.append(_op(f"dump.{key}", "dump", argv, file=path, answer=key, name=name))
            ops.append(_op(f"load.{key}", "load", ["load", path], answer=key, path=path))
        ops.append(_op("reject", "eval_reject", ["eval", "ad(E3, d)"]))
        return ops
    if workload == "freeness":
        cap = 3 if smoke else 6
        return [_op("independence", "independence",
                    ["verify", "independence", "--max-degree", str(cap)], cap=cap),
                _op("rank16", "rank16", ["verify", "rank16", "--max-degree", str(cap)], cap=cap)]
    if workload == "dims":
        cap, emit_cap = (4, 4) if smoke else (7, 6)
        emit_dir = f"{work}/basis"
        return [_op("dims", "dims", ["verify", "dims", "--max-degree", str(cap)], cap=cap),
                _op("dims.exact", "dims",
                    ["verify", "dims", "--max-degree", str(cap), "--method", "exact"], cap=cap),
                _op("dims.emit", "dims_emit",
                    ["verify", "dims", "--max-degree", str(emit_cap), "--method", "exact",
                     "--emit-basis", emit_dir], cap=emit_cap, dir=emit_dir)]
    raise ValueError(f"unknown workload: {workload}")


WARMUP_OP = _op("warmup", "dims", ["verify", "dims", "--max-degree", "0", "--method", "exact"],
                cap=0)


# -- outputs on disk ---------------------------------------------------------------

def clear_outputs(op: dict, root: Path) -> None:
    if op["file"]:
        (root / op["file"]).unlink(missing_ok=True)
    if op["dir"]:
        shutil.rmtree(root / op["dir"], ignore_errors=True)


def hash_outputs(op: dict, root: Path) -> dict[str, str]:
    """sha256 of every file the operation wrote, by file name."""
    paths = []
    if op["file"] and (root / op["file"]).is_file():
        paths.append(root / op["file"])
    if op["dir"] and (root / op["dir"]).is_dir():
        paths += sorted((root / op["dir"]).iterdir())
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in paths}


# -- verdicts --------------------------------------------------------------------

def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _verify_line(lines, suite, checks, failures=0):
    m = re.fullmatch(rf"VERIFY {suite} checks=(\d+) failures=(\d+) (PASS|FAIL)",
                     lines[-1] if lines else "")
    if not m:
        return [f"missing VERIFY {suite} line"]
    got_checks, got_fail = int(m.group(1)), int(m.group(2))
    want_word = "PASS" if failures == 0 else "FAIL"
    problems = []
    if got_fail != failures or m.group(3) != want_word:
        problems.append(f"VERIFY {suite}: failures={got_fail}, want {failures}")
    if got_checks != checks:
        problems.append(f"VERIFY {suite}: checks={got_checks}, want {checks}")
    return problems


def _named_lines(lines, prefix, pattern):
    return [m for m in (re.fullmatch(rf"{prefix} {pattern}", ln) for ln in lines) if m]


def _check_dims(lines, cap):
    h = ANSWERS["h"]
    got = {int(m.group(1)): (int(m.group(2)), m.group(3))
           for m in _named_lines(lines, "DIM", r"degree=(\d+) dim=(\d+) .* (PASS|FAIL)")}
    want = {n: (h[n], "PASS") for n in range(cap + 1)}
    return [] if got == want else [f"DIM lines {got} != {want}"]


def check(op: dict, rc: int, stdout: str, stderr: str, outputs: dict[str, str]) -> list[str]:
    """Problems with one operation's result; an empty list means it matched
    the known answer."""
    kind, lines, a = op["kind"], stdout.splitlines(), ANSWERS
    want_rc = {"relations_plus": 1, "eval_reject": 2}.get(kind, 0)
    problems = [] if rc == want_rc else [f"exit code {rc}, want {want_rc}"]
    names = a["relation_names"]
    if kind == "table":
        if f"TABLE SUMMARY {a['table_summary']}" not in lines:
            problems.append("missing TABLE SUMMARY 45/45")
        problems += _verify_line(lines, "table", a["table_checks"])
    elif kind in ("relations", "relations_plus"):
        plus = kind == "relations_plus"
        convention = a["convention"].replace("sign=-1", "sign=+1") if plus else a["convention"]
        if convention not in lines:
            problems.append(f"missing {convention!r}")
        sign = "+1" if plus else "-1"
        got = [(m.group(1), int(m.group(2)), m.group(3)) for m in _named_lines(
            lines, "RELATION", rf"(\w+) sign={re.escape(sign)} residual_terms=(\d+) (PASS|FAIL)")]
        want = ([(n, a["sign_plus_residuals"][n], "FAIL") for n in names] if plus
                else [(n, 0, "PASS") for n in names])
        if got != want:
            problems.append(f"RELATION lines {got} != {want}")
        problems += _verify_line(lines, "relations", len(names), len(names) if plus else 0)
    elif kind == "invariance":
        if a["convention"] not in lines:
            problems.append("missing CONVENTION line")
        ok = _named_lines(lines, "INVARIANT", r"\w+ generator=\w+ residual_terms=0 PASS")
        if len(ok) != a["invariance_checks"]:
            problems.append(f"{len(ok)} passing INVARIANT lines, want {a['invariance_checks']}")
        if f"INVARIANCE SUMMARY checks={a['invariance_checks']}" not in lines:
            problems.append("missing INVARIANCE SUMMARY")
        problems += _verify_line(lines, "invariance", a["invariance_checks"])
    elif kind == "chain":
        got = [m.group(1) for m in _named_lines(lines, "CHAIN", r"(\w+) residual_terms=0 PASS")]
        if got != names:
            problems.append(f"passing CHAIN steps {got} != {names}")
        problems += _verify_line(lines, "chain", len(names))
    elif kind == "eval_zero":
        if stdout != "0\n":
            problems.append(f"eval printed {stdout[:80]!r}, want '0'")
    elif kind == "eval_reject":
        if stdout or not stderr.startswith("error:"):
            problems.append("eval was not rejected with an error message")
    elif kind == "dump":
        if stdout != f"DUMP {op['name']} -> {op['file']}\n":
            problems.append(f"dump printed {stdout[:80]!r}")
        want = {Path(op["file"]).name: a["dump_sha256"][op["answer"]]}
        if outputs != want:
            problems.append(f"dumped file hashes {outputs} != {want}")
    elif kind == "load":
        want = a["load"][op["answer"]]
        head, _, body = stdout.partition("\n")
        if head != f"LOAD {op['path']} kind={want['kind']} terms={want['terms']}":
            problems.append(f"load header {head!r}")
        if _sha(body) != want["text_sha256"]:
            problems.append("loaded element text differs")
    elif kind == "independence":
        cap, h = op["cap"], a["h"]
        got = [(int(m.group(1)), int(m.group(2))) for m in _named_lines(
            lines, "INDEPENDENCE", r"degree=(\d+) products=(\d+) expected=\d+ PASS")]
        if got != [(n, h[n]) for n in range(cap + 1)]:
            problems.append(f"INDEPENDENCE degree lines {got}")
        total = sum(h[:cap + 1])
        if f"INDEPENDENCE rank={total} vectors={total} PASS" not in lines:
            problems.append(f"missing INDEPENDENCE rank={total} vectors={total} PASS")
        problems += _verify_line(lines, "independence", cap + 2)
    elif kind == "rank16":
        total = sum(a["h"][:op["cap"] + 1])
        if f"RANK16 vectors={total} rank={total} expected={total} PASS" not in lines:
            problems.append(f"missing RANK16 vectors={total} rank={total} PASS")
        problems += _verify_line(lines, "rank16", 1)
    elif kind in ("dims", "dims_emit"):
        cap = op["cap"]
        problems += _check_dims(lines, cap)
        problems += _verify_line(lines, "dims", cap + 1)
        if kind == "dims_emit":
            h = a["h"]
            got = [(int(m.group(1)), int(m.group(2))) for m in _named_lines(
                lines, "EMIT", rf"degree=(\d+) vectors=(\d+) dir={re.escape(op['dir'])}")]
            if got != [(n, h[n]) for n in range(cap + 1)]:
                problems.append(f"EMIT lines {got}")
            want = {f"deg{n}_vec{i}.element": a["emit_sha256"].get(f"deg{n}_vec{i}.element")
                    for n in range(cap + 1) for i in range(h[n])}
            if outputs != want:
                bad = sorted(set(outputs.items()) ^ set(want.items()))[:3]
                problems.append(f"emitted basis files differ, e.g. {bad}")
    else:
        problems.append(f"no known answer for kind {kind!r}")
    return problems
