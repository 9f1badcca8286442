"""Run operations in one process through `so41inv.cli.main(argv)`.

    PYTHONPATH=src python perfbench/child.py SPEC.json RESULT.json

SPEC holds {"ops": [...], "passes": n, "trace": bool, "scale": bool}.
The child imports `so41inv.cli` (timed), optionally installs the tracer,
then runs every operation `passes` times in order, capturing each one's exit
code, stdout and stderr, its wall time and the hashes of the files it wrote.
With "scale", the reference work (reference.py) runs between the operations
of every pass, and the times of every pass after the first are kept for
scaling, keyed by operation id. Verdicts are judged by the harness, not here.
Run it from the checkout root.
"""
from __future__ import annotations

import contextlib
import io
import json
import sys
import time
from pathlib import Path

from reference import Scaler
from tracer import Tracer
from workloads import clear_outputs, hash_outputs


def run(spec: dict, root: Path) -> dict:
    start = time.perf_counter()
    import so41inv.cli as cli
    import_s = time.perf_counter() - start
    tracer = Tracer() if spec["trace"] else None
    if tracer:
        tracer.install()
    ops = spec["ops"]
    results, scaler = [], Scaler()
    for p in range(spec["passes"]):
        for i, op in enumerate(ops):
            clear_outputs(op, root)
            out, err = io.StringIO(), io.StringIO()
            if tracer:
                tracer.operation = p * len(ops) + i
            if spec["scale"]:
                scaler.begin()
            t0 = time.perf_counter()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = cli.main(list(op["argv"]))
            seconds = time.perf_counter() - t0
            if spec["scale"]:
                scaler.add(op["id"] if p > 0 else None, seconds)
            results.append({"pass": p, "id": op["id"], "rc": rc, "seconds": seconds,
                            "stdout": out.getvalue(), "stderr": err.getvalue(),
                            "outputs": hash_outputs(op, root)})
        scaler.end()
    numpy = sys.modules.get("numpy")
    return {"import_s": import_s, "results": results,
            "timed": scaler.timed, "references": scaler.references,
            "numpy": getattr(numpy, "__version__", None),
            "trace": tracer.dump() if tracer else None}


def main(argv: list[str]) -> int:
    spec_path, result_path = argv
    spec = json.loads(Path(spec_path).read_text())
    result = run(spec, Path.cwd())
    Path(result_path).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
