"""Benchmark harness for so41inv: cold and warm time-to-verdict, and a traced run.

    python3 perfbench/run.py --workload {catalog,freeness,dims} --seed N \
        --seconds S --trace {0,1} [--smoke]

Run it from anywhere; it works on the checkout it lives in and drives the
package only through its command line (`python -m so41inv.cli`, with
PYTHONPATH=src, one fresh process per operation) and `so41inv.cli.main`
(one warm session process). At most one child process is alive at a time.

--trace 0 measures the end-to-end metrics; --trace 1 makes the traced run
(see tracer.py) and reports the per-layer metrics. Every verdict is checked
against the known answers in answers.json. The last line of standard output
is one JSON object {"correct", "attempted", "failed", "metrics"}; the exit
code is 0 only when every operation matched its known answer. A full record
(metadata, argv of every operation, drawn expressions, per-operation times)
goes to .bench_results/ in the checkout.
"""
from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

from reference import REFERENCE_S, Scaler, pin_to_one_cpu
from tracer import MEMOS, per_layer_specs, summarize
from workloads import (SCHEDULE, WARM_TIMED_PASSES, WARMUP_OP, WORKLOADS, build_ops, check,
                       clear_outputs, hash_outputs)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS_DIR = ".bench_results"
WORK_DIR = f".bench_work/{os.getpid()}"   # per run, so two runs cannot clash

END_TO_END = (("setup_s", "s"), ("cold_s", "s"), ("warm_s", "s"),
              ("peak_rss_mb", "MB"), ("warm_rss_mb", "MB"))
SETUP_SAMPLES = 8
CHILD_TIMEOUT_S = 150


class Bench:
    """One benchmark run: spawns children one at a time and checks verdicts."""

    def __init__(self, ops: list[dict]):
        self.ops = ops
        self.env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        self.env.pop("PYTHONDONTWRITEBYTECODE", None)   # users get __pycache__ too
        self.attempted = 0
        self.failed = 0
        self.numpy = None
        self.problems: list[str] = []
        self.records: list[dict] = []
        self.scaler = Scaler()   # the timed samples of a --trace 0 run

    # -- children --------------------------------------------------------------

    def spawn(self, argv: list[str], stdout_path: Path, stderr_path: Path):
        """Run one child to completion; returns (exit code, wall s, max RSS MB)."""
        with open(stdout_path, "wb") as out, open(stderr_path, "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, cwd=ROOT, env=self.env, stdout=out, stderr=err)
            killer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
            killer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                killer.cancel()
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        return proc.returncode, wall, usage.ru_maxrss / 1024

    def judge(self, op: dict, phase: str, rc: int, stdout: str, stderr: str,
              outputs: dict, seconds: float) -> None:
        self.attempted += 1
        problems = check(op, rc, stdout, stderr, outputs)
        self.records.append({"phase": phase, "id": op["id"], "argv": op["argv"], "rc": rc,
                             "seconds": seconds, "problems": problems})
        self.failed += bool(problems)
        self.problems += [f"{phase} {op['id']}: {p}" for p in problems]

    def cold(self, op: dict, phase: str) -> tuple[float, float]:
        """One operation in a fresh `python -m so41inv.cli` process."""
        clear_outputs(op, ROOT)
        out, err = ROOT / WORK_DIR / "stdout", ROOT / WORK_DIR / "stderr"
        rc, wall, rss = self.spawn([sys.executable, "-m", "so41inv.cli", *op["argv"]], out, err)
        self.judge(op, phase, rc, out.read_text(), err.read_text(),
                   hash_outputs(op, ROOT), wall)
        return wall, rss

    def cold_pass(self, phase: str) -> tuple[float, float]:
        walls, rsses = zip(*(self.cold(op, phase) for op in self.ops))
        return sum(walls), max(rsses)

    def session(self, ops: list[dict], passes: int, trace: bool, phase: str,
                scale: bool = False):
        """Run ops pass after pass in one child through so41inv.cli.main (see
        child.py); with `scale`, the child also runs the reference work and
        returns it with the times of every pass after the first. Returns
        (child result or None, max RSS MB, spawn-to-exit wall s)."""
        work = ROOT / WORK_DIR
        spec, result = work / "spec.json", work / "result.json"
        spec.write_text(json.dumps({"ops": ops, "passes": passes, "trace": trace,
                                    "scale": scale}))
        result.unlink(missing_ok=True)
        rc, wall, rss = self.spawn([sys.executable, str(HERE / "child.py"), str(spec),
                                    str(result)], work / "stdout", work / "stderr")
        if rc != 0 or not result.is_file():
            self.attempted += len(ops) * passes
            self.failed += len(ops) * passes
            self.problems.append(f"{phase}: session exited {rc}: "
                                 f"{(work / 'stderr').read_text()[-400:]}")
            return None, rss, wall
        data = json.loads(result.read_text())
        by_id = {op["id"]: op for op in ops}
        for r in data["results"]:
            self.judge(by_id[r["id"]], f"{phase}.pass{r['pass']}", r["rc"], r["stdout"],
                       r["stderr"], r["outputs"], r["seconds"])
        return data, rss, wall

    def setup_samples(self, n: int) -> None:
        """Time `n` fresh processes that only import so41inv.cli."""
        work = ROOT / WORK_DIR
        for _ in range(n):
            self.scaler.begin()
            rc, wall, _ = self.spawn([sys.executable, "-c", "import so41inv.cli"],
                                     work / "stdout", work / "stderr")
            self.scaler.add("setup", wall)
            if rc != 0:
                self.problems.append(f"setup: import so41inv.cli exited {rc}")
        self.scaler.end()

    # -- runs ------------------------------------------------------------------

    def end_to_end(self, schedule: tuple[str, ...], timed_passes: int) -> dict:
        """Run every step of `schedule` in order: a "cold" pass over every
        operation, or a "warm" session whose first pass fills the memo tables
        and whose next `timed_passes` passes are timed. SETUP_SAMPLES set-up
        samples are spread over the run: an equal share before each step and
        the rest at the end. Every sample is scaled by the reference work run
        near it (reference.py). Each operation counts with the median of its
        cold samples and the median of its warm samples. Returns the metrics,
        and under "raw" the same figures unscaled."""
        share = SETUP_SAMPLES // (len(schedule) + 1)
        peak_rss = warm_rss = 0.0
        for n, step in enumerate(schedule):
            self.setup_samples(share)
            if step == "cold":
                for op in self.ops:
                    self.scaler.begin()
                    wall, rss = self.cold(op, f"cold{n}")
                    self.scaler.add(f"cold:{op['id']}", wall)
                    peak_rss = max(peak_rss, rss)
                self.scaler.end()
            else:
                data, rss, _ = self.session(self.ops, 1 + timed_passes, False, f"warm{n}",
                                            scale=True)
                warm_rss = max(warm_rss, rss)
                if data:
                    self.scaler.timed += [(f"warm:{key}", mid, s) for key, mid, s in data["timed"]]
                    self.scaler.references += [tuple(ref) for ref in data["references"]]
                self.numpy = data and data["numpy"]
        self.setup_samples(SETUP_SAMPLES - share * len(schedule))
        samples = self.scaler.samples()

        def total(phase: str, k: int) -> float:
            return sum(statistics.median(s[k] for s in samples.get(f"{phase}:{op['id']}",
                                                                    [(0.0, 0.0)]))
                       for op in self.ops)

        return {"setup_s": statistics.median(s[0] for s in samples["setup"]),
                "cold_s": total("cold", 0), "warm_s": total("warm", 0),
                "peak_rss_mb": peak_rss, "warm_rss_mb": warm_rss,
                "raw": {"setup_s": statistics.median(s[1] for s in samples["setup"]),
                        "cold_s": total("cold", 1), "warm_s": total("warm", 1)},
                "samples": {"setup": len(samples["setup"]), "cold": schedule.count("cold"),
                            "warm": schedule.count("warm") * timed_passes}}

    def traced_pass(self, phase: str) -> tuple[dict, float]:
        """One traced process per cold operation, then one traced warm session."""
        cold_dumps, import_s, wall = [], [], 0.0
        for op in self.ops:
            data, _, op_wall = self.session([op], 1, True, f"{phase}.cold")
            wall += op_wall
            if data:
                cold_dumps.append(data["trace"])
                import_s.append(data["import_s"])
        warm, _, _ = self.session(self.ops, 2, True, f"{phase}.warm")
        self.numpy = warm and warm["numpy"]
        n = len(self.ops)
        metrics, absent = summarize(cold_dumps, lambda op: True)
        warm_metrics, warm_absent = summarize([warm["trace"]] if warm else [], lambda op: op >= n)
        metrics.update({f"warm.{k}": v for k, v in warm_metrics.items()})
        absent |= {f"warm.{k}" for k in warm_absent}
        memo = warm["trace"]["memo"] if warm else {}
        for _, _, name in MEMOS:
            metrics[name] = memo.get(name) or 0
            if memo.get(name) is None:
                absent.add(name)
        metrics["cli.import_s"] = statistics.median(import_s) if import_s else 0.0
        return {"metrics": metrics, "absent": sorted(absent)}, wall

    def traced(self) -> dict:
        """The per-layer metrics, from two traced passes that must agree on
        every count, plus the tracing overhead: the traced processes' spawn-to-exit
        wall time over that of an untraced cold pass."""
        untraced, _ = self.cold_pass("untraced")
        first, wall_a = self.traced_pass("traceA")
        second, wall_b = self.traced_pass("traceB")
        metrics = dict(first["metrics"])
        units = dict((name, unit) for name, unit, _ in per_layer_specs())
        for name, value in first["metrics"].items():
            if units.get(name) == "s":
                metrics[name] = (value + second["metrics"][name]) / 2
            elif value != second["metrics"].get(name):
                self.problems.append(f"count {name} differs between traced passes: "
                                     f"{value} != {second['metrics'].get(name)}")
        metrics["trace.overhead_ratio"] = (wall_a + wall_b) / 2 / untraced
        return {"metrics": metrics, "absent": first["absent"]}


def git_state() -> dict:
    """HEAD and dirty flag, or None when the checkout is not itself a git work tree."""
    def git(*args):
        return subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True,
                              check=True).stdout.strip()
    try:
        if Path(git("rev-parse", "--show-toplevel")).resolve() == ROOT:
            return {"sha": git("rev-parse", "HEAD"), "dirty": git("status", "--porcelain") != ""}
    except (OSError, subprocess.CalledProcessError):
        pass
    return {"sha": None, "dirty": None}


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=45,
                    help="the expected length of a run; every step of the schedule runs "
                         "whatever the time, and a run that takes longer is flagged")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="tiny degree caps; seconds, not minutes")
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "so41inv" / "cli.py").is_file():
        print(f"error: no so41inv sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    work = ROOT / WORK_DIR
    work.mkdir(parents=True, exist_ok=True)

    pin_to_one_cpu()
    ops = build_ops(args.workload, args.seed, WORK_DIR, args.smoke)
    bench = Bench(ops)
    start = time.perf_counter()
    try:
        bench.cold(WARMUP_OP, "warmup")   # untimed; leaves __pycache__ behind
        if args.trace:
            result = bench.traced()
            specs = [(name, unit) for name, unit, _ in per_layer_specs()]
        else:
            measured = bench.end_to_end(SCHEDULE[args.workload],
                                        WARM_TIMED_PASSES[args.workload])
            result = {"metrics": measured, "absent": [], "samples": measured.pop("samples"),
                      "raw": measured.pop("raw")}
            specs = END_TO_END
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            work.parent.rmdir()   # only if no other run is using it

    elapsed = time.perf_counter() - start
    failed = bench.failed
    metrics = {name: {"value": result["metrics"][name], "unit": unit} for name, unit in specs}

    for op in ops:
        print(f"op {op['id']}: so41inv {' '.join(op['argv'])}")
    for problem in bench.problems:
        print(f"MISMATCH {problem}")
    for name, unit in specs:
        mark = " (absent)" if name in result["absent"] else ""
        print(f"{name} {result['metrics'][name]:.6g} {unit}{mark}")
    print(f"op_failure_ratio {failed / bench.attempted:.6g} ratio "
          f"({failed} of {bench.attempted} operations)")
    if "samples" in result:
        print("samples " + " ".join(f"{k}={v}" for k, v in result["samples"].items()))
        print("unscaled " + " ".join(f"{k}={v:.6g}" for k, v in result["raw"].items())
              + f" s; reference work median "
              f"{statistics.median(s for _, s in bench.scaler.references):.6g} s over "
              f"{len(bench.scaler.references)} runs, scaled to {REFERENCE_S:g} s")
    print(f"elapsed {elapsed:.1f} s" + (f" (OVER --seconds {args.seconds:g}; every step still ran)"
                                        if elapsed > args.seconds else ""))

    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "smoke": args.smoke, "git": git_state(),
        "python": sys.version, "numpy": bench.numpy, "nproc": os.cpu_count(),
        "platform": platform.platform(),
        "argv": [[sys.executable, "-m", "so41inv.cli", *op["argv"]] for op in ops],
        "expressions": [op["argv"][1] for op in ops if op["kind"] == "eval_zero"],
        "metrics": result["metrics"], "absent": result["absent"],
        "samples": result.get("samples"), "unscaled": result.get("raw"),
        "references": bench.scaler.references, "timed": bench.scaler.timed,
        "elapsed_s": elapsed,
        "op_failure_ratio": failed / bench.attempted, "problems": bench.problems,
        "operations": bench.records,
    }
    out_dir = ROOT / RESULTS_DIR
    out_dir.mkdir(exist_ok=True)
    out = out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=1))
    print(f"record {out.relative_to(ROOT)}")
    print(json.dumps({"correct": not bench.problems, "attempted": bench.attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if not bench.problems else 1


if __name__ == "__main__":
    sys.exit(main())
