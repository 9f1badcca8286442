"""Tests of the benchmark itself, on tiny degree caps.

    python -m pytest perfbench/tests -q
"""
from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent.parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import workloads  # noqa: E402
from reference import REFERENCE_S, Scaler  # noqa: E402
from tracer import per_layer_specs  # noqa: E402


def _bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, str(Path(cwd) / "perfbench" / "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=170)


def _printed(stdout: str, name: str, unit: str) -> bool:
    return re.search(rf"^{re.escape(name)} \S+ {re.escape(unit)}( \(absent\))?$",
                     stdout, re.M) is not None


def test_benchmark_json_names_what_the_harness_reports():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == per_layer_specs()
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values())


def test_every_end_to_end_metric_is_printed_with_its_unit():
    p = _bench("--workload", "dims", "--seed", "3", "--seconds", "1", "--trace", "0", "--smoke")
    assert p.returncode == 0, p.stdout + p.stderr
    for name, unit in run.END_TO_END:
        assert _printed(p.stdout, name, unit), name
    assert re.search(r"^op_failure_ratio 0 ratio", p.stdout, re.M)
    # every step ran although --seconds 1 was far too short
    steps = run.SCHEDULE["dims"]
    warm = steps.count("warm") * run.WARM_TIMED_PASSES["dims"]
    assert re.search(rf"^samples setup={run.SETUP_SAMPLES} cold={steps.count('cold')} "
                     rf"warm={warm}$", p.stdout, re.M)
    assert re.search(r"^elapsed \S+ s \(OVER --seconds 1; every step still ran\)$", p.stdout, re.M)
    last = json.loads(p.stdout.splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] and last["failed"] == 0 and last["attempted"] >= 1
    assert {k: v["unit"] for k, v in last["metrics"].items()} == dict(run.END_TO_END)


def test_traced_run_prints_every_per_layer_metric_and_repeats_its_counts():
    p = _bench("--workload", "freeness", "--seed", "3", "--seconds", "1", "--trace", "1",
               "--smoke")
    assert p.returncode == 0, p.stdout + p.stderr   # nonzero if two traced passes disagree
    for name, unit, _ in per_layer_specs():
        assert _printed(p.stdout, name, unit), name
    metrics = json.loads(p.stdout.splitlines()[-1])["metrics"]
    assert metrics["uea.symmetrize_monomial.calls"]["value"] > 0
    assert metrics["trace.overhead_ratio"]["value"] > 0


def test_a_corrupted_known_answer_fails_the_run(monkeypatch, capsys):
    h = list(workloads.ANSWERS["h"])
    h[2] += 1
    monkeypatch.setitem(workloads.ANSWERS, "h", h)
    code = run.main(["--workload", "dims", "--seed", "0", "--seconds", "1", "--trace", "0",
                     "--smoke"])
    out = capsys.readouterr().out
    assert code != 0
    ratio = float(re.search(r"^op_failure_ratio (\S+) ratio", out, re.M).group(1))
    assert ratio > 0
    last = json.loads(out.splitlines()[-1])
    assert not last["correct"] and last["failed"] > 0


def test_seeded_expressions_are_reproducible_and_vary_with_the_seed():
    assert workloads.catalog_expressions(7, 4) == workloads.catalog_expressions(7, 4)
    assert workloads.catalog_expressions(7, 4) != workloads.catalog_expressions(8, 4)
    argvs = [op["argv"] for op in workloads.build_ops("freeness", 1, "w")]
    assert argvs == [op["argv"] for op in workloads.build_ops("freeness", 2, "w")]


def test_without_the_sources_it_fails_and_prints_no_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    p = _bench("--workload", "catalog", "--seed", "1", "--seconds", "1", "--trace", "0",
               cwd=tmp_path)
    assert p.returncode != 0
    assert '"correct"' not in p.stdout


# dims is covered by test_every_end_to_end_metric_is_printed_with_its_unit
@pytest.mark.parametrize("workload", ["catalog", "freeness"])
def test_smoke_runs_check_every_verdict(workload):
    p = _bench("--workload", workload, "--seed", "5", "--seconds", "1", "--trace", "0",
               "--smoke")
    assert p.returncode == 0, p.stdout + p.stderr
    last = json.loads(p.stdout.splitlines()[-1])
    assert last["correct"] and last["failed"] == 0


def test_each_sample_is_scaled_by_the_reference_runs_nearest_to_it():
    scaler = Scaler()
    # reference runs at t = 0, 1, ..., 9 s; the host is twice as slow after t = 5 s
    scaler.references = [(t, REFERENCE_S * (2 if t >= 5 else 1)) for t in range(10)]
    scaler.timed = [("short", 1.0, 0.05),   # the 4 nearest runs are all fast
                    ("slow", 8.0, 0.2),     # the 4 nearest runs are all slow
                    ("long", 4.5, 0.9)]     # needs 6 runs to last 0.9 s: 3 fast, 3 slow
    samples = scaler.samples()
    assert samples["short"] == [pytest.approx((0.05, 0.05))]
    assert samples["slow"] == [pytest.approx((0.1, 0.2))]
    assert samples["long"] == [pytest.approx((0.9 / 1.5, 0.9))]
