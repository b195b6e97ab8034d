"""Self-checks of the benchmark: seeded inputs, repeatable counts, and
output checks that reject wrong reports.

Run from the root of a checkout with ``python -m pytest bench``.
"""

import contextlib
import io
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import checks
import run
from workloads import WORKLOADS, generate

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))


def _run(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "bench" / "run.py"), *args],
        capture_output=True,
        text=True,
        cwd=cwd,
        timeout=170,
    )


@pytest.mark.parametrize("name", WORKLOADS)
def test_seed_fixes_the_inputs(name):
    a, b, other = generate(name, 7), generate(name, 7), generate(name, 8)
    assert a.files() == b.files()
    assert a.cycle == b.cycle and a.warmup == b.warmup
    assert a.cycle and a.files() != other.files()


@pytest.mark.parametrize("name", WORKLOADS)
def test_counts_repeat_for_one_seed(name):
    results = []
    for _ in range(2):
        proc = _run("--workload", name, "--seed", "3", "--seconds", "1", "--trace", "1")
        assert proc.returncode == 0, proc.stderr
        results.append(json.loads(proc.stdout.strip().splitlines()[-1]))
    assert results[0]["correct"] and results[1]["correct"]
    assert results[0]["failed"] == results[1]["failed"]
    counts = [
        {k: v["value"] for k, v in r["metrics"].items() if v["unit"] == "count"}
        for r in results
    ]
    assert counts[0] and counts[0] == counts[1]


def test_fails_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("--workload", "route", "--seed", "1", "--seconds", "1", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def _report(w, req, tmp_path):
    import ebitflow.cli  # found through the src/ path added above

    w.write(tmp_path)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert ebitflow.cli.main(req.argv(tmp_path)) == 0
    return json.loads(out.getvalue())["result"]


def test_flow_check_rejects_a_wrong_cost(tmp_path):
    w = generate("route", 1)
    req = next(r for r in w.cycle if r.command == "flow" and r.input == "g10.json")
    result = _report(w, req, tmp_path)
    oracle = checks.Oracle()
    assert checks.check_flow(req, result, w, oracle) == []
    result["total_cost_milli"] += 1
    assert checks.check_flow(req, result, w, oracle)


def test_simulate_check_rejects_a_wrong_exact_figure(tmp_path):
    w = generate("sim-verify", 1)
    req = next(r for r in w.cycle if r.input.startswith("q12"))
    result = _report(w, req, tmp_path)
    assert checks.check_simulate(req, result, w, None) == []
    result["exact"]["pass_probability"] = "1/2"
    assert checks.check_simulate(req, result, w, None)


def test_known_defects_are_reported_not_counted(tmp_path):
    w = generate("route", 1)
    assert w.defects and not set(w.defects) & set(w.cycle)
    w.write(tmp_path)
    lines = []
    assert run.known_defects(w, run.InProcess(), tmp_path, lines) is False
    assert len(lines) == len(w.defects)
    assert all(line.strip().startswith("known defect, ") for line in lines)
