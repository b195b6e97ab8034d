"""Every benchmark request's report, pinned by digest across commits.

The benchmark's four workloads (``bench/workloads.py``) are generated for
seeds 1-3 and every warm-up, cycle and defect request runs through
``ebitflow.cli.main`` in this process. Each request's exit code and the
sha256 of its stdout and stderr must equal the entry in
``report_digests.json``, keyed by workload, seed and request. So a change
that moves any report, error text or exit code shows here, in tier-1,
rather than only in a hand comparison with the parent commit.

A deliberate report change regenerates the file in the same change, from
the root of a checkout::

    PYTHONPATH=src python tests/test_report_digests.py

and CHANGES.md lists which digests moved and why.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib.util
import io
import json
import sys
from pathlib import Path

import pytest

from ebitflow import cli

ROOT = Path(__file__).resolve().parents[1]
DIGESTS = Path(__file__).resolve().parent / "report_digests.json"
SEEDS = (1, 2, 3)


def _load_workloads():
    path = ROOT / "bench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("bench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    # dataclasses looks its defining module up in sys.modules.
    sys.modules.setdefault(spec.name, module)
    spec.loader.exec_module(module)
    return module


workloads = _load_workloads()


def _sha256(text: str) -> str:
    # surrogateescape keeps every byte, so equal digests mean equal bytes.
    return hashlib.sha256(text.encode("utf-8", "surrogateescape")).hexdigest()


def run_requests(name: str, seed: int, workdir: Path) -> dict[str, list]:
    """``[exit code, stdout sha256, stderr sha256]`` of every request of one
    workload and seed, keyed by phase, position and command line."""
    w = workloads.generate(name, seed)
    w.write(workdir)
    out: dict[str, list] = {}
    for phase, requests in (("warmup", w.warmup), ("cycle", w.cycle), ("defects", w.defects)):
        for i, req in enumerate(requests):
            stdout, stderr = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                try:
                    code = cli.main(req.argv(workdir))
                except SystemExit as exc:
                    code = exc.code
            key = " ".join([f"{phase}[{i}]", req.command, req.input, *req.args])
            out[key] = [code, _sha256(stdout.getvalue()), _sha256(stderr.getvalue())]
            assert str(workdir) not in stdout.getvalue() + stderr.getvalue(), key
    return out


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_reports_match_committed_digests(name, seed, tmp_path, monkeypatch):
    monkeypatch.delenv("EBITFLOW_FORMAT", raising=False)
    expected = json.loads(DIGESTS.read_text())[name][str(seed)]
    got = run_requests(name, seed, tmp_path)
    moved = sorted(k for k in expected.keys() | got.keys() if expected.get(k) != got.get(k))
    assert moved == []


def regenerate() -> None:
    import os
    import tempfile

    os.environ.pop("EBITFLOW_FORMAT", None)
    digests: dict[str, dict[str, dict]] = {}
    with tempfile.TemporaryDirectory() as tmp:
        for name in workloads.WORKLOADS:
            digests[name] = {
                str(seed): run_requests(name, seed, Path(tmp) / f"{name}-{seed}")
                for seed in SEEDS
            }
    DIGESTS.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    regenerate()
