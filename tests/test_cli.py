"""End-to-end command-line checks via subprocess."""

import hashlib
import json
import os
import subprocess
import sys
from fractions import Fraction

import pytest

import ebitflow

CHAIN_DOC = {
    "nodes": ["s", "r", "t"],
    "edges": [
        {"a": "s", "b": "r", "capacity": 3, "cost": 1.0},
        {"a": "r", "b": "t", "capacity": 2, "cost": 1.0},
    ],
    "source": "s",
    "sink": "t",
}

CHANNEL_DOC = {
    "nodes": ["s", "r", "t"],
    "edges": [
        {
            "a": "s",
            "b": "r",
            "capacity": 3,
            "cost": 1.0,
            "channel": {"kind": "pure-loss", "eta": 0.5, "rate": 1},
        },
        {
            "a": "r",
            "b": "t",
            "capacity": 2,
            "cost": 1.0,
            "channel": {"kind": "explicit", "Q": 2, "rate": 1},
        },
    ],
    "source": "s",
    "sink": "t",
}

LOWER_TEMPLATE = {
    "yield": {"kind": "linear-floor", "rate": "1/2"},
    "max_uses": 8,
    "delta_target": 0.01,
}

HIER_DOC = {
    "nodes": ["A", "B", "C"],
    "source": "A",
    "sink": "C",
    "edges": [
        {
            "a": "A",
            "b": "B",
            "lower": {
                **LOWER_TEMPLATE,
                "network": {
                    "nodes": ["A", "B"],
                    "edges": [{"a": "A", "b": "B", "capacity": 5, "cost": 1.0}],
                    "source": "A",
                    "sink": "B",
                },
            },
        },
        {
            "a": "B",
            "b": "C",
            "lower": {
                **LOWER_TEMPLATE,
                "network": {
                    "nodes": ["B", "C"],
                    "edges": [{"a": "B", "b": "C", "capacity": 5, "cost": 1.0}],
                    "source": "B",
                    "sink": "C",
                },
                "cost": 1.0,
            },
        },
    ],
}


@pytest.fixture(scope="module")
def docs(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    paths = {}
    for name, doc in (
        ("chain", CHAIN_DOC),
        ("channels", CHANNEL_DOC),
        ("hier", HIER_DOC),
    ):
        path = root / f"{name}.json"
        path.write_text(json.dumps(doc))
        paths[name] = str(path)
    bad = root / "bad.json"
    bad.write_text("{not json")
    paths["bad"] = str(bad)
    paths["root"] = str(root)
    return paths


def run_cli(*args, env_extra=None):
    env = dict(os.environ)
    env.pop("EBITFLOW_FORMAT", None)
    if env_extra:
        env.update(env_extra)
    return subprocess.run(
        [sys.executable, "-m", "ebitflow", *args],
        capture_output=True,
        text=True,
        env=env,
    )


def report(proc):
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


class TestEnvelope:
    def test_report_shell(self, docs):
        proc = run_cli("flow", "--input", docs["chain"], "--target", "2", "--seed", "7")
        doc = report(proc)
        assert sorted(doc) == [
            "command",
            "input_sha256",
            "params",
            "result",
            "schema_version",
            "seed",
            "tool",
        ]
        assert doc["schema_version"] == 1
        assert doc["command"] == "flow"
        assert doc["seed"] == 7
        assert doc["params"]["target"] == 2
        assert doc["tool"] == {"name": "ebitflow", "version": ebitflow.__version__}
        digest = hashlib.sha256(open(docs["chain"], "rb").read()).hexdigest()
        assert doc["input_sha256"] == digest

    def test_output_is_sorted_and_newline_terminated(self, docs):
        proc = run_cli("mincut", "--input", docs["chain"])
        assert proc.stdout.endswith("\n")
        assert proc.stdout == json.dumps(json.loads(proc.stdout), indent=2, sort_keys=True) + "\n"

    def test_version_flag(self):
        proc = run_cli("--version")
        assert proc.returncode == 0
        assert ebitflow.__version__ in proc.stdout


class TestCommands:
    def test_mincut(self, docs):
        doc = report(run_cli("mincut", "--input", docs["chain"]))
        assert doc["result"] == {"min_cut": 2}

    def test_flow(self, docs):
        result = report(
            run_cli("flow", "--input", docs["chain"], "--target", "2")
        )["result"]
        assert result["net_flow"] == 2
        assert result["total_cost_milli"] == 4000
        assert result["unit_price_milli"] == "2000"
        assert result["active_edges"] == [["r", "s"], ["r", "t"]]

    def test_maxflow(self, docs):
        result = report(run_cli("maxflow", "--input", docs["chain"]))["result"]
        assert result["net_flow"] == 2
        assert result["total_cost_milli"] == 4000

    def test_price_scan(self, docs):
        result = report(run_cli("price-scan", "--input", docs["chain"]))["result"]
        assert result["best_target"] == 1
        assert result["best_unit_price_milli"] == "2000"
        assert [row["target"] for row in result["curve"]] == [1, 2]

    def test_plan(self, docs):
        result = report(
            run_cli("plan", "--input", docs["chain"], "--target", "2")
        )["result"]
        assert result["bundles"] == [
            {"path": ["s", "r", "t"], "multiplicity": 2, "hops": 2}
        ]
        assert result["qubits"] == 8
        assert result["instruction_counts"] == {"create": 4, "measure": 2, "correct": 2}
        assert result["schedule"][0] == "pair q0@s q1@r copy 0"
        assert result["schedule"][-1] == "deliver copy 1 q4 q7"
        for entry in result["channel_uses"]:
            assert entry["achieved"] >= 2
            assert entry["uses"] == 2

    def test_simulate_noiseless_composition(self, docs):
        result = report(
            run_cli(
                "simulate", "--input", docs["chain"], "--target", "2", "--trials", "5"
            )
        )["result"]
        flow = report(run_cli("flow", "--input", docs["chain"], "--target", "2"))
        assert result["pairs"] == flow["result"]["net_flow"]
        assert result["trials"] == 5
        assert result["all_pass_count"] == 5
        assert result["all_pass_rate"] == 1.0
        assert result["exact"]["pass_probability"] == "1"
        assert result["exact"]["error_bound"] == "0"
        for stats in result["per_pair"]:
            assert stats["passes"] == 5

    def test_simulate_with_noise_respects_bound(self, docs):
        result = report(
            run_cli(
                "simulate",
                "--input",
                docs["chain"],
                "--target",
                "2",
                "--trials",
                "50",
                "--noise-p",
                "0.05",
            )
        )["result"]
        assert result["noise"]["swap_depolarize_p"] == "1/20"
        exact = result["exact"]
        assert Fraction(exact["trace_distance"]) <= Fraction(exact["error_bound"])
        assert 0.0 <= result["all_pass_rate"] <= 1.0

    def test_concat(self, docs):
        result = report(
            run_cli("concat", "--input", docs["hier"], "--target", "2")
        )["result"]
        assert result["level"] == 1
        assert result["cost_milli"] == 22000
        assert result["total_lower_cost_milli"] == 40000
        assert result["budget"]["generation"] == "1/50"
        assert result["flat"]["net_flow"] == 2
        plans = result["lower_plan"]
        assert [p["edge"] for p in plans] == [["A", "B"], ["B", "C"]]
        for p in plans:
            assert p["uses"] == 4
            assert p["per_use_cost_milli"] == 5000
            assert p["per_use_target"] == 5
            assert p["sub"] == []

    def test_rate(self, docs):
        result = report(run_cli("rate", "--input", docs["channels"]))["result"]
        assert result["rate_ebits"] == pytest.approx(1.0)
        assert {e["kind"] for e in result["edges"]} == {"pure-loss", "explicit"}

    def test_rate_without_models_fails(self, docs):
        proc = run_cli("rate", "--input", docs["chain"])
        assert proc.returncode == 3
        err = json.loads(proc.stderr)
        assert err["error"]["type"] == "MissingModel"


class TestFormats:
    def test_text_mincut(self, docs):
        proc = run_cli("mincut", "--input", docs["chain"], "--format", "text")
        assert proc.returncode == 0
        assert proc.stdout == "min-cut: 2\n"

    def test_text_flow(self, docs):
        proc = run_cli(
            "flow", "--input", docs["chain"], "--target", "2", "--format", "text"
        )
        lines = proc.stdout.splitlines()
        assert lines[0] == "net flow: 2"
        assert lines[1] == "total cost: 4.000"
        assert lines[2] == "unit price: 2.000"
        assert "  r--s: 2/3" in lines

    def test_dot_flow(self, docs):
        proc = run_cli(
            "flow", "--input", docs["chain"], "--target", "2", "--format", "dot"
        )
        assert proc.returncode == 0
        assert proc.stdout.startswith("graph")
        assert '"r" -- "t"' in proc.stdout

    def test_format_env_default(self, docs):
        proc = run_cli(
            "mincut", "--input", docs["chain"], env_extra={"EBITFLOW_FORMAT": "text"}
        )
        assert proc.stdout == "min-cut: 2\n"

    def test_flag_overrides_env(self, docs):
        proc = run_cli(
            "mincut",
            "--input",
            docs["chain"],
            "--format",
            "json",
            env_extra={"EBITFLOW_FORMAT": "text"},
        )
        assert json.loads(proc.stdout)["result"] == {"min_cut": 2}

    def test_bad_env_format_falls_back_to_json(self, docs):
        proc = run_cli(
            "mincut", "--input", docs["chain"], env_extra={"EBITFLOW_FORMAT": "yaml"}
        )
        assert proc.returncode == 0
        json.loads(proc.stdout)

    def test_output_file(self, docs, tmp_path):
        out = tmp_path / "report.json"
        proc = run_cli(
            "flow",
            "--input",
            docs["chain"],
            "--target",
            "1",
            "--output",
            str(out),
        )
        assert proc.returncode == 0
        assert proc.stdout == ""
        assert json.loads(out.read_text())["result"]["net_flow"] == 1


class TestExitCodes:
    def test_unknown_command(self, docs):
        proc = run_cli("frobnicate", "--input", docs["chain"])
        assert proc.returncode == 2

    def test_missing_target(self, docs):
        proc = run_cli("flow", "--input", docs["chain"])
        assert proc.returncode == 2

    def test_dot_not_allowed_for_mincut(self, docs):
        proc = run_cli("mincut", "--input", docs["chain"], "--format", "dot")
        assert proc.returncode == 2

    def test_bad_json_input(self, docs):
        proc = run_cli("mincut", "--input", docs["bad"])
        assert proc.returncode == 3
        err = json.loads(proc.stderr)
        assert err["error"]["type"] == "ParseError"

    def test_non_utf8_input(self, docs):
        path = os.path.join(docs["root"], "utf16.json")
        with open(path, "wb") as fh:
            fh.write(b"\xff\xfe{\x00}\x00")
        proc = run_cli("mincut", "--input", path)
        assert proc.returncode == 3
        err = json.loads(proc.stderr)
        assert err["error"]["type"] == "ParseError"

    def test_missing_file(self, docs):
        proc = run_cli("mincut", "--input", os.path.join(docs["root"], "nope.json"))
        assert proc.returncode == 3

    def test_infeasible_target(self, docs):
        proc = run_cli("flow", "--input", docs["chain"], "--target", "99")
        assert proc.returncode == 4
        err = json.loads(proc.stderr)
        assert err["error"]["type"] == "InfeasibleTarget"
        assert "min-cut" in err["error"]["message"]

    def test_negative_target(self, docs):
        proc = run_cli("flow", "--input", docs["chain"], "--target", "-1")
        assert proc.returncode == 4
        err = json.loads(proc.stderr)
        assert err["error"]["type"] == "NegativeTarget"


class TestDeterminism:
    def test_simulate_runs_are_byte_identical(self, docs):
        args = (
            "simulate",
            "--input",
            docs["chain"],
            "--target",
            "2",
            "--trials",
            "40",
            "--noise-p",
            "0.25",
            "--seed",
            "3",
        )
        first = run_cli(*args)
        second = run_cli(*args)
        assert first.returncode == second.returncode == 0
        assert first.stdout == second.stdout

    def test_concat_runs_are_byte_identical(self, docs):
        args = ("concat", "--input", docs["hier"], "--target", "2")
        assert run_cli(*args).stdout == run_cli(*args).stdout
