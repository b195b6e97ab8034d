"""End-to-end command-line checks, via subprocess and in process."""

import contextlib
import gc
import hashlib
import io
import json
import os
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import ebitflow
from ebitflow import cli, concat

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


def run_cli(*args, env_extra=None, timeout=None, stdout=subprocess.PIPE, launcher=()):
    """One ``python -m ebitflow`` process, run through ``launcher`` if given."""
    env = dict(os.environ)
    env.pop("EBITFLOW_FORMAT", None)
    if env_extra:
        env.update(env_extra)
    return subprocess.run(
        [*launcher, sys.executable, "-m", "ebitflow", *args],
        stdout=stdout,
        stderr=subprocess.PIPE,
        text=True,
        env=env,
        timeout=timeout,
    )


def report(proc):
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def call_main(*argv):
    """Exit code, stdout and stderr of one in-process ``cli.main`` call."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(list(argv))
    return code, out.getvalue(), err.getvalue()


def assert_json_error(err, kind=None):
    """A failed command writes exactly one JSON error object to stderr."""
    doc = json.loads(err)
    assert set(doc) == {"error"}, err
    if kind is not None:
        assert doc["error"]["type"] == kind, err


def chain_doc(hops):
    nodes = [f"n{i}" for i in range(hops + 1)]
    return {
        "nodes": nodes,
        "edges": [
            {"a": a, "b": b, "capacity": 2, "cost": 1}
            for a, b in zip(nodes, nodes[1:])
        ],
        "source": nodes[0],
        "sink": nodes[-1],
    }


def nested_hierarchy(depth):
    """JSON text of a two-node hierarchy whose single edge wraps ``depth``
    levels; built as text because json.dumps itself stops at ~1000 levels."""
    text = json.dumps(
        {
            "nodes": ["A", "B"],
            "edges": [{"a": "A", "b": "B", "capacity": 2, "cost": 1}],
            "source": "A",
            "sink": "B",
        }
    )
    for _ in range(depth):
        text = (
            '{"nodes": ["A", "B"], "edges": [{"a": "A", "b": "B", "lower": '
            f'{{"network": {text}, "yield": {{"kind": "identity"}}, '
            '"max_uses": 2, "delta_target": 0}}], "source": "A", "sink": "B"}'
        )
    return text


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

    @pytest.mark.parametrize("target", ["0", "2"])
    def test_concat_on_flat_document(self, docs, target):
        # A flat document is level 0: it has no lower networks to run.
        result = report(
            run_cli("concat", "--input", docs["chain"], "--target", target)
        )["result"]
        assert result["level"] == 0
        assert result["flat"]["net_flow"] == int(target)
        assert result["lower_plan"] == []
        assert result["total_lower_cost_milli"] == 0

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

    @pytest.mark.parametrize("env_format", ["yaml", "dot"])
    def test_bad_env_format_falls_back_to_json(self, docs, env_format):
        proc = run_cli(
            "mincut", "--input", docs["chain"], env_extra={"EBITFLOW_FORMAT": env_format}
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

    def test_delta_default_refused_for_concat(self, docs):
        proc = run_cli(
            "concat", "--input", docs["hier"], "--target", "2", "--delta-default", "1/10"
        )
        assert proc.returncode == 2
        assert "concat does not apply --delta-default" in proc.stderr
        assert proc.stdout == ""

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

    @pytest.mark.parametrize("where", ["missing_dir", "directory"])
    def test_unwritable_output(self, docs, tmp_path, where):
        output = tmp_path / "nope" / "x.json" if where == "missing_dir" else tmp_path
        proc = run_cli("mincut", "--input", docs["chain"], "--output", str(output))
        assert proc.returncode == 3
        assert_json_error(proc.stderr, "ParseError")
        assert "cannot write output file" in json.loads(proc.stderr)["error"]["message"]

    @pytest.mark.parametrize("hops", [2, 800], ids=["buffered", "past-the-buffer"])
    def test_stdout_reader_gone(self, tmp_path, hops):
        # The short report fails at the flush, the long one at the write.
        path = tmp_path / "chain.json"
        path.write_text(json.dumps(chain_doc(hops)))
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = run_cli("maxflow", "--input", str(path), stdout=write_end)
        finally:
            os.close(write_end)
        assert proc.returncode == 3
        # The whole of stderr is the error: no traceback, and nothing from
        # the interpreter's flush at exit.
        assert_json_error(proc.stderr, "ParseError")
        assert "cannot write to stdout" in json.loads(proc.stderr)["error"]["message"]

    def test_stdout_closed(self, docs):
        closed = ("sh", "-c", 'exec "$@" >&-', "sh")
        proc = run_cli("maxflow", "--input", docs["chain"], stdout=None, launcher=closed)
        assert proc.returncode == 3
        assert_json_error(proc.stderr, "ParseError")
        assert "cannot write to stdout" in json.loads(proc.stderr)["error"]["message"]

    @pytest.mark.parametrize(
        "redirect",
        [
            "2>&-",
            pytest.param(
                "2>/dev/full",
                marks=pytest.mark.skipif(
                    not os.path.exists("/dev/full"), reason="no /dev/full"
                ),
            ),
        ],
        ids=["closed", "full"],
    )
    @pytest.mark.parametrize(
        ("request_", "code"),
        [("bad-json", 3), ("infeasible", 4)],
        ids=["exit-3", "exit-4"],
    )
    def test_stderr_unwritable(self, docs, redirect, request_, code):
        # The error object is lost, but the exit code still tells the failure.
        argv = {
            "bad-json": ["mincut", "--input", docs["bad"]],
            "infeasible": ["flow", "--input", docs["chain"], "--target", "99"],
        }[request_]
        launcher = ("sh", "-c", f'exec "$@" {redirect}', "sh")
        proc = run_cli(*argv, launcher=launcher)
        assert (proc.returncode, proc.stdout, proc.stderr) == (code, "", "")

    @pytest.mark.parametrize("value", ["2", "-1/10"])
    @pytest.mark.parametrize("uses_default", [True, False], ids=["no-deltas", "own-deltas"])
    def test_delta_default_outside_the_unit_interval(self, tmp_path, value, uses_default):
        # Refused whether or not an edge would take the default.
        path = tmp_path / "doc.json"
        path.write_text(json.dumps(CHAIN_DOC if uses_default else ladder_doc(1, 2)))
        args = ("--input", str(path), "--target", "1", "--trials", "5")
        code, out, err = call_main("simulate", *args, f"--delta-default={value}")
        assert (code, out) == (3, "")
        assert_json_error(err, "ValidationError")
        assert json.loads(err)["error"]["message"].startswith("--delta-default: ")

    def test_trials_above_the_cap(self, docs, monkeypatch):
        def no_run(*_args, **_kwargs):
            raise AssertionError("a run started")

        monkeypatch.setattr(cli, "fidelity_estimate", no_run, raising=False)
        trials = str(cli.MAX_TRIALS + 1)
        args = ("--input", docs["chain"], "--target", "1", "--trials", trials)
        code, out, err = call_main("simulate", *args)
        assert (code, out) == (3, "")
        assert_json_error(err, "TooLarge")
        assert json.loads(err)["error"]["message"].startswith("--trials: ")

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

    def test_negative_seed_fails_simulate_only(self, docs):
        proc = run_cli("simulate", "--input", docs["chain"], "--target", "1", "--seed", "-1")
        assert proc.returncode == 3
        err = json.loads(proc.stderr)
        assert err["error"]["type"] == "ValidationError"
        assert report(run_cli("mincut", "--input", docs["chain"], "--seed", "-1"))["seed"] == -1

    @pytest.mark.parametrize(
        "text",
        [
            "[" * 100_000 + "]" * 100_000,
            json.dumps(CHAIN_DOC).replace('"capacity": 3', '"capacity": 1' + "0" * 5000),
            json.dumps(CHAIN_DOC).replace('"cost": 1.0', '"cost": 1e400', 1),
            json.dumps(CHAIN_DOC).replace('"cost": 1.0', '"cost": NaN', 1),
        ],
        ids=["deep-nesting", "long-integer", "infinite-cost", "nan-cost"],
    )
    def test_undecodable_numbers_and_nesting(self, tmp_path, text):
        path = tmp_path / "doc.json"
        path.write_text(text)
        code, out, err = call_main("mincut", "--input", str(path))
        assert (code, out) == (3, "")
        assert_json_error(err, "ParseError")

    @pytest.mark.parametrize(
        "channel",
        [
            {"kind": "explicit", "Q": 1e308, "rate": 1},
            {"kind": "pure-loss", "eta": 0.5, "rate": 1e308},
        ],
        ids=["exact-sum", "float-sum"],
    )
    def test_cut_weight_beyond_float_range(self, tmp_path, channel):
        # Each edge weight fits a float; the sum over two parallel paths
        # does not.
        doc = {
            "nodes": ["s", "a", "b", "t"],
            "edges": [
                {"a": a, "b": b, "capacity": 1, "cost": 0, "channel": channel}
                for a, b in [("s", "a"), ("a", "t"), ("s", "b"), ("b", "t")]
            ],
            "source": "s",
            "sink": "t",
        }
        path = tmp_path / "doc.json"
        path.write_text(json.dumps(doc))
        code, out, err = call_main("rate", "--input", str(path))
        assert (code, out) == (3, "")
        assert_json_error(err, "ValidationError")

    def test_hierarchy_nested_past_the_decoder_limit(self, tmp_path):
        path = tmp_path / "deep.json"
        path.write_text(nested_hierarchy(300))
        code, _, err = call_main("concat", "--input", str(path), "--target", "1")
        assert code == 3
        assert_json_error(err, "ParseError")

    def test_deep_hierarchy_below_the_decoder_limit(self, tmp_path):
        path = tmp_path / "deep.json"
        path.write_text(nested_hierarchy(150))
        code, out, err = call_main(
            "concat", "--input", str(path), "--target", "1", "--format", "text"
        )
        assert code == 0, err
        assert out.startswith("level: 150\n")

    def test_deep_json_report_near_the_decoder_limit(self, tmp_path):
        # The lower plan nests two containers per level, ~480 in all. A
        # fresh process, since pytest's own frames would push the input
        # past the decoder's limit.
        path = tmp_path / "deep.json"
        path.write_text(nested_hierarchy(240))
        proc = run_cli("concat", "--input", str(path), "--target", "1")
        assert proc.returncode == 0, proc.stderr
        out = proc.stdout
        assert out == json.dumps(json.loads(out), sort_keys=True, indent=2) + "\n"

    def test_input_text_is_not_read_as_a_file_name(self, docs, tmp_path):
        # The bytes hashed into input_sha256 are the bytes parsed.
        alias = tmp_path / "alias.txt"
        alias.write_text(docs["chain"])
        code, out, err = call_main("mincut", "--input", str(alias))
        assert (code, out) == (3, "")
        assert_json_error(err, "ParseError")
        assert "invalid JSON" in json.loads(err)["error"]["message"]


class TestLongChain:
    """Max-flow must not depend on Python's recursion limit."""

    @pytest.fixture(scope="class")
    def chain_path(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("chain") / "chain10000.json"
        path.write_text(json.dumps(chain_doc(10_000)))
        return str(path)

    def test_mincut(self, chain_path):
        code, out, err = call_main("mincut", "--input", chain_path)
        assert code == 0, err
        assert json.loads(out)["result"] == {"min_cut": 2}

    def test_flow(self, chain_path):
        code, out, err = call_main("flow", "--input", chain_path, "--target", "2")
        assert code == 0, err
        result = json.loads(out)["result"]
        assert result["net_flow"] == 2
        assert result["total_cost_milli"] == 2 * 10_000 * 1000


def clique_doc(k):
    """``s-h``, ``h-z`` and ``h`` joined to a zero-cost clique ``c0..c(k-1)``,
    all capacity 1 and cost 0. The walk tries the clique before ``z``, and
    the clique reaches the sink only back through ``h``."""
    clique = [f"c{i}" for i in range(k)]
    pairs = [("s", "h"), ("h", "z")] + [("h", c) for c in clique]
    pairs += [(a, b) for i, a in enumerate(clique) for b in clique[i + 1 :]]
    return {
        "nodes": ["s", "h", "z", *clique],
        "edges": [{"a": a, "b": b, "capacity": 1, "cost": 0} for a, b in pairs],
        "source": "s",
        "sink": "z",
    }


class TestZeroCostClique:
    """The tie-break walk never re-enters a dead end, so a zero-cost clique
    that dead-ends costs time linear in its arcs, not one step per simple
    path through it. Run in a subprocess with a timeout so that a
    regression fails instead of hanging the suite."""

    @pytest.mark.parametrize("k", [12, 40])
    def test_flow_finishes(self, tmp_path, k):
        path = tmp_path / f"clique{k}.json"
        path.write_text(json.dumps(clique_doc(k)))
        proc = run_cli("flow", "--input", str(path), "--target", "1", timeout=30)
        arcs = report(proc)["result"]["arcs"]
        assert {(a["from"], a["to"]): a["flow"] for a in arcs} == {
            ("h", "z"): 1,
            ("s", "h"): 1,
        }


class TestExactErrorAtEverySize:
    """Noisy ``concat`` reports the exact operation error above
    ``EXACT_QUBIT_LIMIT`` and refuses one too long to write at once. Run in
    a subprocess with a timeout so that a figure built to its full length,
    or a swap schedule of one copy per target pair, fails instead of
    hanging the suite."""

    def run(self, tmp_path, capacity, target, noise_p):
        doc = chain_doc(3)
        for edge in doc["edges"]:
            edge["capacity"] = capacity
        path = tmp_path / "chain.json"
        path.write_text(json.dumps(doc))
        args = ("--target", str(target), "--noise-p", noise_p)
        return run_cli("concat", "--input", str(path), *args, timeout=30)

    def test_eighteen_qubits(self, tmp_path):
        # Three copies of a three-hop path, 18 qubits, used to exit 3: each
        # copy passes its two half-depolarized swaps with 7/16.
        proc = self.run(tmp_path, 3, 3, "1/2")
        assert report(proc)["result"]["budget"]["operation"] == "3753/4096"

    def test_figure_too_long_to_write(self, tmp_path):
        # Each swap multiplies the figure's denominator by 10**399 + 7.
        proc = self.run(tmp_path, 2000, 2000, f"1/{10**399 + 7}")
        assert proc.returncode == 3, proc.stderr
        assert proc.stdout == ""
        assert_json_error(proc.stderr, "TooLarge")

    @pytest.mark.parametrize("copies", [10**6, 10**8])
    def test_figure_too_long_to_write_at_any_target(self, tmp_path, copies):
        # One bundle of ``copies`` copies, each passing with 7/16. No
        # schedule of six qubits per copy is built (at 10**6 that ran past
        # 20 s), and the power with denominator 16**copies is refused before
        # it is computed (at 10**8 computing it outlasts the timeout).
        proc = self.run(tmp_path, copies, copies, "1/2")
        assert proc.returncode == 3, proc.stderr
        assert proc.stdout == ""
        assert_json_error(proc.stderr, "TooLarge")

    def test_three_thousand_copies(self, tmp_path):
        # 16**3000 has 3613 digits, short enough to write.
        proc = self.run(tmp_path, 10**6, 3000, "1/2")
        operation = report(proc)["result"]["budget"]["operation"]
        assert Fraction(operation) == 1 - Fraction(7, 16) ** 3000


def huge_doc(**fields):
    """CHAIN_DOC with ``fields`` set on its first edge."""
    first, second = CHAIN_DOC["edges"]
    return {**CHAIN_DOC, "edges": [{**first, **fields}, second]}


def use_bound_hierarchy(depth, max_uses):
    """A hierarchy of ``depth`` one-edge levels over a one-edge leaf, each
    wrapped edge with the use bound ``max_uses`` and a rate-1 yield."""
    doc = {
        "nodes": ["A", "B"],
        "edges": [{"a": "A", "b": "B", "capacity": 2, "cost": 1}],
        "source": "A",
        "sink": "B",
    }
    for _ in range(depth):
        lower = {
            "network": doc,
            "yield": {"kind": "linear-floor", "rate": "1"},
            "max_uses": max_uses,
            "delta_target": 0,
        }
        doc = {**doc, "edges": [{"a": "A", "b": "B", "lower": lower}]}
    return doc


class TestHugeNumbers:
    """A number past the limit of 10**400 in its numerator or denominator
    is a ParseError (exit 3), in a document or a flag, and is refused before
    a power of ten that size is built. Each used to hang for minutes in
    ``Fraction`` or crash writing the report. Run in a subprocess with a
    timeout so that a regression fails instead of hanging the suite."""

    def run(self, tmp_path, doc, *args):
        path = tmp_path / "huge.json"
        path.write_text(json.dumps(doc))
        proc = run_cli(*args, "--input", str(path), timeout=30)
        assert proc.returncode == 3, proc.stderr
        assert proc.stdout == ""
        assert_json_error(proc.stderr, "ParseError")
        return json.loads(proc.stderr)["error"]["message"]

    def test_tiny_delta_under_mincut(self, tmp_path):
        message = self.run(tmp_path, huge_doc(delta="1e-99999999"), "mincut")
        assert message.startswith("edges[0].delta: ")

    @pytest.mark.parametrize(
        "command,args,flag",
        [
            ("simulate", ("--target", "1", "--trials", "5"), "--noise-p"),
            ("mincut", (), "--delta-default"),
        ],
    )
    def test_tiny_flag_value(self, tmp_path, command, args, flag):
        message = self.run(tmp_path, CHAIN_DOC, command, *args, flag, "1e-99999999")
        assert message.startswith(f"{flag}: ")

    @pytest.mark.parametrize("cost", ["1e999999", int("9" * 4299)], ids=["text", "int"])
    @pytest.mark.parametrize(
        "command,args",
        [
            ("flow", ("--target", "1")),
            ("maxflow", ()),
            ("price-scan", ()),
            ("plan", ("--target", "1")),
            ("concat", ("--target", "1")),
        ],
    )
    def test_huge_cost(self, tmp_path, command, args, cost):
        message = self.run(tmp_path, huge_doc(cost=cost), command, *args)
        assert message.startswith("edges[0].cost: ")

    @pytest.mark.parametrize("command", ["simulate", "concat"])
    def test_long_delta(self, tmp_path, command):
        message = self.run(
            tmp_path, huge_doc(delta="1e-5000"), command, "--target", "1"
        )
        assert message.startswith("edges[0].delta: ")

    @pytest.mark.parametrize("command", ["simulate", "concat"])
    def test_long_noise_p(self, tmp_path, command):
        message = self.run(
            tmp_path, CHAIN_DOC, command, "--target", "1", "--noise-p", "1e-999999"
        )
        assert message.startswith("--noise-p: ")

    @pytest.mark.parametrize("field", ["capacity", "max_uses"])
    @pytest.mark.parametrize(
        "command,args",
        [("flow", ("--target", "1")), ("maxflow", ()), ("concat", ("--target", "1"))],
    )
    def test_huge_integer_field(self, tmp_path, command, args, field):
        # A 4299-digit capacity used to crash ``maxflow`` writing its total
        # cost (exit 1); under concat the edge is a leaf of a hierarchy.
        edge = {"a": "s", "b": "t", "capacity": 1, "cost": 1, field: int("9" * 4299)}
        doc = {"nodes": ["s", "t"], "edges": [edge], "source": "s", "sink": "t"}
        if command == "concat":
            lower = {**LOWER_TEMPLATE, "network": doc}
            doc = {**doc, "edges": [{"a": "s", "b": "t", "lower": lower}]}
        message = self.run(tmp_path, doc, command, *args)
        assert message.startswith(f"edges[0].{field}: ")

    def test_huge_lower_use_bound(self, tmp_path):
        doc = use_bound_hierarchy(1, 10**401)
        message = self.run(tmp_path, doc, "concat", "--target", "1")
        assert message.startswith("edges[0].max_uses: ")

    def test_huge_lower_target(self, tmp_path):
        # A per-use target of 10**500 used to reach the lower solve and
        # exit 4 with its 501 digits in the message.
        doc = use_bound_hierarchy(1, 8)
        doc["edges"][0]["lower"]["target"] = 10**500
        message = self.run(tmp_path, doc, "concat", "--target", "1")
        assert message.startswith("edges[0].target: ")

    @pytest.mark.parametrize("point", [[1, 10**500], [10**500, 1]], ids=["pairs", "uses"])
    @pytest.mark.parametrize("command", ["plan", "concat"])
    def test_huge_table_point(self, tmp_path, command, point):
        # Both commands used to plan with such a table and exit 0.
        table = {"kind": "table", "points": [point]}
        if command == "plan":
            doc = huge_doc(**{"yield": table})
        else:
            lower = {"network": CHAIN_DOC, "yield": table, "delta_target": 0}
            doc = {**CHAIN_DOC, "edges": [{"a": "s", "b": "t", "lower": lower}]}
        message = self.run(tmp_path, doc, command, "--target", "1")
        assert message.startswith("yield.points: ")

    @pytest.mark.parametrize("fmt", ["json", "text"])
    def test_deep_hierarchy_of_huge_use_bounds(self, tmp_path, fmt):
        # Each bound is within the limit, but every level multiplies the
        # per-use cost by its bound: twelve levels give a price with more
        # digits than Python writes, which used to crash (exit 1).
        path = tmp_path / "deep.json"
        path.write_text(json.dumps(use_bound_hierarchy(12, 10**400)))
        proc = run_cli(
            "concat", "--input", str(path), "--target", "1", "--format", fmt, timeout=30
        )
        assert proc.returncode == 3, proc.stderr
        assert proc.stdout == ""
        assert_json_error(proc.stderr, "TooLarge")

    def test_budget_of_many_unlike_denominators(self, tmp_path):
        # Every delta is within the limit, but their sum's denominator is
        # the product of theirs: the report refuses to write it.
        doc = chain_doc(20)
        for i, edge in enumerate(doc["edges"]):
            edge["delta"] = f"1/{10**300 + 2 * i + 1}"
        path = tmp_path / "budget.json"
        path.write_text(json.dumps(doc))
        proc = run_cli("concat", "--input", str(path), "--target", "1", timeout=30)
        assert proc.returncode == 3, proc.stderr
        assert_json_error(proc.stderr, "TooLarge")


def test_concat_resolves_the_hierarchy_once(docs, monkeypatch):
    calls = []
    resolve = concat._resolve

    def counting(net):
        calls.append(net)
        return resolve(net)

    monkeypatch.setattr(concat, "_resolve", counting)
    code, _, err = call_main(
        "concat", "--input", docs["hier"], "--target", "2", "--noise-p", "1/100"
    )
    assert code == 0, err
    assert len(calls) == 1


def ladder_doc(paths, hops):
    """``paths`` disjoint s-t paths of ``hops`` edges, each edge with its own
    generation-error budget: ``2 * paths * hops`` qubits at target
    ``paths``."""
    nodes, edges = ["s", "t"], []
    for p in range(paths):
        labels = ["s", *(f"p{p}_{j}" for j in range(1, hops)), "t"]
        nodes += labels[1:-1]
        edges += [
            {"a": a, "b": b, "capacity": 1, "cost": 1, "delta": f"{3 + j + 4 * p}/1000"}
            for j, (a, b) in enumerate(zip(labels, labels[1:]))
        ]
    return {"nodes": nodes, "edges": edges, "source": "s", "sink": "t"}


@pytest.mark.parametrize(("paths", "hops"), [(1, 2), (2, 3)], ids=["q4", "q12"])
def test_noisy_simulate_hashes_no_fraction(tmp_path, count_calls, paths, hops):
    """The exact figures of a noisy ``simulate`` report are read on int
    ratios: no ``Fraction`` is hashed, to group deliveries or elsewhere."""
    path = tmp_path / "ladder.json"
    path.write_text(json.dumps(ladder_doc(paths, hops)))
    hashes = count_calls(Fraction, "__hash__")
    args = ("--target", str(paths), "--trials", "50", "--noise-p", "1/50")
    code, out, err = call_main("simulate", "--input", str(path), *args)
    assert code == 0, err
    result = json.loads(out)["result"]
    assert result["qubits"] == 2 * paths * hops
    assert result["exact"] is not None
    assert hashes == [0]


def test_concat_refuses_a_swap_noise_outside_the_unit_interval(docs):
    proc = run_cli("concat", "--input", docs["hier"], "--target", "2", "--noise-p", "2")
    assert proc.returncode == 3, proc.stderr
    assert proc.stdout == ""
    assert_json_error(proc.stderr, "ValidationError")
    assert json.loads(proc.stderr)["error"]["message"] == "swap_depolarize_p outside [0, 1]"


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


# Imports the CLI in a fresh interpreter, then runs one command that does
# not simulate and one that does; prints whether numpy was loaded at each
# step (simulation draws from a pure-Python stream, so it never is) and the
# simulate report.
LAZY_NUMPY_PROBE = """
import contextlib, io, json, sys
import ebitflow, ebitflow.cli
seen = ["numpy" in sys.modules]
out = io.StringIO()
with contextlib.redirect_stdout(out):
    ebitflow.cli.main(["mincut", "--input", sys.argv[1]])
seen.append("numpy" in sys.modules)
out = io.StringIO()
with contextlib.redirect_stdout(out):
    code = ebitflow.cli.main(sys.argv[2:])
seen.append("numpy" in sys.modules)
print(json.dumps({"numpy_loaded": seen, "code": code, "stdout": out.getvalue()}))
"""


class TestLazyNumpy:
    def test_only_simulation_imports_numpy(self, docs):
        args = (
            "simulate",
            "--input",
            docs["chain"],
            "--target",
            "2",
            "--trials",
            "20",
            "--noise-p",
            "0.25",
            "--seed",
            "3",
        )
        proc = subprocess.run(
            [sys.executable, "-c", LAZY_NUMPY_PROBE, docs["chain"], *args],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stderr
        probe = json.loads(proc.stdout)
        assert probe["numpy_loaded"] == [False, False, False]
        code, out, err = call_main(*args)
        assert code == 0, err
        assert (probe["code"], probe["stdout"]) == (code, out)


SIM_DOC = {
    **CHAIN_DOC,
    "edges": [dict(e, delta=0.01) for e in CHAIN_DOC["edges"]],
}

# Per command: a fixed valid argv and a document it accepts.
FUZZ_CASES = {
    "mincut": ((), CHAIN_DOC),
    "flow": (("--target", "1"), CHAIN_DOC),
    "maxflow": ((), CHAIN_DOC),
    "price-scan": ((), CHAIN_DOC),
    "plan": (("--target", "1"), CHAIN_DOC),
    "simulate": (("--target", "1", "--trials", "5", "--noise-p", "1/10"), SIM_DOC),
    "concat": (("--target", "1", "--noise-p", "1/10"), HIER_DOC),
    "rate": ((), CHANNEL_DOC),
}


# Runs one ``cli.main`` call in a fresh interpreter and prints its exit code,
# output and the ebitflow modules (and whether numpy) it left loaded.
IMPORTS_PROBE = """
import contextlib, io, json, sys
import ebitflow.cli
out, err = io.StringIO(), io.StringIO()
with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
    try:
        code = ebitflow.cli.main(sys.argv[1:])
    except SystemExit as exc:
        code = exc.code
print(json.dumps({
    "code": code,
    "stdout": out.getvalue(),
    "stderr": err.getvalue(),
    "modules": sorted(m for m in sys.modules if m.startswith("ebitflow")),
    "numpy": "numpy" in sys.modules,
}))
"""

# Imports the CLI in a fresh interpreter, runs one ``cli.main`` call and
# prints its exit code and the modules imported since start-up.
NEW_MODULES_PROBE = """
import contextlib, io, json, sys
before = set(sys.modules)
import ebitflow.cli
with contextlib.redirect_stdout(io.StringIO()):
    code = ebitflow.cli.main(sys.argv[1:])
print(json.dumps({"code": code, "new": sorted(set(sys.modules) - before)}))
"""

# Prepended to a probe, it makes numpy unimportable in the probe's interpreter.
NUMPY_BLOCKED = """
import sys
sys.modules["numpy"] = None
"""

# Wraps two CLI names with call counters before any command runs, as the
# benchmark tracer does, then runs the commands given as JSON argv lists.
PATCHED_NAMES_PROBE = """
import contextlib, io, json, sys
import ebitflow.cli as cli
calls = {}
for name in ("fidelity_estimate", "load_hierarchical"):
    real = getattr(cli, name)
    def counted(*args, _name=name, _real=real, **kwargs):
        calls[_name] = calls.get(_name, 0) + 1
        return _real(*args, **kwargs)
    setattr(cli, name, counted)
with contextlib.redirect_stdout(io.StringIO()):
    codes = [cli.main(argv) for argv in json.loads(sys.argv[1])]
print(json.dumps({"codes": codes, "calls": calls}))
"""

BASE_MODULES = {"ebitflow", "ebitflow.cli", "ebitflow.errors", "ebitflow.netgraph"}
# The ebitflow modules beyond BASE_MODULES that each command loads.
COMMAND_MODULES = {
    "mincut": set(),
    "flow": {"mincostflow"},
    "maxflow": {"mincostflow"},
    "price-scan": {"mincostflow"},
    "plan": {"mincostflow", "pathplan", "yields"},
    "simulate": {"mincostflow", "pathplan", "yields", "stabsim"},
    "concat": {"mincostflow", "pathplan", "yields", "stabsim", "concat"},
    "rate": {"rates"},
}


class TestCommandImports:
    """A process imports only the modules its command uses."""

    @pytest.fixture(scope="class")
    def inputs(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("imports")
        paths = {}
        for command, (_, doc) in FUZZ_CASES.items():
            paths[command] = root / f"{command}.json"
            paths[command].write_text(json.dumps(doc))
        return paths

    @staticmethod
    def in_process(argv):
        """``call_main``, but also for calls that exit through argparse."""
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.main(argv)
            except SystemExit as exc:
                code = exc.code
        return code, out.getvalue(), err.getvalue()

    @pytest.mark.parametrize("command", [*sorted(FUZZ_CASES), "--version", "usage"])
    def test_command_loads_its_modules(self, inputs, command):
        if command == "--version":
            argv, code = [command], 0
        elif command == "usage":
            argv, code = ["mincut"], 2
        else:
            argv = [command, "--input", str(inputs[command]), *FUZZ_CASES[command][0]]
            code = 0
        proc = subprocess.run(
            [sys.executable, "-c", IMPORTS_PROBE, *argv], capture_output=True, text=True
        )
        assert proc.returncode == 0, proc.stderr
        probe = json.loads(proc.stdout)
        extra = COMMAND_MODULES.get(command, set())
        assert probe["modules"] == sorted(BASE_MODULES | {f"ebitflow.{m}" for m in extra})
        assert not probe["numpy"]
        expected = self.in_process(argv)
        assert expected[0] == code
        assert expected[1 if code == 0 else 2]
        assert (probe["code"], probe["stdout"], probe["stderr"]) == expected

    @pytest.mark.parametrize("command", sorted(FUZZ_CASES))
    def test_command_runs_without_numpy(self, inputs, command):
        argv = [command, "--input", str(inputs[command]), *FUZZ_CASES[command][0]]
        proc = subprocess.run(
            [sys.executable, "-c", NUMPY_BLOCKED + IMPORTS_PROBE, *argv],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stderr
        probe = json.loads(proc.stdout)
        assert (probe["code"], probe["stdout"], probe["stderr"]) == self.in_process(argv)
        assert probe["code"] == 0 and probe["stdout"]

    @pytest.mark.parametrize("command", sorted(FUZZ_CASES))
    def test_command_imports_no_dataclasses_or_inspect(self, inputs, command):
        # This interpreter's site may import typing itself, so only modules
        # first imported by the CLI count.
        argv = [command, "--input", str(inputs[command]), *FUZZ_CASES[command][0]]
        proc = subprocess.run(
            [sys.executable, "-c", NEW_MODULES_PROBE, *argv],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stderr
        probe = json.loads(proc.stdout)
        assert probe["code"] == 0
        assert "ebitflow.netgraph" in probe["new"]
        assert {"dataclasses", "inspect"} & set(probe["new"]) == set()

    def test_names_patched_before_the_first_call_stay_patched(self, inputs):
        argvs = [
            [command, "--input", str(inputs[command]), *FUZZ_CASES[command][0]]
            for command in ("simulate", "concat")
        ]
        proc = subprocess.run(
            [sys.executable, "-c", PATCHED_NAMES_PROBE, json.dumps(argvs)],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stderr
        probe = json.loads(proc.stdout)
        assert probe == {
            "codes": [0, 0],
            "calls": {"fidelity_estimate": 1, "load_hierarchical": 1},
        }


def value_paths(doc, prefix=()):
    """Paths to every value below the root of a JSON document."""
    items = doc.items() if isinstance(doc, dict) else enumerate(doc)
    for key, value in items:
        yield prefix + (key,)
        if isinstance(value, (dict, list)):
            yield from value_paths(value, prefix + (key,))


def replaced(doc, path, value):
    doc = json.loads(json.dumps(doc))
    node = doc
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return doc


FUZZ_VALUES = st.one_of(
    st.booleans(),
    st.sampled_from([10**30, -(10**30), 10**4000]),
    st.recursive(st.just([]), lambda inner: st.lists(inner, max_size=3), max_leaves=8),
    st.text(max_size=8),
)


@st.composite
def fuzz_inputs(draw, doc):
    """Random bytes, or ``doc`` with one value swapped for a random one."""
    if draw(st.booleans()):
        return draw(st.binary(max_size=64))
    path = draw(st.sampled_from(sorted(value_paths(doc), key=repr)))
    return json.dumps(replaced(doc, path, draw(FUZZ_VALUES))).encode()


class TestFuzz:
    """Every input gets a report or a JSON error, never a traceback."""

    @pytest.mark.parametrize("command", sorted(FUZZ_CASES))
    @settings(
        derandomize=True,
        max_examples=60,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow, HealthCheck.function_scoped_fixture],
    )
    @given(data=st.data())
    def test_cli_contract(self, tmp_path, command, data):
        args, doc = FUZZ_CASES[command]
        path = tmp_path / "input.json"
        path.write_bytes(data.draw(fuzz_inputs(doc)))
        code, out, err = call_main(command, "--input", str(path), *args)
        assert code in (0, 3, 4)
        if code:
            assert_json_error(err)
        else:
            json.loads(out)


class TestReusedParser:
    """One parser serves every call in a process, and each command renders
    only the format it prints."""

    @pytest.fixture
    def inputs(self, tmp_path):
        paths = {}
        for command, (_, doc) in FUZZ_CASES.items():
            paths[command] = tmp_path / f"{command}.json"
            paths[command].write_text(json.dumps(doc))
        return paths

    def run_all(self, inputs, *extra):
        return {
            command: call_main(command, "--input", str(inputs[command]), *args, *extra)
            for command, (args, _) in FUZZ_CASES.items()
        }

    def test_later_calls_match_the_first(self, inputs):
        first = self.run_all(inputs)
        assert all(code == 0 for code, _, _ in first.values()), first
        texts = self.run_all(inputs, "--format", "text")
        assert all(code == 0 and out for code, out, _ in texts.values()), texts
        for command in ("flow", "maxflow"):
            args = FUZZ_CASES[command][0]
            code, out, _ = call_main(
                command, "--input", str(inputs[command]), *args, "--format", "dot"
            )
            assert code == 0 and out.startswith("graph network {")
        with pytest.raises(SystemExit) as usage:
            call_main("flow", "--input", str(inputs["flow"]))
        assert usage.value.code == 2
        with pytest.raises(SystemExit) as version:
            call_main("--version")
        assert version.value.code == 0
        assert self.run_all(inputs) == first
        assert cli.build_parser() is cli.build_parser()

    def test_json_reports_render_no_text_or_dot(self, inputs, monkeypatch):
        def unused(*_):
            raise AssertionError("rendered for a JSON report")

        monkeypatch.setattr(cli, "solution_dot", unused)
        monkeypatch.setattr(cli, "_flow_text", unused)
        for command in ("flow", "maxflow", "plan"):
            args = FUZZ_CASES[command][0]
            code, out, err = call_main(command, "--input", str(inputs[command]), *args)
            assert code == 0, err
            json.loads(out)


def collector_requests():
    """Argv templates (``{name}`` is a path from the ``paths`` fixture) and
    their exit codes: every command, text and DOT renders, an output file,
    and requests that exit 3 and 4."""
    cases = [
        (f"{command}-json", [command, "--input", f"{{{command}}}", *args], 0)
        for command, (args, _) in FUZZ_CASES.items()
    ]
    renders = {"flow": "dot", "plan": "text", "simulate": "text", "concat": "text"}
    for command, fmt in renders.items():
        argv = [command, "--input", f"{{{command}}}", *FUZZ_CASES[command][0], "--format", fmt]
        cases.append((f"{command}-{fmt}", argv, 0))
    sim = ["simulate", "--input", "{simulate}", "--target", "1"]
    flow = ["flow", "--input", "{flow}", "--target"]
    cases += [
        ("output-file", ["maxflow", "--input", "{maxflow}", "--output", "{out}"], 0),
        ("bad-json", ["mincut", "--input", "{bad}"], 3),
        ("missing-input", ["mincut", "--input", "{missing}"], 3),
        ("unwritable-output", ["mincut", "--input", "{mincut}", "--output", "{root}"], 3),
        ("bad-noise", [*sim, "--noise-p", "x"], 3),
        ("delta-default", [*flow, "1", "--delta-default", "2"], 3),
        ("trials-cap", [*sim, "--trials", str(cli.MAX_TRIALS + 1)], 3),
        ("negative-seed", [*sim, "--seed", "-1"], 3),
        ("no-models", ["rate", "--input", "{mincut}"], 3),
        ("swap-noise", ["concat", "--input", "{concat}", "--target", "1", "--noise-p", "2"], 3),
        ("infeasible", [*flow, "99"], 4),
        ("negative-target", [*flow, "-1"], 4),
    ]
    return [pytest.param(argv, code, id=name) for name, argv, code in cases]


class TestCyclicCollector:
    """``main`` pauses Python's cyclic garbage collector for each request.
    That is sound only while requests make no reference cycles: a cycle
    made with the collector off stays in memory until something collects
    it."""

    @pytest.fixture(scope="class")
    def paths(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("collector")
        paths = {name: str(root / f"{name}.json") for name in ("missing", "out", "bad")}
        paths["root"] = str(root)
        for command, (_, doc) in FUZZ_CASES.items():
            paths[command] = str(root / f"{command}.json")
            (root / f"{command}.json").write_text(json.dumps(doc))
        (root / "bad.json").write_text("{not json")
        # The first call in a process imports modules and builds the
        # parser, which leaves some cyclic garbage once.
        for command, (args, _) in FUZZ_CASES.items():
            assert call_main(command, "--input", paths[command], *args)[0] == 0
        return paths

    @pytest.mark.parametrize(("argv", "code"), collector_requests())
    def test_request_makes_no_reference_cycles(self, paths, argv, code):
        argv = [arg.format(**paths) for arg in argv]
        was_enabled = gc.isenabled()
        gc.collect()
        gc.disable()
        try:
            got, _, err = call_main(*argv)
            unreachable = gc.collect()
        finally:
            if was_enabled:
                gc.enable()
        assert got == code, err
        assert unreachable == 0

    @pytest.mark.parametrize("enabled", [True, False], ids=["caller-enabled", "caller-disabled"])
    @pytest.mark.parametrize("outcome", ["success", "exit-3", "exit-2", "crash"])
    def test_caller_state_is_restored(self, paths, monkeypatch, outcome, enabled):
        seen = []
        read_input = cli._read_input

        def probe(path):
            seen.append(gc.isenabled())
            if outcome == "crash":
                raise RuntimeError("crash")
            return read_input(path)

        monkeypatch.setattr(cli, "_read_input", probe)
        argv = {
            "success": ["mincut", "--input", paths["mincut"]],
            "exit-3": ["mincut", "--input", paths["bad"]],
            "exit-2": ["flow", "--input", paths["flow"]],
            "crash": ["mincut", "--input", paths["mincut"]],
        }[outcome]
        was_enabled = gc.isenabled()
        frozen = gc.get_freeze_count()
        (gc.enable if enabled else gc.disable)()
        try:
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                try:
                    code = cli.main(argv)
                except SystemExit as exc:
                    code = exc.code
                except RuntimeError:
                    code = None
            after = gc.isenabled()
        finally:
            (gc.enable if was_enabled else gc.disable)()
        assert code == {"success": 0, "exit-3": 3, "exit-2": 2, "crash": None}[outcome]
        assert after is enabled
        # Only the process entry freezes the heap, never an in-process call.
        assert gc.get_freeze_count() == frozen
        # The collector is off while the request runs.
        assert seen == ([] if outcome == "exit-2" else [False])


# Usage: EXIT_PROBE PROBE_FILE module|script ARGV... Runs ARGV as
# ``python -m ebitflow`` does (``module``) or as the ``ebitflow`` script does
# (``script``). An atexit handler, which runs after the request, writes to
# PROBE_FILE whether the collector is on and how many objects are frozen.
EXIT_PROBE = """
import atexit, gc, json, runpy, sys
probe_file, launch = sys.argv[1:3]
def record():
    with open(probe_file, "w") as fh:
        json.dump({"enabled": gc.isenabled(), "frozen": gc.get_freeze_count()}, fh)
atexit.register(record)
sys.argv = ["ebitflow", *sys.argv[3:]]
if launch == "module":
    runpy.run_module("ebitflow", run_name="__main__", alter_sys=True)
else:
    from ebitflow.__main__ import main
    sys.exit(main())
"""


def entry_requests():
    """Argv templates (``{name}`` is a path from the ``paths`` fixture of
    ``TestProcessEntry``) and their exit codes: every command, plus a usage
    error and requests that exit 3 and 4."""
    cases = [
        (command, [command, "--input", f"{{{command}}}", *args], 0)
        for command, (args, _) in FUZZ_CASES.items()
    ]
    cases += [
        ("exit-2", ["flow", "--input", "{flow}"], 2),
        ("exit-3", ["mincut", "--input", "{bad}"], 3),
        ("exit-4", ["flow", "--input", "{flow}", "--target", "99"], 4),
    ]
    return [pytest.param(argv, code, id=name) for name, argv, code in cases]


class TestProcessEntry:
    """``python -m ebitflow`` and the ``ebitflow`` script run a request
    through ``ebitflow.__main__.main``, which keeps the collector off and
    freezes the heap before the interpreter exits."""

    @pytest.fixture(scope="class")
    def paths(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("entry")
        paths = {"bad": str(root / "bad.json")}
        (root / "bad.json").write_text("{not json")
        for command, (_, doc) in FUZZ_CASES.items():
            paths[command] = str(root / f"{command}.json")
            (root / f"{command}.json").write_text(json.dumps(doc))
        return paths

    @staticmethod
    def launched(*args):
        """Exit code, stdout and stderr bytes of one launched process."""
        env = dict(os.environ)
        env.pop("EBITFLOW_FORMAT", None)
        proc = subprocess.run([sys.executable, *args], capture_output=True, env=env)
        return proc.returncode, proc.stdout, proc.stderr

    @staticmethod
    def in_process(argv):
        code, out, err = TestCommandImports.in_process(argv)
        return code, out.encode(), err.encode()

    @pytest.mark.parametrize(("argv", "code"), entry_requests())
    def test_process_matches_in_process(self, paths, argv, code):
        # Dev mode would print a warning for a resource a request leaves
        # open, whose finalizer a frozen heap would never run.
        argv = [arg.format(**paths) for arg in argv]
        expected = self.in_process(argv)
        assert expected[0] == code
        got = self.launched("-X", "dev", "-W", "error", "-m", "ebitflow", *argv)
        assert got == expected

    @pytest.mark.parametrize("launch", ["module", "script"])
    @pytest.mark.parametrize(
        ("argv", "code"),
        [
            (["mincut", "--input", "{mincut}"], 0),
            (["mincut", "--input", "{bad}"], 3),
            (["flow", "--input", "{flow}"], 2),
        ],
        ids=["exit-0", "exit-3", "exit-2"],
    )
    def test_heap_is_frozen_at_exit(self, paths, tmp_path, launch, argv, code):
        probe_file = tmp_path / "probe.json"
        argv = [arg.format(**paths) for arg in argv]
        got, _, err = self.launched("-c", EXIT_PROBE, str(probe_file), launch, *argv)
        assert got == code, err
        probe = json.loads(probe_file.read_text())
        assert probe["enabled"] is False
        assert probe["frozen"] > 0


# Strings that look like the boundaries the writer patches, or need escapes.
WRITER_TEXT = st.one_of(
    st.sampled_from(["},\n  {", "],\n    [", '"', "\\", "\x00\x1f\n\t", "é✓\U0001d11e", ""]),
    st.text(max_size=6),
)
WRITER_FLOATS = st.sampled_from(
    [float("nan"), float("inf"), float("-inf"), -0.0, 1e300, 1e-7, 0.5]
)
WRITER_SCALARS = st.one_of(
    st.none(), st.booleans(), st.integers(), WRITER_FLOATS, WRITER_TEXT
)
# Mixing key kinds in one dict makes the sort fail, as json.dumps does.
WRITER_KEYS = st.one_of(
    WRITER_TEXT, st.integers(-3, 3), WRITER_FLOATS, st.booleans(), st.none()
)
LEAF_DICTS = st.dictionaries(WRITER_TEXT, WRITER_SCALARS, min_size=1, max_size=3)
WRITER_VALUES = st.recursive(
    WRITER_SCALARS,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.lists(inner, max_size=4).map(tuple),
        st.dictionaries(WRITER_TEXT, inner, max_size=4),
        st.dictionaries(WRITER_KEYS, inner, max_size=3),
        st.lists(LEAF_DICTS, max_size=4),
        st.lists(st.lists(WRITER_SCALARS, min_size=1, max_size=3), max_size=4),
        # leaf dicts with one empty member
        st.tuples(st.lists(LEAF_DICTS, min_size=1, max_size=3), st.integers(0, 3)).map(
            lambda t: t[0][: t[1]] + [{}] + t[0][t[1] :]
        ),
    ),
    max_leaves=30,
)


def test_json_text_refuses_an_int_too_long_to_write():
    # json.dumps raises ValueError on such an int; a report figure that long
    # is TooLarge, so the command exits 3 with a JSON error.
    with pytest.raises(ebitflow.TooLarge, match="more digits than Python writes"):
        cli._json_text({"result": {"total_cost_milli": 10**5000}})


@settings(derandomize=True, max_examples=400, deadline=None)
@given(WRITER_VALUES)
def test_json_text_matches_json_dumps(value):
    try:
        expected = json.dumps(value, sort_keys=True, indent=2)
    except Exception as exc:
        with pytest.raises(type(exc)):
            cli._json_text(value)
    else:
        assert cli._json_text(value) == expected
