"""Benchmark for the ebitflow command line, end to end and layer by layer.

Usage, from the root of a checkout:

    python3 bench/run.py --workload route --seed 1 --seconds 20 --trace 0

``--workload`` is one of route, sim-verify, hier-concat, cli-small, or
``all`` to run each in turn. Every request is one CLI command sent by a
single client in a closed loop: the next request starts when the previous
one has finished. The program sees only the generated JSON inputs.

With ``--trace 0`` the run sets up five times (import the program in a
fresh interpreter, write the inputs, warm up), three times before the
timed window and twice after it, and reports the median set-up time. It
repeats the request cycle until ``--seconds`` have passed and at least 100
requests have finished, so the 90th percentile has ten samples beyond it,
and reports throughput, latency percentiles and peak RSS. A speed probe
runs between requests: a fixed piece of Python object work for the
in-process workloads, a bare interpreter start for cli-small and around
each set-up, which begins with one. Each timed figure is scaled by the
probes on either side of it, so that the speed of a shared host, which
other tenants move by up to a factor of two within seconds, cancels. The
unscaled figures are printed on the lines above the JSON.

With ``--trace 1`` it runs a fixed list of requests, each once untraced and
once traced, and reports per-layer times and counts from spans recorded
around the calls between ebitflow's modules, plus the tracing overhead. The
spans are written to ``.bench_work/``.

Every output is checked outside the timed windows: flows against a
networkx oracle, simulations against the closed-form pass probability,
hierarchical plans against their own sums and the oracle, and subprocess
output against in-process output byte for byte. A request that raises,
exits non-zero, fails a check or differs from its first run counts as
failed and its latency as infinite. The last line of standard output is a
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.

Requests that fail through a known defect of the program (the 1000-hop
chain of ``route``) run once per run, outside the window, and are reported
on a line of their own rather than as failed requests.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
from dataclasses import dataclass
from importlib import metadata
from pathlib import Path
from time import perf_counter

from checks import CHECKS, Oracle
from tracing import Tracer, dump_spans, load_spans, summarize
from workloads import LADDERS, WORKLOADS, Request, Workload, canonical, generate, lower_networks

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

MIN_REQUESTS = 100
# Set-up is timed before and after the window, so that its median does not
# rest on one stretch of the machine's speed.
SETUP_BEFORE = 3
SETUP_AFTER = 2
TRACE_CYCLES = 2
SUBPROCESS_TIMEOUT_S = 60
QUBIT_CLASSES = tuple(2 * paths * hops for paths, hops, _ in LADDERS.values())

END_TO_END = {
    "setup_s": "s",
    "requests_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "peak_rss_mb": "MB",
}


@dataclass
class Result:
    """What a run prints: ``metrics`` go into the JSON line, ``extra`` only
    into the human-readable lines above it."""

    metrics: dict[str, tuple[float, str]]
    extra: dict[str, tuple[float, str]]
    correct: bool
    attempted: int
    failed: int
    problems: list[str]


@dataclass
class Outcome:
    seconds: float
    ok: bool
    output: str
    error: str = ""


class InProcess:
    """Runs requests through ``ebitflow.cli.main`` in this interpreter."""

    # Timed figures are reported as on a host where probe() takes this
    # long: about its fastest time on a 2-vCPU VM.
    PROBE_REFERENCE_S = 0.0012

    def __init__(self) -> None:
        import ebitflow.cli

        self.cli = ebitflow.cli

    def call(self, argv: list[str]) -> Outcome:
        out, err = io.StringIO(), io.StringIO()
        start = perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = self.cli.main(argv)
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:  # a crash of the program is a failed request
            return Outcome(perf_counter() - start, False, "", f"{type(exc).__name__}: {exc}")
        seconds = perf_counter() - start
        return Outcome(seconds, code == 0, out.getvalue(), err.getvalue().strip())

    @staticmethod
    def probe() -> float:
        """Seconds to build, sort and index a few thousand small objects, the
        kind of work the program does, apart from the program. The garbage
        collector is paused, so only the host's speed moves the figure.
        Shared caches and memory bandwidth slow it as they slow the program,
        which a tight arithmetic loop barely feels."""
        gc.disable()
        try:
            start = perf_counter()
            rows = [{"id": i, "pair": (i, i + 1), "name": str(i * 7919 % 3001)} for i in range(1500)]
            rows.sort(key=lambda r: r["name"])
            index = {(r["name"], r["id"]): r for r in rows}
            sum(r["pair"][1] for r in index.values())
            return perf_counter() - start
        finally:
            gc.enable()


def _child_env() -> dict[str, str]:
    return {**os.environ, "PYTHONPATH": str(SRC)}


class Subprocess:
    """Runs each request as its own ``python -m ebitflow`` process."""

    # About probe()'s fastest time on a 2-vCPU VM.
    PROBE_REFERENCE_S = 0.015

    def __init__(self, launcher: list[str] | None = None) -> None:
        self.launcher = launcher or [sys.executable, "-m", "ebitflow"]

    def call(self, argv: list[str], extra: list[str] = ()) -> Outcome:
        start = perf_counter()
        try:
            proc = subprocess.run(
                [*self.launcher, *extra, *argv],
                capture_output=True,
                env=_child_env(),
                cwd=ROOT,
                timeout=SUBPROCESS_TIMEOUT_S,
            )
        except subprocess.TimeoutExpired:
            return Outcome(perf_counter() - start, False, "", "timed out")
        seconds = perf_counter() - start
        return Outcome(
            seconds,
            proc.returncode == 0,
            # surrogateescape keeps every byte, so equal text means equal bytes
            proc.stdout.decode("utf-8", "surrogateescape"),
            proc.stderr.decode("utf-8", "replace").strip(),
        )

    @staticmethod
    def probe() -> float:
        """Seconds to start and stop a bare interpreter. A request's own
        start-up slows with the host's process creation and page cache, which
        a loop inside this process does not feel."""
        start = perf_counter()
        subprocess.run([sys.executable, "-S", "-c", "pass"], check=True)
        return perf_counter() - start


def import_probe() -> None:
    subprocess.run([sys.executable, "-c", "import ebitflow.cli"], env=_child_env(), check=True)


def set_up(name: str, seed: int, workdir: Path):
    """Import the program afresh, write the inputs and run the warm-up pass.
    Returns the workload and the runner for its requests."""
    import_probe()
    w = generate(name, seed)
    w.write(workdir)
    runner = InProcess() if w.in_process else Subprocess()
    for req in w.warmup:
        runner.call(req.argv(workdir))
    return w, runner


def verdicts(w: Workload, requests: list[Request], outcomes: list[Outcome], workdir: Path) -> list[list[str]]:
    """Problems found in each outcome; an empty list means a correct output."""
    oracle = Oracle()
    reference = None if w.in_process else InProcess()
    out = []
    for req, o in zip(requests, outcomes):
        if not o.ok:
            out.append([f"failed: {o.error.splitlines()[-1] if o.error else 'no output'}"])
            continue
        problems = []
        if reference is not None:
            expected = reference.call(req.argv(workdir))
            if expected.output != o.output:
                problems.append("subprocess output differs from in-process output")
        check = CHECKS.get(req.command)
        if check is not None and req.json_output:
            problems.extend(check(req, json.loads(o.output)["result"], w, oracle))
        out.append(problems)
    return out


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def peak_rss_mb(in_process: bool) -> float:
    who = resource.RUSAGE_SELF if in_process else resource.RUSAGE_CHILDREN
    return resource.getrusage(who).ru_maxrss / 1024


def trials_of(req: Request) -> int:
    return int(req.arg("--trials") or 0) if req.command == "simulate" else 0


def scaled(seconds: float, probe_s: float, reference_s: float) -> float:
    """``seconds`` as they would read on a host where the runner's probe
    takes ``reference_s`` instead of ``probe_s``: the host's own speed, which
    other tenants of a shared machine move by up to a factor of two within
    seconds, cancels."""
    return seconds * reference_s / probe_s


def timed_run(name: str, seed: int, seconds: float, workdir: Path) -> Result:
    """End-to-end metrics of one workload, from an untraced timed window."""
    # Set-up starts with a fresh interpreter importing the program, so it is
    # scaled by the interpreter-start probe on either side of it.
    samples, raw_samples = [], []

    def timed_set_up(i: int):
        before = Subprocess.probe()
        start = perf_counter()
        made = set_up(name, seed, workdir / f"setup{i}")
        took = perf_counter() - start
        raw_samples.append(took)
        probe = (before + Subprocess.probe()) / 2
        samples.append(scaled(took, probe, Subprocess.PROBE_REFERENCE_S))
        return made

    for i in range(SETUP_BEFORE):
        w, runner = timed_set_up(i)
    inputs = workdir / f"setup{SETUP_BEFORE - 1}"

    # In-process workloads get one untimed cycle first: the first pass over
    # large inputs runs slower than later ones. The first output of each
    # request is the one the checks examine.
    first = [runner.call(req.argv(inputs)) for req in w.cycle] if w.in_process else []
    # cycle index, raw seconds, scaled seconds, same output as the first run
    records: list[tuple[int, float, float, bool]] = []
    # The probe runs between requests; each request is scaled by the mean of
    # the probes on either side of it.
    reference = runner.PROBE_REFERENCE_S
    probes = [runner.probe()]
    start = perf_counter()
    while perf_counter() - start < seconds or len(records) < MIN_REQUESTS:
        i = len(records) % len(w.cycle)
        o = runner.call(w.cycle[i].argv(inputs))
        probes.append(runner.probe())
        if len(first) < len(w.cycle):
            first.append(o)
        same = o.ok == first[i].ok and o.output == first[i].output
        records.append((i, o.seconds, scaled(o.seconds, (probes[-2] + probes[-1]) / 2, reference), same))
    wall = perf_counter() - start
    rss = peak_rss_mb(w.in_process)
    for i in range(SETUP_BEFORE, SETUP_BEFORE + SETUP_AFTER):
        timed_set_up(i)

    problems = verdicts(w, w.cycle, first, inputs)
    failed_at = [not first[i].ok or bool(problems[i]) or not same for i, _, _, same in records]
    latencies = [math.inf if bad else s for (_, _, s, _), bad in zip(records, failed_at)]
    raw_latencies = [math.inf if bad else s for (_, s, _, _), bad in zip(records, failed_at)]
    ok_records = [(i, s) for (i, _, s, _), bad in zip(records, failed_at) if not bad]
    sim_time = sum(s for i, s in ok_records if trials_of(w.cycle[i]))
    metrics = {
        "setup_s": statistics.median(samples),
        "requests_per_s": len(ok_records) / sum(s for _, _, s, _ in records),
        "latency_p50_ms": percentile(latencies, 0.5) * 1000,
        "latency_p90_ms": percentile(latencies, 0.9) * 1000,
        "peak_rss_mb": rss,
    }
    extra = {
        "failed_ratio": (sum(failed_at) / len(records), "ratio"),
        "window_s": (wall, "s"),
        "probe_ms": (statistics.median(probes) * 1000, "ms"),
        "unscaled_setup_s": (statistics.median(raw_samples), "s"),
        "unscaled_requests_per_s": (len(ok_records) / sum(s for _, s, _, _ in records), "1/s"),
        "unscaled_latency_p50_ms": (percentile(raw_latencies, 0.5) * 1000, "ms"),
        "unscaled_latency_p90_ms": (percentile(raw_latencies, 0.9) * 1000, "ms"),
    }
    if sim_time:
        extra["trials_per_s"] = (sum(trials_of(w.cycle[i]) for i, _ in ok_records) / sim_time, "1/s")
    lines = _problem_lines(w.cycle, problems)
    changed = sum(not same for *_, same in records)
    if changed:
        lines.append(f"  {changed} requests gave other output than their first run")
    wrong = changed > 0 or any(o.ok and p for o, p in zip(first, problems))
    wrong |= known_defects(w, runner, inputs, lines)
    return Result(
        {k: (v, END_TO_END[k]) for k, v in metrics.items()},
        extra,
        not wrong,
        len(records),
        sum(failed_at),
        lines,
    )


def known_defects(w: Workload, runner, inputs: Path, lines: list[str]) -> bool:
    """Runs each request of ``w.defects`` once and reports it on ``lines``.
    A request that still fails is the known defect, not a failed request; one
    that succeeds is checked. Returns whether any output was wrong."""
    outcomes = [runner.call(req.argv(inputs)) for req in w.defects]
    problems = verdicts(w, w.defects, outcomes, inputs)
    for req, o, p in zip(w.defects, outcomes, problems):
        state = "still fails" if not o.ok else "wrong output" if p else "now passes"
        detail = "; ".join(p) if o.ok else p[0]
        lines.append(f"  known defect, {state}: {req.command} {req.input} {' '.join(req.args)}: {detail}".rstrip(": "))
    return any(o.ok and p for o, p in zip(outcomes, problems))


def _problem_lines(requests: list[Request], problems: list[list[str]]) -> list[str]:
    return [
        f"  {req.command} {req.input} {' '.join(req.args)}: {'; '.join(p)}"
        for req, p in zip(requests, problems)
        if p
    ]


class TracedInProcess:
    """In-process requests with the tracer installed around each one."""

    def __init__(self, runner: InProcess) -> None:
        self.runner = runner
        self.tracer = Tracer()
        self.spans = self.tracer.spans
        self.child_times: list[tuple[float, float]] = []

    def call(self, argv: list[str], index: int) -> Outcome:
        self.tracer.request = index
        self.tracer.install()
        try:
            return self.runner.call(argv)
        finally:
            self.tracer.uninstall()


class TracedSubprocess:
    """Subprocess requests through ``child.py``, which records the spans and
    the child's (import, main) seconds in a file per request."""

    def __init__(self, workdir: Path) -> None:
        self.runner = Subprocess([sys.executable, str(BENCH / "child.py")])
        self.workdir = workdir
        self.spans: list = []
        self.child_times: list[tuple[float, float]] = []

    def call(self, argv: list[str], index: int) -> Outcome:
        spans_file = self.workdir / f"spans-{index}.json"
        outcome = self.runner.call(argv, [str(spans_file)])
        child, times = load_spans(spans_file)
        offset = len(self.spans)
        for s in child:
            s.request = index
            s.parent = None if s.parent is None else s.parent + offset
        self.spans.extend(child)
        self.child_times.append((times["import_s"], times["main_s"]))
        return outcome


def traced_run(name: str, seed: int, workdir: Path, meta: dict) -> Result:
    """Per-layer metrics of one workload, from a fixed list of requests."""
    w, runner = set_up(name, seed, workdir)
    requests = w.cycle * TRACE_CYCLES

    # Each request runs once untraced and once traced, and which goes first
    # alternates, so neither drift nor a warm second run reads as overhead.
    tracing = TracedInProcess(runner) if w.in_process else TracedSubprocess(workdir)
    plain, traced = [], []
    for i, req in enumerate(requests):
        if i % 2:
            traced.append(tracing.call(req.argv(workdir), i))
            plain.append(runner.call(req.argv(workdir)))
        else:
            plain.append(runner.call(req.argv(workdir)))
            traced.append(tracing.call(req.argv(workdir), i))
    spans, child_times = tracing.spans, tracing.child_times

    problems = verdicts(w, requests, plain, workdir)
    for p, a, b in zip(problems, plain, traced):
        if (a.ok, a.output) != (b.ok, b.output):
            p.append("output differs with tracing on")
    failed = sum(bool(p) for p in problems)
    wrong = any(o.ok and p for o, p in zip(plain, problems))

    stats = summarize(spans)

    def stat(span: str, field: str) -> float:
        return getattr(stats[span], field) if span in stats else 0

    def facts(span: str, key: str, **where) -> list:
        return [
            s.facts[key]
            for s in spans
            if s.name == span and key in s.facts and all(s.facts.get(k) == v for k, v in where.items())
        ]

    m: dict[str, tuple[float, str]] = {}
    for span in (
        "netgraph.load_network", "netgraph.min_cut", "mincostflow.min_cost_flow",
        "mincostflow.solution_report", "pathplan.decompose_flow",
        "pathplan.plan_channel_uses", "pathplan.build_swap_schedule",
        "pathplan.serialize_schedule", "stabsim.fidelity_estimate", "stabsim.exact",
        "concat.load_hierarchical", "concat.aggregate_level", "concat.plan_lower_uses",
        "concat.total_lower_cost", "rates.asymptotic_rate",
    ):
        m[f"{span}.busy_s"] = (stat(span, "busy_s"), "s")
    m["netgraph.min_cut.calls"] = (stat("netgraph.min_cut", "calls"), "count")
    m["mincostflow.min_cost_flow.self_s"] = (stat("mincostflow.min_cost_flow", "self_s"), "s")
    m["mincostflow.min_cost_flow.calls"] = (stat("mincostflow.min_cost_flow", "calls"), "count")
    m["pathplan.bundles"] = (sum(facts("pathplan.decompose_flow", "bundles")), "count")
    m["pathplan.qubits"] = (sum(facts("pathplan.build_swap_schedule", "qubits")), "count")

    trials = sum(facts("stabsim.fidelity_estimate", "trials"))
    m["stabsim.trials"] = (trials, "count")
    sim_seconds = sum(o.seconds for req, o in zip(requests, plain) if trials_of(req))
    m["stabsim.trials_per_s"] = (sum(map(trials_of, requests)) / sim_seconds if sim_seconds else 0, "1/s")
    for q in QUBIT_CLASSES:
        n = sum(facts("stabsim.fidelity_estimate", "trials", qubits=q))
        busy = sum(
            s.duration for s in spans if s.name == "stabsim.fidelity_estimate" and s.facts.get("qubits") == q
        )
        m[f"stabsim.trial_ms.q{q}"] = (busy / n * 1000 if n else 0, "ms")
        m[f"workload.trial_share.q{q}"] = (n / trials if trials else 0, "ratio")

    solves = sum(1 for s in spans if s.name == "mincostflow.min_cost_flow" and s.via == "concat")
    lower_solves = solves - stat("concat.aggregate_level", "calls")
    lowers = [lower_networks(w.docs[req.input]) for req in requests if req.command == "concat"]
    distinct = sum(len({canonical(n) for n in nets}) for nets in lowers)
    total_lowers = sum(len(nets) for nets in lowers)
    m["concat.lower_solves"] = (lower_solves, "count")
    m["concat.distinct_lowers"] = (distinct, "count")
    m["concat.lower_solve_yield"] = (distinct / lower_solves if lower_solves else 0, "ratio")
    m["workload.duplicate_lower_share"] = ((total_lowers - distinct) / total_lowers if total_lowers else 0, "ratio")

    m["cli.main.self_s"] = (stat("cli.main", "self_s"), "s")
    if child_times:
        m["cli.import_ms"] = (statistics.median(t[0] for t in child_times) * 1000, "ms")
        m["cli.process_ms"] = (
            statistics.median((o.seconds - a - b) for o, (a, b) in zip(traced, child_times)) * 1000,
            "ms",
        )
    else:
        m["cli.import_ms"] = m["cli.process_ms"] = (0, "ms")
    m["trace.overhead_ratio"] = (sum(o.seconds for o in traced) / sum(o.seconds for o in plain), "ratio")
    scan = sum(o.seconds for req, o in zip(requests, plain) if req.command == "price-scan")
    m["workload.price_scan_time_share"] = (scan / sum(o.seconds for o in plain), "ratio")
    m["workload.numpy_request_share"] = (
        sum(req.command == "simulate" for req in requests) / len(requests),
        "ratio",
    )

    WORK.mkdir(exist_ok=True)
    dump_spans(WORK / f"spans-{name}-{seed}.json", spans, meta=meta, requests=[r.argv(Path(".")) for r in requests])
    return Result(m, {}, not wrong, len(requests), failed, _problem_lines(requests, problems))


def git_sha() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def run_metadata(seed: int) -> dict:
    return {
        "seed": seed,
        "git_sha": git_sha(),
        "python": sys.version.split()[0],
        "numpy": metadata.version("numpy"),
        "nproc": os.cpu_count(),
        "loadavg_at_start": os.getloadavg(),
    }


def run_all(args) -> int:
    """Run every workload as its own process and combine their results."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        cmd = [
            sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace),
        ]
        proc = subprocess.run(cmd, capture_output=True, text=True)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            return proc.returncode
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for key, value in result["metrics"].items():
            combined["metrics"][f"{name}.{key}"] = value
    print(json.dumps(combined))
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (SRC / "ebitflow" / "__init__.py").is_file():
        print(f"error: no ebitflow sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    os.environ.pop("EBITFLOW_FORMAT", None)
    if args.workload == "all":
        return run_all(args)

    meta = run_metadata(args.seed)
    print("meta " + json.dumps(meta))
    workdir = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        if args.trace:
            r = traced_run(args.workload, args.seed, workdir, meta)
        else:
            r = timed_run(args.workload, args.seed, args.seconds, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    print(f"{args.workload} seed {args.seed}: {r.attempted} requests, {r.failed} failed")
    for line in r.problems:
        print(line)
    for key, (value, unit) in {**r.metrics, **r.extra}.items():
        print(f"  {key:36s} {value:14.6f} {unit}")
    result = {
        "correct": r.correct,
        "attempted": r.attempted,
        "failed": r.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in r.metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
