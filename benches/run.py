"""Rollout benchmark: end-to-end metrics, output checks and a traced run.

    python3 benches/run.py --workload mock-k8 --seed 1 --seconds 36 --trace 0

Run from the repository root. The program is imported from ``src/``; a
checkout without it fails with exit code 2 and prints no result.

Each run generates its inputs from ``--seed`` (see ``workload.py``), drives
the program through ``structrl.cli.main`` in this process, checks every
output, and prints one JSON line last: ``correct``, ``attempted``, ``failed``
and ``metrics``. With ``--trace 0`` the metrics are the end-to-end ones; with
``--trace 1`` they are per-layer figures from spans recorded around the
program's public functions (see ``spans.py``).

Workloads, all K=8 samples per query. Each names its own stages:

- ``mock-k8``: a rollout of 32 queries x 10 docs on the mock backend,
  serial. The backend is nearly free, so CPU layers (validate, prompt build,
  JSONL) dominate. Own stage: ``structrl rollout``.
- ``http-k8``: a rollout of 24 queries x 4 short docs against the loopback
  stub in its own process (5-10 ms per request, ~2% transient 503s),
  ``--parallel 2``. Backend waiting dominates. Own stage: ``structrl rollout``.
- ``offline``: re-scores the ``rollouts.jsonl`` of a 48-query mock rollout
  (``score-export``, then ``sweep-lambda`` over 4 lambdas) and runs
  ``density --synthetic`` over 2000 instances. No backend or trajectory code
  runs in its own stages, so a record-format change that helps writes but
  costs reads shows here. Own stages: re-scoring and density.

Every workload reports every metric, so each timed iteration runs every
stage once: a set-up probe, the rollout, re-scoring of the first rollout and
density. Iterations repeat for ``--seconds`` and at least MIN_ITERATIONS
times, so each metric's timings are spread over the whole run. Each stage's
time goes to stderr.

End-to-end metrics, each the slow quartile over the run's stages of that
kind (see ``Stages``):

- ``setup_s``: time from starting a fresh interpreter until
  ``structrl.cli`` is imported, the dataset is loaded and the backend is
  built (for http-k8, until one request succeeded); one probe an iteration.
- ``samples_per_s``: pairs per second of wall time of the whole
  ``structrl rollout`` call, artifact writes included.
- ``rescore_records_per_s``: record passes per second through
  ``score-export`` plus ``sweep-lambda``; one pass is one record through one
  command or one lambda.
- ``density_instances_per_s``: synthetic density instances per second.
- ``ok_frac``: 1 - failed/attempted over the workload's own stages. Rollout
  workloads count failed pairs, offline counts commands that exit nonzero,
  and a run whose output check fails counts as fully failed. (It is reported
  as the success share because a metric that is 0 on a healthy run has no
  relative bound.)
- ``peak_rss_mb``: ``ru_maxrss`` of this process.

Output checks: artifacts of one seed are byte-identical across iterations;
each pair's breakdown equals the generator's expected reward; ``score-export``
reproduces the rollout's ``training_signals.jsonl`` byte for byte; the sweep
means equal those of the expected rewards; every density instance passes.

With ``--trace 1`` iterations alternate untraced and traced, and only the
workload's own stages are traced. Per-layer figures come from the first
traced iteration; ``trace.overhead_frac`` compares the median traced and
untraced wall times of the own stages. Spans are written to ``.bench_out/``.
The server-side figures (``backends.server_ms_p50``, ``.overhead_ms_p50``,
``.max_in_flight``, ``.same_prompt_overlap_frac``) are the stub's own counts
and are 0 on the workloads without a stub.
"""
from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

LAMBDAS = "0,0.1,0.2,0.3"
# every end-to-end metric is a quartile of at least this many timings
MIN_ITERATIONS = 5
# the group-time tail is the highest percentile with this many groups beyond it
TAIL_BEYOND = 10
RULES = (
    "PlaceholderFormat",
    "PlaceholderAnswer",
    "CopiedContent",
    "UnclosedTag",
    "MismatchedFormatName",
    "EmptyFormatBody",
    "NoAnswer",
)


@dataclass(frozen=True)
class Spec:
    queries: int
    docs: int
    doc_tokens: tuple[int, int]
    backend: str
    parallel: int
    density_n: int
    # the workload's own stages: they alone are traced and counted in
    # attempted/failed; the other stages run only to report every metric
    own: tuple[str, ...]


WORKLOADS = {
    "mock-k8": Spec(32, 10, (80, 200), "mock", 1, 1000, ("rollout",)),
    "http-k8": Spec(24, 4, (40, 80), "http", 2, 1000, ("rollout",)),
    "offline": Spec(48, 10, (80, 200), "mock", 1, 2000, ("rescore", "density")),
}


def _sha(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def _rank(values: list[float], q: float) -> float:
    """Nearest-rank percentile, q in (0, 1]."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


@dataclass(frozen=True)
class Timing:
    """One stage: units of work done and the wall seconds spent on them."""

    work: float
    wall: float


class Stages:
    """Timings of each kind of stage in one run; each also goes to stderr.

    A kind's figure is its slow quartile: the upper quartile of its times, or
    the lower quartile of its rates. On a shared host the speed switches
    between a steady slow state and bursts up to twice as fast, and the
    median of such a mix flips with the share of bursts in a run, while the
    slow quartile stays with the steady state.
    """

    def __init__(self) -> None:
        self.timings: dict[str, list[Timing]] = {}

    def add(self, kind: str, timing: Timing) -> Timing:
        self.timings.setdefault(kind, []).append(timing)
        print(f"{kind}: {timing.work:g} in {timing.wall:.6f} s", file=sys.stderr)
        return timing

    def seconds(self, kind: str) -> float:
        return statistics.quantiles([t.wall for t in self.timings[kind]], n=4)[2]

    def rate(self, kind: str) -> float:
        return statistics.quantiles([t.work / t.wall for t in self.timings[kind]], n=4)[0]


def call_cli(argv: list[str]) -> tuple[int, str, float]:
    """Run ``structrl.cli.main``; return exit code, its stdout and wall seconds."""
    from structrl.cli import main

    buf = io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(buf):
        code = main(argv)
    return code, buf.getvalue(), time.perf_counter() - start


class Stub:
    """The loopback server process and a client for its control endpoints."""

    def __init__(self, fixtures: Path, seed: int) -> None:
        import requests

        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "stub.py"), "--fixtures", str(fixtures), "--seed", str(seed)],
            stdout=subprocess.PIPE,
            text=True,
        )
        self.session = requests.Session()
        self.session.trust_env = False
        line = self.proc.stdout.readline()
        if not line.strip().isdigit():
            self.close()
            raise RuntimeError("stub did not report a port")
        self.url = f"http://127.0.0.1:{int(line)}"
        self.endpoint = f"{self.url}/v1/completions"

    def wait_ready(self, prompt: str, timeout: float = 30.0) -> None:
        """Block until a real completion request succeeds."""
        deadline = time.monotonic() + timeout
        while True:
            try:
                resp = self.session.post(self.endpoint, json={"prompt": prompt, "seed": 0}, timeout=5)
                if resp.status_code == 200 and resp.json()["choices"][0]["text"]:
                    return
            except OSError:
                pass
            if time.monotonic() > deadline:
                raise RuntimeError("stub never answered a completion request")
            time.sleep(0.05)

    def reset(self) -> None:
        self.session.post(f"{self.url}/reset", json={}, timeout=10).raise_for_status()

    def stats(self) -> dict:
        resp = self.session.get(f"{self.url}/stats", timeout=10)
        resp.raise_for_status()
        return resp.json()

    def close(self) -> None:
        self.session.close()
        self.proc.terminate()
        try:
            self.proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


def probe_setup(dataset: Path, kind: str, where: str) -> Timing:
    """Time from spawning a fresh interpreter until it reports ready."""
    start = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "probe.py"), str(dataset), kind, where],
        stdout=subprocess.PIPE,
        text=True,
    )
    try:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - start
    finally:
        proc.stdout.close()
        code = proc.wait(timeout=60)
    if line.strip() != "ready" or code != 0:
        raise RuntimeError(f"set-up probe failed with exit code {code}")
    return Timing(1, elapsed)


def install_tracing(tracer) -> None:
    """Wrap the program's public functions where their callers look them up."""

    def count_rules(report) -> None:
        for violation in getattr(report, "violations", ()):
            rule = getattr(violation.rule_id, "value", violation.rule_id)
            tracer.count(f"trajectory.rule.{rule}")

    wrap = tracer.wrap
    wrap("structrl.cli:cmd_rollout", "cli.rollout")
    wrap("structrl.cli:cmd_score_export", "cli.score_export")
    wrap("structrl.cli:cmd_sweep_lambda", "cli.sweep_lambda")
    wrap("structrl.cli:cmd_density", "cli.density")
    wrap("structrl.dataset:load_jsonl", "dataset.load")
    wrap("structrl.cli:make_backend", "backends.build", on_result=tracer.wrap_backend)
    wrap("structrl.cli:run_rollouts", "rollout.run", adopt=True)
    wrap(
        "structrl.rollout:rollout_one",
        "rollout.group",
        qid=lambda query, *args, **kwargs: getattr(query, "id", None),
        on_result=tracer.groups.append,
    )
    for name in ("build_main_prompt", "build_reinference_prompt"):
        wrap(f"structrl.rollout:{name}", "prompting.build")
    wrap("structrl.rollout:parse_trajectory", "trajectory.parse")
    wrap("structrl.rollout:validate", "trajectory.validate", on_result=count_rules)
    for name in ("direct_reward", "reinference_reward", "combined_reward"):
        wrap(f"structrl.rollout:{name}", "reward.score")
    wrap("structrl.rollout:group_advantages", "grpo.advantage")
    wrap("structrl.cli:objective", "grpo.objective")
    wrap("structrl.cli:write_training_signals", "grpo.signals_write")
    wrap("structrl.cli:write_rollout_jsonl", "rollout.write")
    wrap("structrl.cli:read_rollout_jsonl", "rollout.read")
    wrap("structrl.cli:rescore_records", "rollout.rescore")
    wrap("structrl.cli:generate_synthetic", "density.run")
    wrap("structrl.cli:run_corpus", "density.run")


def layer_metrics(tracer, stub_stats: dict | None, overhead_frac: float) -> dict:
    """Per-layer figures from one tracer's spans, counts and backend calls."""
    from spans import self_times

    selfs = self_times(tracer.spans)
    busy: dict[str, float] = {}
    own: dict[str, float] = {}
    calls: dict[str, int] = {}
    durations: dict[str, list[float]] = {}
    for span, self_s in zip(tracer.spans, selfs):
        dur = span.end - span.start
        busy[span.name] = busy.get(span.name, 0.0) + dur
        own[span.name] = own.get(span.name, 0.0) + self_s
        calls[span.name] = calls.get(span.name, 0) + 1
        durations.setdefault(span.name, []).append(dur * 1000.0)

    backend_calls = tracer.calls
    ok_calls = [(key, ms) for key, ok, ms in backend_calls if ok]
    # the server-side figures exist only where a server does: the http stub
    stub_stats = stub_stats or {"server_ms": {}, "max_in_flight": 0, "same_prompt_overlap": 0}
    server_ms = stub_stats["server_ms"]
    max_in_flight = stub_stats["max_in_flight"]
    overlap = stub_stats["same_prompt_overlap"] / max(1, stub_stats.get("requests", 0))
    paired = [(ms, server_ms[key]) for key, ms in ok_calls if key in server_ms]

    pairs = [p for g in tracer.groups for p in getattr(g, "pairs", ())]
    n_pairs = max(1, len(pairs))
    with_formats = [p for p in pairs if p.primary.has_formats()]
    groups = [tuple(g.advantages.advantages) for g in tracer.groups]
    group_ms = sorted(durations.get("rollout.group", []))
    beyond = min(TAIL_BEYOND, len(group_ms))
    at = len(group_ms) - beyond

    def busy_s(name: str) -> dict:
        return {"value": busy.get(name, 0.0), "unit": "s"}

    def m(value: float, unit: str = "count") -> dict:
        return {"value": value, "unit": unit}

    metrics = {
        "cli.rollout_self_s": m(own.get("cli.rollout", 0.0), "s"),
        "dataset.load_s": busy_s("dataset.load"),
        "prompting.calls": m(calls.get("prompting.build", 0)),
        "prompting.busy_s": busy_s("prompting.build"),
        "backends.calls": m(len(backend_calls)),
        "backends.busy_s": busy_s("backends.call"),
        "backends.call_ms_p50": m(_median([ms for _, _, ms in backend_calls]), "ms"),
        "backends.call_ms_p99": m(_rank([ms for _, _, ms in backend_calls], 0.99), "ms"),
        "backends.errors": m(len(backend_calls) - len(ok_calls)),
        "backends.retries": m(tracer.counts.get("retries", 0)),
        "backends.ok_per_attempt": m(len(ok_calls) / max(1, len(backend_calls)), "frac"),
        "backends.server_ms_p50": m(_median([srv for _, srv in paired]), "ms"),
        "backends.overhead_ms_p50": m(_median([ms - srv for ms, srv in paired]), "ms"),
        "backends.max_in_flight": m(max_in_flight),
        "backends.same_prompt_overlap_frac": m(overlap, "frac"),
        "trajectory.parse_calls": m(calls.get("trajectory.parse", 0)),
        "trajectory.parse_busy_s": busy_s("trajectory.parse"),
        "trajectory.validate_calls": m(calls.get("trajectory.validate", 0)),
        "trajectory.validate_busy_s": busy_s("trajectory.validate"),
        **{
            f"trajectory.rule.{rule}": m(tracer.counts.get(f"trajectory.rule.{rule}", 0))
            for rule in RULES
        },
        "reward.busy_s": busy_s("reward.score"),
        "reward.with_formats_frac": m(len(with_formats) / n_pairs, "frac"),
        "reward.self_contained_frac": m(
            sum(p.breakdown.reinf == 1.0 for p in pairs) / n_pairs, "frac"
        ),
        "reward.leaky_frac": m(
            sum(p.breakdown.direct == 1.0 and p.breakdown.reinf == 0.0 for p in with_formats)
            / n_pairs,
            "frac",
        ),
        "grpo.advantage_busy_s": busy_s("grpo.advantage"),
        "grpo.objective_busy_s": busy_s("grpo.objective"),
        "grpo.signals_write_s": busy_s("grpo.signals_write"),
        "grpo.zero_adv_group_frac": m(
            sum(all(a == 0.0 for a in adv) for adv in groups) / max(1, len(groups)), "frac"
        ),
        "rollout.groups": m(len(group_ms)),
        "rollout.group_ms_p50": m(_median(group_ms), "ms"),
        "rollout.group_ms_tail": m(group_ms[at - 1] if at > 0 else 0.0, "ms"),
        "rollout.group_tail_pct": m(100.0 * at / max(1, len(group_ms)), "pct"),
        "rollout.self_s": m(own.get("rollout.run", 0.0) + own.get("rollout.group", 0.0), "s"),
        "rollout.write_s": busy_s("rollout.write"),
        "rollout.read_s": busy_s("rollout.read"),
        "rollout.rescore_s": busy_s("rollout.rescore"),
        "density.busy_s": busy_s("density.run"),
        "trace.overhead_frac": m(overhead_frac, "frac"),
        "trace.missing": m(len(tracer.missing)),
    }
    return metrics


class Bench:
    """One workload run: inputs, stages, checks and the tallies behind the result."""

    def __init__(self, name: str, seed: int, work: Path) -> None:
        import workload

        self.spec = WORKLOADS[name]
        self.seed = seed
        self.work = work
        self.inputs = workload.generate(
            work / "inputs",
            seed,
            workload.Shape(self.spec.queries, self.spec.docs, self.spec.doc_tokens),
        )
        self.lambda_ = workload.LAMBDA
        self.k = workload.K
        self.stub: Stub | None = None
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.first: dict[str, str] = {}
        self.first_failed_pairs = 0

    def check(self, ok: bool, message: str) -> None:
        if not ok:
            self.problems.append(message)

    def same_as_first(self, label: str, digest: str) -> None:
        if self.first.setdefault(label, digest) != digest:
            self.problems.append(f"{label} differs between iterations of seed {self.seed}")

    # -- stages ------------------------------------------------------------

    def backend_args(self) -> list[str]:
        if self.stub is not None:
            return ["--backend", "http", "--endpoint", self.stub.endpoint]
        return ["--backend", "mock", "--fixtures", str(self.inputs.fixtures)]

    def start_backend(self) -> tuple[str, str]:
        """Start the stub for an HTTP workload; return the probe's backend arguments."""
        if self.spec.backend == "http":
            from structrl.prompting import build_main_prompt

            first = json.loads(self.inputs.dataset.read_text("utf-8").splitlines()[0])
            self.stub = Stub(self.inputs.fixtures, self.seed)
            self.stub.wait_ready(build_main_prompt(first["question"], first["docs"]))
            return "http", self.stub.endpoint
        return "mock", str(self.inputs.fixtures)

    def rollout(self, index: int) -> Timing:
        """One ``structrl rollout`` call; its work is the pairs attempted."""
        out = self.work / f"rollout{index}"
        if self.stub is not None:
            self.stub.reset()
        code, _, wall = call_cli(
            ["rollout", "--dataset", str(self.inputs.dataset), *self.backend_args(),
             "--k", str(self.k), "--lambda", str(self.lambda_), "--seed", "0",
             "--parallel", str(self.spec.parallel), "--out", str(out)]
        )
        pairs = self.spec.queries * self.k
        timing = Timing(pairs, wall)
        own = "rollout" in self.spec.own
        self.attempted += pairs if own else 0
        if code != 0:
            self.problems.append(f"rollout exited {code}")
            return timing
        self.same_as_first("rollouts.jsonl", _sha(out / "rollouts.jsonl"))
        self.same_as_first("training_signals.jsonl", _sha(out / "training_signals.jsonl"))
        if index == 0:
            self.first_failed_pairs = self.check_rollout(out / "rollouts.jsonl")
        else:
            shutil.rmtree(out)
        self.failed += self.first_failed_pairs if own else 0
        return timing

    def check_rollout(self, path: Path) -> int:
        """Compare every breakdown with the generator's; return failed pairs."""
        failed = wrong = 0
        with open(path, encoding="utf-8") as fh:
            records = [json.loads(line) for line in fh if line.strip()]
        self.check(len(records) == self.spec.queries, f"{len(records)} groups written")
        for record, row in zip(records, self.inputs.expected):
            self.check(len(record["pairs"]) == self.k, f"group {record['query']['id']} size")
            for pair, (direct, reinf) in zip(record["pairs"], row):
                failed += bool(pair["failed"])
                b = pair["breakdown"]
                wrong += (b["direct"], b["reinf"], b["total"]) != (
                    direct, reinf, direct + self.lambda_ * reinf
                )
        self.check(wrong == 0, f"{wrong} pair breakdowns differ from the expected rewards")
        return failed

    def rescore(self) -> Timing:
        """score-export then sweep-lambda over the first rollout; work is record passes."""
        rollouts = self.work / "rollout0" / "rollouts.jsonl"
        signals = self.work / "signals.jsonl"
        code1, _, export = call_cli(["score-export", "--rollouts", str(rollouts), "--out", str(signals)])
        code2, text, sweep = call_cli(
            ["sweep-lambda", "--rollouts", str(rollouts), "--values", LAMBDAS, "--format", "json"]
        )
        if "rescore" in self.spec.own:
            self.attempted += 2
            self.failed += (code1 != 0) + (code2 != 0)
        self.check(code1 == 0 and code2 == 0, "score-export or sweep-lambda exited nonzero")
        if code1 == 0:
            self.check(
                signals.read_bytes() == (rollouts.parent / "training_signals.jsonl").read_bytes(),
                "score-export output differs from the rollout's training_signals.jsonl",
            )
            signals.unlink()
        if code2 == 0:
            self.check_sweep(json.loads(text))
        passes = self.spec.queries * (1 + len(LAMBDAS.split(",")))
        return Timing(passes, export + sweep)

    def check_sweep(self, rows: list[dict]) -> None:
        flat = [pair for row in self.inputs.expected for pair in row]
        n = len(flat)
        for row, lam in zip(rows, [float(v) for v in LAMBDAS.split(",")]):
            want = (
                sum(d + lam * r for d, r in flat) / n,
                sum(d for d, _ in flat) / n,
                sum(r for _, r in flat) / n,
            )
            got = (row["mean_total"], row["mean_direct"], row["mean_reinf"])
            self.check(
                all(abs(a - b) <= 1e-9 for a, b in zip(got, want)),
                f"sweep at lambda {lam} gives {got}, expected {want}",
            )

    def density(self) -> Timing:
        """``density --synthetic``; work is instances."""
        n = self.spec.density_n
        out = self.work / "density.json"
        code, _, wall = call_cli(
            ["density", "--synthetic", "--n", str(n), "--seed", str(self.seed), "--out", str(out)]
        )
        if "density" in self.spec.own:
            self.attempted += 1
            self.failed += code != 0
        if code != 0:
            self.problems.append(f"density exited {code}")
            return Timing(n, wall)
        summary = json.loads(out.read_text("utf-8"))["summary"]
        self.check(
            summary["n"] == n and summary["pass"] == n,
            f"density: {summary['pass']} of {summary['n']} instances pass",
        )
        self.same_as_first("density report", _sha(out))
        out.unlink()
        return Timing(n, wall)


def _stage(tracer, step):
    """Run ``step()`` with tracing installed when a tracer is given."""
    if tracer is None:
        return step()
    install_tracing(tracer)
    try:
        return step()
    finally:
        tracer.restore()


def run(name: str, seed: int, seconds: float, trace: bool, work: Path) -> dict:
    from spans import Tracer

    bench = Bench(name, seed, work)
    steps = {"rollout": bench.rollout, "rescore": bench.rescore, "density": bench.density}
    kept = None
    stages = Stages()
    walls: dict[bool, list[float]] = {False: [], True: []}
    stub_stats = None
    try:
        kind, where = bench.start_backend()
        deadline = time.perf_counter() + seconds
        index = 0
        # each iteration runs every stage once, so each metric's timings are
        # spread over the whole run; a rollout comes first because re-scoring
        # reads the first one
        while index < MIN_ITERATIONS or time.perf_counter() < deadline:
            stages.add("setup", probe_setup(bench.inputs.dataset, kind, where))
            tracer = Tracer() if trace and index % 2 == 1 else None
            kept = kept or tracer
            own_wall = 0.0
            for stage, step in steps.items():
                own = stage in bench.spec.own
                args = (index,) if stage == "rollout" else ()
                timing = stages.add(stage, _stage(tracer if own else None, lambda: step(*args)))
                own_wall += timing.wall if own else 0.0
            walls[tracer is not None].append(own_wall)
            if tracer is not None and tracer is kept and bench.stub is not None:
                stub_stats = bench.stub.stats()
            index += 1
    finally:
        if bench.stub is not None:
            bench.stub.close()

    correct = not bench.problems
    for problem in bench.problems:
        print(f"check failed: {problem}", file=sys.stderr)
    attempted = max(1, bench.attempted)
    failed = bench.failed if correct else attempted
    if trace:
        overhead = _median(walls[True]) / _median(walls[False]) - 1.0
        metrics = layer_metrics(kept, stub_stats, overhead)
        for target in kept.missing:
            print(f"trace: wrapped name {target} is missing", file=sys.stderr)
        out_dir = ROOT / ".bench_out"
        out_dir.mkdir(exist_ok=True)
        kept.write(out_dir / f"spans-{name}-seed{seed}.jsonl")
    else:
        metrics = {
            "setup_s": {"value": stages.seconds("setup"), "unit": "s"},
            "samples_per_s": {"value": stages.rate("rollout"), "unit": "1/s"},
            "rescore_records_per_s": {"value": stages.rate("rescore"), "unit": "1/s"},
            "density_instances_per_s": {"value": stages.rate("density"), "unit": "1/s"},
            "ok_frac": {"value": (attempted - failed) / attempted, "unit": "frac"},
            "peak_rss_mb": {
                "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                "unit": "MB",
            },
        }
    return {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "structrl").is_dir():
        print(f"error: no structrl package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    # let SIGTERM unwind through the finally blocks that stop the stub
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    # the stub listens on loopback; never route it through a proxy
    for var in ("NO_PROXY", "no_proxy"):
        os.environ[var] = ",".join(filter(None, ["127.0.0.1,localhost", os.environ.get(var)]))

    work = ROOT / ".bench_work" / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    try:
        result = run(args.workload, args.seed, args.seconds, bool(args.trace), work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            work.parent.rmdir()
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
