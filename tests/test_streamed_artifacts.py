"""Byte pins of every artifact that ``rollout`` and ``density`` stream to
disk, on the benchmark's workload shapes, and what an interrupted rollout
leaves behind; also of what ``density --corpus`` and ``convert-dataset``
write and ``eval`` prints from small files, which pins how their readers
check each record.

The workloads come from ``benches/workload.py``, imported read-only. The
mock-k8 pins were computed before the writers streamed, when each artifact
was written whole at the end, so they show that streaming changed no byte.
The offline-shape pins were computed while the copy check still built a set
of 30-token tuples, so they show that its substring search changed no byte.
Each test runs in its tmp dir with relative paths, because
``resolved_config.json`` records the dataset and fixture paths as given.
"""
import hashlib
import json
import os
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "benches"))

import workload  # noqa: E402
from structrl import cli  # noqa: E402
from structrl.cli import main  # noqa: E402
from structrl.rollout import derive_seed  # noqa: E402

MOCK_K8 = workload.Shape(queries=32, docs=10, doc_tokens=(80, 200))
SEED = 9
# sha256 of what a mock-k8 rollout writes and prints, with every fixture or
# with every third one deleted, which fails some pairs; the same at any
# --parallel
PINS = {
    "every-fixture": {
        "rollouts.jsonl": "9214beb4fad678e36bae4f38fe5e53cf7fb0e3a7eed7dfc7ba3f292700502673",
        "training_signals.jsonl": "39512761ddd8143db00e5dbff896c22ad5d532e316999fd6dd0254abd99bb7ae",
        "summary": "c2f7cd2bee633707b468e40eba7eeb884cbd29250a6d45b60ede4132d8c309ec",
    },
    "every-third-deleted": {
        "rollouts.jsonl": "198c300f26b2fa47fe20ce244c6c7660605faa186b74677ca664ea50715e0cbc",
        "training_signals.jsonl": "b94b60df9c8bb1b6d5ae5f68112b03e7359c83c4ff9dcb4c9b1728937f1dba6d",
        "summary": "cb63fb557582614e301c429b4b5f0ad32ae6c2c5760c32d3eda045ce0fb2356a",
    },
}
# the same for a rollout on the offline benchmark's shape
OFFLINE_PINS = {
    "every-fixture": {
        "rollouts.jsonl": "a6233d457133f9c61a7bef53303160c0726e3987fa0fd575ab87457c8038f0a6",
        "training_signals.jsonl": "51ae55364a8eb23022c3f0bc5764cf3b8de9a4f3759df6dd7c073aa11bb1d2ce",
        "summary": "0b89415ca0848c42be2afb1ccb064d1abe8de5e9fe3e1111525b62c7a7677b5e",
    },
    "every-third-deleted": {
        "rollouts.jsonl": "990a416df7ff81ef248b99768e565819d3a8fac27fbe8480d491e0ae46278e62",
        "training_signals.jsonl": "795fb3dcf860788e10c60b384dbb66aa9069e9cfc1bb9ee97a03d82867eb0ed9",
        "summary": "52625a841dcba45a730ed2a102c355120debeb6addc272cd2cbf4eb4429c3ffc",
    },
}
OFFLINE = workload.Shape(queries=48, docs=10, doc_tokens=(80, 200))
# resolved_config.json records --parallel, and nothing that the fixtures or
# the shape change
CONFIG_PINS = {
    "1": "1fca438333c1f0d4702a200e830f322831a540a70755d9960542f54efe24c4cc",
    "2": "35c7f3cb384cb1f71482774be42b3924349cc596f10b8d3eadb04984759a134c",
    "4": "c90f633fadfd8db4ffceeed8704dd7e6c4339600c8efbbd4cbc07efd8f68de2d",
}
# sweep-lambda at its default --values in each --format, on that rollout at
# --parallel 1; the same bytes are printed and written to --out
SWEEP_PINS = {
    "text": "9150e9375fd54c33fde7a7c4dfa9d1b6ae27c9225d3e93c362d2a1ae0b304f73",
    "json": "b72f35becbfbf4d07c8c0cc283947d9d53f75c1f106d729f0903b61aa0738339",
    "csv": "3a31a486080fae5eaaa8b4a62cdf499ab2b4d4f1bce9882e72ea560ac724a276",
}
# eval in each --format on EVAL_DATASET saved under two stems: one not ASCII
# and longer than the "dataset" header, which widens the text table's first
# column, and one shorter
EVAL_PINS = {
    "évaluation_multi_sauts": {
        "text": "ec8afc5b7fe3f79651b88f474847fa3b26e3ea1d75bb30c38ec23c1dac0289eb",
        "json": "64a33313392a75a6d4a7153792ce54a218b69f62197e354cfda87c520612345a",
        "csv": "189e9cfad38eb85af274ac9ef98b3a33ed5eb84c3c8ce8a8a87c0a57e0296841",
    },
    "qa": {
        "text": "42588dfdfb22f0e4d58b5eea7bc817f8e56354ed502d85410c6a1deddf714397",
        "json": "59f5a52cdc709f679580b410605ee6b0045d58e58eb43694a99b4b16be30b538",
        "csv": "187ffd150895467c3ab64646bfb03d33b716dcb4c7e57ed457a29e600422677b",
    },
}
# one exact match, one partial and one miss: EM 33.33, F1 61.90
EVAL_DATASET = [
    {"id": "q1", "question": "Capital of France?", "docs": ["d"], "golden_answers": ["Paris"]},
    {"id": "q2", "question": "Who directed it?", "docs": ["d"],
     "golden_answers": ["José Luis Cuerda", "Cuerda"]},
    {"id": "q3", "question": "Año?", "docs": ["d"], "golden_answers": ["1947"]},
]
EVAL_PREDICTIONS = [
    {"id": "q1", "prediction": "paris"},
    {"id": "q2", "prediction": "José Luis Cuerda director"},
    {"id": "q3", "prediction": "1948"},
]
# score-export --epsilon 0.001 --beta 0.5 on that rollout, which clips 115 of
# its 384 samples
CLIPPED_PIN = "9c65018104b79af44e4b4dad04916b33bac816ad5c3dac35dc67ade155a5b42c"
# density --synthetic --n 2000 --seed 9, the offline benchmark's size
DENSITY_PIN = "33e6e584861ebdada04c8d6e193ac4091910624793637d59723efcaac2a6b2e9"
# density --corpus on CORPUS: both matchers, a raw_docs list, and an instance
# without candidates; the report, then the printed line
CORPUS_PINS = (
    "eed9f0da9f621c99742ee99a3735623d06183918a9535c85a83ef8fa416b6f0e",
    "c2060a7f4a1d90ed3fd1099de5f7f3010a06b6cba07b44b2343fb1443866be4c",
)
CORPUS = [
    {"raw_docs": ["Monty Banks was born in 1897 in Cesena.",
                  "He directed The Girl in Possession in 1934."],
     "facts": ["monty banks 1897", "girl in possession"], "matcher": "token_subset",
     "candidates": [{"label": "Table", "body": "Monty Banks | 1897 | The Girl in Possession"},
                    {"label": "Summary", "body": "Banks (1897) made Girl in Possession"}]},
    {"raw_docs": "Rome is the capital of Italy and lies on the Tiber river.",
     "facts": ["capital of italy", "tiber"],
     "candidates": [{"label": "Catalogue", "body": "- Rome: capital of Italy"},
                    {"label": "Knowledge Graph",
                     "body": "(Rome, capital of Italy) (Rome, on, Tiber)"}]},
    {"raw_docs": "Paris is in France.", "facts": ["paris"]},
]
# convert-dataset on CONVERT_SOURCE, which mixes raw and package-schema
# records, as JSONL and as a JSON array alike; the written dataset, then the
# printed line
CONVERT_PINS = (
    "737fbddc5c7421aedc113bbd751e821ea05e85f894ba5eb734d15db091b4a803",
    "35ac89938dc4bffcc334c6501be3977439ebc110e3e9dd603f2b014885859c1c",
)
CONVERT_SOURCE = [
    {"_id": "r1", "question": "Who directed it?", "answer": "Monty Banks",
     "context": [["Film", ["It was directed ", "by Monty Banks."]], ["Banks", ["Born 1897."]]]},
    {"id": "p1", "question": "Capital of Italy?", "docs": ["Rome is the capital."],
     "golden_answers": ["Rome", "Roma"]},
    {"_id": 7, "question": "Année ?", "answer": "1947",
     "context": [["Así", ["Estrenada ", "en 1947."]]]},
]


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _digests(out: Path, summary: bytes) -> dict[str, str]:
    return {
        "rollouts.jsonl": _sha((out / "rollouts.jsonl").read_bytes()),
        "training_signals.jsonl": _sha((out / "training_signals.jsonl").read_bytes()),
        "summary": _sha(summary),
    }


def _versions() -> str:
    # the mock's log-probs and the synthetic density instances come from
    # numpy's Generator methods, whose output a numpy release may change
    return f"numpy {np.__version__} here; the pins were computed with numpy 2.4.6"


def _rollout(out: str, parallel: str) -> int:
    return main(
        ["rollout", "--dataset", "w/dataset.jsonl", "--fixtures", "w/fixtures",
         "--k", str(workload.K), "--lambda", str(workload.LAMBDA), "--seed", "0",
         "--parallel", parallel, "--out", out]
    )


@pytest.mark.parametrize("parallel", ["1", "2", "4"])
@pytest.mark.parametrize("fixtures", sorted(PINS))
def test_mock_rollout_bytes_are_pinned(tmp_path, monkeypatch, capsys, fixtures, parallel):
    monkeypatch.chdir(tmp_path)
    workload.generate("w", SEED, MOCK_K8)
    if fixtures == "every-third-deleted":
        for path in sorted(Path("w/fixtures").glob("*.txt"))[::3]:
            path.unlink()
    assert _rollout("out", parallel) == 0
    summary = capsys.readouterr().out
    out = Path("out")
    records = [json.loads(line) for line in (out / "rollouts.jsonl").read_text("utf-8").splitlines()]
    failed = sum(p["failed"] for r in records for p in r["pairs"])
    assert (failed > 0) == (fixtures == "every-third-deleted")
    assert _digests(out, summary.encode("utf-8")) == PINS[fixtures], _versions()
    assert _sha((out / "resolved_config.json").read_bytes()) == CONFIG_PINS[parallel], _versions()
    # score-export rebuilds the streamed signal lines from the records read back
    assert main(["score-export", "--rollouts", "out/rollouts.jsonl", "--out", "signals.jsonl"]) == 0
    assert Path("signals.jsonl").read_bytes() == (out / "training_signals.jsonl").read_bytes()


def test_rollout_in_a_fresh_interpreter_is_pinned(tmp_path, monkeypatch):
    """In a fresh interpreter numpy is first imported by the mock's log-prob
    draw, on the rollout's pool threads at once; pytest has already imported
    it, so the in-process pins above never exercise that."""
    monkeypatch.chdir(tmp_path)
    workload.generate("w", SEED, MOCK_K8)
    src = str(Path(cli.__file__).resolve().parents[1])
    run = subprocess.run(
        [sys.executable, "-m", "structrl.cli", "rollout", "--dataset", "w/dataset.jsonl",
         "--fixtures", "w/fixtures", "--k", str(workload.K), "--lambda", str(workload.LAMBDA),
         "--seed", "0", "--parallel", "2", "--out", "out"],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        timeout=300,
        check=True,
    )
    assert _digests(Path("out"), run.stdout) == PINS["every-fixture"], _versions()


@pytest.mark.parametrize("parallel", ["1", "2"])
@pytest.mark.parametrize("fixtures", sorted(OFFLINE_PINS))
def test_offline_shape_rollout_bytes_are_pinned(tmp_path, monkeypatch, capsys, fixtures, parallel):
    monkeypatch.chdir(tmp_path)
    workload.generate("w", SEED, OFFLINE)
    if fixtures == "every-third-deleted":
        for path in sorted(Path("w/fixtures").glob("*.txt"))[::3]:
            path.unlink()
    assert _rollout("out", parallel) == 0
    out = Path("out")
    records = [json.loads(line) for line in (out / "rollouts.jsonl").read_text("utf-8").splitlines()]
    failed = sum(p["failed"] for r in records for p in r["pairs"])
    assert (failed > 0) == (fixtures == "every-third-deleted")
    summary = capsys.readouterr().out.encode("utf-8")
    assert _digests(out, summary) == OFFLINE_PINS[fixtures], _versions()
    assert _sha((out / "resolved_config.json").read_bytes()) == CONFIG_PINS[parallel], _versions()


def test_offline_shape_sweep_and_clipped_signal_bytes_are_pinned(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    workload.generate("w", SEED, OFFLINE)
    assert _rollout("out", "1") == 0
    summary = capsys.readouterr().out.encode("utf-8")
    assert _digests(Path("out"), summary) == OFFLINE_PINS["every-fixture"], _versions()
    for fmt, pin in SWEEP_PINS.items():
        code = main(["sweep-lambda", "--rollouts", "out/rollouts.jsonl", "--format", fmt,
                     "--out", f"sweep.{fmt}"])
        assert code == 0
        out = capsys.readouterr().out
        assert out.endswith("\n") and not out.endswith("\n\n")
        printed = _sha(out.encode("utf-8"))
        assert (printed, _sha(Path(f"sweep.{fmt}").read_bytes())) == (pin, pin), _versions()
    code = main(["score-export", "--rollouts", "out/rollouts.jsonl", "--epsilon", "0.001",
                 "--beta", "0.5", "--out", "clipped.jsonl"])
    assert code == 0
    assert capsys.readouterr().out == "objective=-0.000777 groups=48\n"
    signals = [json.loads(line) for line in Path("clipped.jsonl").read_text("utf-8").splitlines()]
    assert sum(s["clipped_term"] != s["ratio"] * s["advantage"] for s in signals) == 115
    assert _sha(Path("clipped.jsonl").read_bytes()) == CLIPPED_PIN, _versions()


@pytest.mark.parametrize("stem", sorted(EVAL_PINS))
def test_eval_report_bytes_are_pinned(tmp_path, monkeypatch, capsys, stem):
    monkeypatch.chdir(tmp_path)
    for name, records in ((f"{stem}.jsonl", EVAL_DATASET), ("predictions.jsonl", EVAL_PREDICTIONS)):
        Path(name).write_text("".join(json.dumps(record) + "\n" for record in records), "utf-8")
    printed = {}
    for fmt in EVAL_PINS[stem]:
        code = main(["eval", "--predictions", "predictions.jsonl", "--dataset", f"{stem}.jsonl",
                     "--format", fmt])
        assert code == 0
        out = capsys.readouterr().out
        assert out.endswith("\n") and not out.endswith("\n\n")
        printed[fmt] = _sha(out.encode("utf-8"))
    assert printed == EVAL_PINS[stem]


def test_synthetic_density_report_bytes_are_pinned(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    code = main(["density", "--synthetic", "--n", "2000", "--seed", str(SEED), "--out", "report.json"])
    assert code == 0
    assert "instances=2000 pass=2000" in capsys.readouterr().out
    assert _sha(Path("report.json").read_bytes()) == DENSITY_PIN, _versions()


def test_corpus_density_report_bytes_are_pinned(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    Path("corpus.jsonl").write_text(
        "".join(json.dumps(record) + "\n" for record in CORPUS), "utf-8"
    )
    assert main(["density", "--corpus", "corpus.jsonl", "--out", "report.json"]) == 0
    printed = capsys.readouterr().out.encode("utf-8")
    assert (_sha(Path("report.json").read_bytes()), _sha(printed)) == CORPUS_PINS


@pytest.mark.parametrize("suffix", ["jsonl", "json"])
def test_converted_dataset_bytes_are_pinned(tmp_path, monkeypatch, capsys, suffix):
    monkeypatch.chdir(tmp_path)
    if suffix == "jsonl":
        text = "".join(json.dumps(record) + "\n" for record in CONVERT_SOURCE)
    else:
        text = json.dumps(CONVERT_SOURCE, indent=1)
    Path(f"raw.{suffix}").write_text(text, "utf-8")
    assert main(["convert-dataset", "--src", f"raw.{suffix}", "--out", "dataset.jsonl"]) == 0
    printed = capsys.readouterr().out.encode("utf-8")
    assert (_sha(Path("dataset.jsonl").read_bytes()), _sha(printed)) == CONVERT_PINS


SMALL = workload.Shape(queries=6, docs=4, doc_tokens=(40, 80))


class _RaiseOnCall:
    """A backend that raises ``error`` on its ``n``-th call and counts its calls."""

    def __init__(self, backend, n: int, error=KeyboardInterrupt) -> None:
        self.backend, self.n, self.error = backend, n, error
        self.calls = 0
        self.lock = threading.Lock()

    def generate(self, prompt, sampling):
        with self.lock:
            self.calls += 1
            hit = self.calls == self.n
        if hit:
            raise self.error
        return self.backend.generate(prompt, sampling)


@pytest.mark.parametrize("parallel", ["1", "2"])
@pytest.mark.parametrize("n", [1, 20, 45])
def test_interrupted_rollout_keeps_its_finished_groups(tmp_path, monkeypatch, capsys, n, parallel):
    monkeypatch.chdir(tmp_path)
    workload.generate("w", SEED, SMALL)
    assert _rollout("whole", parallel) == 0
    make_backend = cli.make_backend
    monkeypatch.setattr(
        cli, "make_backend", lambda *a, **kw: _RaiseOnCall(make_backend(*a, **kw), n)
    )
    with pytest.raises(KeyboardInterrupt):
        _rollout("cut", parallel)
    whole, cut = Path("whole"), Path("cut")
    lines = {}
    for name in ("rollouts.jsonl", "training_signals.jsonl"):
        written = (cut / name).read_bytes()
        assert (whole / name).read_bytes().startswith(written)
        assert written.endswith(b"\n") or not written
        lines[name] = written.count(b"\n")
    assert lines["rollouts.jsonl"] < SMALL.queries
    assert lines["training_signals.jsonl"] == workload.K * lines["rollouts.jsonl"]
    # the sidecar is written only after the last group
    assert not (cut / "resolved_config.json").exists()
    assert not (cut / "run.log").exists()


class _SlowPastTheFirstQuery:
    """A backend that counts its calls; a call for any query but the first is
    made only after ``DELAY`` seconds, so that the samples of later queries
    are still running, or queued, when the first query's group is written."""

    DELAY = 0.25

    def __init__(self, backend, first_seeds: set[int]) -> None:
        self.backend, self.first_seeds = backend, first_seeds
        self.calls = 0
        self.lock = threading.Lock()

    def generate(self, prompt, sampling):
        if sampling.seed not in self.first_seeds:
            time.sleep(self.DELAY)
        with self.lock:
            self.calls += 1
        return self.backend.generate(prompt, sampling)


@pytest.mark.parametrize("parallel", [1, 2, 4])
def test_interrupt_cancels_the_samples_not_started(tmp_path, monkeypatch, parallel):
    """A KeyboardInterrupt in the main thread, here while it writes the first
    group, leaves only the samples already running to finish, each with at
    most its primary and its re-inference call: the samples queued behind
    them never run."""
    monkeypatch.chdir(tmp_path)
    workload.generate("w", SEED, workload.Shape(queries=12, docs=4, doc_tokens=(40, 80)))
    first = json.loads(Path("w/dataset.jsonl").read_text("utf-8").splitlines()[0])["id"]
    first_seeds = {derive_seed(first, i, 0) for i in range(workload.K)}
    backends = []
    make_backend = cli.make_backend

    def slow_backend(*args, **kwargs):
        backends.append(_SlowPastTheFirstQuery(make_backend(*args, **kwargs), first_seeds))
        return backends[0]

    calls_at_interrupt = []

    def interrupt(fh, records):
        calls_at_interrupt.append(backends[0].calls)
        raise KeyboardInterrupt

    monkeypatch.setattr(cli, "make_backend", slow_backend)
    monkeypatch.setattr(cli, "write_rollout_jsonl", interrupt)
    with pytest.raises(KeyboardInterrupt):
        _rollout("cut", str(parallel))
    assert backends[0].calls - calls_at_interrupt[0] <= parallel * workload.K * 2


def test_an_error_on_a_pool_thread_stops_the_queued_samples(tmp_path, monkeypatch):
    """A sample that raises something other than a BackendError on a pool
    thread stops the samples queued behind it before their backend call,
    not only once its group is the oldest in the window: only the samples
    already running may still call the backend, each at most twice."""
    monkeypatch.chdir(tmp_path)
    workload.generate("w", SEED, workload.Shape(queries=12, docs=4, doc_tokens=(40, 80)))
    backends = []
    make_backend = cli.make_backend

    def failing_backend(*args, **kwargs):
        backends.append(_RaiseOnCall(make_backend(*args, **kwargs), 20, RuntimeError("a bug")))
        return backends[0]

    monkeypatch.setattr(cli, "make_backend", failing_backend)
    with pytest.raises(RuntimeError, match="a bug"):
        _rollout("cut", "2")
    assert backends[0].calls - 20 <= 2 * workload.K * 2
