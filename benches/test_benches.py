"""Self-tests for the benchmark's generator, loopback stub and span arithmetic.

    PYTHONPATH=src python -m pytest -q benches
"""
import hashlib
import json
import subprocess
import sys
from pathlib import Path

import pytest
import requests

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import workload  # noqa: E402
from spans import Span, self_times  # noqa: E402
from structrl.backends import HTTPBackend, MockBackend, SamplingParams  # noqa: E402
from structrl.errors import BackendError  # noqa: E402
from structrl.prompting import build_main_prompt  # noqa: E402
from structrl.rollout import derive_seed  # noqa: E402

SHAPE = workload.Shape(queries=6, docs=4, doc_tokens=(40, 80))
# a stub seed under which the inputs above draw at least one injected 503
STUB_SEED = 3


def _tree(root: Path) -> dict[str, str]:
    return {
        str(p.relative_to(root)): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(root.rglob("*"))
        if p.is_file()
    }


def test_generator_is_deterministic_per_seed(tmp_path):
    a = workload.generate(tmp_path / "a", 3, SHAPE)
    b = workload.generate(tmp_path / "b", 3, SHAPE)
    c = workload.generate(tmp_path / "c", 4, SHAPE)
    assert _tree(tmp_path / "a") == _tree(tmp_path / "b")
    assert a.expected == b.expected
    assert _tree(tmp_path / "a") != _tree(tmp_path / "c")
    assert len(a.expected) == SHAPE.queries
    assert all(len(row) == workload.K for row in a.expected)


def test_every_sample_resolves_through_the_mock(tmp_path):
    w = workload.generate(tmp_path, 5, SHAPE)
    backend = MockBackend(w.fixtures)
    for line in w.dataset.read_text("utf-8").splitlines():
        q = json.loads(line)
        prompt = build_main_prompt(q["question"], q["docs"])
        for s in range(workload.K):
            seed = derive_seed(q["id"], s, workload.BASE_SEED)
            assert backend.generate(prompt, SamplingParams(seed=seed)).text


@pytest.fixture
def stub(tmp_path):
    w = workload.generate(tmp_path, 7, SHAPE)
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "stub.py"), "--fixtures", str(w.fixtures), "--seed", str(STUB_SEED)],
        stdout=subprocess.PIPE,
        text=True,
    )
    try:
        port = int(proc.stdout.readline())
        yield w, f"http://127.0.0.1:{port}"
    finally:
        proc.terminate()
        proc.wait(timeout=10)
        proc.stdout.close()
    assert proc.poll() is not None


def test_stub_returns_the_mock_backend_text(stub):
    w, url = stub
    mock = MockBackend(w.fixtures)
    http = HTTPBackend(endpoint=f"{url}/v1/completions")
    retried = 0
    for line in w.dataset.read_text("utf-8").splitlines():
        q = json.loads(line)
        prompt = build_main_prompt(q["question"], q["docs"])
        for s in range(workload.K):
            sampling = SamplingParams(seed=derive_seed(q["id"], s, workload.BASE_SEED))
            want = mock.generate(prompt, sampling)
            try:
                got = http.generate(prompt, sampling)
            except BackendError:  # an injected 503 hits only a key's first attempt
                retried += 1
                got = http.generate(prompt, sampling)
            assert got.text == want.text
            assert got.logprobs.policy == want.logprobs.policy
    stats = requests.get(f"{url}/stats", timeout=10).json()
    assert retried == stats["injected_503"] > 0


def _span(start, end, parent=None):
    return Span("x", start, end, parent, None, 0)


def test_self_time_subtracts_the_union_of_children():
    spans = [
        _span(0.0, 10.0),
        _span(1.0, 4.0, parent=0),
        _span(3.0, 6.0, parent=0),  # overlaps the first child (another thread)
        _span(8.0, 12.0, parent=0),  # runs past the parent's end
        _span(1.5, 2.0, parent=1),
    ]
    assert self_times(spans) == pytest.approx([10.0 - 5.0 - 2.0, 2.5, 3.0, 4.0, 0.5])
