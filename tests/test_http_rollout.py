"""Rollouts against an in-test threaded loopback completions server.

The server answers through a ``MockBackend`` after a short delay, fails the
first attempt of some requests with a 503, and answers a prompt that no rule
matches with a 404. It can instead answer every request with one fixed
status and body. It counts requests in flight, requests that arrive while
another with the same prompt is still in flight, and requests per client
connection.
"""
import hashlib
import json
import sys
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest

from structrl import backends
from structrl.backends import HTTPBackend, MockBackend, SamplingParams, prompt_digest
from structrl.cli import main
from structrl.dataset import QueryInstance
from structrl.errors import BackendError
from structrl.prompting import build_main_prompt
from structrl.rollout import RolloutConfig, derive_seed, rollout_one

DELAY_S = 0.01
K = 4


class Stub:
    """Server state; every access holds the lock."""

    def __init__(self, backend: MockBackend, status: int | None, body: bytes) -> None:
        self.backend = backend
        self.status = status  # answer every request with this status and body, when set
        self.body = body
        self.lock = threading.Lock()
        self.requests = 0
        self.in_flight = 0
        self.max_in_flight = 0
        self.prompt_in_flight: dict[str, int] = {}
        self.overlapping = 0
        self.seen: set[str] = set()
        self.injected = 0
        self.per_connection: dict[tuple[str, int], int] = {}  # by client address
        self.close_after_response = False  # without saying so in a header

    def arrive(self, prompt: str, key: str, client: tuple[str, int]) -> bool:
        """Record an arrival; True when it is the first attempt of a flaky key."""
        with self.lock:
            self.requests += 1
            self.per_connection[client] = self.per_connection.get(client, 0) + 1
            self.in_flight += 1
            self.max_in_flight = max(self.max_in_flight, self.in_flight)
            self.overlapping += self.prompt_in_flight.get(prompt, 0) > 0
            self.prompt_in_flight[prompt] = self.prompt_in_flight.get(prompt, 0) + 1
            flaky = key not in self.seen and hashlib.sha256(key.encode()).digest()[0] < 40
            self.seen.add(key)
            self.injected += flaky
        return flaky

    def depart(self, prompt: str) -> None:
        with self.lock:
            self.in_flight -= 1
            self.prompt_in_flight[prompt] -= 1

    def respond(self, body: dict, client: tuple[str, int]) -> tuple[int, dict | bytes]:
        prompt, seed = body["prompt"], int(body["seed"])
        flaky = self.arrive(prompt, prompt_digest(prompt, seed), client)
        try:
            time.sleep(DELAY_S)
            if self.status is not None:
                return self.status, self.body
            if flaky:
                return 503, {"error": "transient"}
            try:
                gen = self.backend.generate(prompt, SamplingParams(seed=seed))
            except BackendError as exc:
                return 404, {"error": str(exc)}
            lps = list(gen.logprobs.policy)
            return 200, {"choices": [{"text": gen.text, "logprobs": {"token_logprobs": lps}}]}
        finally:
            self.depart(prompt)


class Handler(BaseHTTPRequestHandler):
    stub: Stub

    def do_POST(self):
        body = json.loads(self.rfile.read(int(self.headers["Content-Length"])))
        status, payload = self.stub.respond(body, self.client_address)
        data = payload if isinstance(payload, bytes) else json.dumps(payload).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(data)))
        self.end_headers()
        self.wfile.write(data)
        if self.stub.close_after_response:
            self.close_connection = True

    def log_message(self, *args):
        pass


def queries() -> list[QueryInstance]:
    # q3 has no rule, so all its samples fail with a 404
    return [
        QueryInstance(f"q{i}", f"question {i}?", (f"alpha{i} doc", f"beta{i} doc"), ("Rome",))
        for i in range(4)
    ]


def write_fixtures(tmp_path):
    fixtures = tmp_path / "fixtures"
    fixtures.mkdir()
    rules = [
        {"contains": "Doc 1: alpha0", "response": "<answer> Rome </answer>"},
        {
            "contains": "Doc 1: alpha1",
            "response": "<format: Table>| city | marker1 Rome |</format: Table>"
                        "<answer> Rome </answer>",
        },
        {
            "contains": "Doc 1: alpha2",
            "response": "<format: Chunk>marker2 Paris</format: Chunk><answer> Rome </answer>",
        },
        {"contains": "marker1", "response": "<answer> Rome </answer>"},
        {"contains": "marker2", "response": "<answer> Paris </answer>"},
    ]
    (fixtures / "rules.json").write_text(json.dumps(rules), "utf-8")
    # sample 0 of each ruled query answers wrongly, so advantages are not all 0
    for q in queries()[:3]:
        digest = prompt_digest(
            build_main_prompt(q.question, list(q.docs)), derive_seed(q.id, 0, 0)
        )
        (fixtures / f"{digest}.txt").write_text("<answer> Oslo </answer>", "utf-8")
    return fixtures


class Server(ThreadingHTTPServer):
    daemon_threads = True
    # longer than socketserver's 5, so that no test depends on the client
    # opening its connections a few at a time
    request_queue_size = 64


@pytest.fixture()
def serve(tmp_path):
    """Start a loopback server; returns (endpoint, stub)."""
    servers = []

    def start(
        status: int | None = None,
        body: bytes = b'{"error": "fixed"}',
        keep_alive: bool = False,
        backlog: int = Server.request_queue_size,
    ) -> tuple[str, Stub]:
        # HTTP/1.0 closes the connection after each response; HTTP/1.1 keeps it open
        protocol = "HTTP/1.1" if keep_alive else "HTTP/1.0"
        handler = type("BoundHandler", (Handler,), {"protocol_version": protocol})
        handler.stub = Stub(MockBackend(write_fixtures(tmp_path)), status, body)
        server = type("BoundServer", (Server,), {"request_queue_size": backlog})(
            ("127.0.0.1", 0), handler
        )
        thread = threading.Thread(target=server.serve_forever, args=(0.05,), daemon=True)
        thread.start()
        servers.append((server, thread))
        return f"http://127.0.0.1:{server.server_address[1]}/v1/completions", handler.stub

    yield start
    for server, thread in servers:
        server.shutdown()
        server.server_close()
        thread.join(timeout=10)
        assert not thread.is_alive()


def rollout(tmp_path, endpoint, parallel: int) -> dict[str, bytes]:
    dataset = tmp_path / "dataset.jsonl"
    dataset.write_text("".join(json.dumps(q.to_dict()) + "\n" for q in queries()), "utf-8")
    out = tmp_path / f"out-p{parallel}"
    argv = ["rollout", "--backend", "http", "--endpoint", endpoint,
            "--dataset", str(dataset), "--k", str(K), "--parallel", str(parallel),
            "--out", str(out)]
    assert main(argv) == 0
    return {
        name: (out / name).read_bytes()
        for name in ("rollouts.jsonl", "training_signals.jsonl")
    }


def test_output_is_byte_identical_at_every_parallelism(tmp_path, serve, capsys):
    endpoint, stub = serve()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        runs = {p: rollout(tmp_path, endpoint, p) for p in (1, 2, 4)}
    finally:
        sys.setswitchinterval(interval)
    assert runs[1] == runs[2] == runs[4]
    assert len(set(capsys.readouterr().out.splitlines())) == 1
    groups = [json.loads(line) for line in runs[1]["rollouts.jsonl"].splitlines()]
    assert [g["query"]["id"] for g in groups] == ["q0", "q1", "q2", "q3"]
    # the injected 503s were retried; the unmatched query failed without retries
    assert stub.injected > 0
    assert not any(p["failed"] for g in groups[:3] for p in g["pairs"])
    assert all("404" in p["failure"] for p in groups[3]["pairs"])
    assert any(p["reinferred"] for g in groups for p in g["pairs"])


def test_samples_of_a_group_are_in_flight_together(tmp_path, serve):
    endpoint, stub = serve()
    rollout(tmp_path, endpoint, 2)
    # two groups of K=4 samples; one request at a time per group would be 2
    assert stub.max_in_flight > 2
    assert stub.overlapping > 0


@pytest.mark.parametrize("status, sent", [(404, 1), (429, 3), (503, 3)])
def test_only_transient_statuses_are_retried(serve, status, sent):
    endpoint, stub = serve(status)
    query = queries()[0]
    group = rollout_one(query, 0, HTTPBackend(endpoint=endpoint), RolloutConfig(k=1))
    assert group.pairs[0].failed
    assert f"{status} " in group.pairs[0].failure
    assert stub.requests == sent


def test_non_json_body_is_reported_as_such(serve):
    endpoint, stub = serve(200, b"not json")
    with pytest.raises(BackendError) as info:
        HTTPBackend(endpoint=endpoint).generate("question?", SamplingParams(seed=1))
    assert str(info.value) == f"non-JSON response from {endpoint}"
    assert info.value.retryable
    assert stub.requests == 1


def test_body_nested_too_deeply_to_decode_is_reported_as_non_json(serve):
    endpoint, _ = serve(200, b"[" * 100_000 + b"]" * 100_000)
    with pytest.raises(BackendError) as info:
        HTTPBackend(endpoint=endpoint).generate("question?", SamplingParams(seed=1))
    assert str(info.value) == f"non-JSON response from {endpoint}"


def test_malformed_payload_fails_the_sample_not_the_run(serve):
    # a null first log-prob, as servers that echo the prompt send it
    endpoint, stub = serve(200, b'{"choices": [{"text": "<answer> Rome </answer>", '
                                b'"logprobs": {"token_logprobs": [null, -0.5]}}]}')
    group = rollout_one(queries()[0], 0, HTTPBackend(endpoint=endpoint), RolloutConfig(k=K))
    assert len(group.pairs) == K
    for pair in group.pairs:
        assert pair.failed
        assert "token_logprobs[0] is None, not a finite number" in pair.failure
    # the same request gets the same payload, so none was retried
    assert stub.requests == K


def test_each_thread_posts_through_its_own_connection(serve):
    endpoint, stub = serve(keep_alive=True)
    backend = HTTPBackend(endpoint=endpoint)
    prompt = build_main_prompt("question 0?", ["alpha0 doc"])
    start, done = threading.Barrier(3), threading.Barrier(3)
    texts: list[str] = []

    def work():
        start.wait(timeout=10)
        for _ in range(2):
            texts.append(backend.generate(prompt, SamplingParams(seed=1)).text)
        # hold every connection open until all calls are made, so no client
        # port is freed and reused by another thread
        done.wait(timeout=10)

    threads = [threading.Thread(target=work) for _ in range(3)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=30)
        assert not t.is_alive()
    assert texts == ["<answer> Rome </answer>"] * 6
    assert sorted(stub.per_connection.values()) == [2, 2, 2]


def test_connection_the_server_closed_is_replaced_once(serve):
    endpoint, stub = serve(keep_alive=True)
    stub.close_after_response = True
    backend = HTTPBackend(endpoint=endpoint)
    prompt = build_main_prompt("question 0?", ["alpha0 doc"])
    for calls in (1, 2):
        assert backend.generate(prompt, SamplingParams(seed=1)).text == "<answer> Rome </answer>"
        assert stub.requests == calls
    assert sorted(stub.per_connection.values()) == [1, 1]


def first_calls(backend: HTTPBackend, n: int) -> list[float]:
    """n threads each make one call at once, on a fresh connection; returns
    the seconds of each call."""
    prompt = build_main_prompt("question 0?", ["alpha0 doc"])
    start, done = threading.Barrier(n), threading.Barrier(n)
    texts: list[str] = []
    seconds: list[float] = []

    def work():
        start.wait(timeout=10)
        began = time.perf_counter()
        try:
            texts.append(backend.generate(prompt, SamplingParams(seed=1)).text)
        except BackendError as exc:
            texts.append(str(exc))
        seconds.append(time.perf_counter() - began)
        done.wait(timeout=30)  # no client port is freed and reused by another thread

    threads = [threading.Thread(target=work) for _ in range(n)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=60)
        assert not t.is_alive()
    assert texts == ["<answer> Rome </answer>"] * n
    return seconds


def test_fresh_connections_wait_for_a_first_answer_a_few_at_a_time(serve, monkeypatch):
    # without the time limit, a fifth fresh connection is opened only once
    # one of the first four has been answered
    monkeypatch.setattr(backends, "_OPEN_WAIT_S", 60.0)
    endpoint, stub = serve(keep_alive=True)
    first_calls(HTTPBackend(endpoint=endpoint), 12)
    assert len(stub.per_connection) == 12
    assert stub.max_in_flight <= backends._OPENING


def test_a_slow_first_answer_frees_its_opening_slot(serve, monkeypatch):
    # each fresh connection holds its slot for _OPEN_WAIT_S at most, so the
    # next ones go out before a slow server has answered the first ones
    monkeypatch.setitem(globals(), "DELAY_S", 0.5)
    endpoint, stub = serve(keep_alive=True)
    first_calls(HTTPBackend(endpoint=endpoint), 8)
    assert stub.max_in_flight > backends._OPENING


def test_a_burst_of_first_calls_fits_a_default_listen_queue(serve):
    # socketserver queues 5 unaccepted connections; the kernel drops an
    # attempt that finds the queue full and resends it only after 1 s
    endpoint, _ = serve(keep_alive=True, backlog=5)
    assert max(first_calls(HTTPBackend(endpoint=endpoint), 16)) < 1.0
