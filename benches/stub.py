"""Loopback completions server for the http-k8 workload.

Run as its own process: ``python3 stub.py --fixtures DIR --seed N``. It binds
127.0.0.1 on a free port, prints the port on one stdout line and serves until
terminated. Responses are resolved through ``MockBackend``, so the text and
log-probs equal what the mock backend returns for the same prompt and seed.

- ``POST /v1/completions``: sleeps a per-request latency of 5-10 ms (fixed by
  the request's digest), then answers. The first attempt of a seeded ~2% of
  (prompt, seed) keys gets a 503 instead, so the client's retry path runs.
- ``POST /reset``: forgets which keys were seen and clears the counters.
- ``GET /stats``: counters as JSON, including per-key server time.

Every response goes out in one write: a header write followed by a body
write stalls on delayed ACKs (about 40 ms per call).
"""
from __future__ import annotations

import argparse
import hashlib
import json
import sys
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from structrl.backends import MockBackend, SamplingParams, prompt_digest  # noqa: E402
from structrl.errors import BackendError  # noqa: E402

FAIL_SHARE = 0.02
LATENCY_MS = (5.0, 10.0)


def _unit(text: str) -> float:
    """Deterministic value in [0, 1) from a string."""
    return int(hashlib.sha256(text.encode("utf-8")).hexdigest()[:12], 16) / 16**12


class StubState:
    """Counters and 503 bookkeeping; every access holds the lock."""

    def __init__(self, fixtures: Path, seed: int) -> None:
        self.backend = MockBackend(fixtures)
        self.seed = seed
        self.lock = threading.Lock()
        self.reset()

    def reset(self) -> None:
        with self.lock:
            self.seen: set[str] = set()
            self.requests = 0
            self.injected = 0
            self.in_flight = 0
            self.max_in_flight = 0
            self.prompt_in_flight: dict[str, int] = {}
            self.overlapping = 0
            self.server_ms: dict[str, float] = {}

    def arrive(self, key: str, prompt_key: str) -> bool:
        """Record an arrival; True when this attempt gets an injected 503."""
        with self.lock:
            self.requests += 1
            self.in_flight += 1
            self.max_in_flight = max(self.max_in_flight, self.in_flight)
            if self.prompt_in_flight.get(prompt_key, 0):
                self.overlapping += 1
            self.prompt_in_flight[prompt_key] = self.prompt_in_flight.get(prompt_key, 0) + 1
            first = key not in self.seen
            self.seen.add(key)
            fail = first and _unit(f"{self.seed}:{key}") < FAIL_SHARE
            self.injected += fail
            return fail

    def depart(self, key: str, prompt_key: str, ms: float, ok: bool) -> None:
        with self.lock:
            self.in_flight -= 1
            self.prompt_in_flight[prompt_key] -= 1
            if ok:
                self.server_ms[key] = ms

    def stats(self) -> dict:
        with self.lock:
            return {
                "requests": self.requests,
                "injected_503": self.injected,
                "max_in_flight": self.max_in_flight,
                "same_prompt_overlap": self.overlapping,
                "server_ms": dict(self.server_ms),
            }


class Handler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"
    state: StubState

    def log_message(self, format, *args) -> None:  # noqa: A002
        pass

    def _send(self, status: int, payload: dict) -> None:
        body = json.dumps(payload).encode("utf-8")
        reason = self.responses.get(status, ("",))[0]
        head = (
            f"HTTP/1.1 {status} {reason}\r\n"
            "Content-Type: application/json\r\n"
            f"Content-Length: {len(body)}\r\n\r\n"
        ).encode("ascii")
        self.wfile.write(head + body)

    def _body(self) -> dict:
        length = int(self.headers.get("Content-Length", 0))
        return json.loads(self.rfile.read(length)) if length else {}

    def do_GET(self) -> None:  # noqa: N802
        if self.path == "/stats":
            self._send(200, self.state.stats())
        else:
            self._send(404, {"error": "not found"})

    def do_POST(self) -> None:  # noqa: N802
        body = self._body()
        if self.path == "/reset":
            self.state.reset()
            self._send(200, {"ok": True})
            return
        if self.path != "/v1/completions":
            self._send(404, {"error": "not found"})
            return
        start = time.perf_counter()
        prompt, seed = body["prompt"], int(body["seed"])
        key = prompt_digest(prompt, seed)
        prompt_key = hashlib.sha256(prompt.encode("utf-8")).hexdigest()
        if self.state.arrive(key, prompt_key):
            self.state.depart(key, prompt_key, 0.0, ok=False)
            self._send(503, {"error": "injected transient failure"})
            return
        ok = False
        try:
            low, high = LATENCY_MS
            time.sleep((low + (high - low) * _unit(key)) / 1000.0)
            try:
                gen = self.state.backend.generate(prompt, SamplingParams(seed=seed))
            except BackendError as exc:
                self._send(404, {"error": str(exc)})
                return
            choice = {"text": gen.text, "logprobs": {"token_logprobs": list(gen.logprobs.policy)}}
            ok = True
        finally:
            self.state.depart(key, prompt_key, (time.perf_counter() - start) * 1000.0, ok)
        self._send(200, {"choices": [choice]})


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="loopback completions stub")
    parser.add_argument("--fixtures", required=True)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)
    Handler.state = StubState(Path(args.fixtures), args.seed)
    server = ThreadingHTTPServer(("127.0.0.1", 0), Handler)
    server.daemon_threads = True
    print(server.server_address[1], flush=True)
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.server_close()
    return 0


if __name__ == "__main__":
    sys.exit(main())
