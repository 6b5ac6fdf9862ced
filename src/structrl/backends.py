"""Generation backends: a file-driven deterministic mock and an HTTP client.

The mock resolves responses from a fixture directory keyed by a digest of
(seed, prompt), falling back to substring rules, so scripted rollouts are
hand-writable and reproducible byte-for-byte. The HTTP backend speaks a
plain completions-style JSON contract.

numpy is imported by the mock's log-prob draw, on its first call, and not by
this module: an HTTP rollout never loads it. Likewise ``http.client`` (with
the ``email`` and ``ssl`` modules it loads) and ``selectors`` are imported by
the first ``HTTPBackend``: a mock rollout and the commands that call no
backend never load them.
"""
from __future__ import annotations

import hashlib
import json
import os
import threading
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Protocol
from urllib.parse import urlsplit

from .dataset import check, is_finite_number, read_json
from .errors import BackendError
from .grpo import TokenLogProbs

if TYPE_CHECKING:
    import http.client


@dataclass(frozen=True)
class SamplingParams:
    temperature: float = 1.0
    max_tokens: int = 1024
    seed: int = 0


@dataclass(frozen=True)
class Generation:
    text: str
    logprobs: TokenLogProbs | None


class GenerationBackend(Protocol):
    def generate(self, prompt: str, sampling: SamplingParams) -> Generation: ...


def prompt_digest(prompt: str, seed: int) -> str:
    """Fixture key: sha256 over the seed line followed by the prompt bytes."""
    h = hashlib.sha256()
    h.update(f"{seed}\n".encode("utf-8"))
    h.update(prompt.encode("utf-8"))
    return h.hexdigest()


def _synthetic_logprobs(digest: str, text: str) -> TokenLogProbs:
    """Deterministic per-token log-prob triple derived from the fixture key."""
    import numpy as np  # on the first draw only; see the module docstring

    n = max(1, len(text.split()))
    rng = np.random.default_rng(int(digest[:16], 16))
    policy = -rng.uniform(0.05, 2.0, n)
    reference = np.minimum(policy + rng.normal(0.0, 0.05, n), -1e-6)
    behavior = np.minimum(policy + rng.normal(0.0, 0.02, n), -1e-6)
    return TokenLogProbs(
        policy=tuple(policy.tolist()),
        reference=tuple(reference.tolist()),
        behavior=tuple(behavior.tolist()),
    )


class MockBackend:
    """Deterministic backend reading responses from a fixture directory.

    A fixtures path that is not a directory fails here, before any call.
    Resolution order for a call with digest d = prompt_digest(prompt, seed):
      1. ``<fixtures>/<d>.txt`` verbatim; one that is not UTF-8 text is a
         BackendError, not retryable;
      2. first entry of ``<fixtures>/rules.json`` (a JSON array of objects
         whose ``contains`` and ``response`` are strings; other keys are
         ignored, and a file of another shape fails here) whose substring
         appears in the prompt;
      3. BackendError, not retryable.
    Log-probs are synthesized deterministically from the digest.
    """

    def __init__(self, fixtures_dir: str | Path) -> None:
        self.fixtures_dir = Path(fixtures_dir)
        if not self.fixtures_dir.is_dir():
            raise BackendError(f"{fixtures_dir}: fixtures path is not a directory", retryable=False)
        # read and checked once here, before any thread can call generate
        rules_path = self.fixtures_dir / "rules.json"
        self._rules: list[dict] = read_json(rules_path) if rules_path.exists() else []
        check(isinstance(self._rules, list), "rules must be a JSON array", rules_path, None)
        for i, rule in enumerate(self._rules):
            check(isinstance(rule, dict) and isinstance(rule.get("contains"), str)
                  and isinstance(rule.get("response"), str),
                  f"rule {i} must be an object whose 'contains' and 'response' are strings",
                  rules_path, None)

    def generate(self, prompt: str, sampling: SamplingParams) -> Generation:
        digest = prompt_digest(prompt, sampling.seed)
        try:
            text = (self.fixtures_dir / f"{digest}.txt").read_text("utf-8")
        except FileNotFoundError:
            for rule in self._rules:
                if rule["contains"] in prompt:
                    text = rule["response"]
                    break
            else:
                # the same call misses again, so retrying cannot help
                raise BackendError(f"no fixture {digest}.txt and no matching rule", retryable=False)
        except UnicodeDecodeError:
            raise BackendError(f"fixture {digest}.txt is not UTF-8 text", retryable=False)
        return Generation(text, _synthetic_logprobs(digest, text))


ENDPOINT_ENV = "STRUCTRL_ENDPOINT"
TOKEN_ENV = "STRUCTRL_API_TOKEN"
# seconds to connect, and to wait on each read of a response
TIMEOUT_S = 120.0
# fresh connections that may wait for a first answer at once: fewer than the 5
# unaccepted ones that Python's socketserver queues, since the kernel drops a
# connection attempt that finds the queue full and resends it only after 1 s
_OPENING = 4
# a fresh connection stops counting once it has waited this long for an answer
_OPEN_WAIT_S = 0.1


class _Kept:
    """One thread's connection, closed when freed: when its thread ends or
    its backend is released."""

    def __init__(self, conn: http.client.HTTPConnection) -> None:
        self.conn = conn

    def __del__(self) -> None:
        self.conn.close()


class HTTPBackend:
    """Completions-style HTTP client.

    POSTs ``{model, prompt, temperature, max_tokens, n, logprobs, seed}`` to
    the endpoint and reads ``choices[0]``: ``text`` (or ``message.content``)
    plus optional ``logprobs.token_logprobs``. The service reports one
    log-prob vector; it stands in for all three policy roles, which makes
    ratios 1 and KL 0 until a trainer supplies real per-policy scores.

    Each thread keeps one kept-alive ``http.client`` connection. When the
    server has closed a reused connection before answering, the request is
    sent once more on a fresh one. At most ``_OPENING`` fresh connections wait
    for their first answer at once, each for up to ``_OPEN_WAIT_S``, so the
    burst of a rollout's first calls does not overflow a short listen queue.
    Proxy variables, netrc and credentials in the URL are not used, and
    redirects are not followed. An endpoint that is not an http(s) URL is
    rejected here. A 4xx response other than 429 raises a BackendError that
    is not retryable, and so does a 200 response with an unexpected shape, a
    non-string text or a log-prob that is not a finite number.
    """

    def __init__(
        self,
        endpoint: str | None = None,
        model: str = "default",
    ) -> None:
        endpoint = endpoint or os.environ.get(ENDPOINT_ENV)
        if not endpoint:
            raise BackendError(f"no endpoint given and {ENDPOINT_ENV} is unset")
        url = urlsplit(endpoint)
        if url.scheme not in ("http", "https") or not url.hostname:
            raise BackendError(f"endpoint {endpoint!r} is not an http:// or https:// URL")
        # the HTTP modules, on the first HTTP backend only; see the module docstring
        import http.client  # noqa: F401
        import selectors  # noqa: F401
        import ssl

        self.endpoint = endpoint
        self.model = model
        https = url.scheme == "https"
        # an explicit port, since http.client would read the last group of a
        # bare IPv6 address as one
        self._host, self._port = url.hostname, url.port or (443 if https else 80)
        self._target = (url.path or "/") + (f"?{url.query}" if url.query else "")
        # one context for every thread's connection; building one loads the CA store
        self._ssl = ssl.create_default_context() if https else None
        self._local = threading.local()
        self._opening = threading.BoundedSemaphore(_OPENING)

    def _connect(self) -> http.client.HTTPConnection:
        import http.client

        if self._ssl is None:
            conn = http.client.HTTPConnection(self._host, self._port, timeout=TIMEOUT_S)
        else:
            conn = http.client.HTTPSConnection(
                self._host, self._port, timeout=TIMEOUT_S, context=self._ssl
            )
        self._local.kept = _Kept(conn)
        return conn

    def _drop(self) -> None:
        kept = getattr(self._local, "kept", None)
        if kept is not None:
            kept.conn.close()
            self._local.kept = None

    def _headers(self) -> dict:
        headers = {"Content-Type": "application/json"}
        token = os.environ.get(TOKEN_ENV)
        if token:
            headers["Authorization"] = f"Bearer {token}"
        return headers

    def _send(self, conn: http.client.HTTPConnection, data: bytes) -> http.client.HTTPResponse:
        conn.request("POST", self._target, data, self._headers())
        return conn.getresponse()

    def _send_fresh(self, data: bytes) -> http.client.HTTPResponse:
        """POST ``data`` on a new connection, holding an opening slot until
        the server starts to answer or ``_OPEN_WAIT_S`` has passed."""
        import selectors

        with self._opening:
            conn = self._connect()
            conn.request("POST", self._target, data, self._headers())
            with selectors.DefaultSelector() as answered:
                answered.register(conn.sock, selectors.EVENT_READ)
                answered.select(_OPEN_WAIT_S)
        return conn.getresponse()

    def _post(self, data: bytes) -> tuple[http.client.HTTPResponse, bytes]:
        """POST ``data`` through this thread's connection; return the response and body."""
        from http.client import RemoteDisconnected

        kept = getattr(self._local, "kept", None)
        try:
            if kept is None:
                resp = self._send_fresh(data)
            else:
                try:
                    resp = self._send(kept.conn, data)
                except (RemoteDisconnected, ConnectionResetError, BrokenPipeError):
                    # the server closed the kept-alive socket before answering
                    kept.conn.close()
                    resp = self._send_fresh(data)
            body = resp.read()
        except BaseException:
            self._drop()
            raise
        if resp.will_close:
            self._drop()
        return resp, body

    def generate(self, prompt: str, sampling: SamplingParams) -> Generation:
        body = {
            "model": self.model,
            "prompt": prompt,
            "temperature": sampling.temperature,
            "max_tokens": sampling.max_tokens,
            "n": 1,
            "logprobs": True,
            "seed": sampling.seed,
        }
        from http.client import HTTPException

        try:
            # bytes, which http.client sends whole in one send call with their
            # Content-Length, after a separate send of the header block
            resp, raw = self._post(json.dumps(body).encode("utf-8"))
        except (OSError, HTTPException) as exc:
            raise BackendError(f"generation request failed: {exc}") from exc
        if 400 <= resp.status < 600:
            kind = "Client" if resp.status < 500 else "Server"
            raise BackendError(
                f"generation request failed: {resp.status} {kind} Error: "
                f"{resp.reason} for url: {self.endpoint}",
                retryable=resp.status >= 500 or resp.status == 429,
            )
        try:
            payload = json.loads(raw)
        except (ValueError, RecursionError) as exc:  # RecursionError: nested too deeply
            raise BackendError(f"non-JSON response from {self.endpoint}") from exc
        try:
            choice = payload["choices"][0]
            field = "text" if "text" in choice else "message.content"
            text = choice["text"] if field == "text" else choice["message"]["content"]
            token_lps = (choice.get("logprobs") or {}).get("token_logprobs") or []
        except (KeyError, IndexError, TypeError, AttributeError) as exc:
            raise BackendError(
                f"unexpected response shape: {payload!r:.200}", retryable=False
            ) from exc
        if not isinstance(text, str):
            raise self._malformed(field, text, "a string")
        if not isinstance(token_lps, list):
            raise self._malformed("token_logprobs", token_lps, "a list")
        for i, x in enumerate(token_lps):
            if not is_finite_number(x):
                raise self._malformed(f"token_logprobs[{i}]", x, "a finite number")
        vec = tuple(map(float, token_lps))
        return Generation(text, TokenLogProbs(vec, vec, vec) if vec else None)

    def _malformed(self, field: str, value: object, expected: str) -> BackendError:
        # the same request gets the same payload back, so retrying cannot help
        return BackendError(
            f"malformed response from {self.endpoint}: {field} is {value!r:.80}, not {expected}",
            retryable=False,
        )


# every kind make_backend builds
BACKEND_KINDS = ("mock", "http")


def make_backend(
    kind: str,
    fixtures: str | Path | None = None,
    endpoint: str | None = None,
    model: str = "default",
) -> GenerationBackend:
    if kind not in BACKEND_KINDS:
        raise BackendError(f"unknown backend kind {kind!r}")
    if kind == "http":
        return HTTPBackend(endpoint=endpoint, model=model)
    if fixtures is None:
        raise BackendError("mock backend needs a fixtures directory")
    return MockBackend(fixtures)
