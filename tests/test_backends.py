import json
import math
import socket
import threading
from http.server import BaseHTTPRequestHandler, HTTPServer

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from structrl.backends import (
    HTTPBackend,
    MockBackend,
    SamplingParams,
    make_backend,
    prompt_digest,
)
from structrl.errors import BackendError


class TestMockBackend:
    def test_digest_keyed_fixture(self, tmp_path):
        digest = prompt_digest("hello prompt", seed=5)
        (tmp_path / f"{digest}.txt").write_text("scripted reply", "utf-8")
        backend = MockBackend(tmp_path)
        gen = backend.generate("hello prompt", SamplingParams(seed=5))
        assert gen.text == "scripted reply"

    def test_seed_changes_digest(self, tmp_path):
        digest = prompt_digest("hello prompt", seed=5)
        (tmp_path / f"{digest}.txt").write_text("scripted reply", "utf-8")
        backend = MockBackend(tmp_path)
        with pytest.raises(BackendError):
            backend.generate("hello prompt", SamplingParams(seed=6))

    def test_rules_fallback_first_match_wins(self, tmp_path):
        rules = [
            {"contains": "alpha", "response": "first"},
            {"contains": "beta", "response": "second"},
        ]
        (tmp_path / "rules.json").write_text(json.dumps(rules), "utf-8")
        backend = MockBackend(tmp_path)
        assert backend.generate("alpha beta", SamplingParams()).text == "first"
        assert backend.generate("only beta", SamplingParams()).text == "second"

    def test_rule_keys_beside_contains_and_response_are_ignored(self, tmp_path):
        rules = [{"contains": "alpha", "response": "first", "note": 1}]
        (tmp_path / "rules.json").write_text(json.dumps(rules), "utf-8")
        assert MockBackend(tmp_path).generate("alpha", SamplingParams()).text == "first"

    def test_missing_fixture_and_rules(self, tmp_path):
        with pytest.raises(BackendError) as info:
            MockBackend(tmp_path).generate("anything", SamplingParams())
        # the same call would miss again
        assert not info.value.retryable

    def test_rules_read_at_construction(self, tmp_path):
        rules_path = tmp_path / "rules.json"
        rules_path.write_text(json.dumps([{"contains": "", "response": "ok"}]), "utf-8")
        backend = MockBackend(tmp_path)
        rules_path.unlink()
        assert backend.generate("p", SamplingParams()).text == "ok"

    def test_deterministic_logprobs(self, tmp_path):
        (tmp_path / "rules.json").write_text(
            json.dumps([{"contains": "", "response": "three token reply"}]), "utf-8"
        )
        backend = MockBackend(tmp_path)
        a = backend.generate("p", SamplingParams(seed=1))
        b = backend.generate("p", SamplingParams(seed=1))
        c = backend.generate("p", SamplingParams(seed=2))
        assert a.logprobs == b.logprobs
        assert a.logprobs != c.logprobs
        assert len(a.logprobs.policy) == 3
        assert all(x <= 0 for x in a.logprobs.policy)


class _Handler(BaseHTTPRequestHandler):
    last_body = None
    response: dict = {}
    status = 200

    def do_POST(self):
        length = int(self.headers["Content-Length"])
        _Handler.last_body = json.loads(self.rfile.read(length))
        _Handler.last_auth = self.headers.get("Authorization")
        payload = json.dumps(_Handler.response).encode("utf-8")
        self.send_response(_Handler.status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(payload)))
        self.end_headers()
        self.wfile.write(payload)

    def log_message(self, *args):
        pass


json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=10),
    lambda inner: (
        st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=10), inner, max_size=4)
    ),
    max_leaves=12,
)
# bodies near the expected shape, so the text and log-prob checks are reached
payloads = st.builds(
    lambda text, lps: {"choices": [{"text": text, "logprobs": {"token_logprobs": lps}}]},
    json_values,
    json_values | st.lists(st.floats() | st.integers() | st.none(), max_size=5),
)


@pytest.fixture()
def http_server():
    server = HTTPServer(("127.0.0.1", 0), _Handler)
    # a short poll interval, so shutdown() does not wait the default 0.5 s
    thread = threading.Thread(target=server.serve_forever, args=(0.05,), daemon=True)
    thread.start()
    yield f"http://127.0.0.1:{server.server_address[1]}/v1/completions"
    server.shutdown()
    server.server_close()


class TestHTTPBackend:
    def test_request_body_and_text_response(self, http_server):
        _Handler.status = 200
        _Handler.response = {
            "choices": [
                {"text": "an answer", "logprobs": {"token_logprobs": [-0.1, -0.2]}}
            ]
        }
        backend = HTTPBackend(endpoint=http_server, model="m1")
        gen = backend.generate("the prompt", SamplingParams(temperature=0.5, max_tokens=64, seed=9))
        assert gen.text == "an answer"
        assert gen.logprobs.policy == (-0.1, -0.2)
        assert gen.logprobs.reference == gen.logprobs.policy
        body = _Handler.last_body
        assert body["model"] == "m1"
        assert body["prompt"] == "the prompt"
        assert body["temperature"] == 0.5
        assert body["max_tokens"] == 64
        assert body["n"] == 1
        assert body["logprobs"] is True
        assert body["seed"] == 9

    def test_chat_shape_accepted(self, http_server):
        _Handler.status = 200
        _Handler.response = {"choices": [{"message": {"content": "chat reply"}}]}
        backend = HTTPBackend(endpoint=http_server)
        gen = backend.generate("p", SamplingParams())
        assert gen.text == "chat reply"
        assert gen.logprobs is None

    def test_bearer_token_from_env(self, http_server, monkeypatch):
        monkeypatch.setenv("STRUCTRL_API_TOKEN", "sekrit")
        _Handler.status = 200
        _Handler.response = {"choices": [{"text": "ok"}]}
        HTTPBackend(endpoint=http_server).generate("p", SamplingParams())
        assert _Handler.last_auth == "Bearer sekrit"

    def test_http_error_raises_backend_error(self, http_server):
        _Handler.status = 500
        _Handler.response = {"error": "boom"}
        with pytest.raises(BackendError):
            HTTPBackend(endpoint=http_server).generate("p", SamplingParams())

    @pytest.mark.parametrize(
        "response, message",
        [
            ({"unexpected": []}, "unexpected response shape"),
            (
                {"choices": [{"text": "ok", "logprobs": {"token_logprobs": [None, -0.5]}}]},
                "token_logprobs[0] is None, not a finite number",
            ),
            ({"choices": [{"text": None}]}, "text is None, not a string"),
            ({"choices": [{"text": 5}]}, "text is 5, not a string"),
            (
                {"choices": [{"text": "ok", "logprobs": {"token_logprobs": "ab"}}]},
                "token_logprobs is 'ab', not a list",
            ),
            (
                {"choices": [{"text": "ok", "logprobs": {"token_logprobs": ["NaN"]}}]},
                "token_logprobs[0] is 'NaN', not a finite number",
            ),
        ],
        ids=["no_choices", "null_logprob", "null_text", "int_text", "str_logprobs", "str_nan"],
    )
    def test_bad_shape_raises_backend_error(self, http_server, response, message):
        _Handler.status = 200
        _Handler.response = response
        with pytest.raises(BackendError) as info:
            HTTPBackend(endpoint=http_server).generate("p", SamplingParams())
        assert message in str(info.value)
        # the same request gets the same payload back
        assert not info.value.retryable

    @given(json_values | payloads)
    @settings(
        max_examples=150,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    def test_any_200_body_gives_a_clean_generation_or_backend_error(self, http_server, body):
        """NaN and infinities go out as the bare JSON tokens Python writes."""
        _Handler.status = 200
        _Handler.response = body
        try:
            gen = HTTPBackend(endpoint=http_server).generate("p", SamplingParams())
        except BackendError:
            return
        assert isinstance(gen.text, str)
        if gen.logprobs is not None:
            for vec in (gen.logprobs.policy, gen.logprobs.reference, gen.logprobs.behavior):
                assert all(type(x) is float and math.isfinite(x) for x in vec)

    def test_endpoint_from_env(self, http_server, monkeypatch):
        monkeypatch.setenv("STRUCTRL_ENDPOINT", http_server)
        _Handler.status = 200
        _Handler.response = {"choices": [{"text": "ok"}]}
        assert HTTPBackend().generate("p", SamplingParams()).text == "ok"

    def test_missing_endpoint_rejected(self, monkeypatch):
        monkeypatch.delenv("STRUCTRL_ENDPOINT", raising=False)
        with pytest.raises(BackendError):
            HTTPBackend()

    @pytest.mark.parametrize("scheme", ["http", "https"])
    def test_refused_connection_is_retryable(self, scheme):
        with socket.socket() as sock:  # a port that nothing listens on once closed
            sock.bind(("127.0.0.1", 0))
            port = sock.getsockname()[1]
        with pytest.raises(BackendError, match="generation request failed") as info:
            HTTPBackend(endpoint=f"{scheme}://127.0.0.1:{port}/v1").generate("p", SamplingParams())
        assert info.value.retryable

    @pytest.mark.parametrize(
        "endpoint",
        ["localhost:8000/v1/completions", "ftp://host/v1", "http:///v1/completions"],
        ids=["no_scheme", "ftp", "no_host"],
    )
    def test_endpoint_that_is_not_an_http_url_rejected(self, endpoint):
        with pytest.raises(BackendError, match="is not an http:// or https:// URL"):
            HTTPBackend(endpoint=endpoint)


class TestFactory:
    def test_mock_requires_fixtures(self):
        with pytest.raises(BackendError):
            make_backend("mock")

    def test_unknown_kind(self):
        with pytest.raises(BackendError):
            make_backend("quantum")

    def test_mock_construction(self, tmp_path):
        assert isinstance(make_backend("mock", fixtures=tmp_path), MockBackend)
