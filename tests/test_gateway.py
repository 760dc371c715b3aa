import json

import pytest
from hypothesis import given
import hypothesis.strategies as st

from nl2sql.gateway import (
    AuthError,
    ChatRequest,
    Gateway,
    GatewayError,
    ModelRoute,
    RateLimitError,
    RemoteBackend,
    ReplayBackend,
    ScriptedBackend,
    ScriptedMissError,
    cache_key,
)

from conftest import CallCountingBackend


def make_request(**kw):
    defaults = dict(
        model_id="m1",
        messages=[("system", "sys"), ("user", "hello")],
        temperature=0.0,
        max_output_tokens=4096,
    )
    defaults.update(kw)
    return ChatRequest(**defaults)


def test_request_invariants():
    with pytest.raises(ValueError):
        make_request(messages=[])
    with pytest.raises(ValueError):
        make_request(temperature=-0.1)
    with pytest.raises(ValueError):
        make_request(messages=[("assistant", "hi")])
    with pytest.raises(ValueError):
        make_request(max_output_tokens=0)


def test_cache_key_deterministic():
    assert cache_key(make_request()) == cache_key(make_request())


def test_cache_key_sensitive_to_content():
    assert cache_key(make_request()) != cache_key(
        make_request(messages=[("system", "sys"), ("user", "hello!")])
    )


def test_cache_key_ignores_max_output_tokens():
    assert cache_key(make_request(max_output_tokens=16)) == cache_key(
        make_request(max_output_tokens=4096)
    )


@given(st.text(min_size=1), st.text(min_size=1))
def test_cache_key_distinguishes_distinct_messages(a, b):
    ka = cache_key(make_request(messages=[("user", a)]))
    kb = cache_key(make_request(messages=[("user", b)]))
    assert (ka == kb) == (a == b)


def test_scripted_exact_match():
    request = make_request()
    backend = ScriptedBackend(exact={cache_key(request): "fixture text"})
    response = backend.complete(request, role="sql")
    assert response.content == "fixture text"
    assert response.backend_tag == "scripted"


def test_scripted_ordered_fallback():
    backend = ScriptedBackend(scripts={"sql": ["first", "second"]})
    assert backend.complete(make_request(), role="sql").content == "first"
    assert backend.complete(make_request(), role="sql").content == "second"
    with pytest.raises(ScriptedMissError):
        backend.complete(make_request(), role="sql")


def test_replay_hit_is_byte_identical(tmp_path):
    inner = ScriptedBackend(scripts={"sql": ["résumé ☃ content"]})
    backend = ReplayBackend(inner, tmp_path / "cache")
    request = make_request()
    first = backend.complete(request, role="sql")
    assert first.backend_tag == "scripted"
    second = backend.complete(request, role="sql")
    assert second.backend_tag == "replay"
    assert second.content == first.content
    assert second.content.encode("utf-8") == first.content.encode("utf-8")


class FakeResponse:
    def __init__(self, status_code, body=None, headers=None):
        self.status_code = status_code
        self._body = body or {}
        self.headers = headers or {}
        self.text = json.dumps(self._body)

    def json(self):
        return self._body


class FakeSession:
    """Counts attempts; returns queued responses in order."""

    def __init__(self, responses):
        self.responses = list(responses)
        self.attempts = 0

    def post(self, url, json=None, headers=None, timeout=None):
        self.attempts += 1
        return self.responses.pop(0)


def success_body(content="SELECT 1"):
    return {
        "choices": [{"message": {"content": content}}],
        "usage": {"prompt_tokens": 10, "completion_tokens": 5},
    }


def test_remote_retries_on_429_then_succeeds(monkeypatch):
    monkeypatch.setenv("NL2SQL_API_KEY", "k")
    sleeps = []
    session = FakeSession([
        FakeResponse(429),
        FakeResponse(429),
        FakeResponse(200, success_body()),
    ])
    backend = RemoteBackend(
        "https://api.test", session=session, sleep=sleeps.append
    )
    response = backend.complete(make_request())
    assert session.attempts == 3
    assert len(sleeps) == 2  # backoff happened before each retry
    assert response.content == "SELECT 1"
    assert response.prompt_tokens == 10


def test_remote_honors_retry_after(monkeypatch):
    monkeypatch.setenv("NL2SQL_API_KEY", "k")
    sleeps = []
    session = FakeSession([
        FakeResponse(429, headers={"Retry-After": "7"}),
        FakeResponse(200, success_body()),
    ])
    backend = RemoteBackend("https://api.test", session=session, sleep=sleeps.append)
    backend.complete(make_request())
    assert sleeps[0] >= 7


def test_remote_auth_is_fatal(monkeypatch):
    monkeypatch.setenv("NL2SQL_API_KEY", "k")
    session = FakeSession([FakeResponse(401)])
    backend = RemoteBackend("https://api.test", session=session, sleep=lambda s: None)
    with pytest.raises(AuthError):
        backend.complete(make_request())
    assert session.attempts == 1  # no retry on auth failure


def test_remote_missing_key_is_fatal(monkeypatch):
    monkeypatch.delenv("NL2SQL_API_KEY", raising=False)
    backend = RemoteBackend("https://api.test", session=FakeSession([]))
    with pytest.raises(AuthError):
        backend.complete(make_request())


def test_remote_gives_up_after_max_attempts(monkeypatch):
    monkeypatch.setenv("NL2SQL_API_KEY", "k")
    session = FakeSession([FakeResponse(429)] * 5)
    backend = RemoteBackend("https://api.test", session=session, sleep=lambda s: None)
    with pytest.raises(RateLimitError):
        backend.complete(make_request())
    assert session.attempts == RemoteBackend.MAX_ATTEMPTS


class NonJsonResponse(FakeResponse):
    def __init__(self, text):
        super().__init__(200)
        self.text = text

    def json(self):
        return json.loads(self.text)


@pytest.mark.parametrize("response", [
    NonJsonResponse("<html>gateway hiccup</html>"),
    FakeResponse(200, {"usage": {"prompt_tokens": 1}}),
    FakeResponse(200, {"choices": []}),
    FakeResponse(200, {"choices": [{"message": {}}]}),
    FakeResponse(200, {"choices": [{"message": {"content": None}}]}),
    FakeResponse(200, {"choices": "SELECT 1"}),
], ids=["not-json", "no-choices", "empty-choices", "no-content",
        "null-content", "choices-not-list"])
def test_remote_malformed_reply_is_gateway_error(monkeypatch, response):
    monkeypatch.setenv("NL2SQL_API_KEY", "k")
    session = FakeSession([response])
    backend = RemoteBackend("https://api.test", session=session, sleep=lambda s: None)
    with pytest.raises(GatewayError, match="malformed reply"):
        backend.complete(make_request())
    assert session.attempts == 1


def test_gateway_routes_role_to_backend():
    backend = CallCountingBackend(ScriptedBackend(scripts={"sql": ["SELECT 1"]}))
    gateway = Gateway(
        backends={"b": backend},
        route=ModelRoute.uniform("b", "fixture-model"),
    )
    response, model_id = gateway.complete_for_role("sql", [("user", "q")])
    assert model_id == "fixture-model"
    assert response.content == "SELECT 1"
    assert backend.calls == 1


def test_route_requires_all_roles():
    with pytest.raises(ValueError):
        ModelRoute({"sql": ("b", "m")})
