import json
import os
import sys
import threading
import time

import pytest
from hypothesis import given
import hypothesis.strategies as st

from nl2sql.gateway import (
    AuthError,
    ChatRequest,
    ChatResponse,
    Gateway,
    GatewayError,
    ModelRoute,
    RateLimitError,
    RemoteBackend,
    ReplayBackend,
    ScriptedBackend,
    ScriptedMissError,
    TransportError,
    cache_key,
    read_replay_log,
    replay_log_path,
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


def test_cache_key_of_lone_surrogate_prompt():
    keys = {cache_key(make_request(messages=[("user", text)]))
            for text in ("\ud800", "\udfff", "\ud800\udfff", "?")}
    assert len(keys) == 4


def test_cache_key_of_valid_text_unchanged():
    # the key a replay log written before surrogates were hashed holds
    request = make_request(messages=[("user", "résumé ☃ \U0001F600")])
    assert cache_key(request) == (
        "9e279edb03e65c2874139790fc70a39868477eb72336b45e0be8ef1e4d035940")


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


@pytest.mark.parametrize("content", [
    "astral \U0001F600 \U00010348 text",
    "lone surrogate \ud800 and \udfff",
])
def test_replay_second_backend_hits_byte_identically(tmp_path, content):
    cache_dir = tmp_path / "cache"
    inner = CallCountingBackend(ScriptedBackend(scripts={"sql": [content]}))
    assert ReplayBackend(inner, cache_dir).complete(make_request(), "sql").content == content
    replayed = ReplayBackend(inner, cache_dir).complete(make_request(), "sql")
    assert inner.calls == 1
    assert replayed.backend_tag == "replay"
    assert replayed.content == content
    assert replayed.content.encode("utf-8", "surrogatepass") == content.encode(
        "utf-8", "surrogatepass")


def test_replay_skips_torn_line_and_appends_after_it(tmp_path):
    cache_dir = tmp_path / "cache"
    inner = CallCountingBackend(ScriptedBackend(scripts={"sql": ["one", "two"]}))
    first, second = make_request(), make_request(messages=[("user", "other")])
    ReplayBackend(inner, cache_dir).complete(first, "sql")
    with open(replay_log_path(cache_dir), "a", encoding="ascii") as fh:
        fh.write('[1, 2]\n{"key": "k"}\n{"key": "')  # two foreign lines, torn tail
    backend = ReplayBackend(inner, cache_dir)
    assert backend.complete(second, "sql").content == "two"
    backend.close()
    assert inner.calls == 2
    reopened = ReplayBackend(inner, cache_dir)
    assert reopened.complete(first, "sql").content == "one"
    assert reopened.complete(second, "sql").content == "two"
    assert inner.calls == 2
    assert len(read_replay_log(cache_dir)) == 2


def test_replay_first_record_of_a_key_wins(tmp_path):
    cache_dir = tmp_path / "cache"
    request = make_request()
    shared = [ReplayBackend(ScriptedBackend(scripts={"sql": [text]}), cache_dir)
              for text in ("first", "second")]
    for backend in shared:  # both load an empty log, so both miss and append
        backend.complete(request, "sql")
    assert len(read_replay_log(cache_dir)) == 1
    with open(replay_log_path(cache_dir), encoding="ascii") as fh:
        assert len(fh.readlines()) == 2
    fresh = ReplayBackend(ScriptedBackend(), cache_dir)
    assert fresh.complete(request, "sql").content == "first"


def test_replay_warm_run_leaves_one_file(tmp_path):
    cache_dir = tmp_path / "cache"
    requests = [make_request(messages=[("user", f"q{i}")]) for i in range(5)]
    inner = CallCountingBackend(ScriptedBackend(scripts={"sql": ["SELECT 1"] * 5}))
    for _ in range(2):
        backend = ReplayBackend(inner, cache_dir)
        for request in requests:
            backend.complete(request, "sql")
    assert inner.calls == 5
    assert os.listdir(cache_dir) == ["replay.jsonl"]


class GatedBackend:
    """Blocks every call until ``release`` is set; the calls listed in
    ``failing`` (by arrival number, from 1) raise TransportError."""

    def __init__(self, failing=()):
        self.release = threading.Event()
        self.failing = set(failing)
        self.calls = 0
        self._lock = threading.Lock()

    def complete(self, request, role=None):
        with self._lock:
            self.calls += 1
            number = self.calls
        self.release.wait(5)
        if number in self.failing:
            raise TransportError("upstream reset")
        return ChatResponse(content="SELECT 1", prompt_tokens=3, completion_tokens=2)


def _complete_in_threads(backend):
    outcomes = []

    def call():
        try:
            outcomes.append(backend.complete(make_request(), "sql").content)
        except TransportError as exc:
            outcomes.append(exc)

    threads = [threading.Thread(target=call) for _ in range(4)]
    for thread in threads:
        thread.start()
    return threads, outcomes


def test_replay_single_flight_for_identical_misses(tmp_path):
    inner = GatedBackend()
    backend = ReplayBackend(inner, tmp_path / "cache")
    threads, outcomes = _complete_in_threads(backend)
    time.sleep(0.2)  # let every thread reach the backend
    inner.release.set()
    for thread in threads:
        thread.join(5)
    assert not any(thread.is_alive() for thread in threads)
    assert outcomes == ["SELECT 1"] * 4
    assert inner.calls == 1
    assert len(read_replay_log(tmp_path / "cache")) == 1


def test_replay_single_flight_leader_error_releases_waiters(tmp_path):
    inner = GatedBackend(failing={1})
    backend = ReplayBackend(inner, tmp_path / "cache")
    threads, outcomes = _complete_in_threads(backend)
    time.sleep(0.2)
    inner.release.set()
    for thread in threads:
        thread.join(5)
    assert not any(thread.is_alive() for thread in threads)
    errors = [o for o in outcomes if isinstance(o, TransportError)]
    assert len(errors) == 1
    assert sorted(o for o in outcomes if isinstance(o, str)) == ["SELECT 1"] * 3
    assert 2 <= inner.calls <= 4  # each waiter called for itself
    assert len(read_replay_log(tmp_path / "cache")) == 1  # the error was not cached


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


class QuestionEcho:
    """Answers "echo <last message>" after a short pause."""

    def complete(self, request, role=None):
        time.sleep(0.001)
        return ChatResponse(content="echo " + request.messages[-1][1])


def test_replay_stress_one_inner_call_per_key(tmp_path):
    """16 threads over 6 shared keys with a tiny switch interval: a lost
    update in the single-flight bookkeeping shows as an extra inner call,
    a missing record or a wrong reply."""
    keys = [f"q{i}" for i in range(6)]
    inner = CallCountingBackend(QuestionEcho())
    backend = ReplayBackend(inner, tmp_path / "cache")
    wrong = []

    def worker(offset):
        for key in keys[offset % 6:] + keys[:offset % 6]:
            reply = backend.complete(make_request(messages=[("user", key)]), "sql")
            if reply.content != "echo " + key:
                wrong.append(reply.content)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(i,)) for i in range(16)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(10)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert wrong == []
    assert inner.calls == len(keys)
    assert sorted(r["content"] for r in read_replay_log(tmp_path / "cache").values()) == [
        "echo " + key for key in keys]

