import hashlib
import json
import os
import queue
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
    VALID_MESSAGE_ROLES,
    cache_key,
    read_replay_log,
    replay_log_path,
)

from conftest import CallCountingBackend, WaitCountingCondition


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
    with pytest.raises(ValueError):
        make_request(messages=[("user", None)])
    with pytest.raises(ValueError):
        make_request(messages=[("user", "q"), ("assistant", b"a")])
    with pytest.raises(ValueError):
        make_request(messages=[(1, "q")])


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


def reference_cache_key(request):
    """cache_key as it was before it kept the hash of each key's head."""
    payload = json.dumps(
        [request.model_id, round(request.temperature, 6),
         [[r, c] for r, c in request.messages]],
        ensure_ascii=False,
        separators=(",", ":"),
    )
    return hashlib.sha256(payload.encode("utf-8", "surrogatepass")).hexdigest()


# text with escapes, non-ASCII and lone surrogates
_key_text = st.text(max_size=12) | st.text(
    st.characters(categories=["Cs", "Lu", "Ll", "Nd", "Po", "Cc", "Zs", "So"]), max_size=12)


@given(model_id=st.sampled_from(["m1", "m\u00e9", "m\"1\\"]) | st.text(max_size=8),
       temperature=st.sampled_from([0.0, 0.2, 1.0]) | st.floats(0, 10, allow_nan=False),
       first=st.tuples(st.sampled_from(["system", "user"]), _key_text),
       rest=st.lists(st.tuples(st.sampled_from(VALID_MESSAGE_ROLES), _key_text), max_size=3)
       # a format re-ask: the reply, then the reminder
       | st.tuples(st.tuples(st.just("assistant"), _key_text),
                   st.tuples(st.just("user"), _key_text)).map(list))
def test_cache_key_matches_the_one_dump_reference(model_id, temperature, first, rest):
    request = make_request(model_id=model_id, temperature=temperature,
                           messages=[first, *rest])
    # twice: the second call hashes its head from the cached state
    assert cache_key(request) == reference_cache_key(request) == cache_key(request)


def test_a_hand_written_replay_record_is_a_digest_keyed_fixture(tmp_path):
    request = make_request()
    (tmp_path / "replay.jsonl").write_text(json.dumps({
        "key": cache_key(request), "prompt_tokens": 3, "completion_tokens": 2,
        "content": "fixture text"}) + "\n", encoding="utf-8")
    response = ReplayBackend(ScriptedBackend(), tmp_path).complete(request, role="sql")
    assert (response.content, response.prompt_tokens, response.backend_tag) \
        == ("fixture text", 3, "replay")


def test_scripted_ordered_fallback():
    backend = ScriptedBackend(scripts={"sql": ["first", "second"]})
    assert backend.complete(make_request(), role="sql").content == "first"
    assert backend.complete(make_request(), role="sql").content == "second"
    with pytest.raises(ScriptedMissError):
        backend.complete(make_request(), role="sql")


def test_replay_hit_is_byte_identical(tmp_path):
    inner = CallCountingBackend(ScriptedBackend(scripts={"sql": ["résumé ☃ content"]}))
    backend = ReplayBackend(inner, tmp_path / "cache")
    request = make_request()
    first = backend.complete(request, role="sql")
    assert inner.calls == 1  # a miss
    second = backend.complete(request, role="sql")
    assert inner.calls == 1  # a hit
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
    assert inner.calls == 2  # one waiter called again, the others took its record
    assert len(read_replay_log(tmp_path / "cache")) == 1  # the error was not cached


def test_replay_waiters_take_the_one_retry_after_a_failed_lead(tmp_path):
    cond = WaitCountingCondition()
    gates = []  # whether each inner call saw the waits it holds out for
    lock = threading.Lock()

    class FailThenSlow:
        """Call 1 raises once the three other callers wait for it; call n > 1
        returns ``SELECT n`` once the other two wait again, for it."""

        def complete(self, request, role=None):
            with lock:
                gates.append(None)
                number = len(gates)
            if number == 1:
                gates[0] = cond.reached(3)
                raise TransportError("upstream reset")
            gates[number - 1] = cond.reached(5)
            return ChatResponse(content=f"SELECT {number}", prompt_tokens=3,
                                completion_tokens=2, backend_tag="remote")

    backend = ReplayBackend(FailThenSlow(), tmp_path / "cache")
    backend._records._cond = cond
    threads, outcomes = _complete_in_threads(backend)
    for thread in threads:
        thread.join(30)
    assert not any(thread.is_alive() for thread in threads)
    assert gates == [True, True]  # exactly 2 inner calls
    (record,) = read_replay_log(tmp_path / "cache").values()
    assert (record["content"], record["source_tag"]) == ("SELECT 2", "remote")
    assert [o for o in outcomes if isinstance(o, str)] == [record["content"]] * 3
    assert sum(isinstance(o, TransportError) for o in outcomes) == 1


class FakeResponse:
    def __init__(self, status_code, body=None, headers=None):
        self.status_code = status_code
        self._body = body or {}
        self.headers = headers or {}
        self.text = json.dumps(self._body)

    def json(self):
        return self._body


class FakeSession:
    """Counts attempts; returns queued responses in order, and raises a
    queued exception in its turn."""

    def __init__(self, responses):
        self.responses = list(responses)
        self.attempts = 0

    def post(self, url, json=None, headers=None, timeout=None):
        self.attempts += 1
        response = self.responses.pop(0)
        if isinstance(response, Exception):
            raise response
        return response


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


@pytest.mark.parametrize("fault, sleeps", [
    (FakeResponse(429, headers={"Retry-After": "3"}), [3.0]),
    (FakeResponse(429, headers={"Retry-After": "0.5"}), [1.0]),  # a floor, not a cap
    (FakeResponse(429), [1.0]),
    (FakeResponse(503), [1.0]),
    (ConnectionError("connection reset by peer"), [1.0]),
])
def test_remote_recovers_after_a_scheduled_transport_fault(monkeypatch, fault, sleeps):
    monkeypatch.setenv("NL2SQL_API_KEY", "k")
    monkeypatch.setattr("nl2sql.gateway.random.uniform", lambda low, high: 0.0)  # no jitter
    slept = []
    session = FakeSession([fault, FakeResponse(200, success_body("SELECT 2"))])
    backend = RemoteBackend("https://api.test", session=session, sleep=slept.append)
    response = backend.complete(make_request())
    assert session.attempts == 2
    assert slept == sleeps
    assert (response.content, response.prompt_tokens, response.completion_tokens) \
        == ("SELECT 2", 10, 5)


@pytest.mark.parametrize("retry_after, sleeps", [
    ("inf", [1.0]),  # not a finite number: ignored
    ("1e999", [1.0]),
    ("nan", [1.0]),
    ("1e300", [60.0]),  # RemoteBackend.RETRY_AFTER_MAX
    ("-5", [1.0]),  # clamped to 0, below the backoff
])
def test_remote_bounds_a_retry_after(monkeypatch, retry_after, sleeps):
    monkeypatch.setenv("NL2SQL_API_KEY", "k")
    monkeypatch.setattr("nl2sql.gateway.random.uniform", lambda low, high: 0.0)
    slept = []
    session = FakeSession([FakeResponse(429, headers={"Retry-After": retry_after}),
                           FakeResponse(200, success_body("SELECT 2"))])
    backend = RemoteBackend("https://api.test", session=session, sleep=slept.append)
    assert backend.complete(make_request()).content == "SELECT 2"
    assert slept == sleeps


@pytest.mark.parametrize("count", ["1e999", "-7", "true", "2.9", '"10"', "null"])
def test_remote_usage_count_that_is_not_a_whole_number_is_a_malformed_reply(monkeypatch,
                                                                             count):
    monkeypatch.setenv("NL2SQL_API_KEY", "k")
    reply = ('{"choices": [{"message": {"content": "SELECT 1"}}],'
             f' "usage": {{"prompt_tokens": {count}, "completion_tokens": 5}}}}')
    session = FakeSession([NonJsonResponse(reply)])
    backend = RemoteBackend("https://api.test", session=session, sleep=lambda s: None)
    with pytest.raises(GatewayError, match="malformed reply"):
        backend.complete(make_request())
    assert session.attempts == 1


def test_remote_usage_count_of_a_whole_float_is_kept(monkeypatch):
    monkeypatch.setenv("NL2SQL_API_KEY", "k")
    session = FakeSession([FakeResponse(200, {
        "choices": [{"message": {"content": "SELECT 1"}}],
        "usage": {"prompt_tokens": 10.0, "completion_tokens": 0}})])
    backend = RemoteBackend("https://api.test", session=session, sleep=lambda s: None)
    response = backend.complete(make_request())
    assert (response.prompt_tokens, response.completion_tokens) == (10, 0)
    assert type(response.prompt_tokens) is int


@pytest.mark.parametrize("count", ["1e999", "-7", "true", "2.9"])
def test_replay_record_with_a_bad_token_count_is_skipped(tmp_path, count):
    cache_dir = tmp_path / "cache"
    cache_dir.mkdir()
    line = ('{{"key": "{}", "content": "SELECT 1", "prompt_tokens": {},'
            ' "completion_tokens": {}}}\n')
    with open(replay_log_path(cache_dir), "w", encoding="utf-8") as fh:
        fh.write(line.format("a", count, 2) + line.format("b", 3, count)
                 + line.format("c", 3, 2))
    assert list(read_replay_log(cache_dir)) == ["c"]


def test_remote_five_faults_in_a_row_raise_the_last(monkeypatch):
    monkeypatch.setenv("NL2SQL_API_KEY", "k")
    monkeypatch.setattr("nl2sql.gateway.random.uniform", lambda low, high: 0.0)
    slept = []
    session = FakeSession([
        FakeResponse(429, headers={"Retry-After": "30"}),
        ConnectionError("connection refused"),
        FakeResponse(500),
        FakeResponse(429),
        FakeResponse(502),
        FakeResponse(200, success_body()),  # never reached
    ])
    backend = RemoteBackend("https://api.test", session=session, sleep=slept.append)
    with pytest.raises(TransportError, match="HTTP 502") as raised:
        backend.complete(make_request())
    assert not isinstance(raised.value, RateLimitError)
    assert session.attempts == RemoteBackend.MAX_ATTEMPTS == 5
    assert slept == [30.0, 2.0, 4.0, 8.0]  # Retry-After, then the doubling backoff


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


def test_gateway_needs_one_call_in_flight():
    for bad in (0, -1):
        with pytest.raises(ValueError, match="max_in_flight"):
            Gateway(backends={}, route=ModelRoute.uniform("b", "m"), max_in_flight=bad)


@pytest.mark.parametrize("limit", [1, 3])
def test_calls_in_flight_never_exceed_max_in_flight(limit):
    """limit + 2 threads call at once: the first ``limit`` calls meet inside
    the backend at a barrier and hold there until the other two wait for a
    token; no call is ever inside beside ``limit`` others."""
    lock = threading.Lock()
    counts = {"entered": 0, "inside": 0, "peak": 0}
    all_in = threading.Barrier(limit + 1)  # the first calls and the test
    release = threading.Event()
    waiting = threading.Semaphore(0)  # released by each call that waits for a token

    class Holding:
        def complete(self, request, role=None):
            with lock:
                counts["entered"] += 1
                counts["inside"] += 1
                counts["peak"] = max(counts["peak"], counts["inside"])
                first = counts["entered"] <= limit
            if first:
                all_in.wait(timeout=30)
                release.wait(timeout=30)
            with lock:
                counts["inside"] -= 1
            return ChatResponse(content="ok")

    class Watched:
        """The gateway's token pool, telling when a call waits for a token."""

        def __init__(self, pool):
            self.pool = pool
            self.put = pool.put

        def get(self):
            try:
                return self.pool.get_nowait()
            except queue.Empty:
                waiting.release()
                return self.pool.get()

    gateway = Gateway(backends={"b": Holding()}, route=ModelRoute.uniform("b", "m"),
                      max_in_flight=limit)
    gateway._tokens = Watched(gateway._tokens)
    replies = []
    threads = [threading.Thread(target=lambda: replies.append(
        gateway.complete_for_role("sql", [("user", "q")])[0].content))
        for _ in range(limit + 2)]
    for thread in threads:
        thread.start()
    try:
        all_in.wait(timeout=30)
        assert waiting.acquire(timeout=30) and waiting.acquire(timeout=30)
        with lock:
            assert counts["inside"] == limit
    finally:
        release.set()
        for thread in threads:
            thread.join(timeout=30)
    assert not any(thread.is_alive() for thread in threads)
    assert replies == ["ok"] * (limit + 2)
    assert counts["peak"] == limit


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

