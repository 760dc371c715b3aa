"""Uniform chat-completion access for all agent roles.

Three backends: remote (OpenAI-compatible endpoint), scripted (fixture
responses for offline tests), and replay (persistent cache around any
backend for bit-reproducible reruns). A ModelRoute maps each agent role
to a (backend, model) pair so reasoning-heavy and cheap roles can use
different models.
"""

import functools
import hashlib
import json
import logging
import math
import os
import queue
import random
import threading
import time
from dataclasses import dataclass

from . import jsonl

logger = logging.getLogger(__name__)

AGENT_ROLES = (
    "schema_linking",
    "subproblem",
    "query_plan",
    "sql",
    "correction_plan",
    "correction_sql",
)

VALID_MESSAGE_ROLES = ("system", "user", "assistant")

_encode_str = json.encoder.encode_basestring  # a str as JSON, non-ASCII kept


class GatewayError(Exception):
    pass


class TransportError(GatewayError):
    """Retryable network or server failure."""


class RateLimitError(TransportError):
    def __init__(self, message, retry_after=None):
        super().__init__(message)
        self.retry_after = retry_after


class AuthError(Exception):
    """Fatal: bad or missing credentials. Not a GatewayError: it stops the
    run instead of failing one stage."""


class ScriptedMissError(GatewayError):
    """No fixture for this request."""


@dataclass
class ChatRequest:
    model_id: str
    messages: list  # of (role, content)
    temperature: float = 0.0
    max_output_tokens: int = 4096

    def __post_init__(self):
        if not self.messages:
            raise ValueError("messages must be non-empty")
        if self.temperature < 0:
            raise ValueError("temperature must be >= 0")
        if self.max_output_tokens <= 0:
            raise ValueError("max_output_tokens must be positive")
        for role, content in self.messages:
            if role not in VALID_MESSAGE_ROLES:
                raise ValueError(f"unknown message role {role!r}")
            if not isinstance(content, str):
                raise ValueError(f"message content must be str, not {type(content).__name__}")
        if self.messages[0][0] not in ("system", "user"):
            raise ValueError("first message must be system or user")


@dataclass
class ChatResponse:
    content: str
    prompt_tokens: int = 0
    completion_tokens: int = 0
    backend_tag: str = "scripted"


@dataclass
class ModelRoute:
    """Per-agent (backend id, model id) assignment; all six roles mapped."""

    routes: dict  # role -> (backend_id, model_id)

    def __post_init__(self):
        missing = [r for r in AGENT_ROLES if r not in self.routes]
        if missing:
            raise ValueError(f"route missing agent roles: {missing}")

    @classmethod
    def uniform(cls, backend_id: str, model_id: str) -> "ModelRoute":
        return cls({role: (backend_id, model_id) for role in AGENT_ROLES})


@functools.lru_cache(maxsize=64)
def _key_head(model_id, temperature, role, content):
    """The SHA-256 state of cache_key's payload up to the end of its first
    message. The model, the temperature and a stage's system prompt repeat
    from call to call, so each such head is hashed once."""
    head = json.dumps([model_id, temperature, [[role, content]]],
                      ensure_ascii=False, separators=(",", ":"))
    return hashlib.sha256(head[:-2].encode("utf-8", "surrogatepass"))


def cache_key(request: ChatRequest) -> str:
    """Deterministic digest over model, messages, and temperature: the
    SHA-256 of the compact JSON array [model, temperature, [[role, content],
    ...]].

    Insensitive to max_output_tokens so tuning the cap does not invalidate
    a replay cache. Text is hashed as UTF-8 with lone surrogates passed
    through, so any ``str`` has a key and valid text keeps the plain UTF-8
    one.
    """
    (role, content), *rest = request.messages
    digest = _key_head(request.model_id, round(request.temperature, 6),
                       role, content).copy()
    # the rest of the array: each later message as json.dumps writes it
    tail = "".join([f",[{_encode_str(r)},{_encode_str(c)}]" for r, c in rest])
    digest.update((tail + "]]").encode("utf-8", "surrogatepass"))
    return digest.hexdigest()


class ScriptedBackend:
    """Deterministic fixture backend: an ordered per-role script (the Nth
    call for role R returns fixture N); a call past the end of its role's
    script raises ScriptedMissError. A reply keyed by request digest is a
    replay log record (see ReplayBackend).
    """

    tag = "scripted"

    def __init__(self, scripts=None):
        self.scripts = {role: list(items) for role, items in (scripts or {}).items()}
        self._cursors = {}
        self._lock = threading.Lock()

    def complete(self, request: ChatRequest, role: str | None = None) -> ChatResponse:
        with self._lock:
            script = self.scripts.get(role or "", [])
            cursor = self._cursors.get(role, 0)
            if cursor >= len(script):
                raise ScriptedMissError(f"no fixture for role={role!r} call #{cursor + 1}")
            content = script[cursor]
            self._cursors[role] = cursor + 1
        prompt_chars = sum(len(c) for _, c in request.messages)
        return ChatResponse(
            content=content,
            prompt_tokens=max(1, prompt_chars // 4),
            completion_tokens=max(1, len(content) // 4),
            backend_tag=self.tag,
        )


def replay_log_path(cache_dir) -> str:
    """The replay log a ReplayBackend over ``cache_dir`` reads and appends."""
    return os.path.join(str(cache_dir), "replay.jsonl")


def _token_count(value) -> int:
    """``value`` as a count of tokens; raises TypeError unless it is a whole
    number >= 0 (a boolean, a fraction or an infinity is not)."""
    if (type(value) is int or isinstance(value, float) and value.is_integer()) and value >= 0:
        return int(value)
    raise TypeError(f"token count {value!r} is not a whole number >= 0")


def _replay_record(value) -> dict:
    """``value`` when it is a replay record; raises TypeError otherwise."""
    if not (isinstance(value["key"], str) and isinstance(value["content"], str)):
        raise TypeError("not a replay record")
    for name in ("prompt_tokens", "completion_tokens"):
        value[name] = _token_count(value[name])
    return value


def read_replay_log(cache_dir) -> dict:
    """cache_key -> record for every readable line of the replay log in
    ``cache_dir``; empty when there is none. For a key recorded twice the
    first record wins."""
    records = {}
    for record in jsonl.read_records(replay_log_path(cache_dir), _replay_record, "replay log"):
        records.setdefault(record["key"], record)
    return records


class SingleFlight:
    """A table of values by key, each made by one caller at a time.

    ``values`` is the dict the table keeps; reading it needs no lock. One
    condition guards the making: a caller that finds its key being made
    waits for that maker to end, then looks again. What is kept is ``keep``'s
    choice: the replay log keeps every record, an outcome memo only successes.
    """

    def __init__(self, values):
        self.values = values
        self._cond = threading.Condition()
        self._making = set()  # keys a caller is making

    def get(self, key, make, keep=None):
        """The kept value of ``key``; otherwise the one ``make()`` returns,
        kept when it is not None and ``keep`` accepts it (None keeps any).
        When ``make`` raises or its value is not kept, the next waiter
        makes the value again."""
        with self._cond:
            while True:
                kept = self.values.get(key)
                if kept is not None:
                    return kept
                if key not in self._making:
                    break
                self._cond.wait()
            self._making.add(key)
        value = None
        try:
            value = make()
            return value
        finally:
            with self._cond:
                self._making.discard(key)
                if value is not None and (keep is None or keep(value)):
                    self.values[key] = value
                self._cond.notify_all()


class ReplayBackend:
    """Cache wrapper over one append-only log, ``<cache_dir>/replay.jsonl``.

    The constructor reads the log into memory. A hit returns the recorded
    content byte-identically without touching the disk; a miss delegates to
    the inner backend and appends one record to the log (``jsonl.AppendLog``:
    opened at the first miss, closed by ``close`` or when the backend is
    collected). Every reply is built from its record, so a miss returns
    what a later hit will.

    Concurrent misses on one key make one inner call: the first caller
    makes it and the rest wait for its record (``SingleFlight``). If that
    call raises, the next waiter calls again and the others take its record.
    """

    tag = "replay"

    def __init__(self, inner, cache_dir):
        self.inner = inner
        self.cache_dir = str(cache_dir)
        self.path = replay_log_path(self.cache_dir)
        self._records = SingleFlight(read_replay_log(self.cache_dir))
        self._log = jsonl.AppendLog(self.path)

    def close(self) -> None:
        """Close the log descriptor; a later miss opens it again."""
        self._log.close()

    def _call(self, key, request, role) -> dict:
        """Ask the inner backend, append its reply to the log and return
        the record."""
        resp = self.inner.complete(request, role)
        record = {
            "key": key,
            "model_id": request.model_id,
            "role": role,
            "prompt_tokens": resp.prompt_tokens,
            "completion_tokens": resp.completion_tokens,
            "source_tag": resp.backend_tag,
            "content": resp.content,
        }
        self._log.append(record)
        return record

    def complete(self, request: ChatRequest, role: str | None = None) -> ChatResponse:
        key = cache_key(request)
        record = self._records.values.get(key)
        if record is None:
            record = self._records.get(key, lambda: self._call(key, request, role))
        return ChatResponse(
            content=record["content"],
            prompt_tokens=record["prompt_tokens"],
            completion_tokens=record["completion_tokens"],
            backend_tag=self.tag,
        )


class RemoteBackend:
    """OpenAI-compatible chat-completions client with retry/backoff.

    Token counts come from the server's usage block, never re-tokenized
    locally: billing truth lives server-side. API keys come only from the
    environment, never from config files.
    """

    tag = "remote"

    MAX_ATTEMPTS = 5
    BACKOFF_BASE = 1.0
    RETRY_AFTER_MAX = 60.0  # the longest Retry-After honoured, in seconds
    JITTER = 0.2

    def __init__(self, endpoint, api_key_env="NL2SQL_API_KEY",
                 timeout=120.0, session=None, sleep=time.sleep):
        self.endpoint = endpoint.rstrip("/")
        self.api_key_env = api_key_env
        self.timeout = timeout
        if session is None:
            import requests

            session = requests.Session()
        self.session = session
        self.sleep = sleep

    def _headers(self):
        key = os.environ.get(self.api_key_env, "")
        if not key:
            raise AuthError(f"environment variable {self.api_key_env} not set")
        return {"Authorization": f"Bearer {key}", "Content-Type": "application/json"}

    def complete(self, request: ChatRequest, role: str | None = None) -> ChatResponse:
        payload = {
            "model": request.model_id,
            "messages": [{"role": r, "content": c} for r, c in request.messages],
            "temperature": request.temperature,
            "max_tokens": request.max_output_tokens,
        }
        url = self.endpoint + "/v1/chat/completions"
        last_error = None
        for attempt in range(self.MAX_ATTEMPTS):
            if attempt:
                delay = self.BACKOFF_BASE * (2 ** (attempt - 1))
                delay *= 1 + random.uniform(-self.JITTER, self.JITTER)
                if isinstance(last_error, RateLimitError) and last_error.retry_after:
                    delay = max(delay, last_error.retry_after)
                self.sleep(delay)
            try:
                resp = self.session.post(
                    url, json=payload, headers=self._headers(), timeout=self.timeout
                )
            except AuthError:
                raise
            except Exception as exc:  # connection-level failure: retryable
                last_error = TransportError(str(exc))
                logger.warning("remote call failed (attempt %d): %s", attempt + 1, exc)
                continue
            if resp.status_code in (401, 403):
                raise AuthError(f"authentication failed: HTTP {resp.status_code}")
            if resp.status_code == 429:
                try:
                    retry_after = float(resp.headers.get("Retry-After", ""))
                except (TypeError, ValueError):
                    retry_after = math.nan
                # a Retry-After that is not a finite number is ignored
                last_error = RateLimitError("rate limited", retry_after=(
                    min(max(retry_after, 0.0), self.RETRY_AFTER_MAX)
                    if math.isfinite(retry_after) else None))
                continue
            if resp.status_code >= 500:
                last_error = TransportError(f"HTTP {resp.status_code}")
                continue
            if resp.status_code != 200:
                raise GatewayError(f"HTTP {resp.status_code}: {resp.text[:500]}")
            try:
                body = resp.json()
                content = body["choices"][0]["message"]["content"]
                usage = body.get("usage") or {}
                prompt_tokens = _token_count(usage.get("prompt_tokens", 0))
                completion_tokens = _token_count(usage.get("completion_tokens", 0))
            except (ValueError, LookupError, TypeError, AttributeError) as exc:
                raise GatewayError(
                    f"malformed reply: {type(exc).__name__}: {exc}"
                ) from exc
            if not isinstance(content, str):
                raise GatewayError(
                    f"malformed reply: message content is {type(content).__name__}"
                )
            return ChatResponse(
                content=content,
                prompt_tokens=prompt_tokens,
                completion_tokens=completion_tokens,
                backend_tag=self.tag,
            )
        raise last_error or TransportError("remote call failed")


@dataclass
class Gateway:
    """Route-aware facade the agents talk to.

    At most ``max_in_flight`` backend calls run at once across concurrent
    samples: a call takes one of ``max_in_flight`` tokens from a pool, or
    waits for one, and puts it back when it ends.
    """

    backends: dict  # backend id -> backend object
    route: ModelRoute
    temperature: float = 0.0
    max_output_tokens: int = 4096
    max_in_flight: int = 4

    def __post_init__(self):
        if self.max_in_flight < 1:
            raise ValueError("max_in_flight must be at least 1")
        self._tokens = queue.SimpleQueue()
        for _ in range(self.max_in_flight):
            self._tokens.put(None)

    def complete_for_role(self, role: str, messages) -> tuple:
        """Returns (ChatResponse, model_id) for the routed backend."""
        backend_id, model_id = self.route.routes[role]
        backend = self.backends[backend_id]
        request = ChatRequest(
            model_id=model_id,
            messages=list(messages),
            temperature=self.temperature,
            max_output_tokens=self.max_output_tokens,
        )
        self._tokens.get()
        try:
            response = backend.complete(request, role)
        finally:
            self._tokens.put(None)
        return response, model_id
