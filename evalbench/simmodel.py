"""Question-keyed simulated chat model behind an in-process fake HTTP session.

The model answers from the generator's script by (question, stage role,
failed SQL), so every reply is a pure function of the request and stays the
same under any parallelism. It is reached through ``RemoteBackend`` by a
fake ``session`` whose ``post`` returns OpenAI-format bodies with a
``usage`` block. Token counts are estimated from characters (4 characters
per token), the rule the repository's scripted backend uses.

Each call sleeps for a delay that depends only on its token counts:

    delay = BASE_S + PROMPT_S * prompt_tokens + COMPLETION_S * completion_tokens

which is a remote model scaled down about 300 times, so a run holds many
samples. BASE_S keeps every call longer than the local work between two
calls of one sample, so the two identical questions that open the
cold_latency batch stay in step and both reach the model on every call.
The delay is off (``latency = False``) while caches fill in set-up.
"""

import hashlib
import json
import threading
import time

from gen import NO_SQL

BASE_S = 0.006
PROMPT_S = 1e-6
COMPLETION_S = 20e-6


def estimate_tokens(text):
    return max(1, len(text) // 4)


class SimulatedModel:
    """Replies from a script keyed by question text.

    ``roles`` maps each template's system text to its stage role, which is
    how a request names its stage.
    """

    def __init__(self, script, roles):
        self.script = script
        self.roles = roles
        # longest first, so a question that contains another still wins
        self.questions = sorted(script, key=len, reverse=True)
        self.latency = False
        self._lock = threading.Lock()
        self._seen = set()
        self.calls = 0
        self.duplicates = 0

    def reset_counts(self):
        with self._lock:
            self._seen.clear()
            self.calls = 0
            self.duplicates = 0

    def reply(self, messages):
        system = messages[0]["content"]
        user = messages[1]["content"]
        role = self.roles.get(system)
        question = next((q for q in self.questions if q in user), None)
        if role is None or question is None:
            return "I cannot answer that."
        entry = self.script[question]
        if role in ("correction_plan", "correction_sql"):
            fixes = entry["fixes"]
            matches = [f for f in fixes if f[0] != NO_SQL and f[0] in user]
            fallback = [f for f in fixes if f[0] == NO_SQL]
            chosen = max(matches, key=lambda f: len(f[0])) if matches else (
                fallback[0] if fallback else None)
            if chosen is None:
                return "I cannot answer that."
            return chosen[1] if role == "correction_plan" else chosen[2]
        replies = entry[role]
        reask = any(m["role"] == "assistant" for m in messages)
        return replies[min(int(reask), len(replies) - 1)]

    def post(self, url, json=None, headers=None, timeout=None):
        """The ``requests.Session.post`` that ``RemoteBackend`` calls."""
        messages = json["messages"]
        content = self.reply(messages)
        prompt_tokens = estimate_tokens("".join(m["content"] for m in messages))
        completion_tokens = estimate_tokens(content)
        digest = hashlib.sha256(_dumps(json).encode("utf-8")).hexdigest()
        with self._lock:
            self.calls += 1
            if digest in self._seen:
                self.duplicates += 1
            self._seen.add(digest)
        if self.latency:
            time.sleep(BASE_S + PROMPT_S * prompt_tokens
                       + COMPLETION_S * completion_tokens)
        return _Response({
            "choices": [{"message": {"role": "assistant", "content": content}}],
            "usage": {"prompt_tokens": prompt_tokens,
                      "completion_tokens": completion_tokens,
                      "total_tokens": prompt_tokens + completion_tokens},
        })


def _dumps(payload):
    return json.dumps(payload, sort_keys=True, ensure_ascii=False)


class _Response:
    status_code = 200
    headers = {}
    text = ""

    def __init__(self, body):
        self._body = body

    def json(self):
        return self._body
