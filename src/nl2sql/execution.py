"""Sanitize generated SQL, execute it read-only against SQLite files, and
decide execution-accuracy equivalence between result sets."""

import hashlib
import itertools
import math
import os
import re
import sqlite3
import threading
import time
from collections import Counter
from dataclasses import dataclass, field


class SanitizeError(ValueError):
    """No executable statement could be extracted from the raw text."""


@dataclass(frozen=True)
class SqlQuery:
    text: str


@dataclass
class ExecutionOutcome:
    status: str  # success | failure | timeout
    rows: list = field(default_factory=list)
    column_count: int = 0
    error_kind: str = ""  # syntax | missing_entity | type | other
    message: str = ""

    @classmethod
    def success(cls, rows, column_count):
        return cls("success", rows=rows, column_count=column_count)

    @classmethod
    def failure(cls, kind, message):
        return cls("failure", error_kind=kind, message=message)

    @classmethod
    def timeout(cls, message="query execution timed out"):
        return cls("timeout", message=message)


_STATEMENT_START = re.compile(r"\b(SELECT|WITH|VALUES)\b", re.IGNORECASE)
_ORDER_BY_OR_PAREN = re.compile(r"[()]|ORDER\s+BY\b")
_FENCE = re.compile(r"```[ \t]*(?:sql|sqlite|SQL)?\s*\n?(.*?)```", re.DOTALL)

# deliberately excludes words common in English prose (is, in, on, and, or)
_SQL_TOKENS = frozenset(
    """select from where group order having limit offset join like between
    with values union intersect except distinct inner outer cross count avg
    sum min max asc desc exists null""".split()
)


def _line_is_prose(line: str) -> bool:
    if any(ch in line for ch in "(),*=<>"):
        return False
    words = re.findall(r"[A-Za-z_]+", line)
    return not any(w.lower() in _SQL_TOKENS for w in words)


# A literal ('...' or "...", unterminated to the end of the text) or a
# maximal run of text outside one.
_LITERAL_OR_RUN = re.compile(r"'[^']*'?|\"[^\"]*\"?|[^'\"]+")


def _outside_literals(text: str):
    """Yield (start, run) for each maximal run of ``text`` outside a '...'
    or "..." literal; the literals and their quote characters are left out."""
    for match in _LITERAL_OR_RUN.finditer(text):
        run = match.group()
        if run[0] not in "'\"":
            yield match.start(), run


def _cut_at_statement_end(text: str) -> tuple:
    """Return (statement, had_semicolon) up to the first semicolon that is
    outside any string literal."""
    for start, run in _outside_literals(text):
        i = run.find(";")
        if i >= 0:
            return text[:start + i], True
    return text, False


def sanitize(raw: str) -> SqlQuery:
    """Strip code fences, surrounding prose, and trailing semicolons; keep
    the first statement. Raises SanitizeError when no SQL is present."""
    if not raw or not raw.strip():
        raise SanitizeError("empty response")
    text = raw

    fenced = _FENCE.findall(text)
    for block in fenced:
        if _STATEMENT_START.search(block):
            text = block
            break

    match = _STATEMENT_START.search(text)
    if not match:
        raise SanitizeError(f"no SQL statement found in: {raw.strip()[:120]!r}")
    text = text[match.start():]

    statement, had_semicolon = _cut_at_statement_end(text)
    if not had_semicolon:
        # trailing prose: drop trailing lines with no SQL-looking tokens
        lines = statement.rstrip().splitlines()
        while len(lines) > 1 and _line_is_prose(lines[-1]):
            lines.pop()
        statement = "\n".join(lines)

    statement = statement.strip().rstrip(";").strip()
    if not statement or not _STATEMENT_START.match(statement):
        raise SanitizeError(f"no SQL statement found in: {raw.strip()[:120]!r}")
    return SqlQuery(statement)


def canonical_value(value):
    """Canonical scalar for result comparison: integral reals normalize to
    integers, blobs to a digest; text stays byte-exact."""
    if isinstance(value, float) and value.is_integer():
        return int(value)
    if isinstance(value, (bytes, bytearray, memoryview)):
        return "blob:" + hashlib.sha256(bytes(value)).hexdigest()
    return value


# Types canonical_value returns unchanged.
_CANONICAL_TYPES = frozenset((int, str, type(None)))


def canonical_rows(raw_rows: list) -> list:
    """Rows with every value passed through canonical_value. When every
    value is an int, str or None, ``raw_rows`` itself is returned; otherwise
    a row of only such values is kept as the same tuple."""
    if _CANONICAL_TYPES.issuperset(map(type, itertools.chain.from_iterable(raw_rows))):
        return raw_rows
    return [
        row if _CANONICAL_TYPES.issuperset(map(type, row))
        else tuple(canonical_value(v) for v in row)
        for row in raw_rows
    ]


_ERROR_KINDS = (
    (re.compile(r"syntax error|incomplete input|unrecognized token", re.I), "syntax"),
    (re.compile(r"no such (table|column|function)", re.I), "missing_entity"),
    (re.compile(r"datatype mismatch", re.I), "type"),
)


def _classify_error(message: str) -> str:
    for pattern, kind in _ERROR_KINDS:
        if pattern.search(message):
            return kind
    return "other"


def connect_readonly(db_file) -> sqlite3.Connection:
    """A connection to ``db_file`` that cannot write: opened with the
    ``mode=ro`` URI and set ``query_only``. Raises OSError when the file
    cannot be opened."""
    try:
        conn = sqlite3.connect(f"file:{db_file}?mode=ro", uri=True)
        conn.execute("PRAGMA query_only=1")
    except sqlite3.Error as exc:
        raise OSError(f"cannot open database {db_file}: {exc}") from exc
    return conn


class _Deadlines:
    """Interrupts each armed connection at its deadline, from one daemon
    thread that starts at the first ``arm``.

    Between deadlines the thread sleeps: ``arm`` wakes it only when it is
    idle or the new deadline comes before its next wake, and ``disarm``
    never does. The thread interrupts under the lock ``disarm`` takes, so
    an interrupt lands only while its query is armed, never on the
    connection's next query.
    """

    def __init__(self):
        self._reset()
        os.register_at_fork(after_in_child=self._reset)

    def _reset(self):
        # A forked child has none of the parent's threads, and its copy of
        # the lock may be held.
        self._cond = threading.Condition(threading.Lock())
        self._armed = {}  # token -> (deadline, connection)
        self._tokens = itertools.count()
        self._wake = math.inf  # the thread's next wake; inf while idle
        self._thread = None

    def arm(self, connection, deadline) -> int:
        """Interrupt ``connection`` at ``deadline`` (``time.monotonic``)
        unless disarmed first; returns the token for ``disarm``."""
        with self._cond:
            token = next(self._tokens)
            self._armed[token] = (deadline, connection)
            if self._thread is None:
                self._thread = threading.Thread(
                    target=self._run, name="nl2sql-deadlines", daemon=True)
                self._thread.start()
            if deadline < self._wake:
                self._wake = deadline
                self._cond.notify()
            return token

    def disarm(self, token) -> None:
        with self._cond:
            self._armed.pop(token, None)

    def _run(self):
        with self._cond:
            while True:
                now = time.monotonic()
                wake = math.inf
                for token, (deadline, connection) in list(self._armed.items()):
                    if deadline <= now:
                        del self._armed[token]
                        try:
                            connection.interrupt()
                        except sqlite3.ProgrammingError:  # closed while armed
                            pass
                    else:
                        wake = min(wake, deadline)
                self._wake = wake
                self._cond.wait(None if wake == math.inf
                                else min(wake - now, threading.TIMEOUT_MAX))


_DEADLINES = _Deadlines()


def execute(connection, query: SqlQuery, timeout: float = 30.0) -> ExecutionOutcome:
    """Run a sanitized query on ``connection`` and materialize canonical rows.

    ``connection`` comes from ``connect_readonly`` and is owned by the
    caller, who closes it. The timeout is wall time from this call: a
    shared deadline thread interrupts the query when it runs out, and the
    outcome is then status ``timeout``. SQLite runs the query without
    calling back into Python.

    Engine errors, and query text SQLite cannot take (a lone surrogate),
    are classified into the outcome, never raised past this boundary.
    """
    if not _STATEMENT_START.match(query.text):
        return ExecutionOutcome.failure("other", "only SELECT/WITH/VALUES statements are executed")
    cursor = connection.cursor()
    token = _DEADLINES.arm(connection, time.monotonic() + timeout)
    try:
        cursor.execute(query.text)
        raw_rows = cursor.fetchall()
        column_count = len(cursor.description) if cursor.description else 0
        rows = canonical_rows(raw_rows)
        return ExecutionOutcome.success(rows, column_count)
    except sqlite3.OperationalError as exc:
        message = str(exc)
        if "interrupted" in message.lower():
            return ExecutionOutcome.timeout()
        return ExecutionOutcome.failure(_classify_error(message), message)
    except sqlite3.Error as exc:
        return ExecutionOutcome.failure(_classify_error(str(exc)), str(exc))
    except UnicodeEncodeError as exc:
        return ExecutionOutcome.failure("other", f"query text cannot be encoded as UTF-8: {exc}")
    finally:
        cursor.close()
        _DEADLINES.disarm(token)


def has_top_level_order_by(query: SqlQuery) -> bool:
    """True iff ORDER BY appears at the outermost statement level, outside
    subqueries, parenthesized set-operands, and string literals."""
    depth = 0
    for _, run in _outside_literals(query.text):
        upper = run.upper()
        for match in _ORDER_BY_OR_PAREN.finditer(upper):
            token, i = match.group(), match.start()
            if token == "(":
                depth += 1
            elif token == ")":
                depth = max(0, depth - 1)
            elif depth == 0 and (i == 0 or not upper[i - 1].isalnum()):
                return True
    return False


def compare_results(gold: ExecutionOutcome, pred: ExecutionOutcome,
                    order_sensitive: bool) -> bool:
    """Execution-accuracy verdict between two outcomes.

    False when either failed or timed out. Column counts must match and
    column order within a row is significant. Rows compare as a sequence
    when order_sensitive, as a multiset otherwise (bag, not set: dropping
    duplicates would mask missing-DISTINCT errors).
    """
    if gold.status != "success" or pred.status != "success":
        return False
    if gold.column_count != pred.column_count or len(gold.rows) != len(pred.rows):
        return False
    if order_sensitive:
        return gold.rows == pred.rows
    # Every count is at least 1, so plain dict equality is bag equality;
    # Counter.__eq__ would walk both counters in Python.
    return dict.__eq__(Counter(gold.rows), Counter(pred.rows))
