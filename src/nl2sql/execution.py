"""Sanitize generated SQL, execute it read-only against SQLite files, and
decide execution-accuracy equivalence between result sets."""

import hashlib
import itertools
import math
import os
import re
import sqlite3
import string
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
_ORDER_BY_OR_PAREN = re.compile(r"[()]|order[ \t\n\f\r]+by\b", re.IGNORECASE)
# "order", then whitespace or a comment: "order by" in canonical_sql's form needs it
_ORDER_THEN_SPACE = re.compile(r"order(?:[ \t\n\f\r]|--|/\*)", re.IGNORECASE)
_FENCE = re.compile(r"```[ \t]*(?:sql|sqlite|SQL)?\s*\n?(.*?)```", re.DOTALL)
# In unfenced text: a comment, -- at the start of a line or a closed /* */
# anywhere, or a statement start. A -- inside a line of prose is a dash.
_UNFENCED_START = re.compile(r"""
    (?P<comment> ^[ \t]*--[^\n]* | /\*.*?\*/ )
  | (?P<start> \b(?:SELECT|WITH|VALUES)\b )
""", re.VERBOSE | re.IGNORECASE | re.MULTILINE | re.DOTALL)

# deliberately excludes words common in English prose (is, in, on, and, or)
_SQL_TOKENS = frozenset(
    """select from where group order having limit offset join like between
    with values union intersect except distinct inner outer cross count avg
    sum min max asc desc exists null""".split()
)
_WORD = re.compile(r"[A-Za-z_]+")


def _line_is_prose(line: str) -> bool:
    if any(ch in line for ch in "(),*=<>"):
        return False
    words = _WORD.findall(line)
    return not any(w.lower() in _SQL_TOKENS for w in words)


# One token of SQLite's tokenizer, as far as a scan of the text needs it: a
# quoted token ('...', "...", `...` or [...]; SQLite's doubled quote reads
# as two adjacent tokens), a comment (-- to the end of the line, or /* to
# */), or other text, a maximal run without those openers or a lone "/" or
# "-". A quoted token or comment left open runs to the end of the text, as
# in SQLite.
_TOKEN = re.compile(r"""
    (?P<quoted> '[^']*'? | "[^"]*"? | `[^`]*`? | \[[^\]]*\]? )
  | (?P<comment> --[^\n]* | /\*.*?(?:\*/|\Z) )
  | [^'"`\[/-]+ | [/-]
""", re.VERBOSE | re.DOTALL)
# SQLite's whitespace; a vertical tab, say, is not.
_SQL_SPACE = re.compile(r"[ \t\n\f\r]+")
_ASCII_LOWER = str.maketrans(string.ascii_uppercase, string.ascii_lowercase)


def _code_runs(text: str):
    """Yield (start, run) for each run of ``text`` outside quoted tokens
    and comments; the quote characters and comment markers are left out."""
    for match in _TOKEN.finditer(text):
        if match.lastgroup is None:
            yield match.start(), match.group()


def _fold(code: str) -> str:
    """Code outside quoted tokens with its whitespace runs made one space
    and its ASCII letters lowered; other letters stay, as SQLite folds only
    ASCII case."""
    code = code.lower() if code.isascii() else code.translate(_ASCII_LOWER)
    if not code.isprintable():  # a tab or line break, say
        code = _SQL_SPACE.sub(" ", code)
    while "  " in code:
        code = code.replace("  ", " ")
    return code


def canonical_sql(text: str) -> str:
    """``text`` in a form that two SQL texts share when SQLite reads them
    as the same token sequence: comments become whitespace, each whitespace
    run one space (none at either end), and ASCII letters outside quoted
    tokens are lowered. Quoted tokens are kept as written, so 'Leeds' and
    'leeds' stay apart. Text that SQLite cannot take, as it holds a lone
    surrogate, is its own form."""
    if not text.isascii():
        try:
            text.encode("utf-8")
        except UnicodeEncodeError:
            return text
    parts = []
    code = []  # the text since the last quoted token, comments as spaces
    for match in _TOKEN.finditer(text):
        kind = match.lastgroup
        if kind == "quoted":
            parts += (_fold("".join(code)), match.group())
            code = []
        else:
            code.append(" " if kind else match.group())
    parts.append(_fold("".join(code)))
    parts[0] = parts[0].lstrip(" ")
    parts[-1] = parts[-1].rstrip(" ")
    return "".join(parts)


def _cut_at_statement_end(text: str) -> tuple:
    """Return (statement, had_semicolon) up to the first semicolon that is
    outside any quoted token or comment."""
    for start, run in _code_runs(text):
        i = run.find(";")
        if i >= 0:
            return text[:start + i], True
    return text, False


def _statement_start(sql: str):
    """Where the first SELECT, WITH or VALUES outside quoted tokens and
    comments of ``sql`` starts; None when there is none."""
    for start, run in _code_runs(sql):
        match = _STATEMENT_START.search(run)
        if match:
            return start + match.start()
    return None


def sanitize(raw: str) -> SqlQuery:
    """Strip code fences, surrounding prose, and trailing semicolons; keep
    the first statement. It comes from the first fenced block that has one,
    else from the whole reply, where it starts at the first SELECT, WITH or
    VALUES outside comments (prose around unfenced SQL has apostrophes that
    are not quotes). Raises SanitizeError when no SQL is present."""
    if not raw or not raw.strip():
        raise SanitizeError("empty response")
    text = raw

    start = None
    for block in _FENCE.findall(text):
        start = _statement_start(block)
        if start is not None:
            text = block
            break
    if start is None:
        start = next((match.start() for match in _UNFENCED_START.finditer(text)
                      if match.lastgroup == "start"), None)
        if start is None:
            raise SanitizeError(f"no SQL statement found in: {raw.strip()[:120]!r}")
    text = text[start:]

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
    ``mode=ro`` URI and set ``query_only``, once SQLite has read the file's
    header as a first query would. Raises OSError when the file cannot be
    opened or is not a database."""
    try:
        conn = sqlite3.connect(f"file:{db_file}?mode=ro", uri=True)
    except sqlite3.Error as exc:
        raise OSError(f"cannot open database {db_file}: {exc}") from exc
    try:
        conn.execute("PRAGMA schema_version").close()
        conn.execute("PRAGMA query_only=1")
    except sqlite3.Error as exc:
        conn.close()
        raise OSError(f"cannot read database {db_file}: {exc}") from exc
    return conn


def larger_than_cache(connection) -> bool:
    """Whether the database of ``connection`` holds more bytes than the
    connection's page cache (``cache_size``: pages if positive, else KiB);
    False when SQLite cannot read the file as a database."""
    try:
        (pages,), (page_size,), (cache,) = (
            connection.execute(f"PRAGMA {name}").fetchone()
            for name in ("page_count", "page_size", "cache_size"))
    except sqlite3.Error:
        return False
    return pages * page_size > (cache * page_size if cache > 0 else -cache * 1024)


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
        self._lock = threading.Lock()
        self._cond = threading.Condition(self._lock)
        self._armed = {}  # token -> (deadline, connection)
        self._tokens = itertools.count()
        self._wake = math.inf  # the thread's next wake; inf while idle
        self._thread = None

    def arm(self, connection, deadline) -> int:
        """Interrupt ``connection`` at ``deadline`` (``time.monotonic``)
        unless disarmed first; returns the token for ``disarm``."""
        with self._lock:
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
        with self._lock:
            self._armed.pop(token, None)

    def _run(self):
        with self._lock:
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
    # past leading whitespace and comments too, as SQLite reads them, so that
    # texts with one canonical_sql form are all run or all refused
    if not (_STATEMENT_START.match(query.text)
            or _STATEMENT_START.match(canonical_sql(query.text))):
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


def program(connection, query: SqlQuery):
    """The program SQLite compiles ``query`` to on ``connection``: the
    (opcode, p1, p2, p3, p4, p5) of each row of ``EXPLAIN``, without the
    comment column and the ``Init`` row's p4, which may hold the text. None
    when the text does not compile, as when it holds two statements or a
    lone surrogate. ``EXPLAIN`` runs no part of the query, so no deadline
    is armed."""
    cursor = connection.cursor()
    try:
        rows = cursor.execute("EXPLAIN " + query.text).fetchall()
    # before Python 3.11, two statements raise sqlite3.Warning
    except (sqlite3.Error, sqlite3.Warning, UnicodeEncodeError):
        return None
    finally:
        cursor.close()
    return tuple((opcode, p1, p2, p3, None if opcode == "Init" else p4, p5)
                 for _, opcode, p1, p2, p3, p4, p5, _ in rows)


def has_top_level_order_by(query: SqlQuery) -> bool:
    """True iff ORDER BY appears at the outermost statement level, outside
    subqueries, parenthesized set-operands, quoted tokens and comments."""
    if not _ORDER_THEN_SPACE.search(query.text):  # so none in its canonical form
        return False
    depth = 0
    for _, run in _code_runs(canonical_sql(query.text)):
        for match in _ORDER_BY_OR_PAREN.finditer(run):
            token, i = match.group(), match.start()
            if token == "(":
                depth += 1
            elif token == ")":
                depth = max(0, depth - 1)
            elif depth == 0 and (i == 0 or not run[i - 1].isalnum()):
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
