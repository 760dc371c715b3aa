"""Sanitize generated SQL, execute it read-only against SQLite files, and
decide execution-accuracy equivalence between result sets."""

import hashlib
import re
import sqlite3
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
_ORDER_BY = re.compile(r"ORDER\s+BY\b")
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


def _outside_literals(text: str):
    """Yield (index, char, paren depth) for every character outside a '...'
    or "..." literal; the quote characters themselves are not yielded."""
    quote = None
    depth = 0
    for i, ch in enumerate(text):
        if quote:
            if ch == quote:
                quote = None
        elif ch in "'\"":
            quote = ch
        else:
            if ch == "(":
                depth += 1
            elif ch == ")":
                depth = max(0, depth - 1)
            yield i, ch, depth


def _cut_at_statement_end(text: str) -> tuple:
    """Return (statement, had_semicolon) up to the first semicolon that is
    outside any string literal."""
    for i, ch, _ in _outside_literals(text):
        if ch == ";":
            return text[:i], True
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


# Types canonical_value returns unchanged: a row of only these is kept as is.
_CANONICAL_TYPES = frozenset((int, str, type(None)))


def canonical_rows(raw_rows) -> list:
    """Rows with every value passed through canonical_value. A row whose
    values are all ints, strs or None is kept as the same tuple."""
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


def execute(db_file, query: SqlQuery, timeout: float = 30.0) -> ExecutionOutcome:
    """Run a sanitized query read-only and materialize canonical rows.

    Engine errors are classified into the outcome, never raised past this
    boundary; only an unreadable file raises.
    """
    if not _STATEMENT_START.match(query.text):
        return ExecutionOutcome.failure("other", "only SELECT/WITH/VALUES statements are executed")
    try:
        conn = sqlite3.connect(f"file:{db_file}?mode=ro", uri=True)
    except sqlite3.Error as exc:
        raise OSError(f"cannot open database {db_file}: {exc}") from exc
    deadline = time.monotonic() + timeout
    conn.set_progress_handler(lambda: 1 if time.monotonic() > deadline else 0, 10_000)
    try:
        cursor = conn.execute(query.text)
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
    finally:
        conn.close()


def has_top_level_order_by(query: SqlQuery) -> bool:
    """True iff ORDER BY appears at the outermost statement level, outside
    subqueries, parenthesized set-operands, and string literals."""
    upper = query.text.upper()
    for i, _, depth in _outside_literals(query.text):
        if (depth == 0 and _ORDER_BY.match(upper, i)
                and (i == 0 or not upper[i - 1].isalnum())):
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
    if gold.column_count != pred.column_count:
        return False
    if order_sensitive:
        return gold.rows == pred.rows
    return Counter(gold.rows) == Counter(pred.rows)
