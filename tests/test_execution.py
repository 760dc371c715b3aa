import contextlib
import re
import sqlite3
import threading
import time
from collections import Counter

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from nl2sql import execution
from nl2sql.execution import (
    ExecutionOutcome,
    SanitizeError,
    SqlQuery,
    _cut_at_statement_end,
    canonical_rows,
    canonical_sql,
    canonical_value,
    compare_results,
    connect_readonly,
    execute,
    has_top_level_order_by,
    program,
    sanitize,
)

from conftest import execute_once


# --- sanitizer corpus -------------------------------------------------------

SANITIZE_CORPUS = [
    ("```sql\nSELECT * FROM t;\n```", "SELECT * FROM t"),
    ("Sure! The query is: SELECT name FROM singer ; hope that helps",
     "SELECT name FROM singer"),
    ("SELECT 1", "SELECT 1"),
    ("SELECT 1;", "SELECT 1"),
    ("SELECT 1;;;", "SELECT 1"),
    ("```\nSELECT a FROM b\n```", "SELECT a FROM b"),
    ("```json\n{}\n```\nSELECT a FROM b", "SELECT a FROM b"),
    ("Here is the query:\n\nSELECT a\nFROM b\nWHERE c = 1",
     "SELECT a\nFROM b\nWHERE c = 1"),
    ("SELECT a FROM b; SELECT c FROM d;", "SELECT a FROM b"),
    ("WITH x AS (SELECT 1) SELECT * FROM x", "WITH x AS (SELECT 1) SELECT * FROM x"),
    ("SELECT name FROM t WHERE note = 'semi;colon'",
     "SELECT name FROM t WHERE note = 'semi;colon'"),
    ("```sql\nSELECT name\nFROM singer\nWHERE age > 20;\n```\nThis query filters singers.",
     "SELECT name\nFROM singer\nWHERE age > 20"),
    ("select lower(name) from singer", "select lower(name) from singer"),
    ("VALUES (1, 2)", "VALUES (1, 2)"),
    ("Answer:\nSELECT COUNT(*) FROM singer\nHope this is useful!",
     "SELECT COUNT(*) FROM singer"),
    ("SELECT a FROM b\n\nExplanation: this combines nothing.", "SELECT a FROM b"),
    ("Use this:\n```sql\nSELECT DISTINCT country FROM singer;\n```",
     "SELECT DISTINCT country FROM singer"),
    ("1. SELECT title FROM album", "SELECT title FROM album"),
    ("WITH RECURSIVE t(n) AS (SELECT 1) SELECT n FROM t;",
     "WITH RECURSIVE t(n) AS (SELECT 1) SELECT n FROM t"),
    ("  \n\tSELECT  x  FROM  y  \n", "SELECT  x  FROM  y"),
    ("The query you want is SELECT id FROM t;", "SELECT id FROM t"),
    ("```sql\nselect a from b;\n```\n\nLet me know if you need anything else.",
     "select a from b"),
    # a semicolon in a comment does not end the statement
    ("SELECT name FROM singer -- names only; no ids\nWHERE age > 30;",
     "SELECT name FROM singer -- names only; no ids\nWHERE age > 30"),
    ("SELECT name /* pick; names */ FROM singer WHERE age > 30",
     "SELECT name /* pick; names */ FROM singer WHERE age > 30"),
    ("SELECT [a;b], `c;d` FROM t; SELECT 2", "SELECT [a;b], `c;d` FROM t"),
    # nor does a keyword in a comment or literal of a fenced block start it
    ("```sql\n-- select every singer name\nSELECT name FROM singer;\n```",
     "SELECT name FROM singer"),
    ("```sql\n/* WITH care */ 'values' -- VALUES\nSELECT 'select' FROM t\n```",
     "SELECT 'select' FROM t"),
]

SANITIZE_REJECTS = [
    "I cannot answer that.",
    "The answer is 42.",
    "DROP TABLE singer;",
    "UPDATE singer SET age = 1;",
    "sorry",
]


@pytest.mark.parametrize("raw,expected", SANITIZE_CORPUS)
def test_sanitize_corpus(raw, expected):
    assert sanitize(raw).text == expected


@pytest.mark.parametrize("raw", SANITIZE_REJECTS)
def test_sanitize_rejects(raw):
    with pytest.raises(SanitizeError):
        sanitize(raw)


@pytest.mark.parametrize("raw", [
    "-- select every singer name\nSELECT name FROM singer",
    "/* with care */ SELECT name FROM singer",
    "  -- values of note\n/* a\nselect */\nSELECT name FROM singer;",
    # an apostrophe in prose is not a quote, nor a dash in a line a comment
    "Here's the query: SELECT name FROM singer",
    "Here it is -- SELECT name FROM singer",
])
def test_unfenced_reply_skips_comments_before_its_statement(raw):
    assert sanitize(raw).text == "SELECT name FROM singer"


def test_sanitize_empty_input():
    with pytest.raises(SanitizeError):
        sanitize("")
    with pytest.raises(SanitizeError):
        sanitize("   \n  ")


@pytest.mark.parametrize("raw,expected", SANITIZE_CORPUS)
def test_sanitize_idempotent(raw, expected):
    once = sanitize(raw)
    assert sanitize(once.text).text == once.text


@given(st.text())
@settings(max_examples=200)
def test_sanitize_idempotent_on_arbitrary_text(text):
    try:
        once = sanitize(text)
    except SanitizeError:
        return
    assert sanitize(once.text).text == once.text


# --- execution ---------------------------------------------------------------

def db_bytes(path):
    with open(path, "rb") as fh:
        return fh.read()


@pytest.fixture()
def guarded_db(fixture_db):
    """Fails the test if any execution mutates the database file."""
    before = db_bytes(fixture_db)
    yield fixture_db
    assert db_bytes(fixture_db) == before, "database file was mutated"


def test_execute_count(guarded_db):
    outcome = execute_once(guarded_db, SqlQuery("SELECT COUNT(*) FROM singer"))
    assert outcome.status == "success"
    assert outcome.rows == [(6,)]
    assert outcome.column_count == 1


def test_execute_missing_entity(guarded_db):
    outcome = execute_once(guarded_db, SqlQuery("SELECT * FROM nonexistent"))
    assert outcome.status == "failure"
    assert outcome.error_kind == "missing_entity"
    assert "nonexistent" in outcome.message


def test_execute_syntax_error(guarded_db):
    outcome = execute_once(guarded_db, SqlQuery("SELECT FROM WHERE"))
    assert outcome.status == "failure"
    assert outcome.error_kind == "syntax"


def test_execute_timeout(guarded_db):
    slow = SqlQuery(
        "WITH RECURSIVE c(x) AS (SELECT 1 UNION ALL SELECT x+1 FROM c) "
        "SELECT count(*) FROM c"
    )
    outcome = execute_once(guarded_db, slow, timeout=0.2)
    assert outcome.status == "timeout"


def test_execute_reads_past_leading_comments(guarded_db):
    outcome = execute_once(guarded_db, SqlQuery("-- how many\n/* singers */ SELECT COUNT(*) FROM singer"))
    assert outcome.status == "success" and outcome.rows == [(6,)]
    refused = execute_once(guarded_db, SqlQuery("/* SELECT */ DELETE FROM singer"))
    assert refused.status == "failure"


def test_execute_rejects_write_statements(guarded_db):
    outcome = execute_once(guarded_db, SqlQuery("DELETE FROM singer"))
    assert outcome.status == "failure"


def test_execute_write_via_cte_fails_readonly(guarded_db):
    # even a statement passing the keyword guard cannot write: mode=ro
    outcome = execute_once(guarded_db, SqlQuery("SELECT * FROM singer"), timeout=5)
    assert outcome.status == "success"
    ro = execute_once(guarded_db, SqlQuery("WITH x AS (SELECT 1) INSERT INTO singer VALUES (99,'x','y',1)"))
    assert ro.status == "failure"


def test_execute_unreadable_file(tmp_path):
    with pytest.raises(OSError):
        connect_readonly(tmp_path / "missing" / "no.sqlite")


def test_connect_readonly_refuses_a_file_that_is_not_a_database(tmp_path):
    path = tmp_path / "notes.sqlite"
    path.write_bytes(b"not a database " * 1000)
    with pytest.raises(OSError, match=r"^cannot read database .*: file is not a database$"):
        connect_readonly(path)


def test_execute_lone_surrogate_is_a_failure(guarded_db):
    # SQLite takes UTF-8 only; the query cannot reach it, and must not raise
    outcome = execute_once(guarded_db, SqlQuery("SELECT 1 -- \ud800"))
    assert outcome.status == "failure"
    assert outcome.error_kind == "other"


# --- held connections -----------------------------------------------------------

COUNT_TO_100K = SqlQuery(
    "WITH RECURSIVE c(x) AS (SELECT 1 UNION ALL SELECT x+1 FROM c WHERE x < 100000) "
    "SELECT count(*) FROM c"
)


def test_held_connection_cannot_write(guarded_db):
    conn = connect_readonly(guarded_db)
    try:
        assert conn.execute("PRAGMA query_only").fetchone() == (1,)
        for sql in ("DELETE FROM singer",
                    "WITH x AS (SELECT 1) INSERT INTO singer VALUES (99,'x','y',1)"):
            assert execute(conn, SqlQuery(sql)).status == "failure"
    finally:
        conn.close()


def test_held_connection_after_timeout_runs_next_query_with_fresh_deadline(guarded_db):
    slow = SqlQuery(
        "WITH RECURSIVE c(x) AS (SELECT 1 UNION ALL SELECT x+1 FROM c) "
        "SELECT count(*) FROM c"
    )
    conn = connect_readonly(guarded_db)
    try:
        assert execute(conn, slow, timeout=0.05).status == "timeout"
        time.sleep(0.06)  # the first deadline has passed
        # runs long enough that a stale deadline would interrupt it
        outcome = execute(conn, COUNT_TO_100K, timeout=30)
        assert outcome.status == "success" and outcome.rows == [(100000,)]
        again = execute(conn, SqlQuery("SELECT COUNT(*) FROM singer"))
        assert again.rows == [(6,)]
    finally:
        conn.close()


def test_held_connection_progress_handler_cleared_after_query(guarded_db):
    conn = connect_readonly(guarded_db)
    try:
        execute(conn, SqlQuery("SELECT 1"), timeout=0.01)
        time.sleep(0.02)
        # the caller's own statement runs past that query's deadline
        assert conn.execute(COUNT_TO_100K.text).fetchall() == [(100000,)]
    finally:
        conn.close()


# --- the deadline thread ----------------------------------------------------------

FOREVER = SqlQuery(
    "WITH RECURSIVE c(x) AS (SELECT 1 UNION ALL SELECT x+1 FROM c) "
    "SELECT count(*) FROM c"
)


@pytest.fixture()
def cross_join_db(tmp_path):
    """A database whose three-way cross join runs for many seconds."""
    path = tmp_path / "big.sqlite"
    with contextlib.closing(sqlite3.connect(path)) as conn:
        conn.execute("CREATE TABLE t (x INTEGER)")
        conn.executemany("INSERT INTO t VALUES (?)", ((i,) for i in range(1000)))
        conn.commit()
    return path


def test_cross_join_stops_at_its_timeout_without_polling_the_clock(cross_join_db,
                                                                  monkeypatch):
    me, reads = threading.get_ident(), Counter()
    monotonic = time.monotonic

    def counting_monotonic():
        reads[threading.get_ident() == me] += 1
        return monotonic()

    monkeypatch.setattr(time, "monotonic", counting_monotonic)
    with contextlib.closing(connect_readonly(cross_join_db)) as conn:
        outcome = execute(conn, SqlQuery("SELECT count(*) FROM t a, t b, t c"),
                          timeout=0.2)
    assert outcome.status == "timeout"
    # one read for the deadline; a progress handler read it every few ms
    assert reads[True] <= 2


def test_query_after_one_that_ends_at_its_deadline_is_not_interrupted(guarded_db):
    count_to_10k = SqlQuery(
        "WITH RECURSIVE c(x) AS (SELECT 1 UNION ALL SELECT x+1 FROM c WHERE x < 10000) "
        "SELECT count(*) FROM c"
    )
    with contextlib.closing(connect_readonly(guarded_db)) as conn:
        statuses = Counter()
        for timeout in (0.0, 1e-5, 1e-4, 1e-3) * 25:
            # the deadline passes while this query runs or just after it ends
            statuses[execute(conn, SqlQuery("SELECT COUNT(*) FROM singer"),
                             timeout=timeout).status] += 1
            outcome = execute(conn, count_to_10k, timeout=30)
            assert outcome.status == "success" and outcome.rows == [(10000,)]
    assert set(statuses) <= {"success", "timeout"}


def test_threads_with_different_timeouts_each_get_their_own(guarded_db):
    timeouts = (0.05, 0.1, 0.15)
    results = {}

    def run_forever(timeout):
        with contextlib.closing(connect_readonly(guarded_db)) as conn:
            start = time.monotonic()
            status = execute(conn, FOREVER, timeout=timeout).status
            results[timeout] = status, time.monotonic() - start

    threads = [threading.Thread(target=run_forever, args=(t,)) for t in timeouts]
    for thread in threads:
        thread.start()
    finite = []
    with contextlib.closing(connect_readonly(guarded_db)) as conn:
        # runs while the other deadlines fire, and must never be cut short
        while not finite or any(thread.is_alive() for thread in threads):
            finite.append(execute(conn, COUNT_TO_100K, timeout=30))
    for thread in threads:
        thread.join(timeout=30)
        assert not thread.is_alive()
    assert all(o.status == "success" and o.rows == [(100000,)] for o in finite)
    for timeout in timeouts:
        status, elapsed = results[timeout]
        # the interrupt never comes before the query's own deadline
        assert status == "timeout" and elapsed >= timeout


def test_executes_share_one_deadline_thread(guarded_db):
    before = threading.active_count()
    with contextlib.closing(connect_readonly(guarded_db)) as conn:
        for _ in range(1000):
            assert execute(conn, SqlQuery("SELECT 1")).status == "success"
    assert threading.active_count() <= before + 1


def test_canonical_values():
    assert canonical_value(6.0) == 6
    assert canonical_value(6) == 6
    assert canonical_value("6") == "6"
    assert canonical_value(6.5) == 6.5
    assert canonical_value(None) is None
    assert canonical_value(b"abc").startswith("blob:")


_values = (
    st.integers()
    | st.integers(-2**53, 2**53).map(float)  # integral floats
    | st.floats(allow_nan=False)
    | st.text()
    | st.binary()
    | st.none()
)


@given(st.lists(st.lists(_values, max_size=5).map(tuple), max_size=8))
def test_canonical_rows_match_per_value_canonicalization(raw_rows):
    assert canonical_rows(raw_rows) == [
        tuple(canonical_value(v) for v in row) for row in raw_rows
    ]


def test_canonical_rows_keeps_an_all_int_result_and_fixes_a_late_float():
    raw = [(i, f"name {i}", None) for i in range(1000)]
    assert canonical_rows(raw) is raw
    raw[-1] = (999.0, "name 999", None)
    rows = canonical_rows(raw)
    assert rows[-1] == (999, "name 999", None) and type(rows[-1][0]) is int
    assert all(new is old for new, old in zip(rows[:-1], raw[:-1]))


def test_execute_canonicalizes_mixed_rows(tmp_path):
    path = tmp_path / "mixed.sqlite"
    conn = sqlite3.connect(path)
    conn.execute("CREATE TABLE t (a, b, c)")
    conn.executemany("INSERT INTO t VALUES (?, ?, ?)", [
        (1, "x", None), (2.0, "y", 3), (2.5, b"\x00", None),
    ])
    conn.commit()
    conn.close()
    outcome = execute_once(str(path), SqlQuery("SELECT a, b, c FROM t ORDER BY rowid"))
    assert outcome.rows == [
        (1, "x", None), (2, "y", 3), (2.5, canonical_value(b"\x00"), None),
    ]
    assert type(outcome.rows[1][0]) is int


# --- top-level ORDER BY detection -------------------------------------------

@pytest.mark.parametrize("sql,expected", [
    ("SELECT a FROM t ORDER BY a", True),
    ("SELECT a FROM (SELECT a FROM t ORDER BY a) LIMIT 3", False),
    ("SELECT a FROM t", False),
    ("SELECT a FROM t UNION SELECT b FROM u ORDER BY 1", True),
    ("SELECT a FROM t WHERE x = 'ORDER BY'", False),
    ("SELECT a, (SELECT max(b) FROM u ORDER BY b) FROM t", False),
    ("select a from t order      by a", True),
    ("SELECT a FROM t ORDER\nBY a", True),
    ("SELECT name FROM singer -- ORDER BY name", False),
    ("SELECT name FROM singer /* ORDER BY name */", False),
    ("SELECT name FROM singer -- the singer's name\nORDER BY name", True),
    ("SELECT [it's] FROM t ORDER BY 1", True),
    ("SELECT `it's` FROM t ORDER /* by what? */ BY 1", True),
    ("SELECT a FROM t ORDER/* x */BY a", True),
    ("SELECT a FROM t ORDER-- x\nBY a", True),
    ("SELECT o.order_id FROM orders AS o", False),
])
def test_has_top_level_order_by(sql, expected):
    assert has_top_level_order_by(SqlQuery(sql)) is expected


# --- the lexer against a per-character reference ---------------------------------
# The reference reads SQLite's quoted tokens and comments one character at a
# time; the callers below are built on it as the library's are on the lexer.

_SQL_BLANKS = " \t\n\f\r"
_CLOSERS = {"'": "'", '"': '"', "`": "`", "[": "]"}


def _reference_lex(text):
    """Yield (i, ch, kind) for each character: kind is "quoted" inside a
    quoted token (its quotes included), "comment" inside a comment (its
    markers included, the newline that ends a -- comment not), else "code"."""
    state, opened = "code", 0  # state: "code", "--", "/*" or a closing quote
    for i, ch in enumerate(text):
        if state == "code":
            if ch in _CLOSERS:
                state, opened = _CLOSERS[ch], i
            elif text.startswith(("--", "/*"), i):
                state, opened = text[i:i + 2], i
            else:
                yield i, ch, "code"
                continue
            yield i, ch, "quoted" if state in _CLOSERS.values() else "comment"
        elif state == "--":
            if ch == "\n":
                state = "code"
                yield i, ch, "code"
            else:
                yield i, ch, "comment"
        elif state == "/*":
            yield i, ch, "comment"
            if ch == "/" and text[i - 1] == "*" and i >= opened + 3:
                state = "code"
        else:
            yield i, ch, "quoted"
            if ch == state and i > opened:
                state = "code"


def _reference_canonical_sql(text):
    if any("\ud800" <= ch <= "\udfff" for ch in text):
        return text  # SQLite cannot take it
    out = []  # (character, inside a quoted token)
    for _, ch, kind in _reference_lex(text):
        if kind == "quoted":
            out.append((ch, True))
            continue
        if kind == "comment" or ch in _SQL_BLANKS:
            ch = " "
        elif "A" <= ch <= "Z":
            ch = ch.lower()
        if ch == " " and (not out or out[-1] == (" ", False)):
            continue
        out.append((ch, False))
    if out and out[-1] == (" ", False):
        out.pop()
    return "".join(ch for ch, _ in out)


def _reference_cut_at_statement_end(text):
    for i, ch, kind in _reference_lex(text):
        if kind == "code" and ch == ";":
            return text[:i], True
    return text, False


def _reference_has_top_level_order_by(text):
    canonical = _reference_canonical_sql(text)
    depth = 0
    for i, ch, kind in _reference_lex(canonical):
        if kind != "code":
            continue
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth = max(0, depth - 1)
        elif (depth == 0 and re.compile(r"order[ \t\n\f\r]+by\b", re.I).match(canonical, i)
              and (i == 0 or not canonical[i - 1].isalnum())):
            return True
    return False


# SQL-shaped fragments, with every quote, bracket and comment marker
_SQL_PIECES = st.sampled_from([
    "ORDER BY", "order\n by", "Order", "BY", "x", "1", "_", " ", "\t", "\n",
    "\r", "\f", "\v", "(", ")", "'", "\"", "`", "[", "]", ";", "-", "--", "/",
    "*", "/*", "*/", "ΑΣ", "é", "İ", "ß", "\ud800",
])
_sql_like = st.lists(_SQL_PIECES, max_size=16).map("".join) | st.text(max_size=40)


@given(_sql_like)
@settings(max_examples=500)
def test_literal_scan_callers_match_reference(text):
    assert _cut_at_statement_end(text) == _reference_cut_at_statement_end(text)
    assert has_top_level_order_by(SqlQuery(text)) is _reference_has_top_level_order_by(text)
    assert canonical_sql(text) == _reference_canonical_sql(text)


def _old_has_top_level_order_by(text):
    """has_top_level_order_by before it returned early for a text without
    "order" and then whitespace or a comment."""
    depth = 0
    for _, run in execution._code_runs(canonical_sql(text)):
        for match in execution._ORDER_BY_OR_PAREN.finditer(run):
            token, i = match.group(), match.start()
            if token == "(":
                depth += 1
            elif token == ")":
                depth = max(0, depth - 1)
            elif depth == 0 and (i == 0 or not run[i - 1].isalnum()):
                return True
    return False


# Pieces without "order", and pieces that spell it only in a quoted token, a
# comment, an identifier or non-ASCII letters; some texts also get a plain
# ORDER BY in mixed case, or one with a comment for its space.
_ORDERLESS_PIECES = st.sampled_from([
    "SELECT a FROM t", "BY", "x", " ", "\n", "(", ")", "'", "\"", "[", "]", "--", "/*", "*/",
    "ord", "er", "ORD", "ER", "ΑΣ", "İ", "\ud800",
])
_HIDDEN_ORDER_PIECES = st.sampled_from([
    "'ORDER BY x'", '"order by"', "`Order By`", "[ORDER BY]", "-- ORDER BY x\n",
    "/* order by */", "reorder by", "order_by", "ORDERS BY", "ＯＲＤＥＲ ＢＹ", "ÖRDER BY",
    "ᴏʀᴅᴇʀ by", "orders", "o.order_year", "ORDER", "order",
])


@given(st.lists(_ORDERLESS_PIECES, max_size=12).map("".join)
       | st.lists(_ORDERLESS_PIECES | _HIDDEN_ORDER_PIECES, max_size=12).map("".join)
       | st.lists(_ORDERLESS_PIECES | _HIDDEN_ORDER_PIECES
                  | st.sampled_from(["ORDER BY a", "Order\tby", "oRdEr BY", "order--x\nby",
                                     "ORDER/**/BY"]),
                  max_size=12).map("".join))
@settings(max_examples=500)
def test_order_by_fast_path_matches_the_old_scan_and_the_reference(text):
    expected = _old_has_top_level_order_by(text)
    assert _reference_has_top_level_order_by(text) is expected
    assert has_top_level_order_by(SqlQuery(text)) is expected


@pytest.mark.parametrize("text,expected", [
    ("  SELECT /* x */ A\tFROM [T T]  -- y\n 'x  y' ", "select a from [T T] 'x  y'"),
    ("SELECT 1 -- it's\n, 'A'", "select 1 , 'A'"),
    ("SELECT `Ab`, \"Cd\", [Ef] FROM T", "select `Ab`, \"Cd\", [Ef] from t"),
    ("SELECT 'it''S' FROM t", "select 'it''S' from t"),
    ("SELECT Été FROM t", "select Été from t"),  # SQLite folds ASCII only
    ("SELECT 1\v", "select 1\v"),  # not SQLite whitespace
    ("SELECT 1 /* open", "select 1"),
    ("SELECT 'open  ", "select 'open  "),
    ("SELECT 1-/**/-1", "select 1- -1"),
    ("SELECT 1 -- \ud800", "SELECT 1 -- \ud800"),  # SQLite cannot take it
])
def test_canonical_sql(text, expected):
    assert canonical_sql(text) == expected


def test_canonical_sql_keeps_whitespace_and_case_inside_literals():
    assert (canonical_sql("SELECT 1 WHERE a = 'x  y'")
            != canonical_sql("SELECT 1 WHERE a = 'x y'"))
    assert canonical_sql("SELECT 'Leeds'") != canonical_sql("SELECT 'leeds'")


# --- comparator oracle suite --------------------------------------------------
# Expected verdicts were computed with the independent raw-sqlite3 oracle
# below and frozen; the oracle re-runs at test time and must agree.

COMPARATOR_PAIRS = [
    # (gold, pred, gold_has_top_level_order_by, expected_verdict)
    ("SELECT COUNT(*) FROM singer", "SELECT COUNT(*) FROM singer", False, True),
    ("SELECT COUNT(*) FROM singer", "SELECT COUNT(id) FROM singer", False, True),
    ("SELECT COUNT(*) FROM singer", "SELECT COUNT(*) FROM concert", False, False),
    ("SELECT name FROM singer", "SELECT name FROM singer ORDER BY name", False, True),
    ("SELECT name FROM singer ORDER BY name",
     "SELECT name FROM singer ORDER BY name DESC", True, False),
    ("SELECT country FROM singer", "SELECT DISTINCT country FROM singer", False, False),
    ("SELECT DISTINCT country FROM singer",
     "SELECT country FROM singer GROUP BY country", False, True),
    ("SELECT AVG(age) FROM singer",
     "SELECT SUM(age)*1.0/COUNT(*) FROM singer", False, True),
    ("SELECT AVG(age) FROM singer", "SELECT 29", False, True),
    ("SELECT AVG(age) FROM singer", "SELECT '29'", False, False),
    ("SELECT MAX(capacity) FROM stadium",
     "SELECT capacity FROM stadium ORDER BY capacity DESC LIMIT 1", False, True),
    ("SELECT name FROM stadium WHERE city = 'Leeds'",
     "SELECT name FROM stadium WHERE city = 'leeds'", False, False),
    ("SELECT s.name FROM singer s JOIN singer_in_concert sic "
     "ON s.id = sic.singer_id WHERE sic.concert_id = 1",
     "SELECT name FROM singer WHERE id IN "
     "(SELECT singer_id FROM singer_in_concert WHERE concert_id = 1)", False, True),
    ("SELECT singer.name, COUNT(*) FROM singer_in_concert JOIN singer "
     "ON singer.id = singer_in_concert.singer_id GROUP BY singer.id",
     "SELECT singer.name, COUNT(*) FROM singer_in_concert JOIN singer "
     "ON singer.id = singer_in_concert.singer_id", False, False),
    ("SELECT year FROM concert", "SELECT DISTINCT year FROM concert", False, False),
    ("SELECT year FROM concert ORDER BY year",
     "SELECT year FROM concert ORDER BY year", True, True),
    ("SELECT name FROM singer WHERE age = (SELECT MAX(age) FROM singer)",
     "SELECT name FROM singer ORDER BY age DESC LIMIT 1", False, True),
    ("SELECT COUNT(DISTINCT country) FROM singer",
     "SELECT COUNT(country) FROM singer", False, False),
    ("SELECT stadium.name FROM stadium JOIN concert ON stadium.id = concert.stadium_id "
     "GROUP BY stadium.id HAVING COUNT(*) >= 2",
     "SELECT name FROM stadium WHERE id IN "
     "(SELECT stadium_id FROM concert GROUP BY stadium_id HAVING COUNT(*) >= 2)",
     False, True),
    ("SELECT name FROM singer", "SELECT name, age FROM singer", False, False),
    ("SELECT name FROM singer", "SELECT namee FROM singer", False, False),
    ("SELECT name FROM singer WHERE country = 'FR'",
     "SELECT name FROM singer WHERE country = 'FR' OR country = 'XX'", False, True),
    ("SELECT title FROM album WHERE sales > 1.5",
     "SELECT title FROM album WHERE sales >= 1.5", False, False),
    ("SELECT SUM(sales) FROM album", "SELECT 10.5", False, True),
    ("SELECT SUM(sales) FROM album", "SELECT 10", False, False),
    ("SELECT country FROM singer INTERSECT SELECT 'FR'",
     "SELECT DISTINCT country FROM singer WHERE country = 'FR'", False, True),
    ("SELECT country FROM singer EXCEPT SELECT 'FR'",
     "SELECT 'FR' EXCEPT SELECT country FROM singer", False, False),
    ("SELECT name FROM singer UNION SELECT name FROM stadium",
     "SELECT name FROM singer UNION ALL SELECT name FROM stadium", False, True),
    ("SELECT name FROM singer ORDER BY name",
     "SELECT name FROM (SELECT name FROM singer ORDER BY name)", True, True),
    ("SELECT age FROM singer WHERE name = 'Ana'", "SELECT 25", False, True),
    ("SELECT age FROM singer WHERE name = 'Ana'", "SELECT 25.0", False, True),
    ("SELECT age FROM singer WHERE name = 'Ana'", "SELECT '25'", False, False),
    ("SELECT name FROM singer WHERE age BETWEEN 20 AND 33",
     "SELECT name FROM singer WHERE age >= 20 AND age <= 33", False, True),
    ("SELECT COUNT(*) FROM concert WHERE year = 2019",
     "SELECT COUNT(*) FROM concert WHERE year = '2019'", False, True),
    ("SELECT a.title FROM album a JOIN singer s ON a.singer_id = s.id "
     "WHERE s.country = 'FR'",
     "SELECT a.title FROM album a JOIN singer s ON a.singer_id = s.id "
     "JOIN track t ON t.album_id = a.id WHERE s.country = 'FR'", False, False),
    ("SELECT g.name, COUNT(*) FROM genre g JOIN album_genre ag ON g.id = ag.genre_id "
     "GROUP BY g.id ORDER BY COUNT(*) DESC, g.name",
     "SELECT name, cnt FROM (SELECT g.name AS name, COUNT(ag.album_id) AS cnt "
     "FROM genre g JOIN album_genre ag ON g.id = ag.genre_id GROUP BY g.name) "
     "ORDER BY cnt DESC, name", True, True),
    ("SELECT name FROM singer WHERE age > 100",
     "SELECT name FROM singer WHERE age > 200", False, True),
    ("SELECT name FROM singer WHERE age > 100", "SELECT name FROM singer", False, False),
    ("SELECT s.name, a.title FROM singer s LEFT JOIN album a ON a.singer_id = s.id "
     "WHERE s.id = 4", "SELECT 'Di', NULL", False, True),
    ("SELECT name FROM singer LIMIT 3",
     "SELECT name FROM singer WHERE id <= 3", False, True),
    ("SELECT s.name FROM singer s JOIN album a ON a.singer_id = s.id",
     "SELECT s.name FROM singer s, album a", False, False),
    ("SELECT MIN(duration), MAX(duration) FROM track",
     "SELECT 150.0, 300.0", False, True),
    ("SELECT city, SUM(capacity) FROM stadium GROUP BY city",
     "SELECT city, SUM(capacity) FROM stadium GROUP BY city "
     "HAVING SUM(capacity) > 25000", False, False),
    ("SELECT t.title FROM track t JOIN album a ON t.album_id = a.id "
     "WHERE a.title = 'Delta'", "SELECT title FROM track WHERE album_id = 4",
     False, True),
]


def oracle_verdict(db, gold, pred, order_sensitive):
    """Raw-sqlite3 comparator, independent of nl2sql.execution."""

    def run(sql):
        conn = sqlite3.connect(db)
        try:
            cur = conn.execute(sql)
            rows = [
                tuple(int(v) if isinstance(v, float) and v.is_integer() else v
                      for v in row)
                for row in cur.fetchall()
            ]
            return rows, len(cur.description)
        except sqlite3.Error:
            return None, 0
        finally:
            conn.close()

    grows, gcols = run(gold)
    prows, pcols = run(pred)
    if grows is None or prows is None or gcols != pcols:
        return False
    if order_sensitive:
        return grows == prows
    return Counter(grows) == Counter(prows)


@pytest.mark.parametrize("gold,pred,order_sensitive,expected", COMPARATOR_PAIRS)
def test_comparator_agrees_with_oracle(guarded_db, gold, pred,
                                       order_sensitive, expected):
    assert has_top_level_order_by(SqlQuery(gold)) is order_sensitive
    gold_outcome = execute_once(guarded_db, SqlQuery(gold))
    pred_outcome = execute_once(guarded_db, SqlQuery(pred))
    verdict = compare_results(gold_outcome, pred_outcome, order_sensitive)
    assert verdict is expected
    assert oracle_verdict(guarded_db, gold, pred, order_sensitive) is expected


def test_ea_reflexive_over_corpus(guarded_db):
    """EA(q, q) is true for every gold query that executes successfully."""
    for gold, _, order_sensitive, _ in COMPARATOR_PAIRS:
        outcome = execute_once(guarded_db, SqlQuery(gold))
        assert outcome.status == "success"
        again = execute_once(guarded_db, SqlQuery(gold))
        assert compare_results(outcome, again, order_sensitive)


# --- one key for SQLite-equivalent spellings -------------------------------------

# Queries on the fixture database: the comparator corpus, and quoted
# identifiers of every kind.
FIXTURE_QUERIES = sorted({q for gold, pred, _, _ in COMPARATOR_PAIRS for q in (gold, pred)}) + [
    "SELECT [name], `age` FROM \"singer\" WHERE country = 'FR' ORDER BY [age] DESC",
    "SELECT s.\"name\" FROM singer AS [s] WHERE s.name <> 'Bo' AND s.country IN ('US', 'JP')",
]
# What a space between two tokens may become: SQLite whitespace, comments
_BLANKS = st.sampled_from([
    " ", "  ", "\n", "\t", " \r\n ", "\f", " /* it's */ ", " -- a [note]\n", " /*\n*/ ",
])


@st.composite
def _respelled(draw, query):
    """``query`` with random ASCII case outside quoted tokens, and each
    space between tokens made a random run of whitespace and comments."""
    out = [draw(st.sampled_from(["", " ", "\n", "/* lead */ "]))]
    for _, ch, kind in _reference_lex(query):
        if kind == "code" and ch == " ":
            ch = draw(_BLANKS)
        elif kind == "code" and ch.isascii() and ch.isalpha() and draw(st.booleans()):
            ch = ch.swapcase()
        out.append(ch)
    out.append(draw(st.sampled_from(["", " ", "\n", " -- end", " /* end"])))
    return "".join(out)


@given(st.data())
@settings(max_examples=150, deadline=None)
def test_respelled_query_has_its_key_and_its_outcome(fixture_db, data):
    query = data.draw(st.sampled_from(FIXTURE_QUERIES), label="query")
    respelled = data.draw(_respelled(query), label="respelled")
    assert canonical_sql(respelled) == canonical_sql(query)
    a, b = execute_once(fixture_db, SqlQuery(query)), execute_once(fixture_db, SqlQuery(respelled))
    # a failure's message may quote the text; the memo serves only successes
    assert (a.status, a.rows, a.column_count, a.error_kind) \
        == (b.status, b.rows, b.column_count, b.error_kind)


@given(st.data())
@settings(max_examples=150)
def test_a_change_inside_a_quoted_token_changes_the_key(data):
    query = data.draw(st.sampled_from([q for q in FIXTURE_QUERIES if "'" in q or "[" in q]))
    inside = [i for i, ch, kind in _reference_lex(query) if kind == "quoted" and ch.isalnum()]
    i = data.draw(st.sampled_from(inside), label="position")
    changed = query[:i] + data.draw(st.sampled_from("xX _1é\t"), label="inserted") + query[i:]
    assert canonical_sql(changed) != canonical_sql(query)


# --- one program for respellings SQLite compiles alike ----------------------------

# Fixture queries with slots for a respelling: {sel} is SELECT or SELECT ALL,
# {A} and {B} a table with or without an alias, and {a} and {b} qualify its
# columns by that alias or table name, or, in a query of one table, not at all.
PROGRAM_TEMPLATES = [
    ("{sel} {a}name, {a}age FROM {A} WHERE {a}country = 'FR' "
     "ORDER BY {a}age DESC LIMIT 2", {"a": "singer"}),
    ("{sel} COUNT(*) FROM {A} WHERE {a}age > 20", {"a": "singer"}),
    ("{sel} {a}title FROM {A} WHERE {a}sales >= 1.5 ORDER BY {a}title", {"a": "album"}),
    ("{sel} {a}name, COUNT(*) FROM {A} JOIN {B} ON {a}id = {b}stadium_id "
     "GROUP BY {a}id ORDER BY {a}name LIMIT 2", {"a": "stadium", "b": "concert"}),
    ("{sel} {a}name FROM {A} JOIN {B} ON {a}id = {b}singer_id WHERE {b}concert_id = 1",
     {"a": "singer", "b": "singer_in_concert"}),
    ("{sel} AVG({a}age) FROM {A} WHERE {a}id IN "
     "(SELECT {b}singer_id FROM {B} WHERE {b}sales > 1.0)", {"a": "singer", "b": "album"}),
]
# (old, new): a change of a literal, a number, an ORDER BY direction or a LIMIT
PROGRAM_CHANGES = [
    ("'FR'", "'fr'"), ("> 20", "> 21"), (">= 1.5", ">= 2.5"), ("= 1", "= 2"),
    ("DESC", "ASC"), ("ORDER BY {a}title", "ORDER BY {a}title DESC"),
    ("LIMIT 2", "LIMIT 3"), (" LIMIT 2", ""),
]


@st.composite
def _spelling(draw, tables):
    """Format fields for a template of PROGRAM_TEMPLATES."""
    fields = {"sel": draw(st.sampled_from(["SELECT", "SELECT ALL"]))}
    for slot, table in tables.items():
        written_as = draw(st.sampled_from(["", " ", " AS "]))
        name = slot + "1" if written_as else table
        fields[slot.upper()] = table + written_as + name if written_as else table
        fields[slot] = draw(st.sampled_from([name + "."] if len(tables) > 1
                                            else [name + ".", ""]))
    return fields


def program_of(db_file, text):
    with contextlib.closing(connect_readonly(db_file)) as connection:
        return program(connection, SqlQuery(text))


@given(st.data())
@settings(max_examples=150, deadline=None)
def test_respellings_compile_to_one_program_with_one_outcome(fixture_db, data):
    template, tables = data.draw(st.sampled_from(PROGRAM_TEMPLATES), label="template")
    a, b = (data.draw(_respelled(template.format(**data.draw(_spelling(tables)))),
                      label=side) for side in "ab")
    assert program_of(fixture_db, a) == program_of(fixture_db, b) is not None
    outcomes = [execute_once(fixture_db, SqlQuery(text)) for text in (a, b)]
    assert outcomes[0].status == "success"
    assert len({(o.status, repr(o.rows), o.column_count) for o in outcomes}) == 1


def _plain_fields(tables):
    return {"sel": "SELECT", **{slot: table + "." for slot, table in tables.items()},
            **{slot.upper(): table for slot, table in tables.items()}}


def test_queries_with_one_program_have_one_outcome(fixture_db):
    by_program = {}
    for text in FIXTURE_QUERIES + [t.format(**_plain_fields(tables))
                                   for t, tables in PROGRAM_TEMPLATES]:
        key = program_of(fixture_db, text)
        if key is not None:
            by_program.setdefault(key, []).append(text)
    for texts in by_program.values():
        outcomes = {(o.status, repr(o.rows), o.column_count) for o in
                    (execute_once(fixture_db, SqlQuery(text)) for text in texts)}
        assert len(outcomes) == 1, texts


@given(st.data())
@settings(max_examples=150, deadline=None)
def test_a_changed_literal_order_or_limit_changes_the_program(fixture_db, data):
    template, tables, (old, new) = data.draw(st.sampled_from([
        (t, tables, change) for t, tables in PROGRAM_TEMPLATES
        for change in PROGRAM_CHANGES if change[0] in t]), label="change")
    fields = data.draw(_spelling(tables), label="spelling")
    query = data.draw(_respelled(template.format(**fields)), label="query")
    changed = data.draw(_respelled(template.replace(old, new).format(**fields)),
                        label="changed")
    assert program_of(fixture_db, query) != program_of(fixture_db, changed)


@pytest.mark.parametrize("text", [
    "SELECT name FROM singer WHERE name = '\ud800'",
    "SELECT name FROM singer; SELECT 1",
    "SELECT nme FROM singer",
    "SELECT name FROM",
])
def test_text_that_does_not_compile_has_no_program(fixture_db, text):
    assert program_of(fixture_db, text) is None


@pytest.mark.parametrize("cache_size, larger", [
    (None, False),  # the default cache, 2000 KiB, holds the fixture database
    (-1, True),  # 1 KiB
    (1, True),  # one page
    (10_000, False),  # pages
])
def test_a_database_is_larger_than_its_page_cache_by_bytes(fixture_db, cache_size, larger):
    with contextlib.closing(connect_readonly(fixture_db)) as connection:
        if cache_size is not None:
            connection.execute(f"PRAGMA cache_size={cache_size}")
        assert execution.larger_than_cache(connection) is larger


def test_a_file_that_is_not_a_database_is_not_larger_than_its_page_cache(tmp_path):
    path = tmp_path / "notes.sqlite"
    path.write_bytes(b"not a database " * 1000)
    # connect_readonly refuses such a file, so connect without reading it
    with contextlib.closing(sqlite3.connect(f"file:{path}?mode=ro", uri=True)) as connection:
        assert execution.larger_than_cache(connection) is False


def test_compare_failures_never_match():
    ok = ExecutionOutcome.success([(1,)], 1)
    bad = ExecutionOutcome.failure("syntax", "boom")
    late = ExecutionOutcome.timeout()
    assert not compare_results(ok, bad, False)
    assert not compare_results(bad, ok, False)
    assert not compare_results(bad, bad, False)
    assert not compare_results(ok, late, False)


def test_compare_multiset_vs_sequence():
    a = ExecutionOutcome.success([("a", 1), ("b", 2)], 2)
    b = ExecutionOutcome.success([("b", 2), ("a", 1)], 2)
    assert compare_results(a, b, order_sensitive=False)
    assert not compare_results(a, b, order_sensitive=True)


def test_compare_duplicates_matter():
    a = ExecutionOutcome.success([(1,), (1,)], 1)
    b = ExecutionOutcome.success([(1,)], 1)
    assert not compare_results(a, b, False)


rows_strategy = st.lists(
    st.tuples(st.integers(-5, 5), st.sampled_from("abc")), max_size=6
)


@given(rows_strategy, rows_strategy)
@settings(max_examples=100)
def test_compare_symmetry_unordered(rows_a, rows_b):
    a = ExecutionOutcome.success(rows_a, 2)
    b = ExecutionOutcome.success(rows_b, 2)
    assert compare_results(a, b, False) == compare_results(b, a, False)


def reference_compare_results(gold, pred, order_sensitive):
    """compare_results as it was before the row-count check and the plain
    dict comparison of the bags."""
    if gold.status != "success" or pred.status != "success":
        return False
    if gold.column_count != pred.column_count:
        return False
    if order_sensitive:
        return gold.rows == pred.rows
    return Counter(gold.rows) == Counter(pred.rows)


_cells = (st.none() | st.integers(-2, 2) | st.sampled_from([1.0, 2.5, -0.0])
          | st.sampled_from(["a", "b", "1", ""]))
_result_rows = st.lists(st.tuples(_cells, _cells), max_size=6)


@given(st.data())
@settings(max_examples=300)
def test_compare_results_matches_counter_reference(data):
    gold_rows = data.draw(_result_rows, label="gold rows")
    pred_rows = data.draw(st.one_of(
        st.permutations(gold_rows),
        st.permutations(gold_rows + gold_rows[:1]),  # one duplicate more
        st.permutations(gold_rows[1:]),  # one row fewer
        st.permutations(gold_rows[:-1] + gold_rows[:1]),  # same length, other bag
        _result_rows,
    ).map(list), label="predicted rows")
    gold = ExecutionOutcome(data.draw(st.sampled_from(["success"] * 3 + ["failure", "timeout"])),
                            rows=gold_rows, column_count=2)
    pred = ExecutionOutcome("success", rows=pred_rows,
                            column_count=data.draw(st.sampled_from([2, 2, 2, 1])))
    order_sensitive = data.draw(st.booleans(), label="order sensitive")
    assert (compare_results(gold, pred, order_sensitive)
            == reference_compare_results(gold, pred, order_sensitive))
