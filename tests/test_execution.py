import contextlib
import re
import sqlite3
import threading
import time
from collections import Counter

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from nl2sql.evalkit import _normalize_sql
from nl2sql.execution import (
    ExecutionOutcome,
    SanitizeError,
    SqlQuery,
    _cut_at_statement_end,
    canonical_rows,
    canonical_value,
    compare_results,
    connect_readonly,
    execute,
    has_top_level_order_by,
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
])
def test_has_top_level_order_by(sql, expected):
    assert has_top_level_order_by(SqlQuery(sql)) is expected


# --- the literal scan against a per-character reference -------------------------
# The reference is the earlier scanner, one character at a time; the three
# callers below are the earlier callers built on it.

def _reference_outside_literals(text):
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


def _reference_cut_at_statement_end(text):
    for i, ch, _ in _reference_outside_literals(text):
        if ch == ";":
            return text[:i], True
    return text, False


def _reference_has_top_level_order_by(text):
    upper = text.upper()
    for i, _, depth in _reference_outside_literals(text):
        if (depth == 0 and re.compile(r"ORDER\s+BY\b").match(upper, i)
                and (i == 0 or not upper[i - 1].isalnum())):
            return True
    return False


def _reference_normalize_sql(text):
    text = re.sub(r"\s+", " ", text.strip().rstrip(";"))
    chars = list(text)
    for i, ch, _ in _reference_outside_literals(text):
        chars[i] = ch.lower()
    return "".join(chars)


# SQL-shaped fragments. Characters whose upper() is longer than themselves
# (such as "ß") are left out: the reference indexes text.upper() by
# positions in text, so on them it reads the wrong character.
_SQL_PIECES = st.sampled_from([
    "ORDER BY", "order\n by", "Order", "BY", "x", "1", "_", " ", "(", ")",
    "'", "\"", ";", "ΑΣ", "é", "İ",
])
_sql_like = st.lists(_SQL_PIECES, max_size=16).map("".join) | st.text(max_size=40).filter(
    lambda t: all(len(ch.upper()) == 1 for ch in t))


@given(_sql_like)
@settings(max_examples=500)
def test_literal_scan_callers_match_reference(text):
    assert _cut_at_statement_end(text) == _reference_cut_at_statement_end(text)
    assert has_top_level_order_by(SqlQuery(text)) is _reference_has_top_level_order_by(text)
    assert _normalize_sql(text) == _reference_normalize_sql(text)


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
