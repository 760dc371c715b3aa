import contextlib
import json
import sqlite3
import threading
from collections import Counter

import pytest

from nl2sql.execution import connect_readonly, execute
from nl2sql.gateway import Gateway, ModelRoute, ScriptedBackend
from nl2sql.pipeline import run_pipeline

# Music-domain fixture database: 8 tables, small deterministic contents.
FIXTURE_DDL = """
CREATE TABLE stadium (id INTEGER PRIMARY KEY, name TEXT, capacity INTEGER, city TEXT);
CREATE TABLE singer (id INTEGER PRIMARY KEY, name TEXT, country TEXT, age INTEGER);
CREATE TABLE concert (id INTEGER PRIMARY KEY, name TEXT, stadium_id INTEGER REFERENCES stadium(id), year INTEGER);
CREATE TABLE singer_in_concert (concert_id INTEGER REFERENCES concert(id), singer_id INTEGER REFERENCES singer(id));
CREATE TABLE album (id INTEGER PRIMARY KEY, singer_id INTEGER REFERENCES singer(id), title TEXT, sales REAL);
CREATE TABLE track (id INTEGER PRIMARY KEY, album_id INTEGER REFERENCES album(id), title TEXT, duration REAL);
CREATE TABLE genre (id INTEGER PRIMARY KEY, name TEXT);
CREATE TABLE album_genre (album_id INTEGER REFERENCES album(id), genre_id INTEGER REFERENCES genre(id));
"""

FIXTURE_ROWS = {
    "stadium": [
        (1, "North Arena", 12000, "Leeds"),
        (2, "South Bowl", 30000, "York"),
        (3, "East Field", 8000, "Leeds"),
    ],
    "singer": [
        (1, "Ana", "FR", 25),
        (2, "Bo", "US", 32),
        (3, "Cy", "FR", 41),
        (4, "Di", "JP", 25),
        (5, "Ed", "US", 19),
        (6, "Fia", "FR", 32),
    ],
    "concert": [
        (1, "Spring Fest", 1, 2019),
        (2, "Summer Jam", 2, 2019),
        (3, "Fall Gala", 1, 2020),
        (4, "Winter Ball", 3, 2021),
    ],
    "singer_in_concert": [
        (1, 1), (1, 2), (2, 1), (2, 2), (2, 3), (3, 1), (3, 4), (4, 5), (4, 6),
    ],
    "album": [
        (1, 1, "Aurora", 1.5),
        (2, 1, "Borealis", 2.0),
        (3, 2, "Cascade", 0.5),
        (4, 3, "Delta", 3.0),
        (5, 5, "Echo", 1.0),
        (6, 6, "Fjord", 2.5),
    ],
    "track": [
        (1, 1, "t1", 200.0),
        (2, 1, "t2", 180.5),
        (3, 2, "t3", 240.0),
        (4, 3, "t4", 210.0),
        (5, 4, "t5", 300.0),
        (6, 4, "t6", 150.0),
        (7, 5, "t7", 195.0),
        (8, 6, "t8", 175.0),
    ],
    "genre": [(1, "pop"), (2, "rock"), (3, "jazz")],
    "album_genre": [(1, 1), (2, 1), (2, 2), (3, 2), (4, 3), (5, 1), (6, 2)],
}


def build_fixture_db(path):
    conn = sqlite3.connect(str(path))
    conn.executescript(FIXTURE_DDL)
    for table, rows in FIXTURE_ROWS.items():
        marks = ",".join("?" * len(rows[0]))
        conn.executemany(f"INSERT INTO {table} VALUES ({marks})", rows)
    conn.commit()
    conn.close()
    return str(path)


def execute_once(db_file, query, timeout=30.0):
    """``execute`` on a read-only connection opened for this one query."""
    with contextlib.closing(connect_readonly(db_file)) as connection:
        return execute(connection, query, timeout=timeout)


def run_pipeline_once(question, schema, db_file, config, gateway, **kwargs):
    """``run_pipeline`` on a read-only connection opened for this one run."""
    with contextlib.closing(connect_readonly(db_file)) as connection:
        return run_pipeline(question, schema, connection, config, gateway, **kwargs)


@pytest.fixture()
def connections(monkeypatch):
    """Counts the sqlite3 connections opened while the test runs: in total,
    at most at once, and still open."""
    counts = Counter()
    lock = threading.Lock()
    connect = sqlite3.connect

    class Counted(sqlite3.Connection):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            with lock:
                counts["opened"] += 1
                counts["open"] += 1
                counts["peak"] = max(counts["peak"], counts["open"])

        def close(self):
            with lock:
                counts["open"] -= 1
            super().close()

    monkeypatch.setattr(sqlite3, "connect",
                        lambda *args, **kwargs: connect(*args, factory=Counted, **kwargs))
    return counts


@pytest.fixture(scope="session")
def fixture_db(tmp_path_factory):
    path = tmp_path_factory.mktemp("db") / "music.sqlite"
    return build_fixture_db(path)


# Minimal benchmark-format tables entry matching the fixture database.
def fixture_tables_entry(db_id="music"):
    tables = list(FIXTURE_DDL.strip().split("CREATE TABLE ")[1:])
    table_names = ["stadium", "singer", "concert", "singer_in_concert",
                   "album", "track", "genre", "album_genre"]
    columns = [(-1, "*", "text")]
    col_index = {}
    specs = {
        "stadium": [("id", "number"), ("name", "text"), ("capacity", "number"), ("city", "text")],
        "singer": [("id", "number"), ("name", "text"), ("country", "text"), ("age", "number")],
        "concert": [("id", "number"), ("name", "text"), ("stadium_id", "number"), ("year", "number")],
        "singer_in_concert": [("concert_id", "number"), ("singer_id", "number")],
        "album": [("id", "number"), ("singer_id", "number"), ("title", "text"), ("sales", "number")],
        "track": [("id", "number"), ("album_id", "number"), ("title", "text"), ("duration", "number")],
        "genre": [("id", "number"), ("name", "text")],
        "album_genre": [("album_id", "number"), ("genre_id", "number")],
    }
    for t_idx, tname in enumerate(table_names):
        for cname, ctype in specs[tname]:
            col_index[(tname, cname)] = len(columns)
            columns.append((t_idx, cname, ctype))
    fk_pairs = [
        (("concert", "stadium_id"), ("stadium", "id")),
        (("singer_in_concert", "concert_id"), ("concert", "id")),
        (("singer_in_concert", "singer_id"), ("singer", "id")),
        (("album", "singer_id"), ("singer", "id")),
        (("track", "album_id"), ("album", "id")),
        (("album_genre", "album_id"), ("album", "id")),
        (("album_genre", "genre_id"), ("genre", "id")),
    ]
    return {
        "db_id": db_id,
        "table_names_original": table_names,
        "table_names": table_names,
        "column_names_original": [[t, c] for t, c, _ in columns],
        "column_names": [[t, c] for t, c, _ in columns],
        "column_types": [ty for _, _, ty in columns],
        "primary_keys": [
            col_index[(t, "id")] for t in table_names if (t, "id") in col_index
        ],
        "foreign_keys": [
            [col_index[src], col_index[dst]] for src, dst in fk_pairs
        ],
    }


@pytest.fixture(scope="session")
def db_root(tmp_path_factory):
    """Benchmark-convention layout: database/{db_id}/{db_id}.sqlite."""
    root = tmp_path_factory.mktemp("database")
    (root / "music").mkdir()
    build_fixture_db(root / "music" / "music.sqlite")
    return str(root)


@pytest.fixture(scope="session")
def fixture_tables_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("meta") / "tables.json"
    path.write_text(json.dumps([fixture_tables_entry()]), encoding="utf-8")
    return str(path)


@pytest.fixture()
def music_schema(fixture_tables_file):
    from nl2sql.schema import load_tables_json

    return load_tables_json(fixture_tables_file)[0]


# --- scripted gateway helpers ---------------------------------------------

LINKING_JSON = json.dumps({
    "tables": {"singer": ["id", "name", "country", "age"]},
    "joins": [],
    "notes": "only the singer table is needed",
})

SUBPROBLEM_JSON = json.dumps({"SELECT": "count(*)", "FROM": "singer"})

PLAN_JSON = json.dumps({
    "steps": [
        "Read the singer table",
        "Count all of its rows",
        "Return the count as the answer",
    ],
    "rationale": "a single-table row count",
})

CORRECTION_PLAN_JSON = json.dumps({
    "codes": ["SCH-04"],
    "steps": ["Count rows of the singer table, not another table"],
    "rationale": "SCH-04 wrong table referenced",
})


FULL_LINK_JSON = json.dumps({
    "tables": {
        "stadium": ["id", "name", "capacity", "city"],
        "singer": ["id", "name", "country", "age"],
        "concert": ["id", "name", "stadium_id", "year"],
        "singer_in_concert": ["concert_id", "singer_id"],
        "album": ["id", "singer_id", "title", "sales"],
        "track": ["id", "album_id", "title", "duration"],
        "genre": ["id", "name"],
        "album_genre": ["album_id", "genre_id"],
    },
})


class QuestionKeyedBackend:
    """Fixture backend keyed by the question text found in the prompt.

    Deterministic under any parallelism or resume order, unlike ordered
    scripts. sql_by_question supplies the SQL agent's response; fix_by_question
    (optional) supplies the correction SQL agent's response.
    """

    tag = "scripted"

    def __init__(self, sql_by_question, fix_by_question=None):
        self.sql_by_question = dict(sql_by_question)
        self.fix_by_question = dict(fix_by_question or {})

    def _question(self, request):
        import re

        for role, content in reversed(request.messages):
            match = re.search(r"^Question: (.+)$", content, re.M)
            if match:
                return match.group(1).strip()
        raise AssertionError("no question found in prompt")

    def complete(self, request, role=None):
        from nl2sql.gateway import ChatResponse

        question = self._question(request)
        if role == "schema_linking":
            content = FULL_LINK_JSON
        elif role == "subproblem":
            content = "{}"
        elif role == "query_plan":
            content = PLAN_JSON
        elif role == "sql":
            content = self.sql_by_question[question]
        elif role == "correction_plan":
            content = CORRECTION_PLAN_JSON
        elif role == "correction_sql":
            content = self.fix_by_question.get(
                question, self.sql_by_question[question]
            )
        else:
            raise AssertionError(f"unexpected role {role}")
        prompt_chars = sum(len(c) for _, c in request.messages)
        return ChatResponse(
            content=content,
            prompt_tokens=max(1, prompt_chars // 4),
            completion_tokens=max(1, len(content) // 4),
            backend_tag=self.tag,
        )


class CallCountingBackend:
    """Wraps a backend and counts the calls that reach it."""

    def __init__(self, inner):
        self.inner = inner
        self.calls = 0
        self._lock = threading.Lock()

    def complete(self, request, role=None):
        with self._lock:
            self.calls += 1
        return self.inner.complete(request, role)


def question_keyed_gateway(sql_by_question, fix_by_question=None) -> Gateway:
    backend = QuestionKeyedBackend(sql_by_question, fix_by_question)
    return Gateway(
        backends={"test": backend},
        route=ModelRoute.uniform("test", "fixture-model"),
    )


def scripted_gateway(sql_responses, correction_sql_responses=(),
                     correction_rounds=None, **script_overrides):
    """Gateway whose six roles replay canned responses in order; its
    backend, gateway.backends["test"], counts the calls it receives."""
    n_corrections = (
        correction_rounds
        if correction_rounds is not None
        else len(correction_sql_responses)
    )
    scripts = {
        "schema_linking": [LINKING_JSON] * len(sql_responses),
        "subproblem": [SUBPROBLEM_JSON] * len(sql_responses),
        "query_plan": [PLAN_JSON] * len(sql_responses),
        "sql": list(sql_responses),
        "correction_plan": [CORRECTION_PLAN_JSON] * n_corrections,
        "correction_sql": list(correction_sql_responses),
    }
    scripts.update(script_overrides)
    backend = CallCountingBackend(ScriptedBackend(scripts=scripts))
    return Gateway(
        backends={"test": backend},
        route=ModelRoute.uniform("test", "fixture-model"),
    )
