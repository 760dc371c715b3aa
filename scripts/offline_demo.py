#!/usr/bin/env python3
"""End-to-end offline demo: no network, no credentials.

Builds a tiny SQLite database, wires a scripted backend through the full
six-stage pipeline (including one correction round), and prints the trace.

    python3 scripts/offline_demo.py
"""

import contextlib
import json
import sqlite3
import tempfile
import os

from nl2sql.execution import connect_readonly
from nl2sql.gateway import Gateway, ModelRoute, ScriptedBackend
from nl2sql.pipeline import PipelineConfig, run_pipeline
from nl2sql.schema import introspect_database

QUESTION = "How many employees work in the Sales department?"
GOLD = (
    "SELECT COUNT(*) FROM employee e "
    "JOIN department d ON e.department_id = d.id WHERE d.name = 'Sales'"
)

SCRIPTS = {
    "schema_linking": [json.dumps({
        "tables": {
            "employee": ["id", "name", "department_id"],
            "department": ["id", "name"],
        },
        "joins": [["employee", "department_id", "department", "id"]],
        "notes": "count employees per department",
    })],
    "subproblem": [json.dumps({
        "SELECT": "count(*)",
        "FROM": "employee join department",
        "WHERE": "department.name = 'Sales'",
    })],
    "query_plan": [json.dumps({"steps": [
        "Join employee to department on department_id",
        "Keep only rows where the department name is Sales",
        "Count the remaining rows",
    ]})],
    # First attempt forgets the filter; the correction round repairs it.
    "sql": ["SELECT COUNT(*) FROM employee"],
    "correction_plan": [json.dumps({
        "codes": ["FIL-01"],
        "steps": ["Add the missing WHERE filter on department name"],
    })],
    "correction_sql": [GOLD],
}


def build_db(path):
    conn = sqlite3.connect(path)
    conn.executescript("""
        CREATE TABLE department (id INTEGER PRIMARY KEY, name TEXT);
        CREATE TABLE employee (
            id INTEGER PRIMARY KEY, name TEXT,
            department_id INTEGER REFERENCES department(id));
        INSERT INTO department VALUES (1, 'Sales'), (2, 'Engineering');
        INSERT INTO employee VALUES
            (1, 'Ada', 1), (2, 'Ben', 1), (3, 'Cleo', 2);
    """)
    conn.commit()
    conn.close()


def main():
    with tempfile.TemporaryDirectory() as tmp:
        db_file = os.path.join(tmp, "company.sqlite")
        build_db(db_file)
        schema = introspect_database(db_file)

        gateway = Gateway(
            backends={"demo": ScriptedBackend(scripts=SCRIPTS)},
            route=ModelRoute.uniform("demo", "scripted-demo"),
        )
        with contextlib.closing(connect_readonly(db_file)) as connection:
            result = run_pipeline(
                QUESTION, schema, connection, PipelineConfig(), gateway,
                gold_query=GOLD,
            )

        print(f"question : {QUESTION}")
        print(f"status   : {result.trace.status}")
        print(f"final SQL: {result.final_sql.text}")
        print(f"EA vs gold: {result.ea}")
        print("\nstages:")
        for stage in result.trace.stages:
            print(f"  {stage.role:16s} {stage.completion_tokens:4d} tokens")
        print("\nattempts:")
        for i, attempt in enumerate(result.trace.attempts, 1):
            print(f"  {i}. ea={attempt.ea} status={attempt.status} "
                  f"sql={attempt.sql!r}")


if __name__ == "__main__":
    main()
