"""Database schema catalog: loading, introspection, validation, rendering.

Schemas are immutable after construction and safe to share across
concurrent pipeline runs.
"""

import contextlib
import functools
import json
import sqlite3
from dataclasses import dataclass, field

from .execution import connect_readonly

LOGICAL_TYPES = frozenset({"text", "number", "time", "boolean", "others"})


class SchemaError(ValueError):
    """Raised when a schema file or schema object violates an invariant."""


class SchemaFormatError(SchemaError):
    """Raised when an input file is not in the expected format."""


@dataclass(frozen=True)
class TableDef:
    name: str
    columns: tuple  # of (name, logical_type)
    primary_keys: tuple = ()


@dataclass(frozen=True)
class ForeignKey:
    src_table: str
    src_column: str
    dst_table: str
    dst_column: str


@dataclass(frozen=True)
class DatabaseSchema:
    db_id: str
    tables: tuple = ()
    foreign_keys: tuple = ()

    def has_column(self, table, column):
        entry = self._index.get(table.lower())
        return entry is not None and column.lower() in entry[0]

    @functools.cached_property
    def _index(self) -> dict:
        """Lowercase table name -> ({lowercase column name: logical type},
        lowercase primary keys), built at its first use. The first
        table and the first column of a name win."""
        index = {}
        for t in self.tables:
            columns = {}
            for cname, ctype in t.columns:
                columns.setdefault(cname.lower(), ctype)
            index.setdefault(t.name.lower(),
                             (columns, {p.lower() for p in t.primary_keys}))
        return index

    @functools.cached_property
    def _declared_joins(self) -> frozenset:
        """The declared foreign keys as lowercase (table, column, table,
        column), in both directions, built at its first use."""
        declared = {
            (fk.src_table.lower(), fk.src_column.lower(), fk.dst_table.lower(), fk.dst_column.lower())
            for fk in self.foreign_keys
        }
        return frozenset(declared | {(dt, dc, st, sc) for st, sc, dt, dc in declared})

    @functools.cached_property
    def full_text(self) -> str:
        """``render_schema_text``'s text for this schema, built at its
        first use."""
        return _render_full(self)


@dataclass
class LinkedSchema:
    """Question-relevant crop of a parent schema, as proposed by the
    schema-linking agent."""

    db_id: str
    kept: dict  # table name -> list of kept column names
    join_edges: list = field(default_factory=list)  # of ForeignKey
    notes: str = ""


@dataclass(frozen=True)
class Violation:
    kind: str  # unknown-table | unknown-column | non-fk-edge | empty-link
    entity: str
    severity: str = "error"  # error | warning

    def __str__(self):
        return f"{self.kind}: {self.entity}"


def _check_schema(schema: DatabaseSchema) -> None:
    seen_tables = set()
    for t in schema.tables:
        key = t.name.lower()
        if key in seen_tables:
            raise SchemaError(f"{schema.db_id}: duplicate table name {t.name!r}")
        seen_tables.add(key)
        seen_cols = set()
        for cname, ctype in t.columns:
            ckey = cname.lower()
            if ckey in seen_cols:
                raise SchemaError(
                    f"{schema.db_id}: duplicate column {t.name}.{cname}"
                )
            seen_cols.add(ckey)
            if ctype not in LOGICAL_TYPES:
                raise SchemaError(
                    f"{schema.db_id}: column {t.name}.{cname} has "
                    f"unknown logical type {ctype!r}"
                )
        for pk in t.primary_keys:
            if pk.lower() not in seen_cols:
                raise SchemaError(
                    f"{schema.db_id}: primary key {t.name}.{pk} names "
                    f"a nonexistent column"
                )
    if not schema.tables:
        raise SchemaError(f"{schema.db_id}: schema has no tables")
    for fk in schema.foreign_keys:
        for tbl, col in ((fk.src_table, fk.src_column), (fk.dst_table, fk.dst_column)):
            if not schema.has_column(tbl, col):
                raise SchemaError(
                    f"{schema.db_id}: foreign key endpoint {tbl}.{col} "
                    f"does not exist"
                )


def load_tables_json(path) -> list:
    """Parse a benchmark tables file into validated DatabaseSchema objects.

    Expected format: array of objects carrying db_id, table_names_original,
    column_names_original ([table_index, name] pairs), column_types,
    primary_keys (column indices), foreign_keys (column-index pairs).
    """
    try:
        with open(path, encoding="utf-8") as fh:
            entries = json.load(fh)
    except (ValueError, RecursionError) as exc:
        raise SchemaFormatError(f"{path}: not valid UTF-8 JSON: {exc}") from exc
    if not isinstance(entries, list):
        raise SchemaFormatError(f"{path}: expected a top-level array")

    schemas = []
    for i, entry in enumerate(entries):
        try:
            schemas.append(_schema_from_entry(entry))
        except SchemaError:
            raise
        except (KeyError, TypeError, IndexError, ValueError) as exc:
            raise SchemaFormatError(f"{path}: malformed entry {i}: {exc}") from exc
    return schemas


def _schema_from_entry(entry: dict) -> DatabaseSchema:
    db_id = entry["db_id"]
    table_names = entry["table_names_original"]
    col_pairs = entry["column_names_original"]
    col_types = entry["column_types"]
    if not isinstance(db_id, str) or not all(isinstance(name, str) for name in table_names):
        raise TypeError("the db_id or a table name is not text")
    if not table_names:
        raise SchemaError(f"{db_id}: empty table list")
    if len(col_pairs) != len(col_types):
        raise ValueError(
            f"{db_id}: {len(col_pairs)} column_names_original but "
            f"{len(col_types)} column_types")

    columns_by_table = {i: [] for i in range(len(table_names))}
    col_locations = []  # column index -> (table index, name)
    for (tidx, cname), ctype in zip(col_pairs, col_types):
        col_locations.append((tidx, cname))
        if tidx < 0:  # the "*" pseudo-column
            continue
        if tidx >= len(table_names):
            raise SchemaError(f"{db_id}: column {cname!r} names table index {tidx} out of range")
        if not isinstance(cname, str):
            raise TypeError(f"column name {cname!r} is not text")
        ctype = ctype if ctype in LOGICAL_TYPES else "others"
        columns_by_table[tidx].append((cname, ctype))

    pk_by_table = {i: [] for i in range(len(table_names))}
    for col_idx in entry.get("primary_keys", []):
        if not isinstance(col_idx, int):  # composite keys arrive as lists in some dumps
            for sub in col_idx:
                tidx, cname = _resolve_col(db_id, col_locations, sub)
                pk_by_table[tidx].append(cname)
            continue
        tidx, cname = _resolve_col(db_id, col_locations, col_idx)
        pk_by_table[tidx].append(cname)

    foreign_keys = []
    for src_idx, dst_idx in entry.get("foreign_keys", []):
        s_tidx, s_col = _resolve_col(db_id, col_locations, src_idx)
        d_tidx, d_col = _resolve_col(db_id, col_locations, dst_idx)
        foreign_keys.append(
            ForeignKey(table_names[s_tidx], s_col, table_names[d_tidx], d_col)
        )

    tables = tuple(
        TableDef(name, tuple(columns_by_table[i]), tuple(pk_by_table[i]))
        for i, name in enumerate(table_names)
    )
    schema = DatabaseSchema(db_id, tables, tuple(foreign_keys))
    _check_schema(schema)
    return schema


def _resolve_col(db_id, col_locations, col_idx):
    if not 0 <= col_idx < len(col_locations):
        raise SchemaError(f"{db_id}: column index {col_idx} out of range")
    tidx, cname = col_locations[col_idx]
    if tidx < 0:
        raise SchemaError(f"{db_id}: column index {col_idx} points at the * pseudo-column")
    return tidx, cname


_TYPE_AFFINITY = (
    ("INT", "number"),
    ("CHAR", "text"),
    ("CLOB", "text"),
    ("TEXT", "text"),
    ("BLOB", "others"),
    ("REAL", "number"),
    ("FLOA", "number"),
    ("DOUB", "number"),
    ("NUMERIC", "number"),
    ("DECIMAL", "number"),
    ("BOOL", "boolean"),
    ("DATE", "time"),
    ("TIME", "time"),
    ("YEAR", "time"),
)


def _logical_type(declared: str) -> str:
    upper = (declared or "").upper()
    for marker, logical in _TYPE_AFFINITY:
        if marker in upper:
            return logical
    return "others"


def introspect_database(db_file) -> DatabaseSchema:
    """Read a SQLite file's own catalog into a DatabaseSchema.

    Fallback for databases that ship without a tables file.
    """
    import os

    db_id = os.path.splitext(os.path.basename(str(db_file)))[0]
    try:
        with contextlib.closing(connect_readonly(db_file)) as conn:
            names = [
                r[0]
                for r in conn.execute(
                    "SELECT name FROM sqlite_master WHERE type='table' "
                    "AND name NOT LIKE 'sqlite_%' ORDER BY rowid"
                )
            ]
            tables = []
            foreign_keys = []
            for name in names:
                cols = []
                pks = []
                for _, cname, ctype, _notnull, _dflt, pk in conn.execute(
                    f'PRAGMA table_info("{name}")'
                ):
                    cols.append((cname, _logical_type(ctype)))
                    if pk:
                        pks.append((pk, cname))
                pks = [c for _, c in sorted(pks)]
                tables.append(TableDef(name, tuple(cols), tuple(pks)))
                for row in conn.execute(f'PRAGMA foreign_key_list("{name}")'):
                    _, _, dst_table, src_col, dst_col = row[0], row[1], row[2], row[3], row[4]
                    if dst_col is None:
                        # implicit reference to the target's primary key
                        target_pks = [
                            r[1]
                            for r in conn.execute(f'PRAGMA table_info("{dst_table}")')
                            if r[5]
                        ]
                        dst_col = target_pks[0] if target_pks else None
                    if dst_col is not None:
                        foreign_keys.append(ForeignKey(name, src_col, dst_table, dst_col))
    except OSError as exc:
        raise SchemaError(str(exc)) from exc
    except sqlite3.Error as exc:
        raise SchemaError(f"cannot open database {db_file}: {exc}") from exc

    schema = DatabaseSchema(db_id, tuple(tables), tuple(foreign_keys))
    if schema.tables:
        _check_schema(schema)
    return schema


def render_schema_text(schema, parent: DatabaseSchema | None = None) -> str:
    """Render a schema (full or linked) as deterministic CREATE-TABLE-style
    prompt text. Identical input yields byte-identical output."""
    if isinstance(schema, LinkedSchema):
        return _render_linked(schema, parent)
    return schema.full_text


def _render_full(schema: DatabaseSchema) -> str:
    blocks = []
    fks_by_table = {}
    for fk in schema.foreign_keys:
        fks_by_table.setdefault(fk.src_table.lower(), []).append(fk)
    for t in schema.tables:
        lines = [f"CREATE TABLE {t.name} ("]
        body = []
        pk_set = {p.lower() for p in t.primary_keys}
        for cname, ctype in t.columns:
            marker = " PRIMARY KEY" if cname.lower() in pk_set else ""
            body.append(f"  {cname} {ctype}{marker}")
        for fk in fks_by_table.get(t.name.lower(), []):
            body.append(
                f"  FOREIGN KEY ({fk.src_column}) REFERENCES "
                f"{fk.dst_table}({fk.dst_column})"
            )
        lines.append(",\n".join(body))
        lines.append(");")
        blocks.append("\n".join(lines))
    return "\n\n".join(blocks) + "\n"


def _render_linked(link: LinkedSchema, parent: DatabaseSchema | None) -> str:
    blocks = []
    unknown = ({}, frozenset())  # a table the parent does not have
    for tname, cols in link.kept.items():
        columns, primary_keys = parent._index.get(tname.lower(), unknown) if parent else unknown
        lines = [f"CREATE TABLE {tname} ("]
        body = []
        for cname in cols:
            key = cname.lower()
            ctype = f" {columns[key]}" if key in columns else ""
            marker = " PRIMARY KEY" if key in primary_keys else ""
            body.append(f"  {cname}{ctype}{marker}")
        lines.append(",\n".join(body))
        lines.append(");")
        blocks.append("\n".join(lines))
    for edge in link.join_edges:
        blocks.append(
            f"-- JOIN {edge.src_table}.{edge.src_column} = "
            f"{edge.dst_table}.{edge.dst_column}"
        )
    return "\n\n".join(blocks) + "\n"


def validate_linked_schema(parent: DatabaseSchema, link: LinkedSchema) -> list:
    """Check a linked schema against its parent.

    Returns a complete list of Violations (empty when valid). Join edges
    not backed by a declared foreign key are warnings, not errors: many
    benchmark databases omit FK declarations, and the linking agent may
    propose semantically valid joins.
    """
    violations = []
    if not link.kept:
        violations.append(Violation("empty-link", link.db_id))
    for tname, cols in link.kept.items():
        entry = parent._index.get(tname.lower())
        if entry is None:
            violations.append(Violation("unknown-table", tname))
            continue
        for cname in cols:
            if cname.lower() not in entry[0]:
                violations.append(Violation("unknown-column", f"{tname}.{cname}"))
    for edge in link.join_edges:
        for tbl, col in ((edge.src_table, edge.src_column), (edge.dst_table, edge.dst_column)):
            if not parent.has_column(tbl, col):
                violations.append(Violation("unknown-column", f"{tbl}.{col}"))
                break
        else:
            key = (
                edge.src_table.lower(),
                edge.src_column.lower(),
                edge.dst_table.lower(),
                edge.dst_column.lower(),
            )
            if key not in parent._declared_joins:
                violations.append(
                    Violation(
                        "non-fk-edge",
                        f"{edge.src_table}.{edge.src_column}={edge.dst_table}.{edge.dst_column}",
                        severity="warning",
                    )
                )
    return violations
