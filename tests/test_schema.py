import json
import sqlite3

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from nl2sql.schema import (
    DatabaseSchema,
    ForeignKey,
    LinkedSchema,
    SchemaError,
    SchemaFormatError,
    TableDef,
    introspect_database,
    load_tables_json,
    render_schema_text,
    validate_linked_schema,
)

from conftest import fixture_tables_entry


def test_load_tables_json_field_by_field(fixture_tables_file):
    schemas = load_tables_json(fixture_tables_file)
    assert len(schemas) == 1
    schema = schemas[0]
    assert schema.db_id == "music"
    assert [t.name for t in schema.tables] == [
        "stadium", "singer", "concert", "singer_in_concert",
        "album", "track", "genre", "album_genre",
    ]
    singer = schema.table("singer")
    assert singer.columns == (
        ("id", "number"), ("name", "text"), ("country", "text"), ("age", "number")
    )
    assert singer.primary_keys == ("id",)
    assert ForeignKey("concert", "stadium_id", "stadium", "id") in schema.foreign_keys
    assert ForeignKey("singer_in_concert", "singer_id", "singer", "id") in schema.foreign_keys


def test_load_tables_json_empty_table_list(tmp_path):
    entry = fixture_tables_entry()
    entry["table_names_original"] = []
    entry["column_names_original"] = [[-1, "*"]]
    entry["column_types"] = ["text"]
    entry["primary_keys"] = []
    entry["foreign_keys"] = []
    path = tmp_path / "tables.json"
    path.write_text(json.dumps([entry]))
    with pytest.raises(SchemaError):
        load_tables_json(str(path))


def test_load_tables_json_fk_index_out_of_range(tmp_path):
    entry = fixture_tables_entry()
    entry["foreign_keys"] = [[2, 9999]]
    path = tmp_path / "tables.json"
    path.write_text(json.dumps([entry]))
    with pytest.raises(SchemaError, match="music"):
        load_tables_json(str(path))


def _set_column_pair(entry, pair):
    entry["column_names_original"][1] = pair


def _cut_foreign_key_pair(entry):
    entry["foreign_keys"][0] = entry["foreign_keys"][0][:1]


def _set_table_name(entry, name):
    entry["table_names_original"][0] = name


@pytest.mark.parametrize("corrupt", [
    lambda entry: _set_column_pair(entry, [0]),
    _cut_foreign_key_pair,
    lambda entry: _set_column_pair(entry, [0, 7]),
    lambda entry: _set_table_name(entry, 7),
], ids=["one-element column pair", "one-element foreign key pair",
        "non-text column name", "non-text table name"])
def test_load_tables_json_malformed_entry_is_a_format_error(tmp_path, corrupt):
    entry = fixture_tables_entry()
    corrupt(entry)
    path = tmp_path / "tables.json"
    path.write_text(json.dumps([entry]))
    with pytest.raises(SchemaFormatError, match="malformed entry 0"):
        load_tables_json(str(path))


@pytest.mark.parametrize("keep_foreign_keys", [True, False])
def test_load_tables_json_rejects_fewer_column_types_than_columns(tmp_path,
                                                                   keep_foreign_keys):
    entry = fixture_tables_entry()
    entry["column_types"].pop()  # the last column, which a foreign key names
    if not keep_foreign_keys:
        last = len(entry["column_names_original"]) - 1
        entry["foreign_keys"] = [fk for fk in entry["foreign_keys"] if last not in fk]
    path = tmp_path / "tables.json"
    path.write_text(json.dumps([entry]))
    count = len(entry["column_names_original"])
    with pytest.raises(SchemaFormatError,
                       match=f"malformed entry 0: music: {count} column_names_original "
                             f"but {count - 1} column_types"):
        load_tables_json(str(path))


def test_load_tables_json_keeps_a_schema_error_as_is(tmp_path):
    entry = fixture_tables_entry()
    _set_table_name(entry, "SINGER")  # the same name as table 1
    path = tmp_path / "tables.json"
    path.write_text(json.dumps([entry]))
    with pytest.raises(SchemaError, match="duplicate table") as raised:
        load_tables_json(str(path))
    assert type(raised.value) is SchemaError


def test_load_tables_json_not_json(tmp_path):
    path = tmp_path / "tables.json"
    path.write_text("not json at all {")
    with pytest.raises(SchemaFormatError):
        load_tables_json(str(path))


def test_introspect_simple_fixture(tmp_path):
    db = tmp_path / "t.sqlite"
    conn = sqlite3.connect(str(db))
    conn.execute("CREATE TABLE t (a INTEGER PRIMARY KEY, b TEXT)")
    conn.commit()
    conn.close()
    schema = introspect_database(str(db))
    assert len(schema.tables) == 1
    table = schema.tables[0]
    assert table.name == "t"
    assert table.columns == (("a", "number"), ("b", "text"))
    assert table.primary_keys == ("a",)


def test_introspect_foreign_key(tmp_path):
    db = tmp_path / "fk.sqlite"
    conn = sqlite3.connect(str(db))
    conn.executescript(
        "CREATE TABLE parent (id INTEGER PRIMARY KEY);"
        "CREATE TABLE child (id INTEGER PRIMARY KEY,"
        " parent_id INTEGER REFERENCES parent(id));"
    )
    conn.commit()
    conn.close()
    schema = introspect_database(str(db))
    assert schema.foreign_keys == (ForeignKey("child", "parent_id", "parent", "id"),)


def test_introspect_empty_database(tmp_path):
    db = tmp_path / "empty.sqlite"
    sqlite3.connect(str(db)).close()
    schema = introspect_database(str(db))
    assert schema.tables == ()


def test_introspect_matches_hand_parsed_ddl(fixture_db, music_schema):
    """Oracle equivalence: catalog read back from the built database agrees
    with the hand-written tables file (up to column ordering)."""
    introspected = introspect_database(fixture_db)
    assert {t.name for t in introspected.tables} == {t.name for t in music_schema.tables}
    for table in introspected.tables:
        expected = music_schema.table(table.name)
        assert set(table.column_names()) == set(expected.column_names())
        assert set(table.primary_keys) == set(expected.primary_keys)
    assert set(introspected.foreign_keys) == set(music_schema.foreign_keys)


def test_render_full_schema(music_schema):
    text = render_schema_text(music_schema)
    assert text.count("CREATE TABLE") == 8
    assert "CREATE TABLE singer (" in text
    assert "id number PRIMARY KEY" in text
    assert "FOREIGN KEY (stadium_id) REFERENCES stadium(id)" in text


def test_render_deterministic(music_schema):
    assert render_schema_text(music_schema) == render_schema_text(music_schema)
    link = LinkedSchema("music", {"singer": ["id", "name"]})
    assert render_schema_text(link, parent=music_schema) == render_schema_text(
        link, parent=music_schema
    )


def test_render_linked_schema(music_schema):
    link = LinkedSchema(
        "music",
        {"concert": ["id", "stadium_id"], "stadium": ["id", "name"]},
        join_edges=[ForeignKey("concert", "stadium_id", "stadium", "id")],
    )
    text = render_schema_text(link, parent=music_schema)
    assert text.count("CREATE TABLE") == 2
    assert "-- JOIN concert.stadium_id = stadium.id" in text


def test_render_roundtrip_names(music_schema):
    """Names in the rendered text reproduce the schema's name sets."""
    import re

    text = render_schema_text(music_schema)
    rendered_tables = set(re.findall(r"CREATE TABLE (\w+)", text))
    assert rendered_tables == {t.name for t in music_schema.tables}
    for table in music_schema.tables:
        block = text.split(f"CREATE TABLE {table.name} (")[1].split(");")[0]
        for cname in table.column_names():
            assert re.search(rf"^  {re.escape(cname)} ", block, re.M)


def test_validate_unknown_column(music_schema):
    link = LinkedSchema("music", {"singer": ["agee"]})
    violations = validate_linked_schema(music_schema, link)
    assert [v.kind for v in violations] == ["unknown-column"]
    assert violations[0].entity == "singer.agee"


def test_validate_full_parent_is_valid(music_schema):
    link = LinkedSchema(
        "music",
        {t.name: list(t.column_names()) for t in music_schema.tables},
        join_edges=list(music_schema.foreign_keys),
    )
    assert validate_linked_schema(music_schema, link) == []


def test_validate_non_fk_edge_is_warning(music_schema):
    link = LinkedSchema(
        "music",
        {"singer": ["id"], "stadium": ["id"]},
        join_edges=[ForeignKey("singer", "id", "stadium", "id")],
    )
    violations = validate_linked_schema(music_schema, link)
    assert len(violations) == 1
    assert violations[0].kind == "non-fk-edge"
    assert violations[0].severity == "warning"


def test_validate_unknown_table(music_schema):
    link = LinkedSchema("music", {"conductor": ["id"]})
    kinds = [v.kind for v in validate_linked_schema(music_schema, link)]
    assert kinds == ["unknown-table"]


def test_validate_empty_link(music_schema):
    violations = validate_linked_schema(music_schema, LinkedSchema("music", {}))
    assert [v.kind for v in violations] == ["empty-link"]


def test_case_insensitive_matching(music_schema):
    link = LinkedSchema("music", {"Singer": ["NAME", "Age"]})
    assert validate_linked_schema(music_schema, link) == []


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_random_crops_validate(data):
    """Any crop keeping at least one column of a valid schema validates."""
    schema = DatabaseSchema(
        "toy",
        tables=(
            TableDef("alpha", (("id", "number"), ("x", "text"), ("y", "number")), ("id",)),
            TableDef("beta", (("id", "number"), ("alpha_id", "number"), ("z", "text")), ("id",)),
        ),
        foreign_keys=(ForeignKey("beta", "alpha_id", "alpha", "id"),),
    )
    kept = {}
    for table in schema.tables:
        cols = data.draw(
            st.lists(st.sampled_from(table.column_names()), unique=True),
            label=table.name,
        )
        if cols:
            kept[table.name] = cols
    if not kept:
        kept = {"alpha": ["id"]}
    link = LinkedSchema("toy", kept)
    assert validate_linked_schema(schema, link) == []


def test_duplicate_table_rejected():
    from nl2sql.schema import _check_schema

    with pytest.raises(SchemaError, match="duplicate table"):
        _check_schema(
            DatabaseSchema(
                "dup",
                tables=(TableDef("t", (("a", "text"),)), TableDef("T", (("a", "text"),))),
            )
        )
