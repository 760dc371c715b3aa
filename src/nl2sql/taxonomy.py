"""Catalog of coded SQL failure modes used to guide the correction loop.

Nine categories, thirty-one coded subtypes. Codes are stable identifiers;
titles and hints may evolve without breaking parse compatibility.
"""

import functools
import re
from dataclasses import dataclass


@dataclass(frozen=True)
class ErrorCode:
    code: str  # "CAT-NN"
    category: str
    title: str  # short description, <= 8 words
    hint: str  # one-line repair guidance


@dataclass(frozen=True)
class Taxonomy:
    categories: tuple  # of (id, name)
    codes: tuple  # of ErrorCode

    @functools.cached_property
    def summary(self) -> str:
        """``render_summary``'s text, built at its first use."""
        return _summary_text(self)


_CATEGORIES = (
    ("SYN", "Syntax errors"),
    ("SCH", "Schema linking errors"),
    ("JOIN", "Join errors"),
    ("FIL", "Filter condition errors"),
    ("AGG", "Aggregation logic errors"),
    ("VAL", "Value representation errors"),
    ("SUB", "Subquery formulation errors"),
    ("SET", "Set operation errors"),
    ("STR", "Structural omissions"),
)

# Entries beyond the classic NL2SQL failure modes (wrong join condition,
# missing filter predicate, wrong literal casing, wrong subquery shape,
# missing DISTINCT) round out each category to full coverage.
_CODES = (
    ("SYN-01", "SYN", "invalid aliases",
     "Define every alias before use and keep names consistent."),
    ("SYN-02", "SYN", "malformed SQL",
     "Rewrite the statement with balanced parentheses and valid keywords."),
    ("SYN-03", "SYN", "misquoted identifier or literal",
     "Quote string literals with single quotes, identifiers only when needed."),
    ("SCH-01", "SCH", "missing columns",
     "Use only columns that exist in the linked schema."),
    ("SCH-02", "SCH", "ambiguous columns",
     "Qualify the column with its table name."),
    ("SCH-03", "SCH", "incorrect foreign keys",
     "Join on the declared foreign-key column pair."),
    ("SCH-04", "SCH", "wrong table referenced",
     "Check which table actually holds the requested attribute."),
    ("JOIN-01", "JOIN", "missing joins",
     "Add the join needed to connect every referenced table."),
    ("JOIN-02", "JOIN", "wrong join types",
     "Pick INNER vs LEFT join from whether unmatched rows must survive."),
    ("JOIN-03", "JOIN", "extra tables",
     "Drop tables that contribute no selected or filtered column."),
    ("JOIN-04", "JOIN", "wrong join condition",
     "Equate the key columns that actually relate the two tables."),
    ("FIL-01", "FIL", "wrong WHERE columns",
     "Filter on the column the question constrains, not a lookalike."),
    ("FIL-02", "FIL", "type mismatches",
     "Compare values of matching types; cast or re-quote as needed."),
    ("FIL-03", "FIL", "wrong comparison operator",
     "Re-read the question for =, range, or negation semantics."),
    ("FIL-04", "FIL", "missing filter predicate",
     "Add the condition the question states but the query omits."),
    ("AGG-01", "AGG", "missing GROUP BY",
     "Group by every non-aggregated selected column."),
    ("AGG-02", "AGG", "HAVING misuse",
     "Use HAVING for aggregate conditions, WHERE for row conditions."),
    ("AGG-03", "AGG", "wrong aggregate function",
     "Match the function (COUNT/SUM/AVG/MIN/MAX) to the asked quantity."),
    ("AGG-04", "AGG", "aggregate over wrong column",
     "Aggregate the column the question measures."),
    ("VAL-01", "VAL", "hard-coded values",
     "Derive the value from the data instead of guessing a constant."),
    ("VAL-02", "VAL", "format mismatches",
     "Match the stored value format (dates, codes, units) exactly."),
    ("VAL-03", "VAL", "wrong literal casing",
     "Match the stored casing of the compared string value."),
    ("SUB-01", "SUB", "unused subqueries",
     "Remove subqueries whose result is never consumed."),
    ("SUB-02", "SUB", "incorrectly correlated subqueries",
     "Fix the correlation so inner references resolve to the outer row."),
    ("SUB-03", "SUB", "wrong subquery result shape",
     "Return one column (and one row for scalar contexts) from the subquery."),
    ("SET-01", "SET", "UNION misuse",
     "Use UNION only for compatible column lists; mind ALL vs dedup."),
    ("SET-02", "SET", "INTERSECT misuse",
     "Use INTERSECT for rows present in both sides, same column list."),
    ("SET-03", "SET", "EXCEPT misuse",
     "Check the operand order: left side minus right side."),
    ("STR-01", "STR", "missing ORDER BY",
     "Add the ordering the question asks for, with ASC/DESC."),
    ("STR-02", "STR", "missing LIMIT",
     "Limit row count when the question asks for top-N or a single row."),
    ("STR-03", "STR", "missing DISTINCT",
     "Deduplicate when the question asks for distinct values."),
)

CODE_PATTERN = re.compile(r"\b[A-Z]{2,4}-\d{2}\b")


@functools.cache
def default_taxonomy() -> Taxonomy:
    """Built-in catalog: 9 categories, 31 codes; one shared object per
    process."""
    return Taxonomy(
        categories=_CATEGORIES,
        codes=tuple(ErrorCode(*row) for row in _CODES),
    )


def render_summary(taxonomy: Taxonomy) -> str:
    """Compact deterministic listing for embedding in prompts.

    One line per code, grouped under category headers; kept short so the
    whole catalog fits in a prompt without crowding out the question. Built
    once per Taxonomy object.
    """
    return taxonomy.summary


def _summary_text(taxonomy: Taxonomy) -> str:
    lines = []
    for cat_id, cat_name in taxonomy.categories:
        lines.append(f"## {cat_name} ({cat_id})")
        for code in taxonomy.codes:
            if code.category == cat_id:
                lines.append(f"{code.code} - {code.title}")
    return "\n".join(lines) + "\n"


def parse_codes(text: str, taxonomy: Taxonomy):
    """Extract taxonomy codes from free text.

    Returns (known, unknown): known as ErrorCode objects deduplicated in
    order of first appearance, unknown as raw strings. Unknown codes are
    data, not failures.
    """
    known = []
    unknown = []
    seen = set()
    valid = {c.code: c for c in taxonomy.codes}
    for match in CODE_PATTERN.finditer(text or ""):
        token = match.group(0)
        if token in seen:
            continue
        seen.add(token)
        if token in valid:
            known.append(valid[token])
        else:
            unknown.append(token)
    return known, unknown
