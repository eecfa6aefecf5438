"""The per-call parses that ``ParsedQuery`` replaced, kept as test oracles:
each entry point tokenizes its text again and runs its own statement checks
and token walk. The two walkers that did not change (``skeleton._Masker`` and
``sql_refs._Extractor.parse_select``) are shared; everything around them is
the old code."""

from __future__ import annotations

from sqlknow.errors import SqlParseError, UnresolvedIdentifierError, UnsupportedSqlError
from sqlknow.schema import DatabaseSchema
from sqlknow.skeleton import _Masker
from sqlknow.sql_refs import ReferenceSet, _Extractor
from sqlknow.sql_tokens import Kind, check_balanced, tokenize


def _check_statement(tokens) -> None:
    if not tokens:
        raise SqlParseError("empty statement", 0)
    check_balanced(tokens)
    first = tokens[0]
    if not (first.is_kw("SELECT", "WITH") or first.value == "("):
        raise UnsupportedSqlError(
            f"only SELECT/WITH queries are supported (got {first.value!r})"
        )


def skeletonize(sql: str, numbered: bool = False) -> str:
    tokens = tokenize(sql)
    _check_statement(tokens)
    masker = _Masker(tokens, numbered)
    masker.run()
    return masker.render()


def extract_references(sql: str, schema: DatabaseSchema) -> ReferenceSet:
    tokens = tokenize(sql)
    extractor = _Extractor(schema)
    _check_statement(tokens)
    extractor.parse_select(tokens, parent=None, ctes={})
    if extractor.unresolved:
        raise UnresolvedIdentifierError(extractor.unresolved)
    return ReferenceSet(
        tables=frozenset(extractor.tables), columns=frozenset(extractor.columns)
    )


def has_top_level_order_by(sql: str) -> bool:
    try:
        tokens = tokenize(sql)
    except SqlParseError:
        return False
    depth = 0
    for tok in tokens:
        if tok.value == "(":
            depth += 1
        elif tok.value == ")":
            depth -= 1
        elif depth == 0 and tok.is_kw("ORDER"):
            return True
    return False


def normalize_expression(sql: str) -> str:
    try:
        tokens = tokenize(sql)
    except SqlParseError:
        return ""
    parts: list[str] = []
    i = 0
    while i < len(tokens):
        tok = tokens[i]
        if (
            tok.kind is Kind.IDENT
            and i + 2 < len(tokens)
            and tokens[i + 1].value == "."
            and tokens[i + 2].kind is Kind.IDENT
        ):
            parts.append(tokens[i + 2].value.lower())
            i += 3
            continue
        if tok.kind is Kind.STRING:
            parts.append(f"'{tok.value}'")
        else:
            parts.append(tok.value.lower())
        i += 1
    text = " ".join(parts)
    while text.startswith("( ") and text.endswith(" )"):
        inner = text[2:-2]
        if _balanced(inner):
            text = inner
        else:
            break
    return text


def _balanced(text: str) -> bool:
    depth = 0
    for ch in text:
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
            if depth < 0:
                return False
    return depth == 0


def identifier_map(original: str, variant: str) -> dict[str, str]:
    try:
        orig = [t.value for t in tokenize(original) if t.kind is Kind.IDENT]
        var = [t.value for t in tokenize(variant) if t.kind is Kind.IDENT]
    except SqlParseError:
        return {}
    if len(orig) != len(var):
        return {}
    return {o: v for o, v in zip(orig, var) if o != v}
