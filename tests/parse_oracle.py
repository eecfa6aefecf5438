"""The per-call parses that ``ParsedQuery`` replaced, kept as test oracles:
each entry point tokenizes its text again and runs its own statement checks
and token walk.

They also keep the parenthesis rule that ``Token.depth`` replaced: every
helper counts a token as a parenthesis, comma or dot by its value alone and
keeps its own depth, and the normalized text is unwrapped by a character
count. So on a text with a literal or quoted ``(``, ``)`` or ``;`` they read
it as the old code did. The two walkers (``skeleton._Masker`` and
``sql_refs._Extractor.parse_select``) are shared; ``extract_references`` runs
the extractor with the span helpers below patched in."""

from __future__ import annotations

from unittest import mock

from sqlknow.errors import SqlParseError, UnresolvedIdentifierError, UnsupportedSqlError
from sqlknow.schema import DatabaseSchema
from sqlknow.skeleton import _Masker
from sqlknow.sql_refs import ReferenceSet, _Extractor
from sqlknow.sql_tokens import Kind, Token, tokenize

_JOIN_WORDS = {"JOIN", "INNER", "LEFT", "RIGHT", "FULL", "OUTER", "CROSS", "NATURAL"}
_COMPOUND_WORDS = {"UNION", "INTERSECT", "EXCEPT"}


def check_balanced(tokens: list[Token]) -> None:
    opened: list[int] = []  # offsets of the parentheses still open
    for tok in tokens:
        if tok.value == "(":
            opened.append(tok.pos)
        elif tok.value == ")":
            if not opened:
                raise SqlParseError("unbalanced closing parenthesis", tok.pos)
            opened.pop()
    if opened:
        raise SqlParseError("unbalanced opening parenthesis", opened[0])


def _matching_paren(tokens: list[Token], open_idx: int) -> int:
    depth = 0
    for i in range(open_idx, len(tokens)):
        if tokens[i].value == "(":
            depth += 1
        elif tokens[i].value == ")":
            depth -= 1
            if depth == 0:
                return i
    raise SqlParseError("unbalanced parenthesis", tokens[open_idx].pos)


def _strip_outer_parens(tokens: list[Token]) -> list[Token]:
    while (
        len(tokens) >= 2
        and tokens[0].value == "("
        and _matching_paren(tokens, 0) == len(tokens) - 1
    ):
        tokens = tokens[1:-1]
    return tokens


def _split_compound(tokens: list[Token]) -> list[list[Token]]:
    segments = []
    depth = 0
    start = 0
    i = 0
    while i < len(tokens):
        tok = tokens[i]
        if tok.value == "(":
            depth += 1
        elif tok.value == ")":
            depth -= 1
        elif depth == 0 and tok.kind is Kind.KEYWORD and tok.value in _COMPOUND_WORDS:
            segments.append(tokens[start:i])
            if i + 1 < len(tokens) and tokens[i + 1].is_kw("ALL"):
                i += 1
            start = i + 1
        i += 1
    segments.append(tokens[start:])
    return [s for s in segments if s]


_REGION_STARTS = {"FROM": "from", "WHERE": "where", "GROUP": "group",
                  "HAVING": "having", "ORDER": "order", "LIMIT": "limit",
                  "OFFSET": "limit"}


def _split_regions(tokens: list[Token]) -> dict[str, list[Token]]:
    regions = {k: [] for k in ("select", "from", "where", "group", "having", "order", "limit")}
    current = "select"
    depth = 0
    i = 0
    n = len(tokens)
    # skip SELECT [DISTINCT|ALL]
    if tokens and tokens[0].is_kw("SELECT"):
        i = 1
        if i < n and tokens[i].is_kw("DISTINCT", "ALL"):
            i += 1
    while i < n:
        tok = tokens[i]
        if tok.value == "(":
            depth += 1
        elif tok.value == ")":
            depth -= 1
        if depth == 0 and tok.kind is Kind.KEYWORD and tok.value in _REGION_STARTS:
            current = _REGION_STARTS[tok.value]
            if tok.value in ("GROUP", "ORDER") and i + 1 < n and tokens[i + 1].is_kw("BY"):
                i += 2
                continue
            i += 1
            continue
        regions[current].append(tok)
        i += 1
    return regions


def _expr_end(tokens: list[Token], start: int) -> int:
    depth = 0
    for i in range(start, len(tokens)):
        tok = tokens[i]
        if tok.value == "(":
            depth += 1
        elif tok.value == ")":
            depth -= 1
        elif depth == 0 and (
            tok.value == "," or (tok.kind is Kind.KEYWORD and tok.value in _JOIN_WORDS)
        ):
            return i
    return len(tokens)


def _split_items(tokens: list[Token]) -> list[list[Token]]:
    items = []
    depth = 0
    start = 0
    for i, tok in enumerate(tokens):
        if tok.value == "(":
            depth += 1
        elif tok.value == ")":
            depth -= 1
        elif tok.value == "," and depth == 0:
            items.append(tokens[start:i])
            start = i + 1
    items.append(tokens[start:])
    return [it for it in items if it]


_SPAN_HELPERS = {
    "_matching_paren": _matching_paren,
    "_strip_outer_parens": _strip_outer_parens,
    "_split_compound": _split_compound,
    "_split_regions": _split_regions,
    "_expr_end": _expr_end,
    "_split_items": _split_items,
}


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
    with mock.patch.multiple("sqlknow.sql_refs", **_SPAN_HELPERS):
        extractor.parse_select(tokens, parent=None, ctes={})
    if extractor.unresolved:
        raise UnresolvedIdentifierError(extractor.unresolved)
    return ReferenceSet(
        tables=frozenset(extractor.tables), columns=frozenset(extractor.columns)
    )


def consistency_diagnostics(sql: str, schema: DatabaseSchema) -> tuple[str, ...]:
    """``check_schema_consistency``'s diagnostics; empty when it is ok."""
    try:
        extract_references(sql, schema)
    except (SqlParseError, UnsupportedSqlError) as exc:
        return (f"parse: {exc}",)
    except UnresolvedIdentifierError as exc:
        return tuple(f"unresolved: {n}" for n in exc.names)
    return ()


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
