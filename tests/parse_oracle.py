"""The per-call parses that ``ParsedQuery`` replaced, and the resolver that
SQLite's reading replaced, kept as test oracles: each entry point tokenizes its
text again and runs its own statement checks and token walk.

They also keep the parenthesis rule that ``Token.depth`` replaced: every
helper counts a token as a parenthesis, comma or dot by its value alone and
keeps its own depth, and the normalized text is unwrapped by a character
count. So on a text with a literal or quoted ``(``, ``)`` or ``;`` they read
it as the old code did. The masking walker ``skeleton._Masker`` is shared.

``_Extractor`` is the resolver that ``sql_refs`` kept until SQLite resolved
names: it walks the query's scopes (CTEs, derived tables, correlated
subqueries, join conditions) and compares every name by ``name_key``.
``SELECT *`` expands to every column of the scope's base tables, and every
unresolvable identifier is collected. An unqualified column resolves to a
select-list alias, else to the nearest scope and, within a scope, to the first
FROM-order base table that has it; a derived table whose output list is known
counts as a no-op (its base references were recorded when the subquery was
parsed)."""

from __future__ import annotations

from sqlknow.errors import SqlParseError, UnresolvedIdentifierError, UnsupportedSqlError
from sqlknow.schema import DatabaseSchema, name_key
from sqlknow.skeleton import JOIN_KEYWORDS, _Masker
from sqlknow.sql_refs import ReferenceSet
from sqlknow.sql_tokens import TYPE_NAMES, Kind, Token, tokenize

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


def _read_alias(tokens: list[Token], i: int) -> tuple[str | None, int]:
    if i < len(tokens) and tokens[i].is_kw("AS"):
        if i + 1 < len(tokens) and tokens[i + 1].kind is Kind.IDENT:
            return name_key(tokens[i + 1].value), i + 2
        raise SqlParseError("expected alias after AS", tokens[i].pos)
    if i < len(tokens) and tokens[i].kind is Kind.IDENT:
        return name_key(tokens[i].value), i + 1
    return None, i


def _output_names(items_tokens: list[Token], scope: _Scope) -> list | None:
    names: list = []
    for item in _split_items(items_tokens):
        if len(item) >= 2 and item[-2].is_kw("AS") and item[-1].kind is Kind.IDENT:
            names.append(name_key(item[-1].value))
        elif len(item) == 1 and item[0].kind is Kind.IDENT:
            names.append(name_key(item[0].value))
        elif (
            len(item) == 3
            and item[0].kind is Kind.IDENT
            and item[1].value == "."
            and item[1].kind is Kind.PUNCT
            and item[2].kind is Kind.IDENT
        ):
            names.append(name_key(item[2].value))
        elif len(item) == 1 and item[0].kind is Kind.OP and item[0].value == "*":
            for src in scope.sources:
                if src.outputs is not None:
                    names.extend(src.outputs)
                else:
                    names.append(None)
        else:
            names.append(None)
    return names


class _Source:
    __slots__ = ("kind", "table_name", "alias", "outputs", "has_unknown")

    def __init__(self, kind, table_name=None, alias=None, outputs=None, has_unknown=False):
        self.kind = kind  # "table" | "derived"
        self.table_name = table_name  # canonical, for base tables
        self.alias = alias  # a name key, or None
        self.outputs = outputs  # name keys of the output columns
        self.has_unknown = has_unknown

    def addressable_as(self, qualifier: str) -> bool:
        if self.alias is not None:
            return self.alias == qualifier
        return self.table_name is not None and name_key(self.table_name) == qualifier


def _derived(alias: str | None, outputs: list | None) -> _Source:
    """A derived table (or CTE) with output names ``outputs``; None: unknown."""
    return _Source("derived", alias=alias,
                   outputs=[o for o in outputs if o] if outputs else None,
                   has_unknown=outputs is None or any(o is None for o in outputs))


class _Scope:
    __slots__ = ("sources", "output_aliases", "parent")

    def __init__(self, parent=None):
        self.sources: list[_Source] = []
        self.output_aliases: set[str] = set()
        self.parent = parent


class _Extractor:
    def __init__(self, schema: DatabaseSchema):
        self.schema = schema
        self.tables: set[str] = set()
        self.columns: set[str] = set()
        self.unresolved: list[str] = []

    # -- recording -------------------------------------------------------------

    def _record_column(self, table: str, column: str) -> bool:
        """Record ``column`` of the base table named ``table`` (canonical), if it has one."""
        col_id = self.schema.resolve_column_id(f"{table}.{column}")
        if col_id is not None:
            self.columns.add(col_id)
            self.tables.add(table)
        return col_id is not None

    def _expand_table(self, table: str) -> None:
        self.columns.update(self.schema.columns_of[table])
        self.tables.add(table)

    # -- statement level ---------------------------------------------------------

    def parse_select(self, tokens: list[Token], parent, ctes: dict) -> list | None:
        """Parse a (possibly compound) select; returns its output column names.

        Output names are name keys; None means they could not be determined.
        """
        tokens = _strip_outer_parens(tokens)
        i = 0
        ctes = dict(ctes)
        if tokens and tokens[0].is_kw("WITH"):
            i = 1
            if i < len(tokens) and tokens[i].is_kw("RECURSIVE"):
                i += 1
            while i < len(tokens):
                if tokens[i].kind is not Kind.IDENT:
                    raise SqlParseError("expected CTE name", tokens[i].pos)
                cte_name = name_key(tokens[i].value)
                i += 1
                if not (i < len(tokens) and tokens[i].is_kw("AS")):
                    raise SqlParseError("expected AS in CTE definition", tokens[i - 1].pos)
                i += 1
                if i == len(tokens) or tokens[i].value != "(" or tokens[i].kind is not Kind.PUNCT:
                    raise SqlParseError("expected ( after AS", tokens[i - 1].pos)
                close = _matching_paren(tokens, i)
                body = tokens[i + 1 : close]
                outputs = self.parse_select(body, parent=None, ctes=ctes)
                ctes[cte_name] = outputs
                i = close + 1
                if i < len(tokens) and tokens[i].value == "," and tokens[i].kind is Kind.PUNCT:
                    i += 1
                    continue
                break
        body = tokens[i:]
        segments = _split_compound(body)
        outputs = None
        for idx, seg in enumerate(segments):
            seg_out = self.parse_core(seg, parent, ctes)
            if idx == 0:
                outputs = seg_out
        return outputs

    def parse_core(self, tokens: list[Token], parent, ctes: dict) -> list | None:
        tokens = _strip_outer_parens(tokens)
        if not tokens or not tokens[0].is_kw("SELECT"):
            if tokens and tokens[0].is_kw("WITH"):
                return self.parse_select(tokens, parent, ctes)
            raise SqlParseError("expected SELECT", tokens[0].pos if tokens else 0)
        regions = _split_regions(tokens)
        scope = _Scope(parent)

        on_regions: list[list[Token]] = []
        using_groups: list[list[Token]] = []
        natural_pairs: list[int] = []  # index of the right-hand source of a NATURAL join
        if regions["from"]:
            self._parse_sources(regions["from"], scope, ctes, on_regions, using_groups,
                                natural_pairs)

        items = regions["select"]
        scope.output_aliases = {
            name_key(it[-1].value) for it in _split_items(items)
            if len(it) >= 2 and it[-2].is_kw("AS") and it[-1].kind is Kind.IDENT
        }

        self._scan_expr(items, scope, ctes, items_level=True)
        for region in on_regions:
            self._scan_expr(region, scope, ctes)
        for key in ("where", "group", "having", "order", "limit"):
            if regions[key]:
                self._scan_expr(regions[key], scope, ctes)
        for group in using_groups:
            for tok in group:
                if tok.kind is Kind.IDENT:
                    self._resolve_using(name_key(tok.value), scope)
        for right_idx in natural_pairs:
            self._resolve_natural(scope, right_idx)

        return _output_names(items, scope)

    # -- FROM clause -----------------------------------------------------------

    def _parse_sources(self, tokens, scope, ctes, on_regions, using_groups, natural_pairs):
        i = 0
        n = len(tokens)
        pending_natural = False
        while i < n:
            tok = tokens[i]
            if tok.value == "(" and tok.kind is Kind.PUNCT:
                close = _matching_paren(tokens, i)
                inner = tokens[i + 1 : close]
                if inner and inner[0].is_kw("SELECT", "WITH"):
                    outputs = self.parse_select(inner, parent=None, ctes=ctes)
                    alias, i = _read_alias(tokens, close + 1)
                    scope.sources.append(_derived(alias, outputs))
                else:
                    # parenthesized join: flatten into the same scope
                    self._parse_sources(inner, scope, ctes, on_regions, using_groups,
                                        natural_pairs)
                    i = close + 1
            elif tok.kind is Kind.IDENT:
                name = tok.value
                j = i + 1
                while (j + 1 < n and tokens[j].value == "." and tokens[j].kind is Kind.PUNCT
                       and tokens[j + 1].kind is Kind.IDENT):
                    name = tokens[j + 1].value  # db-qualified: keep last part
                    j += 2
                alias, j = _read_alias(tokens, j)
                key = name_key(name)
                if key in ctes:
                    scope.sources.append(_derived(alias or key, ctes[key]))
                elif self.schema.has_table(name):
                    tdef = self.schema.table_by_key[name_key(name)]
                    self.tables.add(tdef.name)
                    scope.sources.append(
                        _Source(
                            "table",
                            table_name=tdef.name,
                            alias=alias,
                            outputs=[name_key(c.name) for c in tdef.columns],
                        )
                    )
                else:
                    self.unresolved.append(name)
                    scope.sources.append(_derived(alias or key, None))
                if pending_natural:
                    natural_pairs.append(len(scope.sources) - 1)
                    pending_natural = False
                i = j
            elif tok.value == "," and tok.kind is Kind.PUNCT:
                i += 1
            elif tok.value in JOIN_KEYWORDS and tok.kind is Kind.KEYWORD:
                if tok.value == "NATURAL":
                    pending_natural = True
                i += 1
            elif tok.is_kw("ON"):
                end = _expr_end(tokens, i + 1)
                on_regions.append(tokens[i + 1 : end])
                i = end
            elif tok.is_kw("USING"):
                if i + 1 < n and tokens[i + 1].value == "(" and tokens[i + 1].kind is Kind.PUNCT:
                    close = _matching_paren(tokens, i + 1)
                    using_groups.append(tokens[i + 2 : close])
                    i = close + 1
                else:
                    raise SqlParseError("expected ( after USING", tok.pos)
            else:
                raise SqlParseError(f"unexpected token {tok.value!r} in FROM", tok.pos)

    # -- expression scanning ------------------------------------------------------

    def _scan_expr(self, tokens, scope, ctes, items_level=False):
        i = 0
        n = len(tokens)
        prev = None
        while i < n:
            tok = tokens[i]
            if tok.value == "(" and tok.kind is Kind.PUNCT:
                close = _matching_paren(tokens, i)
                inner = tokens[i + 1 : close]
                if inner and inner[0].is_kw("SELECT", "WITH"):
                    self.parse_select(inner, parent=scope, ctes=ctes)
                else:
                    self._scan_expr(inner, scope, ctes)
                prev = tokens[close]
                i = close + 1
                continue
            if tok.kind is Kind.IDENT:
                if i + 1 < n and tokens[i + 1].value == "(" and tokens[i + 1].kind is Kind.PUNCT:
                    prev = tok  # function name; arguments handled by paren branch
                    i += 1
                    continue
                if (
                    tok.value.upper() in TYPE_NAMES
                    and prev is not None
                    and prev.is_kw("AS")
                ):
                    prev = tok  # CAST target type
                    i += 1
                    continue
                parts = [tok.value]
                j = i + 1
                starred = False
                while j + 1 < n and tokens[j].value == "." and tokens[j].kind is Kind.PUNCT:
                    follower = tokens[j + 1]
                    if follower.kind is Kind.IDENT:
                        parts.append(follower.value)
                        j += 2
                        continue
                    if follower.kind is Kind.OP and follower.value == "*":
                        starred = True
                        j += 2
                    break
                if starred:
                    self._resolve_qualified_star(name_key(parts[-1]), scope)
                elif len(parts) == 1:
                    self._resolve_unqualified(name_key(parts[0]), scope)
                else:
                    self._resolve_qualified(name_key(parts[-2]), name_key(parts[-1]), scope)
                prev = tokens[j - 1]
                i = j
                continue
            if (
                tok.kind is Kind.OP
                and tok.value == "*"
                and items_level
                and (prev is None or prev.value == "," and prev.kind is Kind.PUNCT)
            ):
                self._expand_star(scope)
            prev = tok
            i += 1

    # -- resolution ----------------------------------------------------------------

    def _find_source(self, qualifier: str, scope) -> _Source | None:
        sc = scope
        while sc is not None:
            for src in sc.sources:
                if src.addressable_as(qualifier):
                    return src
            sc = sc.parent
        return None

    def _resolve_qualified(self, qualifier: str, column: str, scope) -> None:
        src = self._find_source(qualifier, scope)
        if src is None:
            self.unresolved.append(f"{qualifier}.{column}")
            return
        if src.kind == "table":
            if not self._record_column(src.table_name, column):
                self.unresolved.append(f"{qualifier}.{column}")
            return
        if src.has_unknown or src.outputs is None or column in src.outputs:
            return  # derived output; base references already recorded
        self.unresolved.append(f"{qualifier}.{column}")

    def _resolve_unqualified(self, column: str, scope) -> None:
        sc = scope
        while sc is not None:
            if column in sc.output_aliases:
                return
            for src in sc.sources:
                if src.kind == "table" and self._record_column(src.table_name, column):
                    return
            for src in sc.sources:
                if src.kind == "derived" and src.outputs and column in src.outputs:
                    return
            if any(src.kind == "derived" and src.has_unknown for src in sc.sources):
                return  # benefit of the doubt for opaque derived outputs
            sc = sc.parent
        self.unresolved.append(column)

    def _resolve_qualified_star(self, qualifier: str, scope) -> None:
        src = self._find_source(qualifier, scope)
        if src is None:
            self.unresolved.append(f"{qualifier}.*")
        elif src.kind == "table":
            self._expand_table(src.table_name)

    def _resolve_using(self, column: str, scope) -> None:
        hit = False
        for src in scope.sources:
            if src.kind == "table" and self._record_column(src.table_name, column):
                hit = True
            elif src.kind == "derived" and (
                src.has_unknown or (src.outputs and column in src.outputs)
            ):
                hit = True
        if not hit:
            self.unresolved.append(column)

    def _resolve_natural(self, scope, right_idx: int) -> None:
        # a NATURAL join reads every column name shared with the preceding sources
        if right_idx >= len(scope.sources):
            return
        right = scope.sources[right_idx]
        if right.kind != "table":
            return
        right_table = self.schema.table_by_key[name_key(right.table_name)]
        right_cols = {name_key(c.name) for c in right_table.columns}
        for src in scope.sources[:right_idx]:
            if src.kind != "table":
                continue
            for c in self.schema.table_by_key[name_key(src.table_name)].columns:
                if name_key(c.name) in right_cols:
                    self._record_column(src.table_name, c.name)
                    self._record_column(right.table_name, c.name)

    def _expand_star(self, scope) -> None:
        for src in scope.sources:
            if src.kind == "table":
                self._expand_table(src.table_name)


def _check_statement(tokens) -> None:
    if not tokens:
        raise SqlParseError("empty statement", 0)
    check_balanced(tokens)
    first = tokens[0]
    if not (first.is_kw("SELECT", "WITH") or first.value == "("):
        raise UnsupportedSqlError(
            f"only SELECT/WITH queries are supported (got {first.value!r})"
        )


def skeletonize(sql: str) -> str:
    tokens = tokenize(sql)
    _check_statement(tokens)
    masker = _Masker(tokens)
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
            parts.append(name_key(tokens[i + 2].value))
            i += 3
            continue
        if tok.kind is Kind.STRING:
            parts.append(f"'{tok.value}'")
        else:
            parts.append(name_key(tok.value))
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
