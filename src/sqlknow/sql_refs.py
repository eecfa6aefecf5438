"""Schema reference extraction: which tables and columns a query reads.

Walks the query with proper scope handling (CTEs, derived tables, correlated
subqueries, join conditions) and compares every table, column, alias and CTE
name as SQLite does (:func:`~sqlknow.schema.name_key`). ``SELECT *`` expands to
every column of the scope's base tables. Unresolvable identifiers are collected
and reported together, never silently dropped.

Resolution rules for unqualified columns: select-list aliases shadow nothing
but resolve to themselves; otherwise the nearest scope wins and, within a
scope, the first FROM-order base table containing the column; derived tables
whose output list is statically known count as no-ops (their base references
were recorded when the subquery was parsed).

:class:`ParsedQuery` is the one parse of a SQL text, which every reading of it shares.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .errors import SqlParseError, UnresolvedIdentifierError, UnsupportedSqlError
from .schema import DatabaseSchema, name_key
from .skeleton import COMPOUND_KEYWORDS, JOIN_KEYWORDS, mask_statement
from .sql_tokens import TYPE_NAMES, Kind, Token, check_balanced, tokenize


@dataclass(frozen=True)
class ReferenceSet:
    tables: frozenset[str]
    columns: frozenset[str]  # "table.column", canonical schema casing


@dataclass(frozen=True)
class ConsistencyReport:
    ok: bool
    diagnostics: tuple[str, ...] = ()

    def __bool__(self) -> bool:
        return self.ok


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
        self.columns.update(self.schema.index.columns_of[table])
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
                    tdef = self.schema.table(name)
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
        right_cols = {name_key(c.name) for c in self.schema.table(right.table_name).columns}
        for src in scope.sources[:right_idx]:
            if src.kind != "table":
                continue
            for c in self.schema.table(src.table_name).columns:
                if name_key(c.name) in right_cols:
                    self._record_column(src.table_name, c.name)
                    self._record_column(right.table_name, c.name)

    def _expand_star(self, scope) -> None:
        for src in scope.sources:
            if src.kind == "table":
                self._expand_table(src.table_name)


# -- token-span helpers ------------------------------------------------------------


def _matching_paren(tokens: list[Token], open_idx: int) -> int:
    """The closing parenthesis: the next token at the opener's depth."""
    depth = tokens[open_idx].depth
    for i in range(open_idx + 1, len(tokens)):
        if tokens[i].depth == depth:
            return i
    raise SqlParseError("unbalanced parenthesis", tokens[open_idx].pos)


def _strip_outer_parens(tokens: list[Token]) -> list[Token]:
    """Unwrap parentheses around the whole slice; an unbalanced slice stays as it is."""
    while (
        len(tokens) >= 2
        and tokens[0].value == "("
        and tokens[0].kind is Kind.PUNCT
        and tokens[-1].depth == tokens[0].depth
        and _matching_paren(tokens, 0) == len(tokens) - 1
    ):
        tokens = tokens[1:-1]
    return tokens


# The split helpers cut a slice at its own depth: that of its first token.


def _split_compound(tokens: list[Token]) -> list[list[Token]]:
    segments = []
    start = 0
    for i, tok in enumerate(tokens):
        if (tok.value in COMPOUND_KEYWORDS and tok.kind is Kind.KEYWORD
                and tok.depth == tokens[0].depth):
            segments.append(tokens[start:i])
            start = i + 2 if i + 1 < len(tokens) and tokens[i + 1].is_kw("ALL") else i + 1
    segments.append(tokens[start:])
    return [s for s in segments if s]


_REGION_STARTS = {"FROM": "from", "WHERE": "where", "GROUP": "group",
                  "HAVING": "having", "ORDER": "order", "LIMIT": "limit",
                  "OFFSET": "limit"}


def _split_regions(tokens: list[Token]) -> dict[str, list[Token]]:
    """The clauses of a core select, ``tokens[0]`` being its SELECT."""
    regions = {k: [] for k in ("select", "from", "where", "group", "having", "order", "limit")}
    current = "select"
    n = len(tokens)
    i = 2 if n > 1 and tokens[1].is_kw("DISTINCT", "ALL") else 1
    while i < n:
        tok = tokens[i]
        i += 1
        if (tok.value in _REGION_STARTS and tok.kind is Kind.KEYWORD
                and tok.depth == tokens[0].depth):
            current = _REGION_STARTS[tok.value]
            if tok.value in ("GROUP", "ORDER") and i < n and tokens[i].is_kw("BY"):
                i += 1
        else:
            regions[current].append(tok)
    return regions


def _expr_end(tokens: list[Token], start: int) -> int:
    """End of an ON condition: the next top-level join keyword or comma."""
    for i in range(start, len(tokens)):
        tok = tokens[i]
        if (
            (tok.value == "," and tok.kind is Kind.PUNCT
             or tok.value in JOIN_KEYWORDS and tok.kind is Kind.KEYWORD)
            and tok.depth == tokens[0].depth
        ):
            return i
    return len(tokens)


def _read_alias(tokens: list[Token], i: int) -> tuple[str | None, int]:
    if i < len(tokens) and tokens[i].is_kw("AS"):
        if i + 1 < len(tokens) and tokens[i + 1].kind is Kind.IDENT:
            return name_key(tokens[i + 1].value), i + 2
        raise SqlParseError("expected alias after AS", tokens[i].pos)
    if i < len(tokens) and tokens[i].kind is Kind.IDENT:
        return name_key(tokens[i].value), i + 1
    return None, i


def _split_items(tokens: list[Token]) -> list[list[Token]]:
    items = []
    start = 0
    for i, tok in enumerate(tokens):
        if tok.value == "," and tok.kind is Kind.PUNCT and tok.depth == tokens[0].depth:
            items.append(tokens[start:i])
            start = i + 1
    items.append(tokens[start:])
    return [it for it in items if it]


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


# -- one parse per SQL text --------------------------------------------------------

# What reading a text's skeleton or references raises when the text is not a
# supported query over the schema; anything else is a bug.
UNRESOLVABLE = (SqlParseError, UnsupportedSqlError, UnresolvedIdentifierError)


class ParsedQuery:
    """One SQL text, tokenized once (or the SqlParseError that tokenizing raised).

    Each reading (skeletons, references for the last schema asked, ORDER BY
    flag, identifiers, normalized expression) is worked out on first use and
    kept; so is a failure, which every later ask raises again. A stage that
    meets one text many times keeps its ParsedQuerys in a dict, via :func:`parsed`.
    """

    def __init__(self, sql: str):
        self.sql = sql
        self._kept: dict = {}
        self._schema: DatabaseSchema | None = None  # of the kept references
        try:
            self._tokens: list[Token] | None = tokenize(sql)
        except SqlParseError as exc:
            self._tokens, self._kept["statement"] = None, _Failure(exc)

    def _keep(self, key, compute):
        if key not in self._kept:
            try:
                self._kept[key] = compute()
            except UNRESOLVABLE as exc:
                self._kept[key] = _Failure(exc)
        kept = self._kept[key]
        if isinstance(kept, _Failure):
            raise kept.error()
        return kept

    def _statement(self) -> list[Token]:
        """The tokens of a query: nonempty, balanced, led by SELECT, WITH or '('."""
        tokens = self._tokens
        if not tokens:
            raise SqlParseError("empty statement", 0)
        check_balanced(tokens)
        first = tokens[0]
        if not (first.is_kw("SELECT", "WITH") or first.value == "(" and first.kind is Kind.PUNCT):
            raise UnsupportedSqlError(
                f"only SELECT/WITH queries are supported (got {first.value!r})"
            )
        return tokens

    def skeleton(self, numbered: bool = False) -> str:
        """See :func:`sqlknow.skeleton.skeletonize`."""
        return self._keep(
            ("skeleton", numbered),
            lambda: mask_statement(self._keep("statement", self._statement), numbered),
        )

    def references(self, schema: DatabaseSchema) -> ReferenceSet:
        """See :func:`extract_references`."""
        if self._schema is not schema:
            self._schema = schema
            self._kept.pop("references", None)
        return self._keep("references", lambda: self._extract(schema))

    def _extract(self, schema: DatabaseSchema) -> ReferenceSet:
        extractor = _Extractor(schema)
        extractor.parse_select(self._keep("statement", self._statement), parent=None, ctes={})
        if extractor.unresolved:
            raise UnresolvedIdentifierError(extractor.unresolved)
        return ReferenceSet(
            tables=frozenset(extractor.tables), columns=frozenset(extractor.columns)
        )

    def consistency(self, schema: DatabaseSchema) -> ConsistencyReport:
        """See :func:`check_schema_consistency`."""
        try:
            self.references(schema)
        except (SqlParseError, UnsupportedSqlError) as exc:
            return ConsistencyReport(False, (f"parse: {exc}",))
        except UnresolvedIdentifierError as exc:
            return ConsistencyReport(False, tuple(f"unresolved: {n}" for n in exc.names))
        return ConsistencyReport(True)

    @cached_property
    def ordered(self) -> bool:
        """An ORDER BY outside every parenthesis; False when the text does not tokenize."""
        return any(tok.depth == 0 and tok.is_kw("ORDER") for tok in self._tokens or ())

    @cached_property
    def identifiers(self) -> tuple[str, ...] | None:
        """The identifier tokens' values in order; None when the text does not tokenize."""
        tokens = self._tokens
        return None if tokens is None else tuple(t.value for t in tokens if t.kind is Kind.IDENT)

    @cached_property
    def normalized(self) -> str:
        """Lower-cased token stream with qualifier prefixes and outer parens
        removed; empty when the text does not tokenize."""
        tokens = _strip_outer_parens(self._tokens or [])
        parts: list[str] = []
        i = 0
        while i < len(tokens):
            tok = tokens[i]
            if (
                tok.kind is Kind.IDENT
                and i + 2 < len(tokens)
                and tokens[i + 1].value == "."
                and tokens[i + 1].kind is Kind.PUNCT
                and tokens[i + 2].kind is Kind.IDENT
            ):
                parts.append(tokens[i + 2].value.lower())  # drop the qualifier
                i += 3
                continue
            if tok.kind is Kind.STRING:
                parts.append(f"'{tok.value}'")
            else:
                parts.append(tok.value.lower())
            i += 1
        return " ".join(parts)


class _Failure:
    """A kept error, as what it takes to raise it again. The error itself is
    not kept: its traceback's frames would keep the caller's locals alive for
    as long as the query is kept."""

    __slots__ = ("cls", "args", "attrs")

    def __init__(self, error: Exception):
        self.cls, self.args, self.attrs = type(error), error.args, dict(vars(error))

    def error(self) -> Exception:
        error = self.cls.__new__(self.cls, *self.args)
        error.__dict__.update(self.attrs)
        return error


def parsed(sql: str, cache: dict[str, ParsedQuery]) -> ParsedQuery:
    """The ParsedQuery of ``sql`` in ``cache``, made and kept on first use."""
    if sql not in cache:
        cache[sql] = ParsedQuery(sql)
    return cache[sql]


def extract_references(sql: str, schema: DatabaseSchema) -> ReferenceSet:
    """Tables and columns the query reads, across subqueries, CTEs and joins."""
    return ParsedQuery(sql).references(schema)


def check_schema_consistency(sql: str, schema: DatabaseSchema) -> ConsistencyReport:
    """True iff the query parses and every referenced table/column exists."""
    return ParsedQuery(sql).consistency(schema)
