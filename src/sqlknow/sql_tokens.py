"""Tokenizer for the SQLite-compatible query subset used by BIRD/Spider-style corpora.

Comments are stripped, keywords are recognized case-insensitively, and quoted
identifiers (double quotes, backticks, square brackets) are unwrapped. Masking
placeholders ``_T``/``_C``/``_V`` (optionally numbered) tokenize as their own
kind so that skeletons re-tokenize cleanly.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from enum import Enum

from .errors import SqlParseError


class Kind(Enum):
    KEYWORD = "keyword"
    IDENT = "ident"
    NUMBER = "number"
    STRING = "string"
    PARAM = "param"
    OP = "op"
    PUNCT = "punct"
    PLACEHOLDER = "placeholder"


KEYWORDS = {
    "SELECT", "FROM", "WHERE", "GROUP", "BY", "HAVING", "ORDER", "LIMIT", "OFFSET",
    "JOIN", "INNER", "LEFT", "RIGHT", "FULL", "OUTER", "CROSS", "NATURAL", "ON", "USING",
    "AS", "AND", "OR", "NOT", "IN", "LIKE", "GLOB", "BETWEEN", "IS", "NULL",
    "DISTINCT", "ALL", "UNION", "INTERSECT", "EXCEPT", "WITH", "RECURSIVE",
    "CASE", "WHEN", "THEN", "ELSE", "END", "CAST", "ASC", "DESC", "EXISTS",
    "COLLATE", "ESCAPE", "VALUES",
    "CREATE", "INSERT", "INTO", "UPDATE", "DELETE", "SET",
    "OVER", "PARTITION",
    "CURRENT_DATE", "CURRENT_TIME", "CURRENT_TIMESTAMP",
}

# Type names tokenize as identifiers (they collide with column names like
# "date"); the masker upper-cases them as structure only inside CAST(... AS _).
TYPE_NAMES = {
    "INTEGER", "INT", "BIGINT", "SMALLINT", "TINYINT", "TEXT", "REAL", "NUMERIC",
    "BLOB", "VARCHAR", "NVARCHAR", "CHAR", "BOOLEAN", "BOOL", "DATE", "DATETIME",
    "TIMESTAMP", "TIME", "FLOAT", "DOUBLE", "DECIMAL",
}

# TRUE/FALSE are literal values, not structure.
BOOLEAN_LITERALS = {"TRUE", "FALSE"}

_PLACEHOLDER_RE = re.compile(r"_[TCV]\d*\Z")
_WORD_RE = re.compile(r"[A-Za-z_][A-Za-z_0-9]*")
_NUMBER_RE = re.compile(r"(?:\d+\.\d*|\.\d+|\d+)(?:[eE][+-]?\d+)?")
# Longest operators first so <= wins over <.
_OPERATORS = ["<=", ">=", "<>", "!=", "==", "||", "<", ">", "=", "+", "-", "*", "/", "%"]


@dataclass(frozen=True)
class Token:
    kind: Kind
    value: str
    pos: int

    def is_kw(self, *words: str) -> bool:
        return self.kind is Kind.KEYWORD and self.value in words


def tokenize(sql: str) -> list[Token]:
    """Tokenize one statement; raises SqlParseError with the failing offset."""
    tokens: list[Token] = []
    i = 0
    n = len(sql)
    while i < n:
        ch = sql[i]
        if ch in " \t\r\n":
            i += 1
            continue
        if sql.startswith("--", i):
            nl = sql.find("\n", i)
            i = n if nl == -1 else nl + 1
            continue
        if sql.startswith("/*", i):
            end = sql.find("*/", i + 2)
            if end == -1:
                raise SqlParseError("unterminated block comment", i)
            i = end + 2
            continue
        if ch == "'":
            j = i + 1
            buf = []
            while True:
                if j >= n:
                    raise SqlParseError("unterminated string literal", i)
                if sql[j] == "'":
                    if j + 1 < n and sql[j + 1] == "'":
                        buf.append("'")
                        j += 2
                        continue
                    break
                buf.append(sql[j])
                j += 1
            tokens.append(Token(Kind.STRING, "".join(buf), i))
            i = j + 1
            continue
        if ch in '"`':
            closer = ch
            j = sql.find(closer, i + 1)
            if j == -1:
                raise SqlParseError("unterminated quoted identifier", i)
            tokens.append(Token(Kind.IDENT, sql[i + 1 : j], i))
            i = j + 1
            continue
        if ch == "[":
            j = sql.find("]", i + 1)
            if j == -1:
                raise SqlParseError("unterminated bracketed identifier", i)
            tokens.append(Token(Kind.IDENT, sql[i + 1 : j], i))
            i = j + 1
            continue
        if ch == "?":
            tokens.append(Token(Kind.PARAM, "?", i))
            i += 1
            continue
        m = _WORD_RE.match(sql, i + 1) if ch in ":@" else None
        if m:  # a named parameter; a ':' or '@' before anything else is unexpected
            tokens.append(Token(Kind.PARAM, sql[i : m.end()], i))
            i = m.end()
            continue
        m = _NUMBER_RE.match(sql, i)
        if m and (ch.isdigit() or (ch == "." and i + 1 < n and sql[i + 1].isdigit())):
            tokens.append(Token(Kind.NUMBER, m.group(), i))
            i = m.end()
            continue
        m = _WORD_RE.match(sql, i)
        if m:
            word = m.group()
            upper = word.upper()
            if _PLACEHOLDER_RE.match(word):
                tokens.append(Token(Kind.PLACEHOLDER, word, i))
            elif upper in BOOLEAN_LITERALS:
                tokens.append(Token(Kind.NUMBER, "1" if upper == "TRUE" else "0", i))
            elif upper in KEYWORDS:
                tokens.append(Token(Kind.KEYWORD, upper, i))
            else:
                tokens.append(Token(Kind.IDENT, word, i))
            i = m.end()
            continue
        if ch in "(),.;":
            tokens.append(Token(Kind.PUNCT, ch, i))
            i += 1
            continue
        for op in _OPERATORS:
            if sql.startswith(op, i):
                tokens.append(Token(Kind.OP, op, i))
                i += len(op)
                break
        else:
            raise SqlParseError(f"unexpected character {ch!r}", i)

    # strip trailing semicolons; statements must otherwise be single
    while tokens and tokens[-1].value == ";":
        tokens.pop()
    for tok in tokens:
        if tok.value == ";":
            raise SqlParseError("multiple statements are not supported", tok.pos)
    return tokens


def check_balanced(tokens: list[Token]) -> None:
    depth = 0
    for tok in tokens:
        if tok.value == "(":
            depth += 1
        elif tok.value == ")":
            depth -= 1
            if depth < 0:
                raise SqlParseError("unbalanced closing parenthesis", tok.pos)
    if depth != 0:
        raise SqlParseError("unbalanced opening parenthesis", tokens[-1].pos if tokens else 0)
