"""Tokenizer for the SQLite-compatible query subset used by BIRD/Spider-style corpora.

Comments are stripped, keywords are recognized case-insensitively, and quoted
identifiers (double quotes, backticks, square brackets) are unwrapped. Masking
placeholders ``_T``/``_C``/``_V`` (optionally numbered) tokenize as their own
kind so that skeletons re-tokenize cleanly.
"""

from __future__ import annotations

import re
from enum import Enum
from typing import NamedTuple

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

# One alternative per token class, tried in order at each offset. An opener
# whose complete form did not match is unterminated; any other character that
# starts no token is unexpected. As in SQLite, a name may hold any character
# outside ASCII, though no such character is a digit of a number.
_TOKEN_RE = re.compile(r"""
    (?P<skip> [ \t\r\n]+ | --[^\n]*\n? | /\*.*?\*/ )
  | (?P<string> '(?:[^']|'')*'(?!') )
  | (?P<quoted> "[^"]*" | `[^`]*` | \[[^\]]*\] )
  | (?P<unterminated> /\* | ['"`\[] )
  | (?P<param> \? | [:@][A-Za-z_][A-Za-z_0-9]* )
  | (?P<number> (?:[0-9]+\.[0-9]*|\.[0-9]+|[0-9]+)(?:[eE][+-]?[0-9]+)? )
  | (?P<placeholder> _[TCV][0-9]*(?![A-Za-z_0-9\u0080-\U0010ffff]) )
  | (?P<word> [A-Za-z_\u0080-\U0010ffff][A-Za-z_0-9\u0080-\U0010ffff]* )
  | (?P<punct> [(),.;] )
  | (?P<op> <<|>>|<=|>=|<>|!=|==|\|\||[<>=+\-*/%&|~] )  # longest first, so <= wins over <
  | (?P<unexpected> . )
""", re.X | re.S)
_UNTERMINATED = {"/*": "block comment", "'": "string literal", '"': "quoted identifier",
                 "`": "quoted identifier", "[": "bracketed identifier"}
_KINDS = {"param": Kind.PARAM, "number": Kind.NUMBER, "placeholder": Kind.PLACEHOLDER,
          "op": Kind.OP}


class Token(NamedTuple):
    kind: Kind
    value: str
    pos: int
    depth: int = 0  # parentheses open around it; a parenthesis sits at the depth outside it

    def is_kw(self, *words: str) -> bool:
        return self.kind is Kind.KEYWORD and self.value in words


def tokenize(sql: str) -> list[Token]:
    """Tokenize one statement; raises SqlParseError with the failing offset.

    Only punctuation is a parenthesis or a statement end: a ``'('`` literal or
    a ``";"`` identifier moves no depth and ends nothing."""
    tokens: list[Token] = []
    depth = 0
    for m in _TOKEN_RE.finditer(sql):
        group, text, pos = m.lastgroup, m.group(), m.start()
        if group == "skip":
            continue
        if group == "word":
            upper = text.upper() if text.isascii() else ""  # every keyword is ASCII
            if upper in BOOLEAN_LITERALS:
                tokens.append(Token(Kind.NUMBER, "1" if upper == "TRUE" else "0", pos, depth))
            elif upper in KEYWORDS:
                tokens.append(Token(Kind.KEYWORD, upper, pos, depth))
            else:
                tokens.append(Token(Kind.IDENT, text, pos, depth))
        elif group == "string":
            tokens.append(Token(Kind.STRING, text[1:-1].replace("''", "'"), pos, depth))
        elif group == "quoted":
            tokens.append(Token(Kind.IDENT, text[1:-1], pos, depth))
        elif group == "unterminated":
            raise SqlParseError(f"unterminated {_UNTERMINATED[text]}", pos)
        elif group == "unexpected":
            raise SqlParseError(f"unexpected character {text!r}", pos)
        elif group == "punct":
            depth -= text == ")"
            tokens.append(Token(Kind.PUNCT, text, pos, depth))
            depth += text == "("
        else:
            tokens.append(Token(_KINDS[group], text, pos, depth))

    # strip trailing semicolons; statements must otherwise be single
    while tokens and tokens[-1].value == ";" and tokens[-1].kind is Kind.PUNCT:
        tokens.pop()
    for tok in tokens:
        if tok.value == ";" and tok.kind is Kind.PUNCT:
            raise SqlParseError("multiple statements are not supported", tok.pos)
    return tokens


def is_bare_name(text: str) -> bool:
    """Whether :func:`tokenize` reads ``text`` as one identifier spelled ``text``."""
    m, upper = _TOKEN_RE.match(text), text.upper() if text.isascii() else ""
    return (m is not None and m.lastgroup == "word" and m.end() == len(text)
            and upper not in KEYWORDS and upper not in BOOLEAN_LITERALS)


def spelling(sql: str) -> str:
    """The tokens as written, one space standing for each whitespace or comment
    run between two of them outside parentheses; a run inside them is kept as
    written, as SQLite names a subquery's unaliased column by its source text.
    A text that does not lex is its own spelling."""
    parts, depth, end = [], 0, 0
    for m in _TOKEN_RE.finditer(sql):
        group, text = m.lastgroup, m.group()
        if group in ("unterminated", "unexpected"):
            return sql
        if group != "skip":
            if parts and m.start() > end:
                parts.append(sql[end:m.start()] if depth else " ")
            parts.append(text)
            end = m.end()
            depth += (text == "(") - (text == ")")  # only punctuation is a bare parenthesis
    return "".join(parts)


def check_balanced(tokens: list[Token]) -> None:
    """Raise at the first closing parenthesis below depth 0, else at the
    outermost opening one left open: the last depth-0 token, when it opens."""
    last = None
    for tok in tokens:
        if tok.depth < 0:
            raise SqlParseError("unbalanced closing parenthesis", tok.pos)
        if tok.depth == 0:
            last = tok
    if last is not None and last.value == "(" and last.kind is Kind.PUNCT:
        raise SqlParseError("unbalanced opening parenthesis", last.pos)
