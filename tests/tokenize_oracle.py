"""The character-loop tokenizer that the one-pattern lexer in
``sqlknow.sql_tokens`` replaced, kept as a test oracle: it walks the text one
character at a time, trying comments, literals, quoted identifiers,
parameters, numbers, words, punctuation and operators in that order."""

from __future__ import annotations

import re

from sqlknow.errors import SqlParseError
from sqlknow.sql_tokens import BOOLEAN_LITERALS, KEYWORDS, Kind, Token

_PLACEHOLDER_RE = re.compile(r"_[TCV][0-9]*\Z")
_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z_0-9]*")  # of a named parameter
_WORD_RE = re.compile(r"[A-Za-z_\u0080-\U0010ffff][A-Za-z_0-9\u0080-\U0010ffff]*")
_NUMBER_RE = re.compile(r"(?:[0-9]+\.[0-9]*|\.[0-9]+|[0-9]+)(?:[eE][+-]?[0-9]+)?")
# Longest operators first so <= wins over <.
_OPERATORS = ["<<", ">>", "<=", ">=", "<>", "!=", "==", "||", "<", ">", "=", "+", "-", "*", "/",
              "%", "&", "|", "~"]


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
        m = _NAME_RE.match(sql, i + 1) if ch in ":@" else None
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
            upper = word.upper() if word.isascii() else ""
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

    # strip trailing semicolons; statements must otherwise be single. Only a
    # punctuation ';' ends a statement, not a ';' literal or quoted name.
    while tokens and tokens[-1].value == ";" and tokens[-1].kind is Kind.PUNCT:
        tokens.pop()
    for tok in tokens:
        if tok.value == ";" and tok.kind is Kind.PUNCT:
            raise SqlParseError("multiple statements are not supported", tok.pos)
    return tokens
