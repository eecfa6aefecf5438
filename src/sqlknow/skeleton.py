"""SQL skeleton extraction: mask schema identifiers and literals, keep structure.

Masking alphabet: tables ``_T``, columns ``_C``, literals/parameters ``_V``.
Keywords, operators, clause layout and aggregate/function names survive;
aliases are erased; whitespace collapses to single spaces.
"""

from __future__ import annotations

from .errors import SqlParseError, UnsupportedSqlError
from .sql_tokens import TYPE_NAMES, Kind, Token, check_balanced, tokenize

JOIN_KEYWORDS = {"JOIN", "INNER", "LEFT", "RIGHT", "FULL", "OUTER", "CROSS", "NATURAL"}
COMPOUND_KEYWORDS = {"UNION", "INTERSECT", "EXCEPT"}
_CLAUSE_KEYWORDS = {
    "SELECT": "select",
    "FROM": "from",
    "WHERE": "where",
    "GROUP": "group",
    "HAVING": "having",
    "ORDER": "order",
    "LIMIT": "limit",
    "OFFSET": "limit",
    "WITH": "with",
    "ON": "on",
    "USING": "using",
}


def _is_value_piece(piece: str) -> bool:
    """True for emitted pieces that can end an expression (operand position)."""
    return piece in (")", "END") or piece.startswith(("_C", "_V"))


class _Masker:
    def __init__(self, tokens: list[Token]):
        self.tokens = tokens
        self.out: list[str] = []
        self.attach: list[bool] = []  # piece glues to the previous one
        # frame: [clause, from_expect, func_name]
        self.frames: list[list] = [["start", "table", None]]
        self.prev_function = False

    @property
    def clause(self) -> str:
        return self.frames[-1][0]

    @clause.setter
    def clause(self, value: str) -> None:
        self.frames[-1][0] = value

    @property
    def from_expect(self) -> str:
        return self.frames[-1][1]

    @from_expect.setter
    def from_expect(self, value: str) -> None:
        self.frames[-1][1] = value

    @property
    def func_name(self):
        return self.frames[-1][2]

    def emit(self, text: str, attach: bool = False, function: bool = False) -> None:
        self.out.append(text)
        self.attach.append(attach)
        self.prev_function = function

    def run(self) -> None:
        toks = self.tokens
        i = 0
        while i < len(toks):
            tok = toks[i]
            if tok.kind is Kind.KEYWORD:
                i = self._keyword(toks, i)
            elif tok.kind is Kind.IDENT:
                i = self._ident(toks, i)
            elif tok.kind in (Kind.NUMBER, Kind.STRING, Kind.PARAM):
                self._literal()
                i += 1
            elif tok.kind is Kind.PLACEHOLDER:
                self._placeholder(tok)
                i += 1
            elif tok.kind is Kind.OP:
                self.emit(tok.value)
                i += 1
            else:
                i = self._punct(toks, i)

    def _keyword(self, toks: list[Token], i: int) -> int:
        word = toks[i].value
        if word in ("INSERT", "UPDATE", "DELETE", "CREATE", "VALUES"):
            raise UnsupportedSqlError(f"{word} statements are outside the supported subset")
        if word == "AS":
            structural = self.clause == "with" or self.func_name == "CAST"
            if not structural and i + 1 < len(toks) and toks[i + 1].kind is Kind.IDENT:
                return i + 2  # drop alias definition
            self.emit(word)
            return i + 1
        if word == "CAST":
            self.emit(word, function=True)
            return i + 1
        if word in JOIN_KEYWORDS:
            self.clause = "from"
            self.from_expect = "table"
        elif word in _CLAUSE_KEYWORDS:
            self.clause = _CLAUSE_KEYWORDS[word]
            if word == "FROM":
                self.from_expect = "table"
        elif word in COMPOUND_KEYWORDS:
            self.clause = "compound"
        self.emit(word)
        return i + 1

    def _ident(self, toks: list[Token], i: int) -> int:
        nxt = toks[i + 1] if i + 1 < len(toks) else None
        call = nxt is not None and nxt.value == "(" and nxt.kind is Kind.PUNCT
        if call and self.clause not in ("from", "with"):
            self.emit(toks[i].value.upper(), function=True)
            return i + 1
        if self.clause == "from":
            if call:
                raise UnsupportedSqlError(
                    f"table-valued function {toks[i].value!r} is not supported"
                )
            if self.from_expect == "alias":
                return i + 1  # bare table alias
            # qualified table name (db.table): collapse into one slot
            j = i + 1
            while (j + 1 < len(toks) and toks[j].value == "." and toks[j].kind is Kind.PUNCT
                   and toks[j + 1].kind is Kind.IDENT):
                j += 2
            self.emit("_T")
            self.from_expect = "alias"
            return j
        if self.clause == "with":
            self.emit("_T")
            return i + 1
        if (
            self.func_name == "CAST"
            and self.out
            and self.out[-1] == "AS"
            and toks[i].value.upper() in TYPE_NAMES
        ):
            self.emit(toks[i].value.upper())  # cast target type, structural
            return i + 1
        # expression context: collapse qualified references into one column slot
        j = i + 1
        while j + 1 < len(toks) and toks[j].value == "." and toks[j].kind is Kind.PUNCT:
            follower = toks[j + 1]
            if follower.kind is Kind.IDENT:
                j += 2
                continue
            if follower.kind is Kind.OP and follower.value == "*":
                self.emit("_T")
                self.emit(".", attach=True)
                self.emit("*", attach=True)
                return j + 2
            break
        if (
            j == i + 1
            and self.clause == "select"
            and self.out
            and (_is_value_piece(self.out[-1]) or self.out[-1] == "*")
        ):
            return j  # bare column alias in the select list
        self.emit("_C")
        return j

    def _literal(self) -> None:
        # fold a unary sign into the literal so "= -5" masks as "= _V"
        if (
            self.out
            and self.out[-1] in ("-", "+")
            and (len(self.out) < 2 or not _is_value_piece(self.out[-2]))
        ):
            self.out.pop()
            self.attach.pop()
        self.emit("_V")

    def _placeholder(self, tok: Token) -> None:
        self.emit(tok.value)
        if self.clause == "from" and tok.value[1] == "T":
            self.from_expect = "alias"

    def _punct(self, toks: list[Token], i: int) -> int:
        val = toks[i].value
        if val == "(":
            nxt = i + 1
            is_subquery = nxt < len(toks) and toks[nxt].is_kw("SELECT", "WITH")
            func = self.out[-1] if self.prev_function else None
            self.emit("(", attach=self.prev_function)
            if is_subquery:
                self.frames.append(["subquery", "table", None])
            elif func is not None:
                self.frames.append(["expr", "table", func])
            else:
                self.frames.append([self.clause, self.from_expect, None])
            return i + 1
        if val == ")":
            if len(self.frames) > 1:
                self.frames.pop()
            if self.clause == "from":
                self.from_expect = "alias"  # derived table just closed
            self.emit(")", attach=True)
            return i + 1
        if val == ",":
            if self.clause == "from":
                self.from_expect = "table"
            self.emit(",", attach=True)
            return i + 1
        if val == ".":
            self.emit(".", attach=True)
            return i + 1
        raise SqlParseError(f"unexpected token {val!r}", toks[i].pos)

    def render(self) -> str:
        pieces = []
        for idx, text in enumerate(self.out):
            if idx == 0 or self.attach[idx] or self.out[idx - 1] in ("(", "."):
                pieces.append(text)
            else:
                pieces.append(" " + text)
        return "".join(pieces)


def check_query(tokens: list[Token]) -> list[Token]:
    """``tokens`` when they are a query: nonempty, balanced, led by SELECT, WITH or '('."""
    if not tokens:
        raise SqlParseError("empty statement", 0)
    check_balanced(tokens)
    first = tokens[0]
    if not (first.is_kw("SELECT", "WITH") or first.value == "(" and first.kind is Kind.PUNCT):
        raise UnsupportedSqlError(f"only SELECT/WITH queries are supported (got {first.value!r})")
    return tokens


def mask_statement(tokens: list[Token]) -> str:
    """The skeleton of a statement's tokens, once :func:`check_query` has passed them."""
    masker = _Masker(tokens)
    masker.run()
    return masker.render()


def skeletonize(sql: str) -> str:
    """Mask one query into its structural skeleton.

    Raises SqlParseError on malformed input and UnsupportedSqlError for
    constructs outside the supported SQLite subset. Idempotent: masking a
    skeleton returns it unchanged.
    """
    return mask_statement(check_query(tokenize(sql)))


def skeleton_tokens(text: str) -> list[str]:
    """Token list used for TF-IDF: words/placeholders with punctuation split off."""
    for ch in "(),":
        text = text.replace(ch, f" {ch} ")
    return text.split()
