"""Compiled knowledge index: the schema and KB lookups, built once.

Every question runs the same lookups against a fixed dictionary: table and
column names, sampled values, annotation expansions and accepted terms to
mask or score, and annotations, value mappings and terms by key. This module
compiles them once per :class:`~sqlknow.schema.DatabaseSchema`
(``schema.index``) and once per :class:`~sqlknow.knowledge.KnowledgeBase`
(``kb.index``); each part is built on first use.

A question is scanned once (:func:`scan_question`) for all its surface lookups:
a :class:`SurfaceIndex` returns each window where the boundary regex
(``textproc._boundary_pattern``) can start and end that folds to the key of a
stripped surface. In an ASCII question, each window of an ASCII surface with no
padding *is* a match of that regex (:func:`exact`); callers run it for the others.
"""

from __future__ import annotations

import re
import sqlite3
from functools import cached_property
from itertools import chain, islice

from .knowledge import State
from .schema import TableDef, _quoted, name_key
from .textproc import count_units, split_identifier


def fold(text: str) -> str:
    """Case key of ``text``, one character per character.

    Two strings that ``re.IGNORECASE`` matches to each other get the same key
    (for example ``K``, KELVIN SIGN and ``k``; LONG S ``ſ`` and ``s``; ``İ``
    and ``i``). Some strings the regex tells apart get one key too (``ß`` and
    ``s``), which only adds windows.
    """
    if text.isascii():
        return text.lower()
    return "".join(c.upper().casefold()[0] for c in text)


_GAP = re.compile(r"[^A-Za-z0-9]", re.IGNORECASE)  # no letter or digit to the boundary regex


def scan_question(q: str) -> tuple[str, tuple[int, ...], tuple[int, ...]]:
    """The fold of ``q``, and the offsets where a boundary-regex match may start
    (0, or after a gap) and end (before a gap, or at the end), ascending: ends[n]
    is the first end at or after starts[n]. K (KELVIN SIGN), ſ, İ and ı are no gap."""
    gaps = [m.start() for m in _GAP.finditer(q)]
    return fold(q), (0, *[g + 1 for g in gaps]), (*gaps, len(q))


def exact(q: str, surface: str) -> bool:
    """Whether the windows of ``surface``'s key in ``q`` are exactly its matches:
    both are ASCII, and ``surface`` is not blank or padded."""
    return q.isascii() and surface.isascii() and surface.strip() == surface != ""


def _postings(words_by_key) -> dict[str, list]:
    """Word -> ``(key, count of its distinct words)`` per key that holds it: an inverted
    index (Zobel & Moffat, ACM Computing Surveys 38(2), 2006). Keys are distinct."""
    postings: dict[str, list] = {}
    for key, words in words_by_key:
        words = {w.lower() for w in words}
        for word in words:
            postings.setdefault(word, []).append((key, len(words)))
    return postings


class SurfaceIndex:
    """Surfaces with a payload each, keyed by the fold of the stripped surface;
    blank surfaces have no key, and are in ``blank``."""

    def __init__(self, entries):
        by_key: dict[str, list[tuple[str, object]]] = {"": []}
        for surface, payload in entries:
            by_key.setdefault(fold(surface.strip()), []).append((surface, payload))
        self.blank = tuple(by_key.pop(""))
        self._by_key = by_key
        self._lengths = frozenset(len(k) for k in by_key)
        self._longest = max(self._lengths, default=0)
        self._heads = frozenset(k[:3] if len(k) > 2 else k[0] for k in by_key)

    def occurrences(self, scan) -> list[tuple[int, int, list]]:
        """``(start, end, entries)`` by start for each window of a question's scan that
        folds to a key, whose ``(surface, payload)`` pairs are ``entries`` (do not mutate).
        A start is tried when its first three characters (or first, for a shorter key)
        begin a key. Any match of a surface, stripped or not, holds such a window."""
        (folded, starts, ends), lengths, by_key = scan, self._lengths, self._by_key
        found = []
        for n, i in enumerate(starts):
            if folded[i:i + 3] not in self._heads and folded[i:i + 1] not in self._heads:
                continue
            for j in islice(ends, n, None):
                if j - i > self._longest:
                    break
                if j - i in lengths and (entries := by_key.get(folded[i:j])) is not None:
                    found.append((i, j, entries))
        return found


class SchemaIndex:
    """Lookups over one schema's tables, columns and value samples.

    ``DatabaseSchema.index`` builds it on first use, once per schema; mutating
    ``tables`` or ``value_samples`` in place is not seen.
    """

    def __init__(self, tables, value_samples: dict[str, list[str]]):
        self._tables = tables
        self._value_samples = value_samples

    @cached_property
    def column_lines(self) -> dict[str, tuple]:
        """Key of a table name -> its ``CREATE TABLE t (`` header in a prompt, the
        header's units, and per column in schema order ``(column id, declaration
        without comma or comment, the declaration's units, key of the id)``."""
        lines = {}
        for t in self._tables:
            columns = []
            for col in t.columns:
                decl = f"  {col.name} {col.type}" + (" PRIMARY KEY" if col.pk else "")
                if col.fk:
                    ref_table, ref_col = col.fk.split(".", 1)
                    decl += f" REFERENCES {ref_table}({ref_col})"
                col_id = f"{t.name}.{col.name}"
                columns.append((col_id, decl, count_units(decl), name_key(col_id)))
            header = f"CREATE TABLE {t.name} ("
            lines[name_key(t.name)] = (header, count_units(header), tuple(columns))
        return lines

    @cached_property
    def names(self) -> SurfaceIndex:
        """Table names (payload ``"TAB"``) and column names (``"COL"``)."""
        entries = []
        for table in self._tables:
            entries.append((table.name, "TAB"))
            entries.extend((col.name, "COL") for col in table.columns)
        return SurfaceIndex(entries)

    @cached_property
    def tables(self) -> dict[str, TableDef]:
        """:func:`~sqlknow.schema.name_key` of a table name -> its table."""
        return {name_key(t.name): t for t in self._tables}

    @cached_property
    def ids(self) -> dict[str, str]:
        """Key of a table name or of a whole column id -> that name or id. A key
        holds a "." exactly when it is a column id's, as no table name holds one."""
        return {name_key(i): i for i in chain(self.columns_of, *self.columns_of.values())}

    def resolve(self, column_id: str) -> str | None:
        """The id of the column that ``table.column`` names in any ASCII casing, or None."""
        return self.ids.get(name_key(column_id)) if "." in column_id else None

    @cached_property
    def database(self) -> sqlite3.Connection:
        """An empty in-memory database that holds each table with a column, its
        columns untyped, for SQLite to prepare queries on."""
        db = sqlite3.connect(":memory:", cached_statements=0)
        db.executescript("".join(
            f"CREATE TABLE {_quoted(t.name)} ({', '.join(_quoted(c.name) for c in t.columns)});"
            for t in self._tables if t.columns))
        return db

    @cached_property
    def roots(self) -> dict[int, TableDef]:
        """Root page of each table in :attr:`database` -> the table."""
        return {root: self.tables[name_key(name)] for name, root in self.database.execute(
            "SELECT name, rootpage FROM sqlite_master WHERE type = 'table'")}

    @cached_property
    def _samples(self) -> list[tuple[str, list[str]]]:
        """Per ``value_samples`` key, the column id it names (else the key) and its values."""
        return sorted((self.resolve(k) or k, values) for k, values in self._value_samples.items())

    @cached_property
    def values(self) -> SurfaceIndex:
        """Sampled values; the payload is the column id."""
        return SurfaceIndex((v, col_id) for col_id, values in self._samples for v in values)

    @cached_property
    def columns_of(self) -> dict[str, tuple[str, ...]]:
        """Table name -> its column ids, in schema order."""
        return {t.name: tuple(f"{t.name}.{c.name}" for c in t.columns) for t in self._tables}

    @cached_property
    def name_postings(self) -> dict[str, list]:
        """Postings of table names and column ids by their identifier parts."""
        return _postings([(t.name, split_identifier(t.name)) for t in self._tables] + [
            (f"{t.name}.{c.name}", split_identifier(c.name)) for t in self._tables
            for c in t.columns])

    @cached_property
    def _literals(self) -> dict[str, list[str]]:
        index: dict[str, list[str]] = {}
        for col_id, values in self._samples:
            for value in values:
                index.setdefault(value.casefold(), []).append(col_id)
        return index

    def literal_columns(self, literal: str) -> list[str]:
        """Column ids (sorted, repeated per equal sample) whose sampled value
        equals ``literal`` after case folding. Do not mutate."""
        return self._literals.get(literal.casefold(), [])


class KbIndex:
    """Lookups over one knowledge base; ``KnowledgeBase.index`` builds it."""

    def __init__(self, annotations, value_mappings, terms):
        self._annotations = annotations
        self._value_mappings = value_mappings
        self._terms = terms

    @cached_property
    def annotations(self) -> dict:
        """Key of a target -> the first annotation for it in stored order."""
        by_target: dict = {}
        for ann in self._annotations:
            by_target.setdefault(name_key(ann.target), ann)
        return by_target

    @cached_property
    def mappings(self) -> dict[str, tuple]:
        """Key of a column id -> its value mappings in stored order."""
        by_column: dict[str, list] = {}
        for m in self._value_mappings:
            by_column.setdefault(name_key(m.column), []).append(m)
        return {k: tuple(v) for k, v in by_column.items()}

    @cached_property
    def column_comments(self) -> dict[str, tuple[str, int]]:
        """Key of a column id -> its `` -- comment`` in a prompt (annotation,
        then value codes) and the comment's units; absent when it has neither."""
        comments = {}
        for key in self.annotations.keys() | self.mappings.keys():
            ann, mappings = self.annotations.get(key), self.mappings.get(key)
            parts = [ann.description] if ann is not None else []
            if mappings:
                parts.append("codes: " + ", ".join(f'{m.code} = "{m.meaning}"' for m in mappings))
            if comment := "; ".join(parts):
                comments[key] = (f" -- {comment}", count_units(f" -- {comment}"))
        return comments

    @cached_property
    def table_comments(self) -> dict[str, tuple[str, int]]:
        """Key of a target -> the `` -- annotation`` that closes its table's block in
        a prompt, and the comment's units."""
        return {key: (f" -- {ann.description}", count_units(f" -- {ann.description}"))
                for key, ann in self.annotations.items()}

    @cached_property
    def accepted_terms(self) -> tuple:
        return tuple(t for t in self._terms if t.status.state is State.ACCEPTED)

    @cached_property
    def active_terms(self) -> tuple:
        """Terms usable by retrieval: everything not rejected."""
        return tuple(t for t in self._terms if t.status.state is not State.REJECTED)

    @cached_property
    def mask_surfaces(self) -> SurfaceIndex:
        """Abbreviation expansions (payload ``"COL"`` or ``"TAB"`` by target)
        of every annotation, and accepted term texts (``"TERM"``)."""
        entries = [
            (ann.abbreviation_expansion, "COL" if "." in ann.target else "TAB")
            for ann in self._annotations
            if ann.abbreviation_expansion
        ]
        entries.extend((t.term_text, "TERM") for t in self.accepted_terms)
        return SurfaceIndex(entries)

    @cached_property
    def annotation_postings(self) -> dict[str, list]:
        """Keys of targets by the words of their annotation's description and
        expansion; the target of a rejected annotation has none."""
        return _postings(
            (key, re.findall(r"\w+", f"{ann.description} {ann.abbreviation_expansion or ''}"))
            for key, ann in self.annotations.items() if ann.status.state is not State.REJECTED)

    @cached_property
    def term_postings(self) -> tuple[dict, dict, tuple]:
        """Active terms' positions by the words of their text, and of their explanation;
        and how the terms that share no word with a question rank: ``(position, (term,
        0.0))`` per active term by (term_text, sql_expression), ties in stored order."""
        terms = tuple(enumerate(self.active_terms))
        unmatched = sorted(terms, key=lambda it: (it[1].term_text, it[1].sql_expression))
        return (_postings((i, re.findall(r"\w+", t.term_text)) for i, t in terms),
                _postings((i, re.findall(r"\w+", t.explanation)) for i, t in terms),
                tuple((i, (t, 0.0)) for i, t in unmatched))
