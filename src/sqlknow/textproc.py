"""Question scanning and masking, and deterministic vectorization.

A question is scanned once (:func:`scan_question`) for all its surface lookups:
a :class:`SurfaceIndex` returns each window where the boundary regex
(:func:`occurs`) can start and end that folds to the key of a stripped surface.
In an ASCII question, each window of an ASCII surface with no padding *is* a
match of that regex (:func:`exact`); callers run it for the others. A schema and
a KB build their lookups from these parts, and masking and the linker read them.
A blank surface occurs in no question. One index per schema and KB
(:func:`surface_index`) holds their names, values and KB surfaces and keeps the
last question's windows, so linking and masking a question walk them once.

Two vector spaces: feature-hashed character trigrams for natural-language text
(questions, templates), always ``EMBED_DIMENSION`` wide, and TF-IDF over skeleton
tokens for SQL skeletons, both pure functions of their inputs. A text's trigrams
are tuples of its characters, zipped; each one's slot (bucket and sign) is read
from a bounded table, and one ``np.bincount`` counts each bucket's signs, so a
bucket is an integer and the norm is exact in any order. ``count_units`` counts
ASCII text in one byte pass, and any other text by regex.
"""

from __future__ import annotations

import hashlib
import math
import re
from collections import Counter
from functools import lru_cache
from itertools import islice
from typing import TYPE_CHECKING

import numpy as np

from .skeleton import skeleton_tokens

if TYPE_CHECKING:  # the schema and KB index their surfaces with this module
    from .knowledge import KnowledgeBase
    from .schema import DatabaseSchema

_KIND_PRIORITY = {"TERM": 0, "TAB": 1, "COL": 2, "VAL": 3}

_TOKEN_SPLIT_RE = re.compile(r"\w+|[^\w\s]")
# Each byte's class under that regex: w(ord), space, or p, a lone unit. An ASCII
# text's units are its p bytes plus the w bytes that start a word (after a space or p).
_UNIT_CLASS = "".join("w" if re.match(r"\w", chr(c)) else " " if re.match(r"\s", chr(c))
                      else "p" for c in range(256)).encode()

# Multiplier covering sub-word tokenization of real model tokenizers.
TOKEN_SAFETY_FACTOR = 1.3


def count_units(text: str) -> int:
    """Word/punctuation count. No unit spans whitespace, so the count of texts
    joined by whitespace is the sum of their counts."""
    if not text.isascii():
        return len(_TOKEN_SPLIT_RE.findall(text))
    classes = b" " + text.encode("ascii").translate(_UNIT_CLASS)
    return classes.count(b"p") + classes.count(b" w") + classes.count(b"pw")


def units_to_tokens(units: int) -> int:
    return math.ceil(units * TOKEN_SAFETY_FACTOR)


def estimate_tokens(text: str) -> int:
    """Conservative token estimate: word/punctuation count times a safety factor."""
    return units_to_tokens(count_units(text))


def split_identifier(name: str) -> list[str]:
    """Lower-case word parts of an identifier (underscores, camelCase, digits)."""
    s = re.sub(r"([a-z0-9])([A-Z])", r"\1 \2", name)
    s = re.sub(r"([A-Za-z])([0-9])", r"\1 \2", s)
    return s.replace("_", " ").replace(".", " ").lower().split()


def spaced_identifier(name: str) -> str:
    return " ".join(split_identifier(name))


# -- question scanning and masking ------------------------------------------------

# A question's literals: a quoted span, and a number that no letter, digit or dot touches.
QUOTED_SPAN_RE = re.compile(r"'[^']*'|\"[^\"]*\"")
NUMBER_RE = re.compile(r"(?<![A-Za-z0-9.])\d+(?:\.\d+)?(?![A-Za-z0-9.])")


@lru_cache(maxsize=65536)
def _boundary_pattern(candidate: str) -> re.Pattern:
    return re.compile(
        r"(?<![A-Za-z0-9])" + re.escape(candidate) + r"(?![A-Za-z0-9])", re.IGNORECASE
    )


def occurs(text: str, surface: str) -> bool:
    """Whether ``surface`` occurs in ``text`` as a whole word, in any case."""
    return _boundary_pattern(surface).search(text) is not None


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


def postings(words_by_key) -> dict[str, list]:
    """Word -> ``(key, count of its distinct words)`` per key that holds it: an inverted
    index (Zobel & Moffat, ACM Computing Surveys 38(2), 2006). Keys are distinct."""
    index: dict[str, list] = {}
    for key, words in words_by_key:
        words = {w.lower() for w in words}
        for word in words:
            index.setdefault(word, []).append((key, len(words)))
    return index


class SurfaceIndex:
    """Surfaces with a payload each, keyed by the fold of the stripped surface;
    a blank surface occurs in no question, so it is not kept."""

    _last = None, []  # the last question asked and its occurrences; set per instance

    def __init__(self, entries):
        by_key: dict[str, list[tuple[str, object]]] = {}
        for entry in entries:  # kept as given: a (surface, payload) pair
            if key := fold(entry[0].strip()):
                by_key.setdefault(key, []).append(entry)
        self._by_key = by_key
        self._lengths = frozenset(len(k) for k in by_key)
        # a key's head (first three characters, or first for a shorter key) -> its longest key
        self._reach = {k[:3] if len(k) > 2 else k[0]: len(k) for k in sorted(by_key, key=len)}

    def __or__(self, other: SurfaceIndex) -> SurfaceIndex:
        """One index of both: under a key both hold, ``self``'s entries come first."""
        both, mine, reach = object.__new__(SurfaceIndex), self._by_key, self._reach
        both._by_key = mine | {k: mine.get(k, []) + v for k, v in other._by_key.items()}
        both._lengths = self._lengths | other._lengths
        both._reach = reach | {h: max(n, reach.get(h, 0)) for h, n in other._reach.items()}
        return both

    def occurrences(self, q: str) -> list[tuple[int, int, list]]:
        """``(start, end, entries)`` by start for each window of ``q``'s scan that folds
        to a key, whose ``(surface, payload)`` pairs are ``entries`` (do not mutate the
        list or them); kept for the last question. A start is tried as far as the longest
        key its first three characters (or first, for a shorter key) begin. Any match of
        a surface, stripped or not, holds such a window."""
        if (last := self._last)[0] == q:
            return last[1]
        (folded, starts, ends), lengths, by_key = scan_question(q), self._lengths, self._by_key
        reach = self._reach
        found = []
        for n, i in enumerate(starts):
            # a three-character head's keys are longer than a one-character head's
            limit = reach.get(folded[i:i + 3]) or reach.get(folded[i:i + 1], 0)
            for j in islice(ends, n, None) if limit else ():
                if j - i > limit:
                    break
                if j - i in lengths and (entries := by_key.get(folded[i:j])) is not None:
                    found.append((i, j, entries))
        self._last = q, found
        return found


def surface_index(schema: DatabaseSchema, kb: KnowledgeBase | None) -> SurfaceIndex:
    """The one index of the surfaces masking and the linker look up: a schema's names and
    sampled values and a KB's mask surfaces, kept by the schema or the KB."""
    return schema.surface_index if kb is None else kb.surface_index(schema)


def mask_question(q: str, schema: DatabaseSchema, kb: KnowledgeBase | None = None) -> str:
    """``q`` with each schema mention, value and domain term replaced by a
    placeholder token (``<TAB>``, ``<COL>``, ``<VAL>``, ``<TERM>``).

    Longest match wins; ties break to the leftmost occurrence, then by kind
    (TERM over TAB over COL over VAL).
    """
    candidates = [(m.start(), m.end(), "VAL")
                  for pattern in (QUOTED_SPAN_RE, NUMBER_RE) for m in pattern.finditer(q)]
    # (stripped surface, kind) -> where its last match ends. A schema name and a KB
    # expansion of one surface and kind match in the same windows, so they share it.
    taken: dict = {}
    for start, end, entries in surface_index(schema, kb).occurrences(q):
        for surface, (kind, _) in entries:
            surface = surface.strip()
            # as finditer takes matches: from left to right, none overlapping the last
            if start >= taken.get((surface, kind), 0) and (
                    exact(q, surface) or _boundary_pattern(surface).match(q, start)):
                candidates.append((start, end, kind))
                taken[surface, kind] = end

    candidates.sort(key=lambda c: (-(c[1] - c[0]), c[0], _KIND_PRIORITY[c[2]]))
    chosen: list[tuple[int, int, str]] = []
    for start, end, kind in candidates:
        if not any(s < end and start < e for s, e, _ in chosen):
            chosen.append((start, end, kind))
    for start, end, kind in sorted(chosen, reverse=True):  # from the right: offsets hold
        q = q[:start] + f"<{kind}>" + q[end:]
    return q


# -- hashed trigram embeddings --------------------------------------------------


# The width of every embedding: a free constant of the feature hasher, not a setting.
EMBED_DIMENSION = 512


def check_width(what: str, width: int) -> None:
    """Refuse a stored vector, or a stored width, that is not EMBED_DIMENSION wide."""
    if width != EMBED_DIMENSION:
        raise ValueError(f"{what} has width {width}; every embedding is {EMBED_DIMENSION} wide")


# trigram (its characters) -> its slot; emptied when full, so it stays bounded
_SLOTS: dict[tuple[str, ...], int] = {}
_SLOTS_MAX = 8192


def _trigram_slot(gram: tuple[str, ...]) -> int:
    """Twice the bucket that ``gram`` adds its sign to, plus 1 for a sign of -1,
    memoized in ``_SLOTS``: both read from one 8-byte ``blake2b`` digest of the gram."""
    if len(_SLOTS) >= _SLOTS_MAX:
        _SLOTS.clear()
    h = int.from_bytes(hashlib.blake2b("".join(gram).encode("utf-8"), digest_size=8).digest(),
                       "big")
    _SLOTS[gram] = slot = 2 * (h % EMBED_DIMENSION) + ((h >> 40) & 1)
    return slot


class HashingEmbedder:
    """Deterministic signed feature hashing of character trigrams.

    Stateless: there is nothing to fit.
    """

    def embed(self, text: str) -> np.ndarray:
        """The L2-normalized vector of ``text``; all zeros when it has no trigram."""
        norm = " ".join(text.casefold().split())
        if not norm:
            return np.zeros(EMBED_DIMENSION)
        grams = list(zip(norm, norm[1:], norm[2:])) if len(norm) > 2 else [tuple(norm)]
        slots = list(map(_SLOTS.get, grams))
        if None in slots:
            slots = [_trigram_slot(g) if s is None else s for g, s in zip(grams, slots)]
        counts = np.bincount(slots, minlength=2 * EMBED_DIMENSION)  # + and - signs per bucket
        values = np.subtract(counts[0::2], counts[1::2], dtype=np.float64)
        norm2 = math.sqrt(values.dot(values))  # np.linalg.norm's arithmetic, exact on integers
        return values / norm2 if norm2 else values


def embed(text: str) -> np.ndarray:
    """Embed one text with the hashing embedder; pure and bitwise-reproducible.
    The package's one way to embed text."""
    return HashingEmbedder().embed(text)


# -- TF-IDF over skeleton tokens ---------------------------------------------------


def skeleton_idf(docs: list[list[str]]) -> tuple[dict[str, int], np.ndarray]:
    """The vocabulary of the token lists ``docs``, sorted so it does not depend
    on their order (token -> index), and each token's smoothed log IDF over them."""
    if not docs:
        raise ValueError("empty skeleton corpus")
    vocabulary = {tok: i for i, tok in enumerate(sorted({tok for doc in docs for tok in doc}))}
    df = np.zeros(len(vocabulary))
    for doc in docs:
        for tok in set(doc):
            df[vocabulary[tok]] += 1
    return vocabulary, np.log((1.0 + len(docs)) / (1.0 + df)) + 1.0


def tfidf_corpus(skeletons: list[str]) -> np.ndarray:
    """One row per skeleton: raw-count TF times :func:`skeleton_idf` over
    ``skeletons`` themselves, L2-normalized, in vocabulary columns."""
    docs = [skeleton_tokens(s) for s in skeletons]
    vocabulary, idf = skeleton_idf(docs)
    rows = []
    for doc in docs:
        weights = {i: c * float(idf[i]) for i, c in Counter(vocabulary[t] for t in doc).items()}
        norm2 = math.sqrt(sum(w * w for w in weights.values()))  # 0 only with no weights
        rows.append(np.zeros(len(vocabulary)))
        rows[-1][list(weights)] = [w / norm2 for w in weights.values()]
    return np.vstack(rows)
