"""The token counter and the mock gateway's draws as they were before each
request was serialized once, kept as test oracles: ``count_units`` builds one
string per unit with the unit regex, and every draw serializes its parts with
a fresh ``json.dumps``, which leaves non-ASCII text unescaped."""

from __future__ import annotations

import hashlib
import json
import re

_TOKEN_SPLIT_RE = re.compile(r"\w+|[^\w\s]")


def count_units(text: str) -> int:
    return len(_TOKEN_SPLIT_RE.findall(text))


def stable_fraction(*parts, seed: int = 0) -> float:
    blob = json.dumps(parts, sort_keys=True, default=str, ensure_ascii=False) + f"|{seed}"
    h = int.from_bytes(hashlib.blake2b(blob.encode(), digest_size=8).digest(), "big")
    return (h % 10**9) / 10**9


def review_response(payload: dict, seed: int, approval_rate: float) -> dict:
    """The mock's built-in answer to a review request."""
    if stable_fraction("review", payload, seed=seed) >= approval_rate:
        return {"valid": False, "confidence": 0.0, "explanation": "not a meaningful combination"}
    confidence = 0.5 + stable_fraction("conf", payload, seed=seed) * 0.5
    names = payload.get("base_names") or []
    op = payload.get("operator", "/")
    joiner = {"+": "total of", "-": "difference between", "*": "product of", "/": "ratio of"}
    term_text = None
    if len(names) == 2:
        link = " and " if op != "/" else " to "
        term_text = f"{joiner.get(op, 'combination of')} {names[0]}{link}{names[1]}"
    return {
        "valid": True,
        "confidence": round(confidence, 6),
        "explanation": "ratio of two measures" if op == "/" else "combination of two measures",
        "term_text": term_text,
    }


def score_response(payload: dict, model: str, seed: int, pass_rate: float) -> dict:
    """The mock's built-in answer to a score_pair request."""
    if stable_fraction("score", payload, model, seed=seed) >= pass_rate:
        return {"semantic_consistency": 3, "sql_validity": 5}
    return {"semantic_consistency": 5, "sql_validity": 5}
