"""Single boundary to external chat-completion services.

Every other module talks to LLMs only through :class:`Gateway`; the mock
backend makes the whole pipeline deterministic and offline. The mock resolves
each request against scripted rules first, then falls back to built-in
deterministic responders (pure functions of payload and seed), so the same
request always produces the same response. No other module in the package may
open sockets; an audit test enforces that.

A request's payload is serialized once, as ``GatewayRequest.text``; the mock's
rules and draws, the HTTP body and the input-token count all read that text.
Every call appends one :class:`UsageRecord` to ``Gateway.usage``. Its token
counts come from the gateway's bounded memo keyed by the serialized text, so a
payload or response sent many times over is counted once.

Every reply is decoded once, here, by ``records.from_json``: a review or complete
reply as a :class:`Reply`, a score as a ``knowledge.LlmScore``. A reply that does
not fit is a :class:`GatewayError` naming the kind, the model and the JSON path,
and no other module reads a reply dict. :meth:`Gateway.dispatch` still returns
the raw dict.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
import time
import urllib.error
import urllib.request
from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property, lru_cache

from .errors import ConfigError, GatewayError, InvariantViolation
from .knowledge import LlmScore
from .records import from_json
from .textproc import estimate_tokens, spaced_identifier


class RequestKind(Enum):
    COMPLETE = "complete"
    REVIEW = "review"
    SCORE_PAIR = "score_pair"


_DEFAULT_MODEL = "reviewer-a"
# json.dumps(obj, sort_keys=True, default=str, ensure_ascii=False) without building an
# encoder per call: non-ASCII text stays as written, not \u-escaped
_encode = json.JSONEncoder(sort_keys=True, default=str, ensure_ascii=False).encode


@dataclass(frozen=True)
class GatewayRequest:
    kind: RequestKind
    payload: dict
    model: str = _DEFAULT_MODEL

    @cached_property
    def text(self) -> str:
        """The payload serialized, the one time per request."""
        return _encode(self.payload)


@dataclass(frozen=True)
class Reply:
    """A review or complete reply; a field its task does not send keeps its default."""

    valid: bool = False  # review: the combination means something
    confidence: float = 0.0  # review, in [0, 1]
    explanation: str = ""  # review
    term_text: str | None = None  # review: the combination's name
    description: str = ""  # annotate
    abbreviation_expansion: str | None = None  # annotate
    mapping: dict[str, str] = field(default_factory=dict)  # map_values: code -> meaning
    sql: str = ""  # expand_template, generate_pair
    question: str = ""  # generate_pair
    cot: str = ""  # generate_pair
    variants: tuple[str, ...] = ()  # rewrite_sql
    phrasings: tuple[str, ...] = ()  # rephrase_question

    def __post_init__(self):
        if not 0.0 <= self.confidence <= 1.0:  # NaN too
            raise ValueError(f"confidence must be in [0, 1], got {self.confidence}")


def _stable_fraction(blob: str, seed: int = 0) -> float:
    """Deterministic pseudo-uniform in [0, 1) from a draw's parts serialized as a JSON list."""
    blob += f"|{seed}"
    digest = hashlib.blake2b(blob.encode(errors="surrogatepass"), digest_size=8).digest()
    return (int.from_bytes(digest, "big") % 10**9) / 10**9


@dataclass(frozen=True)
class MockRule:
    kind: RequestKind
    contains: str | None = None  # substring of the JSON-serialized payload
    model: str | None = None
    response: object = None  # dict, or callable(GatewayRequest) -> dict

    def matches(self, req: GatewayRequest) -> bool:
        if self.kind is not req.kind:
            return False
        if self.model is not None and self.model != req.model:
            return False
        return self.contains is None or self.contains in req.text


@dataclass
class MockScript:
    """Deterministic canned behaviour for the mock backend."""

    rules: list[MockRule] = field(default_factory=list)
    review_approval_rate: float = 1.0
    score_pass_rate: float = 1.0
    seed: int = 0

    def respond(self, req: GatewayRequest) -> dict:
        for rule in self.rules:
            if rule.matches(req):
                if callable(rule.response):
                    return rule.response(req)
                return dict(rule.response)
        return self.default_response(req)

    # -- built-in deterministic responders ------------------------------------

    def default_response(self, req: GatewayRequest) -> dict:
        if req.kind is RequestKind.REVIEW:
            return self._review(req)
        if req.kind is RequestKind.SCORE_PAIR:
            return self._score_pair(req)
        return self._complete(req)

    def _review(self, req: GatewayRequest) -> dict:
        draw = _stable_fraction(f'["review", {req.text}]', self.seed)
        if draw >= self.review_approval_rate:
            return {"valid": False, "confidence": 0.0, "explanation": "not a meaningful combination"}
        confidence = 0.5 + _stable_fraction(f'["conf", {req.text}]', self.seed) * 0.5
        names = req.payload.get("base_names") or []
        op = req.payload.get("operator", "/")
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

    def _score_pair(self, req: GatewayRequest) -> dict:
        draw = _stable_fraction(f'["score", {req.text}, {_encode(req.model)}]', self.seed)
        if draw >= self.score_pass_rate:
            return {"semantic_consistency": 3, "sql_validity": 5}
        return {"semantic_consistency": 5, "sql_validity": 5}

    def _complete(self, req: GatewayRequest) -> dict:
        task = req.payload["task"]
        if task == "annotate":
            return _annotate_response(req.payload)
        if task == "map_values":
            return _map_values_response(req.payload)
        if task == "expand_template":
            return _expand_template_response(req.payload)
        if task == "generate_pair":
            return _generate_pair_response(req.payload)
        if task == "rewrite_sql":
            sql = req.payload.get("sql", "")
            return {"variants": [sql, sql, sql]}
        if task == "rephrase_question":
            q = req.payload.get("question", "")
            return {
                "phrasings": [
                    f"Could you tell me {_lower_first(q)}",
                    f"Please show {_lower_first(q)}",
                    f"I would like to know {_lower_first(q)}",
                ]
            }
        return {"text": f"ok:{task}"}


_KNOWN_EXPANSIONS = {
    "dob": "date of birth",
    "frpm": "Free and Reduced-Price Meal Program statistics",
    "capacity": "number of available seats",
    "cds": "county-district-school code",
    "cdscode": "county-district-school code",
}


def _lower_first(text: str) -> str:
    return text[:1].lower() + text[1:] if text else text


def _annotate_response(payload: dict) -> dict:
    name = payload.get("name", "")
    known = _KNOWN_EXPANSIONS.get(name.lower())
    if known:
        return {"description": known, "abbreviation_expansion": known}
    spaced = spaced_identifier(name)
    expansion = spaced if spaced != name.lower() else None
    kind = payload.get("kind", "column")
    return {"description": f"{spaced} {kind}".strip(), "abbreviation_expansion": expansion}


def _map_values_response(payload: dict) -> dict:
    column = payload.get("column", "").lower()
    codes = payload.get("codes", [])
    mapping = {}
    for code in codes:
        if "gender" in column or "sex" in column:
            mapping[code] = {"M": "Male", "F": "Female"}.get(code, f"code {code}")
        elif "virtual" in column:
            mapping[code] = {
                "F": "Fully virtual",
                "P": "Partially virtual",
                "N": "Not virtual",
            }.get(code, f"code {code}")
        else:
            mapping[code] = f"code {code}"
    return {"mapping": mapping}


def _expand_template_response(payload: dict) -> dict:
    """Slot-fill a skeleton against the tables listed in the payload."""
    skeleton = payload.get("skeleton", "")
    tables = payload.get("tables", [])  # [{"name": ..., "columns": [...]}]
    if not tables:
        return {"sql": skeleton}
    draw = _stable_fraction(_encode(("expand", skeleton, payload.get("difficulty", ""))))
    offset = int(draw * len(tables))
    chosen: list[dict] = []
    slot_map: dict[str, str] = {}
    counters = {"T": 0, "C": 0, "V": 0}
    values = ["1", "2", "'A'", "3", "0"]

    def fill(match: re.Match) -> str:
        token = match.group(0)
        if token in slot_map:
            return slot_map[token]
        kind = token[1]
        idx = counters[kind]
        counters[kind] += 1
        if kind == "T":
            table = tables[(offset + idx) % len(tables)]
            chosen.append(table)
            out = table["name"]
        elif kind == "C":
            table = chosen[idx % len(chosen)] if chosen else tables[offset % len(tables)]
            cols = table["columns"]
            out = f"{table['name']}.{cols[idx % len(cols)]}"
        else:
            out = values[idx % len(values)]
        if len(token) > 2:  # numbered slots bind once
            slot_map[token] = out
        return out

    sql = re.sub(r"_[TCV]\d*", fill, skeleton)
    return {"sql": sql}


def _generate_pair_response(payload: dict) -> dict:
    sql = payload.get("template_sql", payload.get("sql", ""))
    columns = payload.get("columns") or []
    tables = payload.get("tables_used") or []
    if columns and tables:
        question = f"What is {columns[0]} for each row of {tables[0]}?"
    elif tables:
        question = f"How many rows does {tables[0]} contain?"
    else:
        question = "What does this query return?"
    cot = "Identify the target tables, map the requested quantities to columns, then apply the filters."
    return {"sql": sql, "question": question, "cot": cot}


# -- gateway -------------------------------------------------------------------


@dataclass
class GatewayConfig:
    backend: str = "mock"  # "mock" | "http"
    endpoint: str = ""
    auth_env: str = "SQLKNOW_API_TOKEN"
    models: tuple[str, str] = ("reviewer-a", "reviewer-b")
    retries: int = 3
    backoff_base: float = 0.5

    def __post_init__(self):
        if self.retries < 1:
            raise ValueError("retries must be >= 1")
        if self.backoff_base < 0:
            raise ValueError("backoff_base must be >= 0")


@dataclass
class UsageRecord:
    kind: str
    model: str
    input_tokens: int
    output_tokens: int


class Gateway:
    """Dispatches requests to the configured backend and accounts tokens."""

    def __init__(self, config: GatewayConfig | None = None, script: MockScript | None = None):
        self.config = config or GatewayConfig()
        self.script = script or MockScript()
        self.usage: list[UsageRecord] = []
        # a stage sends and receives the same few thousand texts many times over
        self._text_tokens = lru_cache(maxsize=4096)(estimate_tokens)

    def dispatch(self, req: GatewayRequest) -> dict:
        if self.config.backend == "mock":
            response = self.script.respond(req)
        elif self.config.backend == "http":
            response = self._dispatch_http(req)
        else:
            raise ConfigError(f"unknown gateway backend {self.config.backend!r}")
        self._record(req, response)
        return response

    def _record(self, req: GatewayRequest, response: dict) -> None:
        self.usage.append(UsageRecord(req.kind.value, req.model, self._text_tokens(req.text),
                                      self._text_tokens(_encode(response))))

    def usage_summary(self) -> dict:
        summary: dict[str, dict] = {}
        for rec in self.usage:
            slot = summary.setdefault(
                rec.kind, {"calls": 0, "input_tokens": 0, "output_tokens": 0}
            )
            slot["calls"] += 1
            slot["input_tokens"] += rec.input_tokens
            slot["output_tokens"] += rec.output_tokens
        return summary

    # -- typed calls ----------------------------------------------------------------

    def _ask(self, cls, kind: RequestKind, payload: dict, model: str, **known):
        """The reply to one request, with the ``known`` fields set, decoded as ``cls``."""
        reply = self.dispatch(GatewayRequest(kind, payload, model))
        try:
            return from_json(cls, {**reply, **known})
        except InvariantViolation as exc:
            raise GatewayError(f"{kind.value} reply from {model} does not fit: {exc}") from None

    def complete(self, payload: dict) -> Reply:
        return self._ask(Reply, RequestKind.COMPLETE, payload, _DEFAULT_MODEL)

    def review(self, payload: dict, model: str | None = None) -> Reply:
        return self._ask(Reply, RequestKind.REVIEW, payload, model or _DEFAULT_MODEL)

    def score_pair(self, question: str, sql: str, model: str) -> LlmScore:
        return self._ask(LlmScore, RequestKind.SCORE_PAIR, {"question": question, "sql": sql},
                         model, model_id=model)

    # -- HTTP backend ---------------------------------------------------------------

    def _dispatch_http(self, req: GatewayRequest) -> dict:
        token = os.environ.get(self.config.auth_env, "")
        body = {
            "model": req.model,
            "temperature": 0.0,
            "max_tokens": 512,
            "messages": [{"role": "user", "content": req.text}],
        }
        request = urllib.request.Request(
            self.config.endpoint,
            data=json.dumps(body).encode("utf-8"),
            headers={"Content-Type": "application/json", "Authorization": f"Bearer {token}"},
        )
        last_error: Exception | None = None
        for attempt in range(self.config.retries):
            try:
                with urllib.request.urlopen(request, timeout=30) as resp:
                    raw = json.loads(resp.read().decode("utf-8"))
                return self._parse_http_response(raw)
            except urllib.error.HTTPError as exc:
                if exc.code in (401, 403):
                    raise GatewayError(f"authentication failed ({exc.code})") from exc
                last_error = exc
            except (urllib.error.URLError, OSError, TimeoutError, ValueError) as exc:
                last_error = exc
            if attempt + 1 < self.config.retries:  # back off between attempts only
                time.sleep(self.config.backoff_base * (2**attempt))
        raise GatewayError(
            f"gateway gave no reply after {self.config.retries} attempts: {last_error}"
        )

    @staticmethod
    def _parse_http_response(raw: dict) -> dict:
        try:
            content = raw["choices"][0]["message"]["content"]
        except (LookupError, TypeError):  # e.g. {"error": {"message": "rate limited"}}
            raise ValueError(f"no choices[0].message.content in {_encode(raw)[:200]}") from None
        try:
            reply = json.loads(content)
        except (json.JSONDecodeError, TypeError):
            reply = None
        return reply if isinstance(reply, dict) else {"text": content}


def mock_gateway(script: MockScript | None = None, **config_kwargs) -> Gateway:
    return Gateway(GatewayConfig(backend="mock", **config_kwargs), script=script)
