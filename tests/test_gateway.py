"""Gateway: mock determinism, reply decoding, retries, token accounting,
and the audit that no other module can reach the network."""

import io
import itertools
import json
import re
import time
import urllib.error
import urllib.request
from pathlib import Path, PurePosixPath

import gateway_oracle
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sqlknow.errors import ConfigError, GatewayError
from sqlknow.gateway import (
    Gateway,
    GatewayConfig,
    GatewayRequest,
    MockRule,
    MockScript,
    RequestKind,
    Reply,
    mock_gateway,
)
from sqlknow.knowledge import LlmScore
from sqlknow.textproc import estimate_tokens, units_to_tokens

SRC_DIR = Path(__file__).parent.parent / "src" / "sqlknow"


def test_mock_review_default_is_the_scripted_canned_answer():
    resp = mock_gateway().review({"expression": "(a.x / b.y)", "operator": "/",
                                  "base_names": ["a x", "b y"]})
    assert resp.valid is True
    assert resp.confidence > 0.5
    assert resp.explanation == "ratio of two measures"


def test_mock_score_pair_default_is_five_five():
    gateway = mock_gateway()
    assert gateway.score_pair("q", "SELECT 1", "reviewer-a") == LlmScore("reviewer-a", 5, 5)


def test_same_request_same_response_always():
    gateway = mock_gateway(MockScript(review_approval_rate=0.5, seed=3))
    req = GatewayRequest(RequestKind.REVIEW, {"expression": "(a.b + c.d)"})
    first = gateway.dispatch(req)
    for _ in range(5):
        assert gateway.dispatch(req) == first


def test_models_can_have_independent_scripts():
    script = MockScript(
        rules=[
            MockRule(RequestKind.SCORE_PAIR, model="reviewer-a",
                     response={"semantic_consistency": 5, "sql_validity": 5}),
            MockRule(RequestKind.SCORE_PAIR, model="reviewer-b",
                     response={"semantic_consistency": 2, "sql_validity": 5}),
        ]
    )
    gateway = mock_gateway(script)
    assert gateway.score_pair("q", "s", "reviewer-a") == LlmScore("reviewer-a", 5, 5)
    assert gateway.score_pair("q", "s", "reviewer-b") == LlmScore("reviewer-b", 2, 5)


def test_token_usage_accounted_per_kind():
    gateway = mock_gateway()
    gateway.review({"expression": "(a.b / c.d)"})
    gateway.score_pair("q", "s", "reviewer-a")
    summary = gateway.usage_summary()
    assert summary["review"]["calls"] == 1
    assert summary["score_pair"]["calls"] == 1
    assert summary["review"]["input_tokens"] > 0
    assert summary["review"]["output_tokens"] > 0


def test_memoized_token_counts_equal_a_fresh_estimate_of_every_call():
    """Repeated payloads, and one payload whose response changes on each call:
    every record counts its own call's texts, and the summary is their sum."""
    turn = itertools.count()
    script = MockScript(rules=[MockRule(RequestKind.COMPLETE, contains="counter",
                                        response=lambda req: {"n": "x " * next(turn)})])
    gateway = mock_gateway(script)
    calls = []
    for _ in range(3):
        for payload in ({"expression": "(a.b / c.d)"}, {"expression": "(a.b - c.d)"}):
            calls.append(("review", payload,
                          gateway.dispatch(GatewayRequest(RequestKind.REVIEW, payload))))
        for model in ("reviewer-a", "reviewer-b"):
            gateway.score_pair("q", "SELECT 1", model)
            calls.append(("score_pair", {"question": "q", "sql": "SELECT 1"},
                          {"semantic_consistency": 5, "sql_validity": 5}))
        payload = {"task": "counter"}
        calls.append(("complete", payload,
                      gateway.dispatch(GatewayRequest(RequestKind.COMPLETE, payload))))

    def tokens(obj):
        return estimate_tokens(json.dumps(obj, sort_keys=True, default=str))
    assert len(gateway.usage) == len(calls)
    expected = {}
    for record, (kind, payload, response) in zip(gateway.usage, calls):
        assert (record.kind, record.input_tokens, record.output_tokens) == (
            kind, tokens(payload), tokens(response))
        slot = expected.setdefault(kind, {"calls": 0, "input_tokens": 0, "output_tokens": 0})
        slot["calls"] += 1
        slot["input_tokens"] += tokens(payload)
        slot["output_tokens"] += tokens(response)
    assert gateway.usage_summary() == expected
    counted = [r.output_tokens for r in gateway.usage if r.kind == "complete"]
    assert len(set(counted)) == 3  # the same payload, three different responses


def test_dead_endpoint_terminal_after_three_backoffs():
    config = GatewayConfig(backend="http", endpoint="http://127.0.0.1:9/nothing",
                           retries=3, backoff_base=0.01)
    gateway = Gateway(config)
    start = time.monotonic()
    with pytest.raises(GatewayError) as err:
        gateway.dispatch(GatewayRequest(RequestKind.COMPLETE, {"task": "x"}))
    assert "3 attempts" in str(err.value)
    assert time.monotonic() - start < 10


def test_a_dead_endpoint_backs_off_between_attempts_only(monkeypatch):
    sent, sleeps = [], []

    def refuse(request, timeout):
        sent.append(json.loads(request.data)["messages"][0]["content"])
        raise urllib.error.URLError("connection refused")
    monkeypatch.setattr(urllib.request, "urlopen", refuse)
    monkeypatch.setattr("sqlknow.gateway.time.sleep", sleeps.append)
    gateway = Gateway(GatewayConfig(backend="http", endpoint="http://127.0.0.1:9/nothing",
                                    retries=3, backoff_base=0.5))
    payload = {"task": "x", "name": "caf\u00e9"}
    with pytest.raises(GatewayError, match="3 attempts"):
        gateway.dispatch(GatewayRequest(RequestKind.COMPLETE, payload))
    assert sleeps == [0.5, 1.0]
    assert sent == ['{"name": "caf\u00e9", "task": "x"}'] * 3  # the text as written, unescaped


def test_a_rule_matches_non_ascii_text_as_written():
    script = MockScript(rules=[MockRule(RequestKind.COMPLETE, contains="caf\u00e9",
                                        response={"description": "a caf\u00e9"})])
    reply = mock_gateway(script).complete({"task": "annotate", "name": "caf\u00e9"})
    assert reply.description == "a caf\u00e9"


def test_non_ascii_text_is_counted_as_written():
    request = GatewayRequest(RequestKind.COMPLETE, {"name": "caf\u00e9 \u6771\u4eac"})
    assert request.text == '{"name": "caf\u00e9 \u6771\u4eac"}'
    assert estimate_tokens(request.text) == 13  # 20 for the \u-escaped text
    gateway = mock_gateway()
    gateway.complete({"task": "x", "name": "caf\u00e9 \u6771\u4eac"})
    assert gateway.usage[-1].input_tokens == estimate_tokens(
        '{"name": "caf\u00e9 \u6771\u4eac", "task": "x"}')


class _CountingPayload(dict):
    """A payload that counts how often it is serialized: the JSON encoder
    reads a dict subclass's items once per serialization."""

    serialized = 0

    def items(self):
        self.serialized += 1
        return super().items()


def test_a_review_dispatch_serializes_its_payload_once():
    payload = _CountingPayload(expression="(a.b / c.d)", operator="/", base_names=["b", "d"])
    gateway = mock_gateway()
    assert gateway.review(payload).valid is True  # both the review and the confidence draw
    assert payload.serialized == 1
    assert gateway.usage[-1].input_tokens == estimate_tokens(
        json.dumps(payload, sort_keys=True, default=str))


_SCALARS = st.one_of(st.none(), st.booleans(), st.integers(),
                     st.floats(allow_nan=True, allow_infinity=True), st.text(max_size=12),
                     st.builds(PurePosixPath, st.text(max_size=12)))
_VALUES = st.recursive(_SCALARS, lambda inner: st.one_of(
    st.lists(inner, max_size=4), st.dictionaries(st.text(max_size=6), inner, max_size=4)),
    max_leaves=12)
_PAYLOADS = st.tuples(
    st.fixed_dictionaries(
        {"expression": _VALUES, "question": _VALUES, "sql": _VALUES},
        optional={"base_names": st.lists(st.text(max_size=8), max_size=3),
                  "operator": st.sampled_from(["+", "-", "*", "/", "%"])}),
    st.dictionaries(st.text(max_size=6), _VALUES, max_size=3),
).map(lambda parts: {**parts[1], **parts[0]})


@settings(max_examples=200, deadline=None)
@given(_PAYLOADS, st.sampled_from(["reviewer-a", "reviewer-b", "r\u00e9viseur", ""]),
       st.integers(0, 2**20), st.floats(0.0, 1.0))
def test_one_serialization_feeds_the_text_the_draws_and_the_count(payload, model, seed, rate):
    """``GatewayRequest.text`` is ``json.dumps`` of the payload, non-ASCII text
    unescaped, and the mock's
    review and score answers and the input-token counts equal the oracle's,
    which serializes afresh for each draw and each count."""
    text = json.dumps(payload, sort_keys=True, default=str, ensure_ascii=False)
    gateway = mock_gateway(MockScript(review_approval_rate=rate, score_pass_rate=rate, seed=seed))
    review = GatewayRequest(RequestKind.REVIEW, payload, model)
    score = GatewayRequest(RequestKind.SCORE_PAIR, payload, model)
    assert review.text == score.text == text
    assert gateway.dispatch(review) == gateway_oracle.review_response(payload, seed, rate)
    assert gateway.dispatch(score) == gateway_oracle.score_response(payload, model, seed, rate)
    tokens = units_to_tokens(gateway_oracle.count_units(text))
    assert [r.input_tokens for r in gateway.usage] == [tokens, tokens]


def test_unknown_backend_rejected():
    gateway = Gateway(GatewayConfig(backend="carrier-pigeon"))
    with pytest.raises(ConfigError):
        gateway.dispatch(GatewayRequest(RequestKind.COMPLETE, {"task": "x"}))


@pytest.mark.parametrize("reply", [  # each the reply and the error's path and reason
    ({"text": "Both look fine to me."}, "semantic_consistency: missing"),  # prose
    ({"semantic_consistency": "five", "sql_validity": 5},
     'semantic_consistency: expected an integer, got "five"'),
    ({"semantic_consistency": None, "sql_validity": 5},
     "semantic_consistency: expected an integer, got null"),
    ({"semantic_consistency": 5}, "sql_validity: missing"),
    ({"semantic_consistency": 4.9, "sql_validity": 5},  # once truncated to 4
     "semantic_consistency: expected an integer, got 4.9"),
    ({"semantic_consistency": 5, "sql_validity": "5"},  # once read as 5
     'sql_validity: expected an integer, got "5"'),
])
def test_a_score_reply_without_integer_scores_is_a_gateway_error(reply):
    reply, why = reply
    gateway = mock_gateway(MockScript(rules=[MockRule(RequestKind.SCORE_PAIR, response=reply)]))
    with pytest.raises(GatewayError) as err:
        gateway.score_pair("How many schools?", "SELECT 1", "reviewer-a")
    assert str(err.value) == f"score_pair reply from reviewer-a does not fit: {why}"


def test_a_prose_reply_decodes_to_the_defaults_every_caller_read_before():
    script = MockScript(rules=[MockRule(RequestKind.COMPLETE, response={"text": "fine"}),
                               MockRule(RequestKind.REVIEW, response={"text": "fine"})])
    gateway = mock_gateway(script)
    assert gateway.complete({"task": "annotate"}) == Reply()
    assert gateway.review({"expression": "(t.a + t.b)"}, model="reviewer-b") == Reply()
    assert Reply() == Reply(valid=False, confidence=0.0, explanation="", term_text=None,
                            description="", abbreviation_expansion=None, mapping={}, sql="",
                            question="", cot="", variants=(), phrasings=())


@pytest.mark.parametrize("kind, reply, why", [
    (RequestKind.REVIEW, {"valid": True, "confidence": 1.5},
     "confidence must be in [0, 1], got 1.5"),
    (RequestKind.REVIEW, {"valid": True, "confidence": float("nan")},
     "confidence must be in [0, 1], got nan"),
    (RequestKind.REVIEW, {"valid": "no"}, 'valid: expected true or false, got "no"'),
    (RequestKind.REVIEW, {"valid": True, "term_text": 7}, "term_text: expected a string, got 7"),
    (RequestKind.COMPLETE, {"mapping": {"F": 1}}, 'mapping["F"]: expected a string, got 1'),
    (RequestKind.COMPLETE, {"sql": ["SELECT 1"]}, 'sql: expected a string, got ["SELECT 1"]'),
    (RequestKind.COMPLETE, {"phrasings": "How many"},
     'phrasings: expected an array, got "How many"'),
    (RequestKind.COMPLETE, {"variants": ["SELECT 1", 5]},
     "variants[1]: expected a string, got 5"),
])
def test_a_reply_that_does_not_fit_is_a_gateway_error_naming_kind_model_and_path(kind, reply,
                                                                                 why):
    gateway = mock_gateway(MockScript(rules=[MockRule(kind, response=reply)]))
    with pytest.raises(GatewayError) as err:
        if kind is RequestKind.REVIEW:
            gateway.review({"expression": "(t.a + t.b)"}, model="reviewer-b")
        else:
            gateway.complete({"task": "annotate"})
    model = "reviewer-b" if kind is RequestKind.REVIEW else "reviewer-a"
    assert str(err.value) == f"{kind.value} reply from {model} does not fit: {why}"


@pytest.mark.parametrize("content, reply", [
    ('{"valid": true}', {"valid": True}),
    ("Looks valid.", {"text": "Looks valid."}),
    ("[5, 5]", {"text": "[5, 5]"}),  # JSON, but no object
    ("5", {"text": "5"}),
])
def test_every_http_reply_is_an_object(monkeypatch, content, reply):
    class Response(io.BytesIO):
        def __init__(self):
            super().__init__(json.dumps({"choices": [{"message": {"content": content}}]}).encode())

    monkeypatch.setattr(urllib.request, "urlopen", lambda request, timeout: Response())
    gateway = Gateway(GatewayConfig(backend="http", endpoint="http://127.0.0.1:9/v1"))
    assert gateway.dispatch(GatewayRequest(RequestKind.REVIEW, {"expression": "(t.a + t.b)"})) \
        == reply


@pytest.mark.parametrize("body", [
    {"error": {"message": "rate limited"}},
    {"choices": []},
    {"choices": [{"message": {}}]},
    [],
])
def test_a_body_with_no_content_is_a_failed_attempt(monkeypatch, body):
    """Each attempt is retried, and the last ends as a GatewayError, not a KeyError."""
    attempts, sleeps = [], []

    def answer(request, timeout):
        attempts.append(request)
        return io.BytesIO(json.dumps(body).encode())
    monkeypatch.setattr(urllib.request, "urlopen", answer)
    monkeypatch.setattr("sqlknow.gateway.time.sleep", sleeps.append)
    gateway = Gateway(GatewayConfig(backend="http", endpoint="http://127.0.0.1:9/v1",
                                    retries=4, backoff_base=0.25))
    with pytest.raises(GatewayError, match="no reply after 4 attempts: no choices"):
        gateway.review({"expression": "(t.a + t.b)"})
    assert len(attempts) == 4 and sleeps == [0.25, 0.5, 1.0]
    assert gateway.usage == []


def test_rate_tuned_review_approval_is_stable():
    script = MockScript(review_approval_rate=0.5, seed=11)
    gateway = mock_gateway(script)
    outcomes = [
        gateway.review({"expression": f"(t.a + t.b{i})"}).valid for i in range(80)
    ]
    again = [
        mock_gateway(MockScript(review_approval_rate=0.5, seed=11)).review(
            {"expression": f"(t.a + t.b{i})"}
        ).valid
        for i in range(80)
    ]
    assert outcomes == again
    approved = sum(outcomes)
    assert 20 <= approved <= 60  # near the configured rate, deterministic


def test_no_module_except_gateway_touches_the_network():
    network_markers = re.compile(
        r"^\s*(import|from)\s+(urllib|http\.client|socket|requests|httpx|aiohttp)\b"
    )
    offenders = []
    for path in sorted(SRC_DIR.glob("*.py")):
        if path.name == "gateway.py":
            continue
        for line in path.read_text(encoding="utf-8").splitlines():
            if network_markers.match(line):
                offenders.append((path.name, line.strip()))
    assert not offenders, offenders


def test_no_module_except_gateway_reads_a_reply_dict():
    """Every other module asks through ``complete``, ``review`` or ``score_pair``, which
    decode the reply; none calls ``dispatch``, which returns the raw dict."""
    offenders = [path.name for path in sorted(SRC_DIR.glob("*.py"))
                 if path.name != "gateway.py" and ".dispatch(" in path.read_text(encoding="utf-8")]
    assert not offenders, offenders
