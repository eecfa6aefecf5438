"""Masking, hashed embeddings, and TF-IDF vectorization."""

import math

import embed_oracle
import gateway_oracle
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sqlknow.skeleton import skeleton_tokens, skeletonize
from retrieval_oracle import cosine
from sqlknow.textproc import (
    EMBED_DIMENSION,
    count_units,
    embed,
    estimate_tokens,
    mask_question,
    skeleton_idf,
    split_identifier,
    tfidf_corpus,
)


# -- masking -------------------------------------------------------------------


def test_masks_schema_value_and_term(schools, kb):
    q = "List the websites of schools in San Joaquin with a high free meal rate"
    masked = mask_question(q, schools, kb)
    assert "<TAB>" in masked  # "schools"
    assert "<VAL>" in masked  # "San Joaquin" sampled county value
    assert "<TERM>" in masked  # accepted "free meal rate"
    assert masked == "List the websites of <TAB> in <VAL> with a high <TERM>"


def test_unrelated_question_is_untouched(schools, kb):
    q = "what is the orbital period of mars"
    assert mask_question(q, schools, kb) == q


def test_longest_match_prefers_term_over_column(schools, kb):
    # "free meal rate" (term) strictly contains nothing of value here, but it
    # overlaps would-be shorter matches; the term must win its span.
    q = "schools ranked by free meal rate"
    assert "<TERM>" in mask_question(q, schools, kb)


def test_quoted_strings_and_numbers_mask_as_values(schools):
    masked = mask_question("show rows where code is 'XY-9' or total is 12.5", schools, None)
    assert masked.count("<VAL>") == 2


# -- embeddings ------------------------------------------------------------------


def test_embed_is_bitwise_deterministic():
    a = embed("count of students")
    b = embed("count of students")
    assert np.array_equal(a, b)


def test_embed_similarity_ordering():
    near = cosine(embed("count of students"), embed("number of students"))
    far = cosine(embed("count of students"), embed("orbital period"))
    assert near > far


def test_embed_empty_string_is_flagged_zero():
    e = embed("")
    assert not e.any()
    assert float(np.linalg.norm(e)) == 0.0


def test_embed_unit_norm():
    e = embed("some text to hash")
    assert e.shape == (EMBED_DIMENSION,)
    assert abs(float(np.linalg.norm(e)) - 1.0) < 1e-9


@given(st.text(max_size=80))
def test_embed_pure_function_property(text):
    a = embed(text)
    b = embed(text)
    assert np.array_equal(a, b)


# short, blank, ASCII and non-ASCII texts, drawn so that trigrams repeat across them;
# long texts over few trigrams sum many signs into one bucket, some to zero
_EMBED_TEXTS = st.one_of(
    st.text(max_size=2),
    st.text(alphabet="ab ", min_size=40, max_size=400),
    st.text(alphabet=" \t\n", max_size=4),
    st.text(alphabet="abc ", max_size=12),
    st.text(alphabet="aÄßé漢字🙂 İı", max_size=12),
    st.text(max_size=40),
)


@settings(max_examples=300, deadline=None)
@given(st.lists(_EMBED_TEXTS, min_size=1, max_size=6))
def test_embed_is_bitwise_equal_to_the_per_gram_digest_oracle(texts):
    """Texts in one sequence, so that later ones read the slots earlier ones memoized."""
    for text in texts:
        got = embed(text)
        expected = embed_oracle.embed_values(text)
        assert got.tobytes() == expected.tobytes()


# -- tf-idf -----------------------------------------------------------------------


def corpus_skeletons():
    return [
        skeletonize("SELECT name FROM t"),
        skeletonize("SELECT name FROM t WHERE name = 'x'"),
        skeletonize("SELECT COUNT(*) FROM t"),
    ]


def test_identical_corpus_yields_identical_vectors():
    same = [skeletonize("SELECT name FROM t")] * 4
    vectors = tfidf_corpus(same)
    assert all(np.array_equal(v, vectors[0]) for v in vectors)


def test_ubiquitous_token_gets_minimal_idf():
    vocabulary, idf = skeleton_idf([skeleton_tokens(s) for s in corpus_skeletons()])
    # every document contains FROM: idf = ln((1+3)/(1+3)) + 1 = 1
    assert math.isclose(float(idf[vocabulary["FROM"]]), 1.0)


def test_three_document_weights_match_hand_computation():
    # Derived independently: tf = raw counts, idf = ln((1+N)/(1+df)) + 1,
    # then L2 normalization, over the token streams
    #   A: SELECT _C FROM _T
    #   B: SELECT _C FROM _T WHERE _C = _V
    #   C: SELECT COUNT ( * ) FROM _T
    vectors = tfidf_corpus(corpus_skeletons())
    vocab, _ = skeleton_idf([skeleton_tokens(s) for s in corpus_skeletons()])

    def weight(vec, token):
        return float(vec[vocab[token]])

    a, b, c = vectors
    assert math.isclose(weight(a, "SELECT"), 0.463334, abs_tol=1e-6)
    assert math.isclose(weight(a, "_C"), 0.596627, abs_tol=1e-6)
    assert math.isclose(weight(b, "_C"), 0.603132, abs_tol=1e-6)
    assert math.isclose(weight(b, "WHERE"), 0.396523, abs_tol=1e-6)
    assert math.isclose(weight(b, "SELECT"), 0.234193, abs_tol=1e-6)
    assert math.isclose(weight(c, "COUNT"), 0.445149, abs_tol=1e-6)
    assert math.isclose(weight(c, "FROM"), 0.262912, abs_tol=1e-6)
    assert weight(a, "WHERE") == 0.0


def test_vectors_invariant_to_corpus_order():
    docs = corpus_skeletons()
    forward = tfidf_corpus(docs)
    backward = tfidf_corpus(list(reversed(docs)))
    assert np.array_equal(forward[0], backward[2])
    assert np.array_equal(forward[2], backward[0])


def test_empty_corpus_rejected():
    with pytest.raises(ValueError):
        tfidf_corpus([])


def test_vectors_are_unit_norm():
    for vec in tfidf_corpus(corpus_skeletons()):
        norm = math.sqrt(sum(w * w for w in vec))
        assert math.isclose(norm, 1.0, abs_tol=1e-9)


# -- small helpers ------------------------------------------------------------------


def test_split_identifier_handles_camel_and_digits():
    assert split_identifier("FreeMealCount") == ["free", "meal", "count"]
    assert split_identifier("NumGE1500") == ["num", "ge", "1500"]
    assert split_identifier("circuit_ref") == ["circuit", "ref"]


def test_token_estimate_scales_with_words():
    short = estimate_tokens("two words")
    long = estimate_tokens("two words " * 50)
    assert long > short >= 2


# ASCII, with the separators that only the regex's Unicode \s reads as space
_ASCII_TEXTS = st.text(st.one_of(st.characters(max_codepoint=127),
                                 st.sampled_from("\x0b\x0c\x1c\x1d\x1e\x1f_-. ")))


@pytest.mark.parametrize("text, units", [("", 0), ("a-b", 3), ("\x1c", 0), ("\u0663", 1)])
def test_count_units_examples(text, units):
    assert count_units(text) == units == gateway_oracle.count_units(text)


@settings(max_examples=300, deadline=None)
@given(st.one_of(_ASCII_TEXTS, st.text()))
def test_count_units_equals_the_unit_regex_count(text):
    """The byte pass over ASCII text, and the regex over any other, count
    what the unit regex finds."""
    assert count_units(text) == gateway_oracle.count_units(text)
