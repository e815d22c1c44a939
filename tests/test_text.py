from __future__ import annotations

import random
from collections import Counter

import numpy as np
from hypothesis import given
from hypothesis import strategies as st

from conftest import char_ngrams
from ragmt.text import _code_points, _sorted_distinct, chained_ngrams, char_codes


def naive_char_ngrams(text: str, n_min: int, n_max: int) -> Counter:
    squeezed = "".join(ch for ch in text if not ch.isspace())
    grams: Counter = Counter()
    for n in range(n_min, n_max + 1):
        for i in range(len(squeezed) - n + 1):
            grams[squeezed[i : i + n]] += 1
    return grams


@given(
    st.text(alphabet="ab éß水\t\n　", max_size=12),
    st.integers(1, 7),
    st.integers(0, 3),
)
def test_char_ngrams_equal_a_per_order_count(text, n_min, extra):
    # the oracle itself: orders up to n_min + 3 reach past texts of a few characters
    assert char_ngrams(text, n_min, n_min + extra) == naive_char_ngrams(
        text, n_min, n_min + extra
    )


def chained_counts(texts, n_min, n_max):
    """Per order, each text's n-gram counts read off ``chained_ngrams``, and
    whether any order was chained by rank. The k-th smallest distinct key of
    an order is the k-th smallest of its n-grams, code point by code point."""
    squeezed = ["".join(text.split()) for text in texts]
    points = _code_points("".join(squeezed))
    alphabet = _sorted_distinct(points)
    bits = max(len(texts) - 1, 0).bit_length()
    lengths = np.array([len(s) for s in squeezed], dtype=np.intp)
    counts, ranked = {}, False
    for k, values, was_ranked in chained_ngrams(np.searchsorted(alphabet, points), len(alphabet),
                                                lengths, n_min, n_max):
        ranked |= was_ranked
        assert values.dtype == np.int64 and (np.diff(values) >= 0).all()
        keys = _sorted_distinct(values >> bits).tolist()
        grams = sorted({s[i:i + k] for s in squeezed for i in range(len(s) - k + 1)})
        assert len(keys) == len(grams)
        name = dict(zip(keys, grams))
        per_text = [Counter() for _ in texts]
        for value in values.tolist():
            per_text[value & ((1 << bits) - 1)][name[value >> bits]] += 1
        counts[k] = per_text
    return counts, ranked


@given(
    st.lists(st.text(alphabet="ab éß水\U0001F600\ud800\t\n　\x1c\x85 ", max_size=12),
             max_size=6),
    st.integers(1, 3),
    st.integers(0, 4),
)
def test_chained_ngrams_count_as_char_ngrams(texts, n_min, extra):
    counts, ranked = chained_counts(texts, n_min, n_min + extra)
    assert not ranked
    assert sorted(counts) == list(range(n_min, n_min + extra + 1))
    for k, per_text in counts.items():
        assert per_text == [char_ngrams(text, k, k) for text in texts]


# one text: letters with non-ASCII, astral characters (up to U+10FFFF) and
# lone surrogates among whitespace str.split() removes, or whitespace alone
CODER_TEXTS = (st.text(alphabet="ab éß水\U0001F600\U0010FFFF\ud800\udfff\t\n\u3000\x1c\x85",
                       max_size=12)
               | st.text(alphabet=" \t\n\u3000\x85\u2028", max_size=3))


@given(st.lists(CODER_TEXTS, max_size=6))
def test_char_codes_equal_searchsorted_ranks(texts):
    codes, lengths, alphabet = char_codes(texts)
    squeezed = ["".join(text.split()) for text in texts]
    points = _code_points("".join(squeezed))
    assert codes.dtype == np.int32
    assert codes.tolist() == np.searchsorted(_sorted_distinct(points), points).tolist()
    assert lengths.tolist() == [len(s) for s in squeezed]
    assert alphabet.tolist() == sorted(set(points.tolist()))


def test_large_alphabet_chains_ranks():
    # 2000 distinct characters: 2000**6 passes int64, so the order-5 keys
    # are ranked before order 6 chains them, and the counts stay exact
    rng = random.Random(41)
    texts = ["".join(chr(0x4E00 + rng.randrange(2000)) for _ in range(rng.randint(0, 400)))
             for _ in range(12)]
    texts.append("".join(chr(0x4E00 + i) for i in range(2000)))
    texts += [texts[3][:50] * 3, texts[5][100:160] + texts[6][:40]]
    counts, ranked = chained_counts(texts, 1, 6)
    assert ranked
    for k, per_text in counts.items():
        assert per_text == [char_ngrams(text, k, k) for text in texts]
