from __future__ import annotations

from collections import Counter

from hypothesis import given
from hypothesis import strategies as st

from ragmt.text import char_ngrams


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
    # orders up to n_min + 3 reach past texts of a few characters
    assert char_ngrams(text, n_min, n_min + extra) == naive_char_ngrams(
        text, n_min, n_min + extra
    )
