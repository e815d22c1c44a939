"""Shared text normalization helpers.

Every module that tokenizes English source text goes through
:func:`word_tokenize` so that vocabulary analysis, fuzzy retrieval, and the
prompt side all agree on what a "word" is.
"""

from __future__ import annotations

import string
from collections import Counter

_PUNCT = string.punctuation


def word_tokenize(text: str) -> list[str]:
    """Lowercase, split on whitespace, strip surrounding punctuation.

    Tokens that are pure punctuation are dropped.
    """
    tokens = []
    for raw in text.lower().split():
        tok = raw.strip(_PUNCT)
        if tok:
            tokens.append(tok)
    return tokens


def char_ngrams(text: str, n_min: int, n_max: int) -> Counter:
    """Multiset of character n-grams of orders n_min..n_max.

    Whitespace is removed before extraction so that n-grams never span a
    token boundary marker.
    """
    squeezed = "".join(text.split())
    grams: Counter = Counter()
    for n in range(n_min, n_max + 1):
        grams.update(squeezed[i : i + n] for i in range(len(squeezed) - n + 1))
    return grams
