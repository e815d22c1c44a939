"""Shared text normalization helpers.

Every module that tokenizes English source text goes through
:func:`word_tokenize` so that vocabulary analysis, fuzzy retrieval, and the
prompt side all agree on what a "word" is. Every module that counts n-grams
goes through :func:`chained_ngrams`: the chrF-CW index over characters, and
chrF++ and BLEU over characters, words and tokens, each stream chained with
its own radix. Both code their characters through :func:`char_codes`.
"""

from __future__ import annotations

import string

import numpy as np

_PUNCT = string.punctuation
_INT64_MAX = int(np.iinfo(np.int64).max)


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


def _code_points(text: str) -> np.ndarray:
    """The code points of ``text``, lone surrogates included."""
    return np.frombuffer(text.encode("utf-32-le", "surrogatepass"), dtype="<u4")


def _sorted_distinct(values: np.ndarray) -> np.ndarray:
    """The distinct values, ascending: a sort and a neighbour mask. Nothing
    here calls np.unique. Without return_inverse it hashes, which is far
    slower on millions of keys, and asks ``np.ma.is_masked`` first, which
    imports ``numpy.ma`` (~15 ms) into a process that has no other use for
    it; with it, it adds an argsort and a scatter to the sort."""
    values = np.sort(values)
    return values[_run_starts(values)]


def _run_starts(values: np.ndarray) -> np.ndarray:
    """Where each run of equal neighbours in ``values`` begins, as a mask."""
    first = np.ones(len(values), dtype=bool)
    first[1:] = values[1:] != values[:-1]
    return first


def char_codes(texts: list[str]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The characters of ``texts`` with whitespace removed, as chrF++
    squeezes them, for ``chained_ngrams``: their codes, one text after
    another, each a code point's rank in the texts' alphabet, as int32; each
    text's length in them; and the alphabet, its code points ascending."""
    squeezed = ["".join(text.split()) for text in texts]
    lengths = np.fromiter(map(len, squeezed), dtype=np.intp, count=len(texts))
    points = _code_points("".join(squeezed))
    del squeezed
    alphabet = _sorted_distinct(points)
    # each code point's rank from a table over the code points (at most
    # 0x110000 entries), read as intp and narrowed: at paper scale, freeing
    # the intp codes here left ~11 MB less in glibc's heap after a GramIndex
    # build than int32 codes read from an int32 table did
    table = np.zeros(int(alphabet.max(initial=0)) + 1, dtype=np.intp)
    table[alphabet] = np.arange(len(alphabet))
    return table[points].astype(np.int32), lengths, alphabet


def chained_ngrams(codes: np.ndarray, size: int, lengths: np.ndarray, n_min: int, n_max: int):
    """The n-grams of orders ``n_min``..``n_max`` of coded texts, one sort
    per order.

    ``codes`` holds the texts' items one text after another, each coded
    below ``size``, the radix. ``lengths[t]`` is text t's item count. The
    key of the k-gram at a position chains the codes of its items,
    key * size + code, so keys sort as their n-grams do and equal n-grams
    get equal keys.

    For each order k this yields ``(k, values, ranked)``. ``values`` holds
    key << bits | t for every k-gram that fits in its text t, ascending,
    where bits is ``max(len(lengths) - 1, 0).bit_length()``: a run of equal
    values is one n-gram's count in one text. Where a value of the next
    order could pass int64 (only alphabets or vocabularies in the thousands
    get there), the keys of this order are replaced by their ranks among its
    distinct keys before they are chained, which keeps their order and so
    which n-grams are equal; ``ranked`` says that happened before order k.
    Orders below ``n_min`` are chained but not sorted, so they are never
    ranked.
    """
    count = len(lengths)
    bits = max(count - 1, 0).bit_length()
    owner = np.repeat(np.arange(count, dtype=np.int32), lengths)  # each position's text
    # how many items its text has from each position on, at most n_max
    left = np.repeat(np.cumsum(lengths), lengths)
    left -= np.arange(len(codes))
    left = np.minimum(left, n_max, out=left).astype(np.min_scalar_type(n_max))
    keys, bound = codes, size  # bound: above every key of the order
    table = None  # this order's distinct keys, when the next chains their ranks
    for k in range(1, n_max + 1):
        ranked = table is not None
        if ranked:
            keys, bound, table = np.searchsorted(table, keys), len(table), None
        if k > 1:
            # the k-gram key at every position; one reaching past the end of
            # its text names no n-gram and is never sorted
            keys = np.multiply(keys[:-1], size, dtype=np.int64)
            keys += codes[k - 1:]
            bound *= size
        if k < n_min:
            continue
        fits = left[:len(keys)] >= k
        values = keys[fits].astype(np.int64, copy=False)
        values <<= bits
        values |= owner[:len(keys)][fits]
        values.sort()
        if k < n_max and bound * size << bits > _INT64_MAX:
            table = values >> bits
            table = table[_run_starts(table)]
        yield k, values, ranked
        del values  # the caller's to keep: not held while the next order is chained
