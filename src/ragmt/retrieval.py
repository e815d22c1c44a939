"""In-context example retrieval over the English source side.

Four sentence strategies (BM25, dense cosine, diversity-aware character
n-gram greedy, word-level fuzzy matching), served through one
``Retriever``, plus fuzzy top-n lexicon retrieval.
Each retriever is one call on an index built once over its pool or
lexicon. All retrievers rank by one rule, ``_top`` over the index's
``_rank``: best score first, ties by ascending pair id, then input
position, so sweeps reproduce exactly.
"""

from __future__ import annotations

import math
from collections import Counter
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from .corpus import LexiconEntry, ParallelPair
from .text import (_code_points, _run_starts, _sorted_distinct, chained_ngrams, char_codes,
                   word_tokenize)


@dataclass
class RetrievedExample:
    pair: ParallelPair
    score: float
    strategy: str
    matched_token: str | None = None


@dataclass
class RetrievedLexicon:
    entry: LexiconEntry
    score: float
    query_word: str


# ---------------------------------------------------------------------------
# Ranking


def _rank(keys) -> np.ndarray:
    """Each item's place in (key, input position) order."""
    keys = list(keys)
    return np.argsort(np.array(sorted(range(len(keys)), key=keys.__getitem__), dtype=np.intp))


def _top(scores: np.ndarray, rank: np.ndarray, k: int, keep=None) -> np.ndarray:
    """The indices of the k highest ``scores`` among ``keep`` (a mask; all
    when None), best first, ties to the lower ``rank``."""
    at = np.arange(len(scores)) if keep is None else np.flatnonzero(keep)
    if k < len(at):
        # every index scoring at least the k-th best, so ties at the cut all compete
        values = scores[at]
        at = at[values >= np.partition(values, len(at) - k)[len(at) - k]]
    return at[np.lexsort((rank[at], -scores[at]))[:k]]


# ---------------------------------------------------------------------------
# BM25


class Bm25Index:
    """Inverted-index BM25 over tokenized source texts, k1 = 1.5, b = 0.75.

    ``postings[t]`` is (the documents holding term t, ascending, and each
    one's weight idf(t) * tf * (k1 + 1) / (tf + k1 * (1 - b + b * |doc| /
    avgdl))), with idf(t) = ln((N - df + 0.5) / (df + 0.5) + 1), the
    standard Okapi+1 form.
    """

    def __init__(self, pairs: list[ParallelPair]):
        k1, b = 1.5, 0.75
        self.pairs = list(pairs)
        self.rank = _rank(p.id for p in self.pairs)
        doc_tokens = [word_tokenize(p.source_text) for p in self.pairs]
        avgdl = sum(map(len, doc_tokens)) / len(doc_tokens) if self.pairs else 0.0
        norms = [k1 * (1.0 - b + b * len(toks) / avgdl) if avgdl else 0.0
                 for toks in doc_tokens]
        # term -> [(doc index, term frequency)]
        counts: dict[str, list[tuple[int, int]]] = {}
        for idx, toks in enumerate(doc_tokens):
            for term, tf in Counter(toks).items():
                counts.setdefault(term, []).append((idx, tf))
        n = len(self.pairs)
        self.postings: dict[str, tuple[np.ndarray, np.ndarray]] = {}
        for term, held in counts.items():
            idf = math.log((n - len(held) + 0.5) / (len(held) + 0.5) + 1.0)
            self.postings[term] = (np.array([d for d, _ in held], dtype=np.intp), np.array(
                [idf * tf * (k1 + 1.0) / (tf + norms[d]) for d, tf in held]))


def bm25_retrieve(index: Bm25Index, query: str, k: int) -> list[RetrievedExample]:
    """Top-k by BM25 score; zero-score documents are dropped.

    Each query token, repeats included, adds its postings' weights to the
    documents holding it, in query order, so every score is the same float
    sum as the per-document formula.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    scores = np.zeros(len(index.pairs))
    for term in word_tokenize(query):
        if term in index.postings:
            docs, weights = index.postings[term]
            scores[docs] += weights
    return [RetrievedExample(pair=index.pairs[i], score=float(scores[i]), strategy="BM25")
            for i in _top(scores, index.rank, k, keep=scores > 0.0).tolist()]


# ---------------------------------------------------------------------------
# Dense retrieval


class EmbeddingIndex:
    """Unit-normalized embedding matrix aligned with a pair list: row i is
    pair i's vector. A float64 matrix, such as ``EmbeddingBatch.vectors``,
    is adopted without a copy."""

    def __init__(self, pairs: list[ParallelPair], vectors: np.ndarray):
        vectors = np.asarray(vectors, dtype=np.float64)
        if vectors.ndim != 2 or vectors.shape[0] != len(pairs):
            raise ValueError(
                f"need one vector per pair: {vectors.shape[0]} vectors, {len(pairs)} pairs"
            )
        norms = np.sqrt(np.einsum("ij,ij->i", vectors, vectors))  # no (n × d) temporary
        if not np.allclose(norms, 1.0, atol=1e-6):
            raise ValueError("embedding vectors must be unit-normalized")
        self.pairs = list(pairs)
        self.rank = _rank(p.id for p in self.pairs)
        self.vectors = vectors
        self.dimension = vectors.shape[1]


def dense_retrieve(index: EmbeddingIndex, query_vector, k: int) -> list[RetrievedExample]:
    """Top-k by cosine similarity (dot product of unit vectors)."""
    if k < 1:
        raise ValueError("k must be >= 1")
    q = np.asarray(query_vector, dtype=np.float64)
    if q.shape != (index.dimension,):
        raise ValueError(
            f"query dimension {q.shape[0] if q.ndim == 1 else q.shape} "
            f"!= index dimension {index.dimension}"
        )
    scores = index.vectors @ q
    return [RetrievedExample(pair=index.pairs[i], score=float(scores[i]), strategy="DENSE")
            for i in _top(scores, index.rank, k).tolist()]


# ---------------------------------------------------------------------------
# ChrF-counterweighted greedy retrieval


def _lookup(table: np.ndarray, values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Where each value sits in the ascending ``table``, and whether it is there."""
    at = np.searchsorted(table, values)
    found = np.zeros(len(values), dtype=bool)
    inside = at < len(table)
    found[inside] = table[at[inside]] == values[inside]
    return at, found


class GramIndex:
    """The character n-grams (orders 2..6, chrF++'s) of a pool's source texts.

    Built once per pool, in numpy. ``text.char_codes`` codes the source
    texts' characters as chrF++ squeezes them (whitespace removed), each by
    its code point's rank in the pool's alphabet. ``text.chained_ngrams``,
    with that alphabet as its radix, gives one sort per order of the
    (key, pair) values of its n-grams, keys chained from those codes; an
    order-k id is the rank of its key among the order's
    distinct keys, so equal n-grams get equal ids, and the distinct values
    are the (n-gram, pair) postings. ``_ranked`` holds the orders whose keys
    were replaced by their ranks before the next order chained them.
    Orders 2..6 share one id space, offset by order, and ``gram_ids`` reads
    a query's n-grams through the same chain, ranked orders included.

    ``sizes[i]`` is the number of distinct n-grams of pair i, whose ids are
    ``grams[bounds[i]:bounds[i + 1]]``, ascending. The pairs holding n-gram
    g are ``holders[starts[g]:starts[g + 1]]``, ascending. ``texts[i]``
    numbers pair i's source text, byte-identical texts alike, and
    ``rank[i]`` is pair i's place in (id, input position) order.
    """

    n_min, n_max = 2, 6

    def __init__(self, pairs: list[ParallelPair]):
        self.pairs = list(pairs)
        n = len(self.pairs)
        codes, lengths, alphabet = char_codes([p.source_text for p in self.pairs])
        self._keys = [alphabet]  # per order, the ascending keys its ids rank
        self._ranked: set[int] = set()  # the orders the next one chains by rank
        bits = max(n - 1, 0).bit_length()  # a pair's bits in a (key, pair) value
        holders, starts = [], []  # per order, its distinct (n-gram, pair) postings
        total = held = 0  # the n-grams and the postings of the orders so far
        for k, postings, ranked in chained_ngrams(codes, len(alphabet), lengths,
                                                  self.n_min, self.n_max):
            if ranked:
                self._ranked.add(k - 1)
            postings = postings[_run_starts(postings)]  # by key, then pair
            holders.append((postings & ((1 << bits) - 1)).astype(np.int32))
            postings >>= bits
            first = _run_starts(postings)  # where each key's run begins
            self._keys.append(postings[first])
            starts.append(np.flatnonzero(first) + held)
            total += len(self._keys[-1])
            held += len(postings)
        del codes, postings, first
        self.holders = np.concatenate(holders)
        self.starts = np.concatenate(starts + [[held]]).astype(np.int32)
        del holders, starts
        # the same postings pair major, pair << id_bits | n-gram id in one
        # sort: uint32 where both fit (13 + 19 bits at paper scale), each
        # n-gram's id repeated over its run of holders
        id_bits = max(total - 1, 0).bit_length()
        dtype = np.uint32 if bits + id_bits <= 32 else np.int64
        postings = self.holders.astype(dtype)
        postings <<= id_bits
        postings |= np.repeat(np.arange(total, dtype=dtype), np.diff(self.starts))
        postings.sort()
        # where each pair's run begins; past the last pair, the end (n << id_bits
        # itself may not fit the dtype)
        self.bounds = np.append(np.searchsorted(postings, np.arange(n, dtype=dtype) << id_bits),
                                len(postings)).astype(np.int32)
        self.sizes = np.diff(self.bounds)
        postings &= (1 << id_bits) - 1
        # uint32 ids are below 2**31 (``starts`` are int32), so they are their
        # own int32 bytes: at paper scale an int32 copy left ~9 MB more RSS
        # after the build
        self.grams = postings.view(np.int32) if dtype == np.uint32 else postings.astype(np.int32)
        del postings
        distinct: dict[str, int] = {}
        self.texts = np.array(
            [distinct.setdefault(p.source_text, len(distinct)) for p in self.pairs], dtype=np.intp
        )
        self.rank = _rank(p.id for p in self.pairs)

    def gram_ids(self, text: str) -> np.ndarray:
        """The ids of the pool n-grams that ``text`` holds, ascending.
        Characters outside the pool's alphabet and n-grams no pair holds
        drop out."""
        codes, known = _lookup(self._keys[0], _code_points("".join(text.split())))
        keys, found = codes, known
        held, total = [], 0
        for k, table in enumerate(self._keys[1:], start=2):
            if k - 1 in self._ranked:
                keys = ids
            keys = keys[:-1] * len(self._keys[0]) + codes[k - 1:]
            ids, hit = _lookup(table, keys)
            found = found[:-1] & known[k - 1:] & hit
            held.append(ids[found] + total)
            total += len(table)
        return _sorted_distinct(np.concatenate(held))

    def holder_counts(self, grams: np.ndarray) -> np.ndarray:
        """Per pair, how many of the n-grams numbered ``grams`` it holds."""
        held = [self.holders[self.starts[g]:self.starts[g + 1]] for g in grams.tolist()]
        return np.bincount(np.concatenate(held) if held else [], minlength=len(self.pairs))


def chrf_counterweighted_retrieve(
    index: GramIndex, query: str, k: int, gamma: float = 0.5
) -> list[RetrievedExample]:
    """Greedy diverse selection by character n-gram overlap with the query.

    Each query n-gram carries a residual weight gamma^c, c being how often
    it was decayed so far. A candidate scores the residual weights of its
    distinct n-grams shared with the query, summed as count_c * gamma^c in
    ascending c (so the sum does not depend on set order), divided by the
    candidate's distinct n-gram count. Selecting a candidate decays every
    shared query n-gram once, steering later picks toward uncovered
    material. A candidate whose source text is byte-identical to an already
    selected one is skipped while any distinct candidate still has positive
    score. Ties break by ascending pair id, then input position.

    The query's n-grams are read as the index's n-gram ids, and a pick reads
    its pair's ids from the index. Only pairs sharing an n-gram with the
    query score above 0, and a pick rescores only the holders of the
    n-grams it decays. ``gamma`` must be in [0, 1].
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if not 0.0 <= gamma <= 1.0:
        raise ValueError(f"gamma must be in [0, 1], got {gamma!r}")
    if not query.strip():
        raise ValueError("query must be non-empty")
    n = len(index.pairs)
    # the query n-grams some pair holds, and how often each was decayed
    query_grams = index.gram_ids(query)
    decays = np.zeros(len(query_grams), dtype=np.intp)
    # counts[c][i]: pair i's shared n-grams decayed c times, worth weights[c] each
    counts = [index.holder_counts(query_grams)]
    weights = [1.0]
    sizes = np.maximum(index.sizes, 1)  # a pair without n-grams shares none and scores 0
    scores = counts[0] * weights[0] / sizes
    open_ = np.ones(n, dtype=bool)
    chosen_texts = np.zeros(n, dtype=bool)

    selected: list[RetrievedExample] = []
    while len(selected) < min(k, n):
        dup = chosen_texts[index.texts] if gamma < 1.0 else np.zeros(n, dtype=bool)
        best, best_dup = (_top(scores, index.rank, 1, keep=open_ & m) for m in (~dup, dup))
        if not len(best) or scores[best[0]] <= 0.0 < scores[best_dup].max(initial=0.0):
            best = best_dup
        best = int(best[0])
        pair = index.pairs[best]
        selected.append(RetrievedExample(pair=pair, score=float(scores[best]), strategy="CHRF_CW"))
        open_[best] = False
        chosen_texts[index.texts[best]] = True
        if len(selected) == k:
            break
        shared, hit = _lookup(query_grams,
                              index.grams[index.bounds[best]:index.bounds[best + 1]])
        shared = shared[hit]  # where the query n-grams the pick holds sit in query_grams
        if not len(shared):
            continue
        before = decays[shared]
        decays[shared] += 1
        while len(counts) <= before.max() + 1:
            counts.append(np.zeros(n, dtype=counts[0].dtype))
            weights.append(weights[-1] * gamma)
        touched = np.zeros(n, dtype=bool)
        for c in _sorted_distinct(before).tolist():
            moved = index.holder_counts(query_grams[shared[before == c]])
            counts[c] -= moved
            counts[c + 1] += moved
            touched |= moved > 0
        # only the holders of a decayed n-gram change score
        touched = np.flatnonzero(touched)
        total = counts[0][touched] * weights[0]
        for count, weight in zip(counts[1:], weights[1:]):
            total += count[touched] * weight
        scores[touched] = total / sizes[touched]
    return selected


# ---------------------------------------------------------------------------
# Fuzzy word matching


def _pattern_masks(pattern: str) -> dict[str, int]:
    """Bit i of masks[c] is set where pattern[i] == c."""
    masks: dict[str, int] = {}
    for i, ch in enumerate(pattern):
        masks[ch] = masks.get(ch, 0) | (1 << i)
    return masks


def _reach(longest):
    """How many edit distances d >= 0 keep 1 - d / longest >= 1/2, the one
    cut-off: d <= longest // 2. The float test agrees, as d / longest
    rounds to at most 0.5 exactly when it is, for any length under 2**53;
    ``longest`` may be an integer array."""
    return longest // 2 + 1


def _uint_of(bits: int) -> np.dtype:
    """The narrowest unsigned integer type with at least ``bits`` bits; past
    64 bits, Python ints (object), as wide as they need to be."""
    return next((np.dtype(t) for t in (np.uint8, np.uint16, np.uint32, np.uint64)
                 if np.dtype(t).itemsize * 8 >= bits), np.dtype(object))


class TokenIndex:
    """Distinct strings of a pool or lexicon, indexed for fuzzy lookups.

    A string matches a token when their similarity 1 - (edit distance) /
    max(len(token), len(string)) is at least 1/2, the one cut-off: when
    the distance is at most max(len) // 2.

    ``postings`` maps each string to the indices of the items carrying it,
    ascending. ``top`` ranks items by their best match, ties by ``rank``,
    each item's place in (``tie_key(item)``, input position) order. The strings
    are kept longest first and coded by their alphabet, one code array per
    character position: column j holds position j of every string longer
    than j, so the strings still being read at column j are a prefix.

    A lookup takes every token not yet memoised at once and runs Myers'
    bit-vector recurrence in Hyyrö's edit-distance form (Myers 1999, Hyyrö
    2003) in numpy, one column step over a (strings x tokens) array per
    character position, each token being one word: a machine word, or a
    Python int for tokens over 64 characters, which run in batches of their
    own. A string's distance is final when its last column is read. Strings
    whose length differs from that of every token of the lookup by more
    than max(len) // 2 are skipped: the edit distance is at least the
    length difference, so the skip is exact. Lookups are memoised per token
    for the index's life, top lists per (token, n). Memoised lists are
    shared with the callers, which only read them.
    """

    def __init__(self, items: list, strings_per_item, tie_key: Callable):
        self.items = list(items)
        self.rank = _rank(map(tie_key, self.items))
        postings: dict[str, list[int]] = {}
        for idx, strings in enumerate(strings_per_item):
            for s in strings:
                postings.setdefault(s, []).append(idx)
        self.postings = {s: np.array(held) for s, held in postings.items()}
        # stable: equal lengths keep first-seen order
        self._strings = sorted(self.postings, key=len, reverse=True)
        self._lengths = np.array([len(s) for s in self._strings], dtype=np.intp)
        self._alphabet: dict[str, int] = {}
        codes = np.array(
            [self._alphabet.setdefault(ch, len(self._alphabet))
             for s in self._strings for ch in s],
            dtype=np.intp,
        )
        starts = np.cumsum(self._lengths) - self._lengths
        longest = int(self._lengths[0]) if self._strings else 0
        # _longer[j]: how many strings are longer than j
        self._longer = np.searchsorted(-self._lengths, -np.arange(longest), side="left")
        self._columns = [codes[starts[:n] + j] for j, n in enumerate(self._longer)]
        self._memo: dict[str, list[tuple[str, float]]] = {}
        self._tops: dict[tuple[str, int], list[tuple[int, float]]] = {}

    @classmethod
    def over_pairs(cls, pairs: list[ParallelPair]) -> "TokenIndex":
        """Distinct source-side ``word_tokenize`` types of each pair; ties by
        pair id."""
        return cls(pairs, (set(word_tokenize(p.source_text)) for p in pairs),
                   lambda p: p.id)

    @classmethod
    def over_lexicon(cls, lexicon: list[LexiconEntry]) -> "TokenIndex":
        """The lowered headword of each entry; ties by headword as written."""
        return cls(lexicon, ((e.source_word.lower(),) for e in lexicon),
                   lambda e: e.source_word)

    def top(self, tokens: list[str], n: int) -> dict[str, list[tuple[int, float]]]:
        """Per distinct token, in first-seen order, its n best items as
        (item index, similarity), best first. An item scores the best
        similarity among its strings that match the token; one with no
        match does not qualify."""
        tokens = list(dict.fromkeys(tokens))
        new = [t for t in tokens if (t, n) not in self._tops]
        found = self.matches(new)
        for token in new:
            best = np.full(len(self.items), -1.0)
            if found[token]:
                strings, sims = zip(*found[token])
                held = [self.postings[s] for s in strings]
                np.maximum.at(best, np.concatenate(held), np.repeat(sims, list(map(len, held))))
            top = _top(best, self.rank, n, keep=best >= 0.0)
            self._tops[(token, n)] = list(zip(top.tolist(), best[top].tolist()))
        return {t: self._tops[(t, n)] for t in tokens}

    def union(self, tokens: list[str], tops: dict[str, list[tuple[int, float]]], n: int,
              key: Callable) -> list[tuple[int, float, str]]:
        """The n-prefixes of the ``tops`` lists of ``tokens``, in token order,
        deduplicated by ``key(item)``: an item keeps its first strictly best
        similarity and that token. As (item index, similarity, token), best
        first, ties by ``rank``."""
        best: dict = {}
        for token in tokens:
            for idx, sim in tops[token][:n]:
                k = key(self.items[idx])
                if k not in best or sim > best[k][1]:
                    best[k] = (idx, sim, token)
        return sorted(best.values(), key=lambda hit: (-hit[1], self.rank[hit[0]]))

    def matches(self, tokens: list[str]) -> dict[str, list[tuple[str, float]]]:
        """Per token, the indexed strings s whose similarity 1 - (edit
        distance) / max(len(token), len(s)) is at least 1/2, paired with
        that similarity; tokens must be non-empty."""
        new = [t for t in dict.fromkeys(tokens) if t not in self._memo]
        # a few dozen tokens at a time bound the (strings x tokens) arrays;
        # one token over 64 characters would make a whole batch Python ints
        for batch in ([t for t in new if len(t) <= 64], [t for t in new if len(t) > 64]):
            for i in range(0, len(batch), 32):
                self._lookup(batch[i:i + 32])
        return {t: self._memo[t] for t in tokens}

    def _lookup(self, tokens: list[str]) -> None:
        """Memoise the matches of ``tokens``, all at once."""
        m = [len(t) for t in tokens]
        for token in tokens:
            self._memo[token] = []
        # reach[q, L]: distances below it keep tokens[q] and a string of
        # length L, 0..longest, similar enough; similarities are computed in
        # Python only, as 1.0 - d / max(len) of the integer distance. A
        # string length is kept when its length difference to some token is
        # below that reach.
        every = np.arange(len(self._longer) + 1)
        reach = _reach(np.maximum.outer(m, every))
        keep = (np.abs(np.subtract.outer(m, every)) < reach).any(axis=0)
        rows = np.flatnonzero(keep[self._lengths])  # ascending, so still longest first
        if not len(rows):
            return
        # the type holds every token's bits and every distance, so all the
        # steps run in it
        top = max(max(m), len(self._longer))
        word = _uint_of(max(max(m), (top + 1).bit_length()))
        reach = reach.astype(word)
        lengths = self._lengths[rows]
        # peq[c, q]: bit i set where tokens[q][i] is alphabet character c;
        # token characters outside the alphabet match no string
        peq = np.zeros((len(self._alphabet), len(tokens)), dtype=word)
        for q, token in enumerate(tokens):
            for ch, bits in _pattern_masks(token).items():
                c = self._alphabet.get(ch)
                if c is not None:
                    peq[c, q] = bits
        shape = (len(rows), len(tokens))
        # bits above a token's length never reach its bit m - 1, so the words
        # need no masking: pv starts all ones (-1 as a Python int)
        pv = np.invert(np.zeros(shape, dtype=word))
        mv = np.zeros(shape, dtype=word)
        xv, xh, eq, bit, dist = (np.empty(shape, dtype=word) for _ in range(5))
        dist[:] = m
        last = np.array(m, dtype=word) - word.type(1)
        one = word.type(1)
        # rows[:n], the kept strings longer than j, read column j; the others
        # keep the distance at their own last column
        for j, n in enumerate(np.searchsorted(rows, self._longer[:lengths[0]])):
            P, M, X, H, E, B, D = pv[:n], mv[:n], xv[:n], xh[:n], eq[:n], bit[:n], dist[:n]
            np.take(peq, self._columns[j][rows[:n]], axis=0, out=E)
            np.bitwise_or(E, M, out=X)
            np.bitwise_and(E, P, out=H)
            np.add(H, P, out=H)
            np.bitwise_xor(H, P, out=H)
            np.bitwise_or(H, E, out=H)
            np.bitwise_and(P, H, out=E)  # E is now mh
            np.bitwise_or(H, P, out=H)
            np.invert(H, out=H)
            np.bitwise_or(H, M, out=H)  # H is now ph
            np.right_shift(H, last, out=B)
            np.bitwise_and(B, one, out=B)
            np.add(D, B, out=D)
            np.right_shift(E, last, out=B)
            np.bitwise_and(B, one, out=B)
            np.subtract(D, B, out=D)
            # row 0 of the edit-distance matrix grows by one per column
            np.left_shift(H, one, out=H)
            np.bitwise_or(H, one, out=H)
            np.left_shift(E, one, out=E)
            np.bitwise_and(H, X, out=M)
            np.bitwise_or(X, H, out=X)
            np.invert(X, out=X)
            np.bitwise_or(X, E, out=P)
        hit_rows, hit_tokens = np.nonzero(dist < reach[:, lengths].T)
        for r, q, d in zip(rows[hit_rows].tolist(), hit_tokens.tolist(),
                           dist[hit_rows, hit_tokens].tolist()):
            s = self._strings[r]
            self._memo[tokens[q]].append((s, 1.0 - d / max(m[q], len(s))))


@dataclass
class FuzzyWordLists:
    """Per query token, its top pairs by best-token fuzzy similarity, as
    (pair index, similarity) best first, ties by pair id, then input position.

    ``tokens`` is the query's tokens in order, repeats kept, and ``tops``
    holds each distinct token's list at some n. A token's list at a smaller
    n is a prefix of it, so ``union`` can serve any n up to that one.
    """

    index: TokenIndex
    tokens: list[str]
    tops: dict[str, list[tuple[int, float]]]

    def union(self, n: int) -> list[RetrievedExample]:
        """The n-prefixes of the token lists, unioned by ``TokenIndex.union``
        and deduplicated by pair id."""
        return [RetrievedExample(pair=self.index.items[idx], score=sim, strategy="FUZZY_WORD",
                                 matched_token=token)
                for idx, sim, token in self.index.union(self.tokens, self.tops, n,
                                                        key=lambda p: p.id)]


def fuzzy_word_lists(index: TokenIndex, query: str, n: int) -> FuzzyWordLists:
    """Each query word's top-n sentences by best-token fuzzy similarity at
    least 1/2 (edit distance at most max(len) // 2); ``index`` is
    ``TokenIndex.over_pairs`` of the pool, which memoises each token's
    matches and its list per (token, n).

    ``union(n)`` gives the retrieved examples: the lists unioned across
    query words and deduplicated by pair id (keeping the highest score and
    its matched token), so the effective volume scales with sentence
    length: at most n * len(query tokens).
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    tokens = word_tokenize(query)
    return FuzzyWordLists(index=index, tokens=tokens, tops=index.top(tokens, n))


# ---------------------------------------------------------------------------
# One entry point for the sentence strategies


class Retriever:
    """One sentence strategy over a pool, queried sentence by sentence.

    ``strategy`` is BM25, DENSE, CHRF_CW or FUZZY_WORD. The strategy's
    index (BM25, the pool's embeddings, the chrF-CW n-gram index or the
    fuzzy token index) is built on the first query and reused for every
    later one; DENSE embeds the pool in one ``provider.embed`` stream with
    the first queries (``prepare``). ``gamma`` is CHRF_CW's counterweight.
    ``prefixes`` serves several sizes of one query from one retrieval.
    """

    def __init__(self, strategy: str, pairs: list[ParallelPair], gamma: float = 0.5,
                 provider=None):
        if strategy not in ("BM25", "DENSE", "CHRF_CW", "FUZZY_WORD"):
            raise ValueError(f"unknown retrieval strategy {strategy!r}")
        if strategy == "DENSE" and provider is None:
            raise ValueError("DENSE retrieval needs an embedding provider")
        self.strategy = strategy
        self.pairs = pairs
        self.gamma = gamma
        self.provider = provider
        self._index = None
        self._query_vectors: dict[str, np.ndarray] = {}  # query -> its row of a batch

    def _build_index(self):
        if self.strategy == "BM25":
            return Bm25Index(self.pairs)
        if self.strategy == "FUZZY_WORD":
            return TokenIndex.over_pairs(self.pairs)
        return GramIndex(self.pairs)

    def prepare(self, queries: list[str]) -> None:
        """For DENSE, embed the ``queries`` not embedded yet, so retrieving
        for them sends no request; the other strategies need nothing ahead.
        The first call sends the pool's texts and its queries in one
        ``provider.embed`` stream and adopts the pool's rows as the index."""
        if self.strategy != "DENSE":
            return
        new = [q for q in dict.fromkeys(queries) if q not in self._query_vectors]
        if not new:
            return
        pool = [p.source_text for p in self.pairs] if self._index is None else []
        vectors = self.provider.embed(pool + new).vectors
        if self._index is None:
            self._index = EmbeddingIndex(self.pairs, vectors[:len(pool)])
        self._query_vectors.update(zip(new, vectors[len(pool):]))

    def prefixes(self, query: str, size: int) -> Callable[[int], list[RetrievedExample]]:
        """The examples for one query at every size up to ``size`` (k, or n
        for FUZZY_WORD), retrieved once: a function that gives, for each
        1 <= s <= size, exactly what ``prefixes(query, s)(s)`` gives.

        BM25 and DENSE keep sorted top lists, and chrF-CW's greedy loop makes
        the same first picks at any larger k, so size s takes the first s
        examples. FUZZY_WORD keeps each query token's list at ``size`` and
        unions their s-prefixes.
        """
        if self.strategy == "DENSE":
            self.prepare([query])
        elif self._index is None:
            self._index = self._build_index()
        if self.strategy == "FUZZY_WORD":
            return fuzzy_word_lists(self._index, query, size).union
        if self.strategy == "BM25":
            examples = bm25_retrieve(self._index, query, size)
        elif self.strategy == "DENSE":
            examples = dense_retrieve(self._index, self._query_vectors[query], size)
        else:
            examples = chrf_counterweighted_retrieve(self._index, query, size, gamma=self.gamma)
        return lambda s: examples[:s]


# ---------------------------------------------------------------------------
# Lexicon retrieval


def lexicon_fuzzy_retrieve(index: TokenIndex, query: str, n: int) -> list[RetrievedLexicon]:
    """Per query word, the top-n lexicon entries by fuzzy headword match,
    similarity at least 1/2 (edit distance at most max(len) // 2);
    ``index`` is ``TokenIndex.over_lexicon`` of the lexicon, which memoises
    each word's matches and its list per (word, n).

    Entries tied on (score, headword) keep their input order. The lists are
    unioned by ``TokenIndex.union`` and deduplicated by entry, that is by
    (headword, target, pos).
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    tokens = word_tokenize(query)
    return [RetrievedLexicon(entry=index.items[idx], score=sim, query_word=token)
            for idx, sim, token in index.union(tokens, index.top(tokens, n), n,
                                               key=lambda e: e)]
