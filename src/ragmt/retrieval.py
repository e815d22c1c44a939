"""In-context example retrieval over the English source side.

Four sentence strategies (BM25, dense cosine, diversity-aware character
n-gram greedy, word-level fuzzy matching), served through one
``Retriever``, plus lexicon retrieval (fuzzy top-n and full dictionary).
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
from .text import word_tokenize


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


def _code_points(text: str) -> np.ndarray:
    """The code points of ``text``, lone surrogates included."""
    return np.frombuffer(text.encode("utf-32-le", "surrogatepass"), dtype="<u4")


def _sorted_distinct(values: np.ndarray) -> np.ndarray:
    """The distinct values, ascending: a sort and a neighbour mask. np.unique
    without return_inverse hashes, which is far slower on millions of keys,
    and asks ``np.ma.is_masked`` first, which imports ``numpy.ma`` (~15 ms)
    into a process that has no other use for it."""
    values = np.sort(values)
    first = np.ones(len(values), dtype=bool)
    first[1:] = values[1:] != values[:-1]
    return values[first]


def _lookup(table: np.ndarray, values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Where each value sits in the ascending ``table``, and whether it is there."""
    at = np.searchsorted(table, values)
    found = np.zeros(len(values), dtype=bool)
    inside = at < len(table)
    found[inside] = table[at[inside]] == values[inside]
    return at, found


class GramIndex:
    """The character n-grams (orders 2..6, chrF++'s) of a pool's source texts.

    Built once per pool, in numpy. Each source text is squeezed as
    ``char_ngrams`` squeezes it and read as code points. An order-1 id is
    the character's rank in the pool's alphabet; the order-k id at a
    position is the rank of (order-(k-1) id there) * (alphabet size) +
    (order-1 id of its k-th character) among the order's distinct such
    keys, so equal n-grams get equal ids. Orders 2..6 share one id space,
    offset by order, and ``gram_ids`` reads a query's n-grams through the
    same chain.

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
        squeezed = ["".join(p.source_text.split()) for p in self.pairs]
        lengths = np.fromiter(map(len, squeezed), dtype=np.intp, count=n)
        alphabet, codes = np.unique(_code_points("".join(squeezed)), return_inverse=True)
        self._keys = [alphabet]  # per order, the ascending keys its ids rank
        owner = np.repeat(np.arange(n), lengths)  # each position's pair
        stop = np.repeat(np.cumsum(lengths), lengths)  # and where its text ends
        at, ids = np.arange(len(codes)), codes
        held, total = [], 0  # distinct (n-gram id, pair) postings, as id * n + pair
        for k in range(1, self.n_max + 1):
            if k > 1:
                # the positions where a k-gram fits in its text, and its id there
                fits = at + k <= stop
                at, stop, ids = at[fits], stop[fits], ids[fits]
                keys, ids = np.unique(ids * len(alphabet) + codes[at + k - 1],
                                      return_inverse=True)
                self._keys.append(keys)
            if k >= self.n_min:
                held.append(_sorted_distinct((ids + total) * n + owner[at]))
                total += len(self._keys[-1])
        del squeezed, codes, owner, stop, at, ids
        postings = np.concatenate(held)
        del held
        self.holders = (postings % n).astype(np.int32)
        postings //= n
        self.starts = np.searchsorted(postings, np.arange(total + 1)).astype(np.int32)
        self.sizes = np.bincount(self.holders, minlength=n).astype(np.int32)
        self.bounds = np.concatenate(([0], np.cumsum(self.sizes))).astype(np.int32)
        # the same postings pair major
        postings += np.multiply(self.holders, total, dtype=np.int64)
        postings.sort()
        self.grams = (postings % total).astype(np.int32)
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
        ids, found = codes, known
        held, total = [], 0
        for k, keys in enumerate(self._keys, start=1):
            if k > 1:
                chained, fits = ids[:-1], found[:-1] & known[k - 1:]
                ids, found = _lookup(keys, chained * len(self._keys[0]) + codes[k - 1:])
                found &= fits
            if k >= self.n_min:
                held.append(ids[found] + total)
                total += len(keys)
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


def _reach(threshold: float, longest: int) -> int:
    """How many edit distances d in [0, longest] keep 1 - d / longest >=
    threshold: the condition holds up to some d, so bisect for the first
    d where it fails."""
    lo, hi = 0, longest + 1
    while lo < hi:
        mid = (lo + hi) // 2
        if 1.0 - mid / longest >= threshold:
            lo = mid + 1
        else:
            hi = mid
    return lo


def _uint_of(bits: int) -> np.dtype:
    """The narrowest unsigned integer type with at least ``bits`` bits; past
    64 bits, Python ints (object), as wide as they need to be."""
    return next((np.dtype(t) for t in (np.uint8, np.uint16, np.uint32, np.uint64)
                 if np.dtype(t).itemsize * 8 >= bits), np.dtype(object))


class TokenIndex:
    """Distinct strings of a pool or lexicon, indexed for fuzzy lookups.

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
    whose similarity bound 1 - |len(a) - len(b)| / max(len) is below the
    threshold for every token of the lookup are skipped: the edit distance
    is at least the length difference, so the skip is exact. Lookups are
    memoised per (token, threshold) for the index's life, top lists per
    (token, n, threshold), and the reach of each string length per (token
    length, threshold). Memoised lists are shared with the callers, which
    only read them.
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
        self._distinct_lengths = sorted(set(self._lengths.tolist()))
        self._memo: dict[tuple[str, float], list[tuple[str, float]]] = {}
        self._tops: dict[tuple[str, int, float], list[tuple[int, float]]] = {}
        self._reach_rows: dict[tuple[int, float], np.ndarray] = {}

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

    def top(self, tokens: list[str], n: int,
            threshold: float) -> dict[str, list[tuple[int, float]]]:
        """Per distinct token, in first-seen order, its n best items as
        (item index, similarity), best first. An item scores the best
        similarity among its strings that match the token; at a threshold
        <= 0 an item without strings scores 0.0, which then qualifies."""
        tokens = list(dict.fromkeys(tokens))
        new = [t for t in tokens if (t, n, threshold) not in self._tops]
        found = self.matches(new, threshold)
        for token in new:
            # similarities are >= 0, so at a threshold <= 0 every string
            # matches and every item qualifies, one without strings at 0.0
            best = np.full(len(self.items), 0.0 if threshold <= 0.0 else -1.0)
            if found[token]:
                strings, sims = zip(*found[token])
                held = [self.postings[s] for s in strings]
                np.maximum.at(best, np.concatenate(held), np.repeat(sims, list(map(len, held))))
            top = _top(best, self.rank, n, keep=best >= 0.0)
            self._tops[(token, n, threshold)] = list(zip(top.tolist(), best[top].tolist()))
        return {t: self._tops[(t, n, threshold)] for t in tokens}

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

    def matches(self, tokens: list[str], threshold: float) -> dict[str, list[tuple[str, float]]]:
        """Per token, the indexed strings s whose similarity 1 - (edit
        distance) / max(len(token), len(s)) is at least ``threshold``, paired
        with that similarity; tokens must be non-empty."""
        new = [t for t in dict.fromkeys(tokens) if (t, threshold) not in self._memo]
        # a few dozen tokens at a time bound the (strings x tokens) arrays;
        # one token over 64 characters would make a whole batch Python ints
        for batch in ([t for t in new if len(t) <= 64], [t for t in new if len(t) > 64]):
            for i in range(0, len(batch), 32):
                self._lookup(batch[i:i + 32], threshold)
        return {t: self._memo[(t, threshold)] for t in tokens}

    def _reach_row(self, m: int, threshold: float) -> np.ndarray:
        """row[L]: distances below it keep a token of length m and a string
        of length L similar enough, for each indexed length L; 0 elsewhere."""
        row = self._reach_rows.get((m, threshold))
        if row is None:
            row = np.zeros(len(self._longer) + 1, dtype=np.intp)  # lengths 0..longest
            for length in self._distinct_lengths:
                row[length] = _reach(threshold, max(m, length))
            self._reach_rows[(m, threshold)] = row
        return row

    def _lookup(self, tokens: list[str], threshold: float) -> None:
        """Memoise the matches of ``tokens``, all at once."""
        m = [len(t) for t in tokens]
        for token in tokens:
            self._memo[(token, threshold)] = []
        # reach[q, L]: distances below it keep tokens[q] and a string of
        # length L similar enough; similarities are computed in Python only,
        # as 1.0 - d / max(len) of the integer distance. A string length is
        # kept when its length difference to some token is below that reach.
        reach = np.stack([self._reach_row(mq, threshold) for mq in m])
        span = np.abs(np.array(m)[:, None] - np.arange(reach.shape[1]))
        keep = (span < reach).any(axis=0)
        rows = np.flatnonzero(keep[self._lengths])  # ascending, so still longest first
        if not len(rows):
            return
        # the type holds every token's bits and every distance, so all the
        # steps run in it
        top = max(max(m), self._distinct_lengths[-1])
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
            self._memo[(tokens[q], threshold)].append((s, 1.0 - d / max(m[q], len(s))))


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


def fuzzy_word_lists(
    index: TokenIndex, query: str, n: int, threshold: float = 0.5
) -> FuzzyWordLists:
    """Each query word's top-n sentences by best-token fuzzy similarity, the
    lists ``fuzzy_word_retrieve`` unions; ``index`` is
    ``TokenIndex.over_pairs`` of the pool."""
    if n < 1:
        raise ValueError("n must be >= 1")
    tokens = word_tokenize(query)
    return FuzzyWordLists(index=index, tokens=tokens, tops=index.top(tokens, n, threshold))


def fuzzy_word_retrieve(
    index: TokenIndex, query: str, n: int, threshold: float = 0.5
) -> list[RetrievedExample]:
    """Per query word, the top-n sentences by best-token fuzzy similarity.

    Results are unioned across query words and deduplicated by pair id
    (keeping the highest score and its matched token), so the effective
    volume scales with sentence length: at most n * len(query tokens).
    """
    return fuzzy_word_lists(index, query, n, threshold).union(n)


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

    def retrieve(self, query: str, size: int) -> list[RetrievedExample]:
        """The examples for one query; ``size`` is k, or n for FUZZY_WORD."""
        return self.prefixes(query, size)(size)

    def prefixes(self, query: str, size: int) -> Callable[[int], list[RetrievedExample]]:
        """The examples for one query at every size up to ``size``, retrieved
        once: a function that gives, for each 1 <= s <= size, exactly what
        ``retrieve(query, s)`` gives.

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


def lexicon_fuzzy_retrieve(
    index: TokenIndex, query: str, n: int, threshold: float = 0.5
) -> list[RetrievedLexicon]:
    """Per query word, the top-n lexicon entries by fuzzy headword match;
    ``index`` is ``TokenIndex.over_lexicon`` of the lexicon.

    Entries tied on (score, headword) keep their input order. The lists are
    unioned by ``TokenIndex.union`` and deduplicated by entry, that is by
    (headword, target, pos).
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    tokens = word_tokenize(query)
    return [RetrievedLexicon(entry=index.items[idx], score=sim, query_word=token)
            for idx, sim, token in index.union(tokens, index.top(tokens, n, threshold), n,
                                               key=lambda e: e)]


def lexicon_full(lexicon: list[LexiconEntry]) -> list[RetrievedLexicon]:
    """The whole dictionary as static context, input order preserved."""
    return [RetrievedLexicon(entry=e, score=1.0, query_word="") for e in lexicon]
