"""In-context example retrieval over the English source side.

Four sentence strategies (BM25, dense cosine, diversity-aware character
n-gram greedy, word-level fuzzy matching), served through one
``Retriever``, plus lexicon retrieval (fuzzy top-n and full dictionary).
All retrievers are deterministic; ties break by ascending pair id so
sweeps reproduce exactly.
"""

from __future__ import annotations

import heapq
import math
from collections import Counter
from dataclasses import dataclass

import numpy as np

from .corpus import LexiconEntry, ParallelPair
from .text import char_ngrams, word_tokenize


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
# BM25


class Bm25Index:
    """Inverted-index BM25 over tokenized source texts.

    idf(t) = ln((N - df + 0.5) / (df + 0.5) + 1), the standard Okapi+1 form.
    """

    def __init__(self, pairs: list[ParallelPair], k1: float = 1.5, b: float = 0.75):
        if k1 <= 0:
            raise ValueError("k1 must be positive")
        if not 0.0 <= b <= 1.0:
            raise ValueError("b must be in [0, 1]")
        self.pairs = list(pairs)
        self.k1 = k1
        self.b = b
        self.doc_tokens = [word_tokenize(p.source_text) for p in self.pairs]
        self.doc_lens = [len(toks) for toks in self.doc_tokens]
        self.avgdl = (sum(self.doc_lens) / len(self.doc_lens)) if self.pairs else 0.0
        # term -> {doc_index: term frequency}
        self.postings: dict[str, dict[int, int]] = {}
        for idx, toks in enumerate(self.doc_tokens):
            for term, tf in Counter(toks).items():
                self.postings.setdefault(term, {})[idx] = tf
        n = len(self.pairs)
        self.idf = {
            term: math.log((n - len(docs) + 0.5) / (len(docs) + 0.5) + 1.0)
            for term, docs in self.postings.items()
        }

    def score_document(self, query_tokens: list[str], doc_index: int) -> float:
        dl = self.doc_lens[doc_index]
        norm = self.k1 * (1.0 - self.b + self.b * dl / self.avgdl) if self.avgdl else 0.0
        score = 0.0
        for term in query_tokens:
            docs = self.postings.get(term)
            if not docs:
                continue
            tf = docs.get(doc_index, 0)
            if tf:
                score += self.idf[term] * tf * (self.k1 + 1.0) / (tf + norm)
        return score


def bm25_retrieve(index: Bm25Index, query: str, k: int) -> list[RetrievedExample]:
    """Top-k by BM25 score; zero-score documents are dropped."""
    if k < 1:
        raise ValueError("k must be >= 1")
    if not index.pairs:
        raise ValueError("BM25 index is empty")
    query_tokens = word_tokenize(query)
    # only documents sharing a term can score > 0
    candidates: set[int] = set()
    for term in set(query_tokens):
        candidates.update(index.postings.get(term, ()))
    scored = [
        (index.score_document(query_tokens, idx), idx)
        for idx in candidates
    ]
    scored = [(s, idx) for s, idx in scored if s > 0.0]
    scored.sort(key=lambda item: (-item[0], index.pairs[item[1]].id))
    return [
        RetrievedExample(pair=index.pairs[idx], score=s, strategy="BM25")
        for s, idx in scored[:k]
    ]


# ---------------------------------------------------------------------------
# Dense retrieval


class EmbeddingIndex:
    """Unit-normalized embedding matrix aligned with a pair list."""

    def __init__(self, pairs: list[ParallelPair], vectors: np.ndarray, provider_fingerprint: str):
        vectors = np.asarray(vectors, dtype=np.float64)
        if vectors.ndim != 2 or vectors.shape[0] != len(pairs):
            raise ValueError(
                f"need one vector per pair: {vectors.shape[0]} vectors, {len(pairs)} pairs"
            )
        norms = np.linalg.norm(vectors, axis=1)
        if not np.allclose(norms, 1.0, atol=1e-6):
            raise ValueError("embedding vectors must be unit-normalized")
        self.pairs = list(pairs)
        self.vectors = vectors
        self.dimension = vectors.shape[1]
        self.provider_fingerprint = provider_fingerprint


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
    candidates = range(len(scores))
    if k < len(scores):
        # every index scoring at least the k-th best, so ties at the cut all compete
        kth = scores[np.argpartition(-scores, k - 1)[k - 1]]
        candidates = np.flatnonzero(scores >= kth)
    order = sorted(candidates, key=lambda i: (-scores[i], index.pairs[i].id))
    return [
        RetrievedExample(pair=index.pairs[i], score=float(scores[i]), strategy="DENSE")
        for i in order[:k]
    ]


# ---------------------------------------------------------------------------
# ChrF-counterweighted greedy retrieval


def chrf_counterweighted_retrieve(
    pairs: list[ParallelPair],
    query: str,
    k: int,
    gamma: float = 0.5,
    n_min: int = 2,
    n_max: int = 6,
) -> list[RetrievedExample]:
    """Greedy diverse selection by character n-gram overlap with the query.

    Each query n-gram carries a residual weight (initially 1.0). A candidate
    scores the sum of residual weights of its distinct n-grams shared with
    the query, divided by the candidate's distinct n-gram count. Selecting a
    candidate decays the residual weight of every shared query n-gram by
    gamma, steering later picks toward uncovered material. A candidate whose
    source text is byte-identical to an already selected one is skipped while
    any distinct candidate still has positive score.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if not query.strip():
        raise ValueError("query must be non-empty")
    query_grams = set(char_ngrams(query, n_min, n_max))
    weights = {g: 1.0 for g in query_grams}

    profiles = []
    for idx, pair in enumerate(pairs):
        grams = set(char_ngrams(pair.source_text, n_min, n_max))
        profiles.append((idx, pair, grams, grams & query_grams))

    selected: list[RetrievedExample] = []
    selected_texts: set[str] = set()
    remaining = list(profiles)
    while remaining and len(selected) < k:
        best = None
        best_dup = None
        for idx, pair, grams, shared in remaining:
            if not grams:
                score = 0.0
            else:
                score = sum(weights[g] for g in shared) / len(grams)
            key = (-score, pair.id)
            if gamma < 1.0 and pair.source_text in selected_texts:
                if best_dup is None or key < best_dup[0]:
                    best_dup = (key, idx, pair, shared, score)
            else:
                if best is None or key < best[0]:
                    best = (key, idx, pair, shared, score)
        if best is None or (best[4] <= 0.0 and best_dup is not None and best_dup[4] > 0.0):
            best = best_dup
        if best is None:
            break
        _, idx, pair, shared, score = best
        selected.append(RetrievedExample(pair=pair, score=score, strategy="CHRF_CW"))
        selected_texts.add(pair.source_text)
        for g in shared:
            weights[g] *= gamma
        remaining = [item for item in remaining if item[0] != idx]
    return selected


# ---------------------------------------------------------------------------
# Fuzzy word matching


def _pattern_masks(pattern: str) -> dict[str, int]:
    """Bit i of masks[c] is set where pattern[i] == c."""
    masks: dict[str, int] = {}
    for i, ch in enumerate(pattern):
        masks[ch] = masks.get(ch, 0) | (1 << i)
    return masks


def _bit_distance(masks: dict[str, int], m: int, text: str) -> int:
    """Edit distance between a pattern of length m >= 1 (given by its masks)
    and text: Myers' bit-vector recurrence in Hyyrö's edit-distance form.

    Column j of the DP matrix is held as two bit vectors of vertical deltas
    (+1 in pv, -1 in mv); the distance is tracked at the last row. Python
    ints make the word as wide as the pattern.
    """
    full = (1 << m) - 1
    last = 1 << (m - 1)
    pv, mv, dist = full, 0, m
    for ch in text:
        eq = masks.get(ch, 0)
        xv = eq | mv
        xh = (((eq & pv) + pv) ^ pv) | eq
        ph = mv | ~(xh | pv)
        mh = pv & xh
        if ph & last:
            dist += 1
        elif mh & last:
            dist -= 1
        # row 0 of the edit-distance matrix grows by one per column
        ph = (ph << 1) | 1
        mh <<= 1
        pv = (mh | ~(xv | ph)) & full
        mv = ph & xv
    return dist


def levenshtein(a: str, b: str) -> int:
    """Classic edit distance (insert/delete/substitute, unit costs).

    Bit-parallel (Myers 1999, J. ACM 46(3); Hyyrö 2001): one pass over the
    shorter string, with the longer one as the bit pattern.
    """
    if a == b:
        return 0
    if len(a) < len(b):
        a, b = b, a
    if not b:
        return len(a)
    return _bit_distance(_pattern_masks(a), len(a), b)


def normalized_levenshtein(a: str, b: str) -> float:
    """1 - distance / max length, in [0, 1]; 1.0 when both strings empty."""
    if not a and not b:
        return 1.0
    return 1.0 - levenshtein(a, b) / max(len(a), len(b))


class _TokenMatcher:
    """Distinct strings of a pool or lexicon, indexed for fuzzy lookups.

    ``postings`` maps each string to the indices of the items carrying it,
    in input order; ``empty`` lists the items that carry none. Strings are
    grouped by length so a lookup skips every length whose similarity bound
    1 - |len(a) - len(b)| / max(len) is below the threshold: the edit
    distance is at least the length difference, so the skip is exact.
    Lookups are memoised per (token, threshold) for the matcher's life.
    """

    def __init__(self, items: list, strings_per_item):
        self.items = list(items)
        self.postings: dict[str, list[int]] = {}
        self.empty: list[int] = []
        for idx, strings in enumerate(strings_per_item):
            if not strings:
                self.empty.append(idx)
            for s in strings:
                self.postings.setdefault(s, []).append(idx)
        self._by_length: dict[int, list[str]] = {}
        for s in self.postings:
            self._by_length.setdefault(len(s), []).append(s)
        self._memo: dict[tuple[str, float], list[tuple[str, float]]] = {}

    @classmethod
    def over_pairs(cls, pairs: list[ParallelPair]) -> "_TokenMatcher":
        """Distinct source-side ``word_tokenize`` types of each pair."""
        return cls(pairs, (set(word_tokenize(p.source_text)) for p in pairs))

    @classmethod
    def over_lexicon(cls, lexicon: list[LexiconEntry]) -> "_TokenMatcher":
        """The lowered headword of each entry."""
        return cls(lexicon, ((e.source_word.lower(),) for e in lexicon))

    def matches(self, token: str, threshold: float) -> list[tuple[str, float]]:
        """Indexed strings s with normalized_levenshtein(token, s) >= threshold,
        paired with that similarity; ``token`` must be non-empty."""
        key = (token, threshold)
        found = self._memo.get(key)
        if found is None:
            found = []
            m = len(token)
            masks = _pattern_masks(token)
            for length, strings in self._by_length.items():
                longest = max(m, length)
                if 1.0 - abs(m - length) / longest < threshold:
                    continue
                for s in strings:
                    sim = 1.0 - _bit_distance(masks, m, s) / longest
                    if sim >= threshold:
                        found.append((s, sim))
            self._memo[key] = found
        return found


def fuzzy_word_retrieve(
    pairs: list[ParallelPair] | _TokenMatcher,
    query: str,
    n: int,
    threshold: float = 0.5,
) -> list[RetrievedExample]:
    """Per query word, the top-n sentences by best-token fuzzy similarity.

    Results are unioned across query words and deduplicated by pair id
    (keeping the highest score and its matched token), so the effective
    volume scales with sentence length: at most n * len(query tokens).

    ``pairs`` may be an index built once over the pool and reused across
    queries (``_TokenMatcher.over_pairs``); a plain list builds one for this
    call.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    index = pairs if isinstance(pairs, _TokenMatcher) else _TokenMatcher.over_pairs(pairs)
    pairs = index.items

    best_by_id: dict[str, RetrievedExample] = {}
    for token in word_tokenize(query):
        doc_best: dict[int, float] = {}
        for s, sim in index.matches(token, threshold):
            for idx in index.postings[s]:
                if sim > doc_best.get(idx, -1.0):
                    doc_best[idx] = sim
        if threshold <= 0.0:
            # a pair without tokens scores 0.0, which then qualifies
            doc_best.update(dict.fromkeys(index.empty, 0.0))
        top = heapq.nsmallest(
            n, doc_best.items(), key=lambda item: (-item[1], pairs[item[0]].id, item[0])
        )
        for idx, sim in top:
            pair = pairs[idx]
            existing = best_by_id.get(pair.id)
            if existing is None or sim > existing.score:
                best_by_id[pair.id] = RetrievedExample(
                    pair=pair, score=sim, strategy="FUZZY_WORD", matched_token=token
                )
    results = list(best_by_id.values())
    results.sort(key=lambda r: (-r.score, r.pair.id))
    return results


# ---------------------------------------------------------------------------
# One entry point for the sentence strategies


class Retriever:
    """One sentence strategy over a pool, queried sentence by sentence.

    ``strategy`` is BM25, DENSE, CHRF_CW or FUZZY_WORD. The strategy's
    index (BM25, the pool's embeddings via ``provider.embed``, or the fuzzy
    token index) is built on the first query and reused for every later
    one; CHRF_CW needs none. ``gamma`` is CHRF_CW's counterweight.
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

    def _build_index(self):
        if self.strategy == "BM25":
            return Bm25Index(self.pairs)
        if self.strategy == "DENSE":
            batch = self.provider.embed([p.source_text for p in self.pairs])
            return EmbeddingIndex(self.pairs, batch.vectors, self.provider.fingerprint)
        if self.strategy == "FUZZY_WORD":
            return _TokenMatcher.over_pairs(self.pairs)
        return self.pairs

    def retrieve(self, query: str, size: int) -> list[RetrievedExample]:
        """The examples for one query; ``size`` is k, or n for FUZZY_WORD."""
        if self._index is None:
            self._index = self._build_index()
        if self.strategy == "BM25":
            return bm25_retrieve(self._index, query, size)
        if self.strategy == "DENSE":
            query_vector = self.provider.embed([query]).vectors[0]
            return dense_retrieve(self._index, query_vector, size)
        if self.strategy == "CHRF_CW":
            return chrf_counterweighted_retrieve(self._index, query, size, gamma=self.gamma)
        return fuzzy_word_retrieve(self._index, query, size)


# ---------------------------------------------------------------------------
# Lexicon retrieval


def lexicon_fuzzy_retrieve(
    lexicon: list[LexiconEntry] | _TokenMatcher,
    query: str,
    n: int,
    threshold: float = 0.5,
) -> list[RetrievedLexicon]:
    """Per query word, the top-n lexicon entries by fuzzy headword match.

    Entries tied on (score, headword) keep their input order. ``lexicon``
    may be an index built once over the headwords and reused across queries
    (``_TokenMatcher.over_lexicon``); a plain list builds one for this call.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    index = lexicon if isinstance(lexicon, _TokenMatcher) else _TokenMatcher.over_lexicon(lexicon)
    entries = index.items
    best: dict[tuple, RetrievedLexicon] = {}
    for token in word_tokenize(query):
        scored = [
            (idx, sim) for s, sim in index.matches(token, threshold) for idx in index.postings[s]
        ]
        top = heapq.nsmallest(
            n, scored, key=lambda item: (-item[1], entries[item[0]].source_word, item[0])
        )
        for idx, sim in top:
            entry = entries[idx]
            key = (entry.source_word, entry.pos, entry.target_word)
            if key not in best or sim > best[key].score:
                best[key] = RetrievedLexicon(entry=entry, score=sim, query_word=token)
    results = list(best.values())
    results.sort(key=lambda r: (-r.score, r.entry.source_word))
    return results


def lexicon_full(lexicon: list[LexiconEntry]) -> list[RetrievedLexicon]:
    """The whole dictionary as static context, input order preserved."""
    return [RetrievedLexicon(entry=e, score=1.0, query_word="") for e in lexicon]
