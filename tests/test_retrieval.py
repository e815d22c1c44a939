from __future__ import annotations

import importlib.util
import json
import math
import os
import random
import subprocess
import sys
from collections import Counter
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from conftest import REPO_ROOT, WORDS, make_pairs
from ragmt import retrieval
from ragmt.corpus import LexiconEntry, ParallelPair, load_parallel
from ragmt.retrieval import (
    Bm25Index,
    EmbeddingIndex,
    GramIndex,
    TokenIndex,
    _pattern_masks,
    _sorted_distinct,
    Retriever,
    _rank,
    _top,
    bm25_retrieve,
    chrf_counterweighted_retrieve,
    dense_retrieve,
    fuzzy_word_lists,
    fuzzy_word_retrieve,
    lexicon_full,
    lexicon_fuzzy_retrieve,
)
from ragmt.text import char_ngrams, word_tokenize


# ---------------------------------------------------------------------------
# Independent oracles (straightforward exhaustive implementations)


def bm25_oracle(pairs, query, k, k1=1.5, b=0.75):
    """Score every document from the raw formula; no inverted index."""
    docs = [word_tokenize(p.source_text) for p in pairs]
    n = len(docs)
    avgdl = sum(len(d) for d in docs) / n
    df = Counter()
    for d in docs:
        df.update(set(d))
    results = []
    for p, d in zip(pairs, docs):
        tf = Counter(d)
        score = 0.0
        for term in word_tokenize(query):
            if df[term] == 0 or tf[term] == 0:
                continue
            idf = math.log((n - df[term] + 0.5) / (df[term] + 0.5) + 1.0)
            score += idf * tf[term] * (k1 + 1) / (tf[term] + k1 * (1 - b + b * len(d) / avgdl))
        if score > 0:
            results.append((score, p.id))
    results.sort(key=lambda r: (-r[0], r[1]))
    return results[:k]


def dense_oracle(pairs, matrix, query, k):
    scored = []
    for p, row in zip(pairs, matrix):
        scored.append((float(sum(a * b for a, b in zip(row, query))), p.id))
    scored.sort(key=lambda r: (-r[0], r[1]))
    return scored[:k]


def dense_sort_oracle(index, query, k):
    """Sort every row by (-score, id), as dense retrieval first did."""
    scores = index.vectors @ query
    order = sorted(range(len(index.pairs)), key=lambda i: (-scores[i], index.pairs[i].id))
    return [(index.pairs[i].id, float(scores[i])) for i in order[:k]]


def edit_distance_oracle(a, b):
    """Full-matrix DP, written independently of the package implementation."""
    m, n = len(a), len(b)
    table = [[0] * (n + 1) for _ in range(m + 1)]
    for i in range(m + 1):
        table[i][0] = i
    for j in range(n + 1):
        table[0][j] = j
    for i in range(1, m + 1):
        for j in range(1, n + 1):
            table[i][j] = min(
                table[i - 1][j] + 1,
                table[i][j - 1] + 1,
                table[i - 1][j - 1] + (a[i - 1] != b[j - 1]),
            )
    return table[m][n]


def _bit_distance(masks, m, text):
    """Edit distance between a pattern of length m >= 1 (given by its masks)
    and text: Myers' bit-vector recurrence in Hyyrö's edit-distance form,
    the scalar form of ``TokenIndex``'s numpy kernel.

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


def levenshtein(a, b):
    """Edit distance by the scalar kernel ``_bit_distance``, with the longer
    string as the pattern; ``TestLevenshtein`` checks it against the DP
    oracle."""
    if a == b:
        return 0
    if len(a) < len(b):
        a, b = b, a
    if not b:
        return len(a)
    return _bit_distance(_pattern_masks(a), len(a), b)


def normalized_levenshtein(a, b):
    """1 - distance / max length, in [0, 1]; 1.0 when both strings empty."""
    if not a and not b:
        return 1.0
    return 1.0 - levenshtein(a, b) / max(len(a), len(b))


def fuzzy_oracle(pairs, query, n, threshold=0.5):
    """Brute force over all (token, sentence) pairs."""
    best = {}
    for token in word_tokenize(query):
        scored = []
        for p in pairs:
            sims = [
                1 - edit_distance_oracle(token, t) / max(len(token), len(t))
                for t in set(word_tokenize(p.source_text))
            ]
            sim = max(sims, default=0.0)
            if sim >= threshold:
                scored.append((sim, p.id))
        scored.sort(key=lambda r: (-r[0], r[1]))
        for sim, pid in scored[:n]:
            if pid not in best or sim > best[pid]:
                best[pid] = sim
    return sorted(((s, pid) for pid, s in best.items()), key=lambda r: (-r[0], r[1]))


def fuzzy_token_oracle(pairs, token, n, threshold):
    """One query token's top-n pairs as (similarity, pair id), best first,
    ties by pair id, then input position."""
    scored = []
    for p in pairs:
        sims = [
            1 - edit_distance_oracle(token, t) / max(len(token), len(t))
            for t in set(word_tokenize(p.source_text))
        ]
        sim = max(sims, default=0.0)
        if sim >= threshold:
            scored.append((sim, p.id))
    scored.sort(key=lambda r: (-r[0], r[1]))
    return scored[:n]


def fuzzy_word_oracle(pairs, query, n, threshold):
    """fuzzy_oracle, also keeping the query token each pair was kept for."""
    best = {}
    for token in word_tokenize(query):
        for sim, pid in fuzzy_token_oracle(pairs, token, n, threshold):
            if pid not in best or sim > best[pid][0]:
                best[pid] = (sim, token)
    ranked = sorted(best.items(), key=lambda item: (-item[1][0], item[0]))
    return [(pid, sim, token) for pid, (sim, token) in ranked]


def lexicon_fuzzy_oracle(lexicon, query, n, threshold):
    """Brute force over all (token, entry) pairs against lowered headwords;
    entries tied on (score, headword) stay in input order."""
    best = {}
    for token in word_tokenize(query):
        scored = []
        for e in lexicon:
            head = e.source_word.lower()
            sim = 1 - edit_distance_oracle(token, head) / max(len(token), len(head))
            if sim >= threshold:
                scored.append((sim, e))
        scored.sort(key=lambda r: (-r[0], r[1].source_word))
        for sim, e in scored[:n]:
            key = (e.source_word, e.pos, e.target_word)
            if key not in best or sim > best[key][0]:
                best[key] = (sim, e, token)
    return sorted(best.values(), key=lambda r: (-r[0], r[1].source_word))


def chrf_cw_oracle(pairs, query, k, gamma=0.5):
    """Reference greedy loop, every score recomputed each round. A query
    n-gram decayed c times weighs gamma^c (c repeated products); a pair's
    shared n-grams are summed as count_c * gamma^c in ascending c."""
    qgrams = set(char_ngrams(query, 2, 6))
    decays = dict.fromkeys(qgrams, 0)
    weights = [1.0]
    pool = {p.id: p for p in pairs}
    picked = []
    while pool and len(picked) < k:
        scores = {}
        for pid, p in pool.items():
            grams = set(char_ngrams(p.source_text, 2, 6))
            per_decay = Counter(decays[g] for g in grams & qgrams)
            scores[pid] = (
                sum(n * weights[c] for c, n in sorted(per_decay.items())) / len(grams)
                if grams else 0.0
            )
        pid = min(pool, key=lambda i: (-scores[i], i))
        picked.append((pid, scores[pid]))
        for g in set(char_ngrams(pool[pid].source_text, 2, 6)) & qgrams:
            decays[g] += 1
        weights.append(weights[-1] * gamma)
        del pool[pid]
    return picked


def chrf_cw_dedup_oracle(pairs, query, k, gamma):
    """chrf_cw_oracle with the duplicate rule: while gamma < 1, a pair whose
    text was already picked is taken only when no other pair scores above
    0 and it does; ties break by (id, input position)."""
    qgrams = set(char_ngrams(query, 2, 6))
    decays = dict.fromkeys(qgrams, 0)
    weights = [1.0]
    pool = list(enumerate(pairs))
    picked, texts = [], set()
    while pool and len(picked) < k:
        scored = []
        for pos, p in pool:
            grams = set(char_ngrams(p.source_text, 2, 6))
            per_decay = Counter(decays[g] for g in grams & qgrams)
            score = (sum(n * weights[c] for c, n in sorted(per_decay.items())) / len(grams)
                     if grams else 0.0)
            scored.append(((-score, p.id, pos), score, p))
        fresh = [s for s in scored if gamma >= 1.0 or s[2].source_text not in texts]
        seen = [s for s in scored if gamma < 1.0 and s[2].source_text in texts]
        best = min(fresh, default=None)
        best_seen = min(seen, default=None)
        if best is None or (best[1] <= 0.0 and best_seen is not None and best_seen[1] > 0.0):
            best = best_seen
        (_, _, pos), score, p = best
        picked.append((p.id, score))
        texts.add(p.source_text)
        for g in set(char_ngrams(p.source_text, 2, 6)) & qgrams:
            decays[g] += 1
        weights.append(weights[-1] * gamma)
        pool = [item for item in pool if item[0] != pos]
    return picked


# ---------------------------------------------------------------------------
# Drawn pools and queries


# Words with non-ASCII and upper-case letters, and a punctuation-only word
# that tokenizes to nothing; few letters, so fuzzy matches are common.
_words = st.text(alphabet="abcéñÉ", min_size=1, max_size=6) | st.just("!!")
_texts = st.lists(_words, min_size=1, max_size=5).map(" ".join)


@st.composite
def _pools(draw):
    """Pairs with ids out of input order, token-less and duplicate source texts."""
    texts = draw(st.lists(_texts, min_size=1, max_size=6))
    sources = draw(st.lists(st.sampled_from(texts), min_size=1, max_size=10))
    order = draw(st.permutations(range(len(sources))))
    return [ParallelPair(f"p{j:02d}", src, "t", "NT") for j, src in zip(order, sources)]


@st.composite
def _queries(draw, vocabulary):
    """Queries mixing pool words, repeated tokens and unseen words."""
    words = draw(st.lists(st.sampled_from(vocabulary) | _words, max_size=6))
    repeats = draw(st.lists(st.sampled_from(words), max_size=2)) if words else []
    return " ".join(words + repeats)


class _SharedId(str):
    """A pair id that other pairs of a pool may share, tagged with its pair's
    input position. It compares and hashes as the plain id, so equal ids
    still tie and merge, but a result shows which of the equal-id pairs it
    is."""

    def __new__(cls, value, pos):
        self = super().__new__(cls, value)
        self.pos = pos
        return self


@st.composite
def _duplicate_id_pools(draw, pools):
    """A pool from ``pools`` whose pairs take their ids from three:
    ``load_parallel`` rejects such a pool, but the index API accepts it."""
    pairs = draw(pools)
    ids = draw(st.lists(st.sampled_from("abc"), min_size=len(pairs), max_size=len(pairs)))
    return [ParallelPair(_SharedId(i, pos), p.source_text, p.target_text, p.origin)
            for pos, (i, p) in enumerate(zip(ids, pairs))]


# ---------------------------------------------------------------------------
# The ranking rule


class TestTop:
    """``_top`` over a ``_rank`` is the one rule every retriever cuts its top
    list with: best score first, ties by key, then input position."""

    @given(st.data(), st.lists(st.sampled_from([0.0, -0.0, 0.25, 1.0, -1.0]), max_size=12))
    def test_matches_sorted_oracle(self, data, scores):
        n = len(scores)
        keys = data.draw(st.lists(st.integers(0, 2), min_size=n, max_size=n))
        keep = data.draw(st.none() | st.lists(st.booleans(), min_size=n, max_size=n))
        k = data.draw(st.integers(1, n + 2))
        kept = [i for i in range(n) if keep is None or keep[i]]
        want = sorted(kept, key=lambda i: (-scores[i], keys[i], i))[:k]
        got = _top(np.array(scores, dtype=np.float64), _rank(keys), k,
                   keep=None if keep is None else np.array(keep, dtype=bool))
        assert got.tolist() == want

    def test_empty_input(self):
        assert _rank([]).tolist() == []
        assert _top(np.zeros(0), _rank([]), 3).tolist() == []
        assert _top(np.ones(2), _rank("ab"), 1, keep=np.zeros(2, dtype=bool)).tolist() == []


# ---------------------------------------------------------------------------
# BM25


class TestBm25:
    def test_exact_document_ranked_first(self):
        pairs = [
            ParallelPair("a", "alpha beta gamma", "t", "NT"),
            ParallelPair("b", "delta epsilon zeta", "t", "NT"),
            ParallelPair("c", "eta theta iota", "t", "NT"),
        ]
        results = bm25_retrieve(Bm25Index(pairs), "alpha beta gamma", 3)
        assert results[0].pair.id == "a"

    def test_no_shared_terms_empty(self):
        pairs = make_pairs(20, seed=0)
        assert bm25_retrieve(Bm25Index(pairs), "zzz qqq", 5) == []

    def test_matches_bruteforce_oracle(self):
        pairs = make_pairs(200, seed=3)
        index = Bm25Index(pairs)
        rng = random.Random(5)
        for _ in range(20):
            query = " ".join(rng.choice(WORDS) for _ in range(6))
            got = [(r.score, r.pair.id) for r in bm25_retrieve(index, query, 10)]
            assert got == bm25_oracle(pairs, query, 10)

    @given(st.data(), _pools(), st.integers(1, 6))
    def test_matches_oracle_on_drawn_pools(self, data, pairs, k):
        # repeated query tokens count twice, token-less and duplicate texts,
        # ids out of input order, queries with no hit
        vocabulary = [t for p in pairs for t in p.source_text.split()] or ["a"]
        index = Bm25Index(pairs)
        for _ in range(3):
            query = data.draw(_queries(vocabulary))
            got = [(r.score, r.pair.id) for r in bm25_retrieve(index, query, k)]
            assert got == bm25_oracle(pairs, query, k)

    def test_prefix_property(self):
        pairs = make_pairs(100, seed=9)
        index = Bm25Index(pairs)
        small = bm25_retrieve(index, "father water light", 5)
        large = bm25_retrieve(index, "father water light", 6)
        assert [r.pair.id for r in small] == [r.pair.id for r in large][:5]

    def test_k_zero_rejected(self):
        with pytest.raises(ValueError):
            bm25_retrieve(Bm25Index(make_pairs(5, seed=0)), "father", 0)


# ---------------------------------------------------------------------------
# Dense


def _unit_rows(n, d, seed):
    rng = np.random.default_rng(seed)
    m = rng.normal(size=(n, d))
    return m / np.linalg.norm(m, axis=1, keepdims=True)


class TestDense:
    def test_stored_row_scores_one(self):
        pairs = make_pairs(10, seed=0)
        vectors = _unit_rows(10, 8, seed=1)
        index = EmbeddingIndex(pairs, vectors)
        results = dense_retrieve(index, vectors[4], 1)
        assert results[0].pair.id == pairs[4].id
        assert results[0].score == pytest.approx(1.0)

    def test_orthogonal_query_stable_id_order(self):
        pairs = [ParallelPair(f"p{i}", f"s{i}", f"t{i}", "NT") for i in range(4)]
        vectors = np.eye(5)[:4]
        index = EmbeddingIndex(pairs, vectors)
        results = dense_retrieve(index, np.eye(5)[4], 4)
        assert [r.pair.id for r in results] == ["p0", "p1", "p2", "p3"]
        assert all(r.score == 0.0 for r in results)

    def test_matches_exhaustive_oracle(self):
        pairs = make_pairs(50, seed=2)
        vectors = _unit_rows(50, 16, seed=3)
        index = EmbeddingIndex(pairs, vectors)
        rng = np.random.default_rng(4)
        for _ in range(10):
            q = rng.normal(size=16)
            q /= np.linalg.norm(q)
            got = [(r.score, r.pair.id) for r in dense_retrieve(index, q, 5)]
            want = dense_oracle(pairs, vectors, q, 5)
            assert [g[1] for g in got] == [w[1] for w in want]

    @given(st.data(), st.integers(1, 25), st.integers(1, 27))
    def test_partial_selection_matches_full_sort(self, data, size, k):
        # rows drawn from a few directions, so duplicate vectors tie and the
        # ties straddle the k-th place; ids out of input order
        palette = _unit_rows(4, 3, seed=5)
        rows = data.draw(st.lists(st.integers(0, 3), min_size=size, max_size=size))
        order = data.draw(st.permutations(range(size)))
        pairs = [ParallelPair(f"p{j:02d}", "s", "t", "NT") for j in order]
        index = EmbeddingIndex(pairs, palette[rows])
        query = palette[data.draw(st.integers(0, 3))]
        got = [(r.pair.id, r.score) for r in dense_retrieve(index, query, k)]
        assert got == dense_sort_oracle(index, query, k)

    def test_dimension_mismatch_names_both(self):
        index = EmbeddingIndex(make_pairs(5, seed=0), _unit_rows(5, 8, 0))
        with pytest.raises(ValueError, match="3.*8"):
            dense_retrieve(index, np.ones(3) / math.sqrt(3), 2)

    def test_non_unit_vectors_rejected(self):
        with pytest.raises(ValueError, match="unit-normalized"):
            EmbeddingIndex(make_pairs(2, seed=0), np.ones((2, 4)))


# ---------------------------------------------------------------------------
# ChrF-counterweighted


# Few letters and spaces: many shared n-grams, exact ties, duplicate texts
# and texts without any n-gram ("a", " a"); "d" is never in a pool, and a
# pool text is never blank, which ParallelPair rejects.
_cw_texts = st.text(alphabet="ab cd", min_size=1, max_size=8)
# Wider: accented, CJK and astral-plane characters, a lone surrogate, and
# whitespace that str.split() drops ("\t", "\x1c", "\x85", "\u2028",
# "\u3000"); "d" and "ü" are never in a pool.
_cw_wide_texts = st.text(alphabet="ab cdé漢\U0001F600\ud800ü\t\x1c\x85\u2028\u3000",
                         min_size=1, max_size=8)
_cw_queries = (_cw_texts | _cw_wide_texts).filter(str.strip)


@st.composite
def _cw_pools(draw):
    alphabet = draw(st.sampled_from([_cw_texts, _cw_wide_texts]))
    texts = draw(st.lists(alphabet.map(lambda t: t.replace("d", "a").replace("ü", "é"))
                          .filter(str.strip), min_size=1, max_size=5))
    sources = draw(st.lists(st.sampled_from(texts), min_size=1, max_size=8))
    order = draw(st.permutations(range(len(sources))))
    return [ParallelPair(f"p{j:02d}", src, "t", "NT") for j, src in zip(order, sources)]


class TestChrfCounterweighted:
    def test_k1_equals_plain_top1(self):
        pairs = make_pairs(30, seed=7)
        query = "father water light darkness"
        got = chrf_counterweighted_retrieve(GramIndex(pairs), query, 1)
        plain = chrf_cw_oracle(pairs, query, 1, gamma=1.0)
        assert got[0].pair.id == plain[0][0]

    def test_duplicate_suppression(self):
        # two byte-identical A's plus a partially overlapping B
        pairs = [
            ParallelPair("a1", "the light of the world", "t", "NT"),
            ParallelPair("a2", "the light of the world", "t", "NT"),
            ParallelPair("b", "the light shines", "t", "NT"),
        ]
        got = chrf_counterweighted_retrieve(GramIndex(pairs), "the light of the world", 2,
                                            gamma=0.5)
        texts = [r.pair.source_text for r in got]
        assert len(set(texts)) == 2
        assert "the light shines" in texts

    def test_matches_reference_greedy(self):
        pairs = make_pairs(10, seed=11)
        query = "father mother water light sea"
        got = chrf_counterweighted_retrieve(GramIndex(pairs), query, 3, gamma=0.5)
        want = chrf_cw_oracle(pairs, query, 3, gamma=0.5)
        assert [(r.pair.id) for r in got] == [w[0] for w in want]
        for r, w in zip(got, want):
            assert r.score == pytest.approx(w[1])

    def test_gamma_one_is_plain_ranking(self):
        pairs = make_pairs(40, seed=13)
        query = "shepherd sheep mountain river"
        got = chrf_counterweighted_retrieve(GramIndex(pairs), query, 10, gamma=1.0)
        want = chrf_cw_oracle(pairs, query, 10, gamma=1.0)
        assert [r.pair.id for r in got] == [w[0] for w in want]

    def test_prefix_property(self):
        pairs = make_pairs(30, seed=17)
        query = "voice word heart"
        index = GramIndex(pairs)
        small = chrf_counterweighted_retrieve(index, query, 4)
        large = chrf_counterweighted_retrieve(index, query, 5)
        assert [r.pair.id for r in small] == [r.pair.id for r in large][:4]

    def test_empty_query_rejected(self):
        with pytest.raises(ValueError):
            chrf_counterweighted_retrieve(GramIndex(make_pairs(5, seed=0)), "  ", 2)

    @given(st.data(), _cw_pools(), st.sampled_from([0.3, 0.5, 0.7, 1.0]), st.integers(1, 10))
    def test_shared_index_matches_oracle(self, data, pairs, gamma, k):
        index = GramIndex(pairs)
        for _ in range(2):
            query = data.draw(_cw_queries)
            got = chrf_counterweighted_retrieve(index, query, k, gamma=gamma)
            assert [(r.pair.id, r.score) for r in got] == chrf_cw_dedup_oracle(pairs, query, k,
                                                                                gamma)

    @pytest.mark.parametrize("gamma", [0.3, 0.7])
    def test_matches_oracle_exactly_off_powers_of_two(self, gamma):
        # weights that are not powers of two round differently when summed
        # in another order, so exact scores pin the summation order
        pairs = make_pairs(150, seed=19)
        index = GramIndex(pairs)
        rng = random.Random(gamma)
        for _ in range(3):
            query = " ".join(rng.choice(WORDS) for _ in range(6))
            got = chrf_counterweighted_retrieve(index, query, 10, gamma=gamma)
            assert [(r.pair.id, r.score) for r in got] == chrf_cw_oracle(pairs, query, 10, gamma)

    @pytest.mark.parametrize("gamma", [-2.0, -0.01, 1.5, float("nan"), float("inf")])
    def test_gamma_outside_unit_interval_rejected(self, gamma):
        with pytest.raises(ValueError, match="gamma"):
            chrf_counterweighted_retrieve(GramIndex(make_pairs(5, seed=0)), "water", 2,
                                          gamma=gamma)

    @pytest.mark.parametrize("gamma", [0.0, 1.0])
    def test_gamma_bounds_match_oracle(self, gamma):
        pairs = make_pairs(40, seed=23)
        query = "father water light darkness"
        got = chrf_counterweighted_retrieve(GramIndex(pairs), query, 6, gamma=gamma)
        assert [(r.pair.id, r.score) for r in got] == chrf_cw_dedup_oracle(pairs, query, 6, gamma)

    def test_scores_do_not_depend_on_the_hash_seed(self):
        # gamma 0.3 and 0.7 give weights whose float sums round differently
        # in different orders; set order follows PYTHONHASHSEED
        script = f"""
import json, random
from ragmt.corpus import ParallelPair
from ragmt.retrieval import GramIndex, chrf_counterweighted_retrieve
rng = random.Random(0)
words = {WORDS!r}
index = GramIndex([
    ParallelPair(f"d{{i:03d}}", " ".join(rng.choice(words) for _ in range(8)), "t", "NT")
    for i in range(150)
])
out = []
for gamma in (0.3, 0.7):
    for _ in range(4):
        query = " ".join(rng.choice(words) for _ in range(6))
        out.append([(r.pair.id, r.score.hex())
                    for r in chrf_counterweighted_retrieve(index, query, 10, gamma=gamma)])
print(json.dumps(out))
"""
        path = os.pathsep.join([str(REPO_ROOT / "src"), os.environ.get("PYTHONPATH", "")])
        runs = [
            json.loads(subprocess.run(
                [sys.executable, "-c", script], capture_output=True, text=True, check=True,
                env={**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": path},
            ).stdout)
            for seed in ("0", "1")
        ]
        assert runs[0] == runs[1]
        assert len(runs[0]) == 8 and all(len(ids) == 10 for ids in runs[0])


def check_gram_index(pairs, queries):
    """GramIndex against char_ngrams: per-pair sizes and n-gram lists, each
    n-gram's holders, and each query's n-gram ids."""
    index = GramIndex(pairs)
    held = [set(char_ngrams(p.source_text, 2, 6)) for p in pairs]
    pool = set().union(*held)
    # an n-gram's own id is the highest among the pool n-grams it holds
    ids = {g: int(index.gram_ids(g).max()) for g in pool}
    assert sorted(ids.values()) == list(range(len(pool))) == list(range(len(index.starts) - 1))
    for i, grams in enumerate(held):
        assert index.sizes[i] == len(char_ngrams(pairs[i].source_text, 2, 6))
        assert (index.grams[index.bounds[i]:index.bounds[i + 1]].tolist()
                == sorted(ids[g] for g in grams))
    for g, gid in ids.items():
        assert (index.holders[index.starts[gid]:index.starts[gid + 1]].tolist()
                == [i for i, grams in enumerate(held) if g in grams])
    for query in queries:
        assert (index.gram_ids(query).tolist()
                == sorted(ids[g] for g in set(char_ngrams(query, 2, 6)) & pool))


class TestGramIndex:
    @given(st.sampled_from([np.int32, np.int64]).flatmap(lambda dtype: st.lists(
        st.integers(int(np.iinfo(dtype).min), int(np.iinfo(dtype).max))
        | st.integers(-3, 3),  # duplicate-heavy
        max_size=40,
    ).map(lambda values: np.array(values, dtype=dtype))))
    @example(np.array([], dtype=np.int32))
    @example(np.array([], dtype=np.int64))
    def test_sorted_distinct_equals_unique(self, values):
        got = _sorted_distinct(values)
        want = np.unique(values)
        assert got.dtype == want.dtype
        assert got.tolist() == want.tolist()

    @given(_cw_pools(), st.lists(_cw_queries, max_size=3))
    def test_matches_char_ngrams(self, pairs, queries):
        check_gram_index(pairs, queries)

    def test_words_pool(self):
        pairs = make_pairs(60, seed=29)
        check_gram_index(pairs, ["father water", "a", "zq", "日本語 ÿ", "wa\u3000ter\x1c"])

    def test_pool_without_ngrams(self):
        # one character per text: no pair holds an n-gram, so every score is
        # 0 and the picks follow the id order
        pairs = [ParallelPair(f"p{j}", text, "t", "NT")
                 for j, text in zip([3, 0, 2, 1], ["b", " a ", "\U0001F600", "\ud800"])]
        check_gram_index(pairs, ["ab", "a", "\U0001F600\U0001F600"])
        got = chrf_counterweighted_retrieve(GramIndex(pairs), "ab b", 4)
        assert [(r.pair.id, r.score) for r in got] == [(f"p{j}", 0.0) for j in range(4)]
        check_gram_index([], ["ab"])
        assert chrf_counterweighted_retrieve(GramIndex([]), "ab", 2) == []

    def test_query_without_pool_ngrams(self):
        # shorter than n_min, or only characters outside the pool's alphabet
        pairs = make_pairs(20, seed=31)
        index = GramIndex(pairs)
        for query in ["w", "日本語 ÿ"]:
            assert len(index.gram_ids(query)) == 0
            got = chrf_counterweighted_retrieve(index, query, 3)
            assert [(r.pair.id, r.score) for r in got] == chrf_cw_dedup_oracle(pairs, query, 3, 0.5)


# ---------------------------------------------------------------------------
# Levenshtein + fuzzy word retrieval


class TestLevenshtein:
    def test_identity(self):
        assert normalized_levenshtein("abc", "abc") == 1.0

    def test_kitten_sitting(self):
        assert levenshtein("kitten", "sitting") == 3
        assert normalized_levenshtein("kitten", "sitting") == pytest.approx(1 - 3 / 7)

    def test_empty_vs_nonempty(self):
        assert normalized_levenshtein("abc", "") == 0.0

    def test_both_empty(self):
        assert normalized_levenshtein("", "") == 1.0

    def test_against_dp_oracle(self):
        rng = random.Random(23)
        alphabet = "abcde"
        for _ in range(200):
            a = "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 8)))
            b = "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 8)))
            assert levenshtein(a, b) == edit_distance_oracle(a, b)

    def test_symmetry_and_bounds(self):
        rng = random.Random(29)
        for _ in range(50):
            a = "".join(rng.choice("xyz") for _ in range(rng.randint(1, 6)))
            b = "".join(rng.choice("xyz") for _ in range(rng.randint(1, 6)))
            assert normalized_levenshtein(a, b) == normalized_levenshtein(b, a)
            assert 0.0 <= normalized_levenshtein(a, b) <= 1.0

    @given(
        st.text(alphabet="abé漢 ", min_size=65, max_size=130),
        st.text(alphabet="abé漢 ", max_size=130),
        st.integers(0, 130),
        st.integers(0, 130),
    )
    @example("ab漢é" * 32 + "ab", "é", 0, 1)
    def test_against_dp_oracle_long_and_non_ascii(self, a, insert, start, stop):
        # a token longer than a 64-bit word, up to past 128 bits, looked up
        # in TokenIndex.matches; the second string is the first with one
        # span replaced, so distances stay small as well as large
        b = a[:start] + insert + a[stop:]
        sim = 1.0 - edit_distance_oracle(a, b) / max(len(a), len(b))
        assert TokenIndex([b], [[b]], str).matches([a], 0.0) == {a: [(b, sim)]}
        if b:
            assert TokenIndex([a], [[a]], str).matches([b], 0.0) == {b: [(a, sim)]}


_thresholds = st.lists(st.sampled_from([0.0, 0.5, 1.0]), min_size=1, max_size=4)

# Words of 60-75 characters, prefixes of one long word with an optional
# extra letter: long words match each other, some one edit apart, and
# tokens over 64 characters run as Python-int words.
_LONG = "abéab漢cab" * 9
_long_words = st.tuples(st.integers(60, 74), st.sampled_from(["", "a", "é", "漢"])).map(
    lambda t: _LONG[:t[0]] + t[1]
)
_pool_words = _words | _words | _long_words
_pool_texts = st.lists(_pool_words, min_size=1, max_size=4).map(" ".join)


@st.composite
def _match_pools(draw):
    """_pools, with long words among the short ones."""
    texts = draw(st.lists(_pool_texts, min_size=1, max_size=5))
    sources = draw(st.lists(st.sampled_from(texts), min_size=1, max_size=8))
    order = draw(st.permutations(range(len(sources))))
    return [ParallelPair(f"p{j:02d}", src, "t", "NT") for j, src in zip(order, sources)]


@st.composite
def _match_queries(draw, vocabulary):
    """Pool words, new short and long words, and words with characters no
    pool word has ("z", "ü")."""
    foreign = st.text(alphabet="azü", min_size=1, max_size=5).filter(lambda w: w.strip("a"))
    words = draw(st.lists(st.sampled_from(vocabulary) | _pool_words | foreign, max_size=6))
    repeats = draw(st.lists(st.sampled_from(words), max_size=2)) if words else []
    return " ".join(words + repeats)


def brute_matches(token, strings, threshold):
    """Every (string, similarity) at or above the threshold, by the DP oracle."""
    found = []
    for s in strings:
        sim = 1 - edit_distance_oracle(token, s) / max(len(token), len(s))
        if sim >= threshold:
            found.append((s, sim))
    return sorted(found)


def _load_generator():
    """perfbench/gen.py, the benchmark's input generator (read, not changed)."""
    spec = importlib.util.spec_from_file_location("perfbench_gen",
                                                  REPO_ROOT / "perfbench" / "gen.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _fuzzy_rows(results):
    return [(r.pair.id, r.score, r.matched_token) for r in results]


def _lexicon_rows(results):
    return [(r.score, id(r.entry), r.query_word) for r in results]


class TestFuzzyIndexProperties:
    """The indexed retrievers equal the brute-force oracles exactly: ids,
    float scores, matched tokens and order."""

    @given(st.data(), _pools(), st.integers(1, 4), _thresholds)
    def test_fuzzy_word_shared_index_matches_oracle(self, data, pairs, n, thresholds):
        vocabulary = [t for p in pairs for t in p.source_text.split()] or ["a"]
        index = TokenIndex.over_pairs(pairs)
        for threshold in thresholds:
            query = data.draw(_queries(vocabulary))
            want = fuzzy_word_oracle(pairs, query, n, threshold)
            assert _fuzzy_rows(fuzzy_word_retrieve(index, query, n, threshold)) == want

    @given(
        st.data(),
        st.lists(
            st.builds(LexiconEntry, _words.filter(str.isalpha), st.sampled_from("xy"),
                      st.sampled_from([None, "noun"])),
            min_size=1, max_size=12,
        ),
        st.integers(1, 4),
        _thresholds,
    )
    def test_lexicon_shared_index_matches_oracle(self, data, lexicon, n, thresholds):
        index = TokenIndex.over_lexicon(lexicon)
        for threshold in thresholds:
            query = data.draw(_queries([e.source_word for e in lexicon]))
            want = [(s, id(e), tok) for s, e, tok in lexicon_fuzzy_oracle(lexicon, query, n,
                                                                           threshold)]
            assert _lexicon_rows(lexicon_fuzzy_retrieve(index, query, n, threshold)) == want

    @given(st.data(), _match_pools(), st.integers(1, 3), _thresholds)
    def test_batched_matcher_matches_oracle(self, data, pairs, n, thresholds):
        # one pool matcher and one lexicon matcher over the same words, each
        # reused across queries and thresholds
        index = TokenIndex.over_pairs(pairs)
        types = sorted({t for p in pairs for t in word_tokenize(p.source_text)})
        lexicon = [LexiconEntry(t, "x") for t in types] or [LexiconEntry("a", "x")]
        lexicon_index = TokenIndex.over_lexicon(lexicon)
        vocabulary = [t for p in pairs for t in p.source_text.split()]
        for threshold in thresholds:
            query = data.draw(_match_queries(vocabulary))
            tokens = word_tokenize(query)
            found = index.matches(tokens, threshold)
            for token in tokens:
                assert sorted(found[token]) == brute_matches(token, types, threshold)
            assert _fuzzy_rows(fuzzy_word_retrieve(index, query, n, threshold)) == (
                fuzzy_word_oracle(pairs, query, n, threshold))
            want = [(s, id(e), tok) for s, e, tok in lexicon_fuzzy_oracle(lexicon, query, n,
                                                                           threshold)]
            assert _lexicon_rows(lexicon_fuzzy_retrieve(lexicon_index, query, n,
                                                        threshold)) == want

    def test_long_words_around_the_threshold(self):
        # one to fourteen edits apart, against thresholds that cut between
        # them, for tokens up to 64 characters (machine words) and over
        # (Python-int words, in batches of their own)
        words = [_LONG[:n] for n in range(60, 75)] + [_LONG[:66] + "é", "ab" * 40]
        pairs = [ParallelPair(f"p{i:02d}", w, "t", "NT") for i, w in enumerate(words)]
        index = TokenIndex.over_pairs(pairs)
        tokens = words + [_LONG[:70] + "zz", "é" * 65]
        distances = {(t, w): edit_distance_oracle(t, w) for t in tokens for w in words}
        for threshold in (0.0, 0.5, 0.97, 1.0):
            found = index.matches(tokens, threshold)
            for token in tokens:
                want = []
                for w in words:
                    sim = 1 - distances[token, w] / max(len(token), len(w))
                    if sim >= threshold:
                        want.append((w, sim))
                assert sorted(found[token]) == sorted(want)

    def test_generated_vocabulary_matches_brute_force(self, tmp_path):
        paths = _load_generator().generate(0, tmp_path, nt=40, grammar=4, test=4, lexicon=10)
        pool = load_parallel(paths["corpus"])
        types = sorted({t for p in pool for t in word_tokenize(p.source_text)})
        tokens = sorted({t for p in load_parallel(paths["test"])
                         for t in word_tokenize(p.source_text)})
        found = TokenIndex.over_pairs(pool).matches(tokens, 0.5)
        assert len(tokens) > 50 and len(types) > 200
        for token in tokens:
            assert sorted(found[token]) == brute_matches(token, types, 0.5)

    def test_memo_keyed_by_threshold(self):
        pairs = [ParallelPair("p1", "fathers", "t", "NT"), ParallelPair("p2", "!!", "t", "NT")]
        index = TokenIndex.over_pairs(pairs)
        assert _fuzzy_rows(fuzzy_word_retrieve(index, "father", 5, 1.0)) == []
        assert _fuzzy_rows(fuzzy_word_retrieve(index, "father", 5, 0.5)) == [
            ("p1", 1 - 1 / 7, "father")
        ]
        # a token-less pair qualifies at 0.0 only when the threshold allows it
        assert _fuzzy_rows(fuzzy_word_retrieve(index, "father", 5, 0.0)) == [
            ("p1", 1 - 1 / 7, "father"), ("p2", 0.0, "father")
        ]


class TestTopMemo:
    """``TokenIndex.top`` memoises each (token, n, threshold) list for the
    index's life."""

    @given(st.data(), _match_pools(),
           st.lists(st.tuples(st.integers(1, 4), st.sampled_from([-1.0, -0.0, 0.0, 0.5, 1.0])),
                    min_size=1, max_size=5))
    def test_memoised_equals_fresh(self, data, pairs, calls):
        index = TokenIndex.over_pairs(pairs)
        vocabulary = [t for p in pairs for t in p.source_text.split()]
        for n, threshold in calls:
            tokens = word_tokenize(data.draw(_match_queries(vocabulary)))
            memoised = index.top(tokens, n, threshold)
            fresh = TokenIndex.over_pairs(pairs).top(tokens, n, threshold)
            assert list(memoised.items()) == list(fresh.items())

    def test_repeated_token_ranked_once(self, monkeypatch):
        pairs = [ParallelPair("p1", "fathers said", "t", "NT"),
                 ParallelPair("p2", "father", "t", "NT")]
        index = TokenIndex.over_pairs(pairs)
        calls = []
        top = retrieval._top
        monkeypatch.setattr(retrieval, "_top", lambda *args, **kwargs: (
            calls.append(args[2]) or top(*args, **kwargs)))
        first = fuzzy_word_retrieve(index, "father said father", 2)
        assert calls == [2, 2]
        assert _fuzzy_rows(fuzzy_word_retrieve(index, "father", 2)) == (
            _fuzzy_rows(fuzzy_word_retrieve(TokenIndex.over_pairs(pairs), "father", 2)))
        assert _fuzzy_rows(fuzzy_word_retrieve(index, "said father", 2)) == _fuzzy_rows(first)
        assert calls == [2, 2, 2]  # the one from the fresh index
        fuzzy_word_retrieve(index, "father", 1)
        fuzzy_word_retrieve(index, "father", 2, threshold=0.0)
        assert calls == [2, 2, 2, 1, 2]


class TestLongTokens:
    """Tokens over 64 characters run through the same kernel as short ones,
    on Python-int words, in batches of their own."""

    @given(st.data(), _match_pools(), st.sampled_from([0.0, 0.5, 0.97]))
    def test_mixed_call_equals_each_token_alone(self, data, pairs, threshold):
        vocabulary = [t for p in pairs for t in p.source_text.split()]
        tokens = word_tokenize(data.draw(_match_queries(vocabulary)))
        tokens += data.draw(st.lists(_long_words.map(lambda w: w + "b" * 6), min_size=1,
                                     max_size=3))
        found = TokenIndex.over_pairs(pairs).matches(tokens, threshold)
        for token in tokens:
            alone = TokenIndex.over_pairs(pairs).matches([token], threshold)
            assert found[token] == alone[token]

    def test_long_tokens_batch_apart(self, monkeypatch):
        pairs = [ParallelPair(f"p{i}", w, "t", "NT")
                 for i, w in enumerate([_LONG[:70], _LONG[:40], "abé"])]
        index = TokenIndex.over_pairs(pairs)
        batches, lookup = [], index._lookup

        def recording_lookup(tokens, threshold):
            batches.append(tokens)
            lookup(tokens, threshold)

        monkeypatch.setattr(index, "_lookup", recording_lookup)
        short = [f"ab{i}" for i in range(40)]
        long = [_LONG[:n] for n in range(65, 71)]
        found = index.matches(short[:20] + long[:3] + short[20:] + long[3:], 0.5)
        # the short tokens keep their order and batch size; the long ones follow
        assert batches == [short[:32], short[32:], long]
        assert found[_LONG[:70]] == [(_LONG[:70], 1.0), (_LONG[:40], 1 - 30 / 70)]


class _PaletteEmbedder:
    """An embedding provider that maps the text "v<i>" to palette row i."""

    def __init__(self, palette):
        self.palette = palette

    def embed(self, texts):
        return SimpleNamespace(inputs=list(texts),
                               vectors=[self.palette[int(t[1:])] for t in texts])


class TestPrefixProperty:
    """A query planned once at the largest size and read at a smaller size s
    equals retrieving at s: ids, exact scores, matched tokens and order. A
    sweep relies on this to retrieve once for all its cells."""

    @given(st.data(), _pools(), st.integers(1, 6))
    def test_bm25(self, data, pairs, size):
        vocabulary = [t for p in pairs for t in p.source_text.split()] or ["a"]
        index = Bm25Index(pairs)
        retriever = Retriever("BM25", pairs)
        for _ in range(2):
            query = data.draw(_queries(vocabulary))
            prefixes = retriever.prefixes(query, size)
            for s in range(1, size + 1):
                assert _fuzzy_rows(prefixes(s)) == _fuzzy_rows(bm25_retrieve(index, query, s))

    @given(st.data(), st.integers(1, 25), st.integers(1, 27))
    def test_dense_with_ties_at_the_cut(self, data, count, size):
        # rows drawn from a few directions, so duplicate vectors tie at the
        # k-th place; ids out of input order
        palette = _unit_rows(4, 3, seed=5)
        rows = data.draw(st.lists(st.integers(0, 3), min_size=count, max_size=count))
        order = data.draw(st.permutations(range(count)))
        pairs = [ParallelPair(f"p{j:02d}", f"v{row}", "t", "NT") for j, row in zip(order, rows)]
        index = EmbeddingIndex(pairs, palette[rows])
        row = data.draw(st.integers(0, 3))
        prefixes = Retriever("DENSE", pairs, provider=_PaletteEmbedder(palette)).prefixes(
            f"v{row}", size)
        for s in range(1, size + 1):
            assert _fuzzy_rows(prefixes(s)) == _fuzzy_rows(dense_retrieve(index, palette[row], s))

    @given(st.data(), _cw_pools(), st.sampled_from([0.3, 0.5, 1.0]), st.integers(1, 10))
    def test_chrf_cw(self, data, pairs, gamma, size):
        index = GramIndex(pairs)
        retriever = Retriever("CHRF_CW", pairs, gamma=gamma)
        for _ in range(2):
            query = data.draw(_cw_queries)
            prefixes = retriever.prefixes(query, size)
            for s in range(1, size + 1):
                want = chrf_counterweighted_retrieve(index, query, s, gamma=gamma)
                assert _fuzzy_rows(prefixes(s)) == _fuzzy_rows(want)

    @given(st.data(), _pools(), st.integers(1, 4))
    def test_fuzzy_word(self, data, pairs, size):
        vocabulary = [t for p in pairs for t in p.source_text.split()] or ["a"]
        index = TokenIndex.over_pairs(pairs)
        for threshold in (0.0, 0.5, 1.0):
            query = data.draw(_queries(vocabulary))
            lists = fuzzy_word_lists(index, query, size, threshold)
            for s in range(1, size + 1):
                assert _fuzzy_rows(lists.union(s)) == fuzzy_word_oracle(pairs, query, s, threshold)
        # the retriever plans at the default threshold, 0.5
        query = data.draw(_queries(vocabulary))
        prefixes = Retriever("FUZZY_WORD", pairs).prefixes(query, size)
        for s in range(1, size + 1):
            assert _fuzzy_rows(prefixes(s)) == fuzzy_word_oracle(pairs, query, s, 0.5)


class TestDuplicateIds:
    """Pairs sharing an id tie by input position, exactly as in the
    brute-force oracles."""

    @given(st.data(), _duplicate_id_pools(_pools()), st.integers(1, 6))
    def test_bm25(self, data, pairs, k):
        vocabulary = [t for p in pairs for t in p.source_text.split()] or ["a"]
        index = Bm25Index(pairs)
        for _ in range(3):
            query = data.draw(_queries(vocabulary))
            got = [(r.score, r.pair.id, r.pair.id.pos) for r in bm25_retrieve(index, query, k)]
            assert got == [(s, i, i.pos) for s, i in bm25_oracle(pairs, query, k)]

    @given(st.data(), st.integers(1, 25), st.integers(1, 27))
    def test_dense(self, data, size, k):
        palette = _unit_rows(4, 3, seed=5)
        rows = data.draw(st.lists(st.integers(0, 3), min_size=size, max_size=size))
        ids = data.draw(st.lists(st.sampled_from("abc"), min_size=size, max_size=size))
        pairs = [ParallelPair(_SharedId(i, pos), "s", "t", "NT") for pos, i in enumerate(ids)]
        index = EmbeddingIndex(pairs, palette[rows])
        query = palette[data.draw(st.integers(0, 3))]
        got = [(r.pair.id, r.pair.id.pos, r.score) for r in dense_retrieve(index, query, k)]
        assert got == [(i, i.pos, s) for i, s in dense_sort_oracle(index, query, k)]

    @given(st.data(), _duplicate_id_pools(_cw_pools()), st.sampled_from([0.5, 1.0]),
           st.integers(1, 10))
    def test_chrf_cw(self, data, pairs, gamma, k):
        index = GramIndex(pairs)
        for _ in range(2):
            query = data.draw(_cw_queries)
            got = chrf_counterweighted_retrieve(index, query, k, gamma=gamma)
            assert [(r.pair.id, r.pair.id.pos, r.score) for r in got] == [
                (i, i.pos, s) for i, s in chrf_cw_dedup_oracle(pairs, query, k, gamma)]

    @given(st.data(), _duplicate_id_pools(_pools()), st.integers(1, 4), _thresholds)
    def test_fuzzy_word(self, data, pairs, n, thresholds):
        # each token's list ties by input position; the union merges equal ids
        vocabulary = [t for p in pairs for t in p.source_text.split()] or ["a"]
        index = TokenIndex.over_pairs(pairs)
        for threshold in thresholds:
            query = data.draw(_queries(vocabulary))
            lists = fuzzy_word_lists(index, query, n, threshold)
            for token in lists.tokens:
                got = [(sim, pairs[i].id, i) for i, sim in lists.tops[token]]
                assert got == [(s, i, i.pos) for s, i in fuzzy_token_oracle(pairs, token, n,
                                                                             threshold)]
            assert _fuzzy_rows(lists.union(n)) == fuzzy_word_oracle(pairs, query, n, threshold)


class TestFuzzyWord:
    def test_verbatim_words_score_one(self):
        pairs = [
            ParallelPair("p1", "the father spoke", "t", "NT"),
            ParallelPair("p2", "the mother sang", "t", "NT"),
            ParallelPair("p3", "unrelated xyzzy qwerty", "t", "NT"),
        ]
        results = fuzzy_word_retrieve(TokenIndex.over_pairs(pairs), "father mother", 1)
        assert {r.pair.id for r in results} == {"p1", "p2"}
        assert all(r.score == 1.0 for r in results)

    def test_father_fathers_similarity(self):
        pairs = [ParallelPair("p1", "the fathers spoke", "t", "NT")]
        results = fuzzy_word_retrieve(TokenIndex.over_pairs(pairs), "father", 1)
        assert results[0].score == pytest.approx(6 / 7)
        assert results[0].matched_token == "father"

    def test_below_threshold_excluded(self):
        pairs = [ParallelPair("p1", "xyzzy", "t", "NT")]
        assert fuzzy_word_retrieve(TokenIndex.over_pairs(pairs), "mother", 5) == []

    def test_matches_bruteforce_oracle(self):
        pairs = make_pairs(150, seed=31)
        index = TokenIndex.over_pairs(pairs)
        rng = random.Random(37)
        for _ in range(5):
            query = " ".join(rng.choice(WORDS) for _ in range(4))
            got = [(r.score, r.pair.id) for r in fuzzy_word_retrieve(index, query, 3)]
            want = fuzzy_oracle(pairs, query, 3)
            assert [g[1] for g in got] == [w[1] for w in want]
            for g, w in zip(got, want):
                assert g[0] == pytest.approx(w[0])

    def test_volume_bound_and_threshold(self):
        pairs = make_pairs(200, seed=41)
        query = "father mother water light sea stone"
        n = 10
        results = fuzzy_word_retrieve(TokenIndex.over_pairs(pairs), query, n)
        assert len(results) <= n * len(word_tokenize(query))
        assert all(r.score >= 0.5 for r in results)


class TestLexiconRetrieval:
    def test_exact_headword_first(self, demo_lexicon):
        results = lexicon_fuzzy_retrieve(TokenIndex.over_lexicon(demo_lexicon), "father", 3)
        assert results[0].entry.source_word == "father"
        assert results[0].score == 1.0

    def test_no_padding_when_few_matches(self):
        lex = [LexiconEntry("father", "ama"), LexiconEntry("xqzw", "zzz")]
        results = lexicon_fuzzy_retrieve(TokenIndex.over_lexicon(lex), "father", 10)
        assert len(results) == 1

    def test_matches_bruteforce_oracle(self):
        rng = random.Random(43)
        lex = [
            LexiconEntry(rng.choice(WORDS) + rng.choice(["", "s", "ed"]), f"t{i}")
            for i, _ in enumerate(range(20))
        ]
        query = "father waters lighted"
        got = lexicon_fuzzy_retrieve(TokenIndex.over_lexicon(lex), query, 3)
        # brute force over all (token, entry) pairs
        best = {}
        for token in word_tokenize(query):
            scored = []
            for e in lex:
                d = edit_distance_oracle(token, e.source_word.lower())
                sim = 1 - d / max(len(token), len(e.source_word))
                if sim >= 0.5:
                    scored.append((sim, e))
            scored.sort(key=lambda r: (-r[0], r[1].source_word))
            for sim, e in scored[:3]:
                key = (e.source_word, e.pos, e.target_word)
                if key not in best or sim > best[key][0]:
                    best[key] = (sim, e)
        want = sorted(best.values(), key=lambda r: (-r[0], r[1].source_word))
        assert [(r.score, r.entry.source_word) for r in got] == [
            (pytest.approx(s), e.source_word) for s, e in want
        ]

    def test_full_lexicon_order_and_scores(self, demo_lexicon):
        results = lexicon_full(demo_lexicon)
        assert len(results) == len(demo_lexicon)
        assert [r.entry for r in results] == demo_lexicon
        assert all(r.score == 1.0 for r in results)
        assert lexicon_full([]) == []
