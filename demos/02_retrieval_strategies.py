"""Side-by-side comparison of the offline example-retrieval strategies.

Given one source sentence to translate, each strategy selects parallel
examples from the training corpus for use as few-shot context:

  * BM25            - classic lexical ranking over whole sentences
  * chrF-cw         - greedy character n-gram overlap with a counterweight
                      that down-weights n-grams already covered, so later
                      picks add new material instead of repeating the first
  * fuzzy-word      - per-query-token fuzzy matching; the number of
                      examples scales with sentence length (dynamic k)

Dense retrieval also exists but needs an embedding endpoint, so it is
shown in demo 05 via replay fixtures instead.

    python3 demos/02_retrieval_strategies.py
"""

from pathlib import Path

from ragmt.corpus import load_parallel
from ragmt.retrieval import (
    Bm25Index,
    GramIndex,
    TokenIndex,
    bm25_retrieve,
    chrf_counterweighted_retrieve,
    fuzzy_word_lists,
)
from ragmt.text import word_tokenize

DATA = Path(__file__).resolve().parent / "data"

pairs = load_parallel(DATA / "corpus.tsv")
pool = [p for p in pairs if p.origin in ("NT", "GRAMMAR")]
print(f"retrieval pool: {len(pool)} pairs (NT + grammar)\n")

QUERY = "In the beginning, God created the heavens and the earth."
print("query:", QUERY, "\n")


def show(title, results, limit=5):
    print(title)
    for r in results[:limit]:
        extra = f"  (matched {r.matched_token!r})" if r.matched_token else ""
        print(f"  {r.score:7.4f}  {r.pair.id:<10} {r.pair.source_text}{extra}")
    if len(results) > limit:
        print(f"  ... and {len(results) - limit} more")
    print()


# ---------------------------------------------------------------------------
# BM25: strong on exact content words, blind to near-misses. Each strategy
# builds its index once per pool and reuses it for every query.

show("BM25, k=5:", bm25_retrieve(Bm25Index(pool), QUERY, 5))

# ---------------------------------------------------------------------------
# chrF-counterweighted: the gamma penalty spreads picks across different
# phrasings. Compare gamma=1 (no penalty) with the default gamma=0.5.

grams = GramIndex(pool)
show("chrF-counterweighted, k=5, gamma=1.0 (no diversity penalty):",
     chrf_counterweighted_retrieve(grams, QUERY, 5, gamma=1.0))
show("chrF-counterweighted, k=5, gamma=0.5:",
     chrf_counterweighted_retrieve(grams, QUERY, 5))

# ---------------------------------------------------------------------------
# Fuzzy word matching: up to n examples per query token, deduplicated.
# The effective k therefore grows with both n and sentence length.

tokens = word_tokenize(QUERY)
print(f"query has {len(tokens)} tokens: {tokens}\n")
words = TokenIndex.over_pairs(pool)
for n in (1, 2, 3):
    results = fuzzy_word_lists(words, QUERY, n).union(n)
    print(f"fuzzy-word n={n}: effective k = {len(results)} "
          f"(cap is n x tokens = {n * len(tokens)})")
print()
show("fuzzy-word n=2, top hits:", fuzzy_word_lists(words, QUERY, 2).union(2))
