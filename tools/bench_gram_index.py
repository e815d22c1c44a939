"""Paper-scale point for the chrF-CW n-gram index (``retrieval.GramIndex``).

Builds the index over the NT pool of a ``perfbench/gen.py`` input directory
and records the build's wall time, RSS growth, traced peak and the bytes of
the arrays it keeps, then the p50 of ``gram_ids`` and of a k=10
``chrf_counterweighted_retrieve`` over the first test verses. Each side is a
``src`` directory, so a parent and a change can be compared:

    PYTHONPATH=src python3 perfbench/gen.py --seed 0 --out /tmp/paper
    python3 tools/bench_gram_index.py --inputs /tmp/paper \\
        --side parent=/tmp/parent/src --side change=src --out BENCH_gram_index.json

Every repetition runs each side in a fresh interpreter, the sides
alternating which goes first. It is a one-shot measurement, not a gate.
"""

from __future__ import annotations

import hashlib
import json
import os
import resource
import time
import tracemalloc

from paper_point import main, p50_ms, rss_mb

ARRAYS = ("holders", "starts", "sizes", "bounds", "grams", "texts", "rank")
WHAT = ("The chrF-CW n-gram index (retrieval.GramIndex) over the paper-scale NT pool: "
        "build time and memory, and per-query times on the built index.")
METHOD = [
    "Inputs: perfbench/gen.py at its paper-scale defaults; the pool is corpus.tsv's NT "
    "pairs, the queries the first test.tsv source verses.",
    "Each repetition runs each side in a fresh interpreter, sides alternating which goes "
    "first, one after another with nothing else running. A 10-pair build runs first, so "
    "numpy's one-off set-up is outside every figure.",
    "build_s: time.perf_counter() around GramIndex(pool). rss_growth_mb: ru_maxrss after "
    "that build minus VmRSS just before it. traced_peak_mb: tracemalloc's peak over a "
    "second build. kept_bytes: the nbytes of holders, starts, sizes, bounds, grams, texts "
    "and rank. MB are MiB.",
    "gram_ids_p50_ms and query_k10_p50_ms: medians over the queries of index.gram_ids(q) "
    "and chrf_counterweighted_retrieve(index, q, 10).",
    "arrays_sha256 hashes the seven arrays (name, dtype, shape, bytes); picks_sha256 the "
    "k=10 picks of every query as (pair id, score.hex()).",
]


def measure(args) -> dict:
    """One side, in this process: ``ragmt`` must be importable."""
    import numpy as np

    from ragmt.corpus import load_parallel
    from ragmt.retrieval import GramIndex, chrf_counterweighted_retrieve

    pool = [p for p in load_parallel(os.path.join(args.inputs, "corpus.tsv")) if p.origin == "NT"]
    tests = [p.source_text
             for p in load_parallel(os.path.join(args.inputs, "test.tsv"))][:args.queries]
    GramIndex(pool[:10])  # whatever numpy sets up on first use

    rss_before = rss_mb()
    start = time.perf_counter()
    index = GramIndex(pool)
    build_s = time.perf_counter() - start
    peak_rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    tracemalloc.start()
    GramIndex(pool)
    traced_peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()

    digest = hashlib.sha256()
    for name in ARRAYS:
        array = getattr(index, name)
        digest.update(f"{name}:{array.dtype.str}:{array.shape}".encode())
        digest.update(np.ascontiguousarray(array).tobytes())
    picks = [[(r.pair.id, r.score.hex()) for r in chrf_counterweighted_retrieve(index, q, 10)]
             for q in tests]
    return {
        "build_s": build_s,
        "rss_growth_mb": peak_rss - rss_before,
        "traced_peak_mb": traced_peak / 2**20,
        "kept_bytes": sum(getattr(index, name).nbytes for name in ARRAYS),
        "gram_ids_p50_ms": p50_ms(lambda q=q: index.gram_ids(q) for q in tests),
        "query_k10_p50_ms": p50_ms(lambda q=q: chrf_counterweighted_retrieve(index, q, 10)
                                    for q in tests),
        "pool_pairs": len(pool),
        "postings": int(len(index.holders)),
        "ngrams": int(len(index.starts) - 1),
        "arrays_sha256": digest.hexdigest(),
        "picks_sha256": hashlib.sha256(json.dumps(picks).encode()).hexdigest(),
    }


if __name__ == "__main__":
    main(__file__, "gram_index", WHAT, METHOD, measure,
         options=[("--queries", {"type": int, "default": 200})])
