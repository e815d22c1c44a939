"""Paper-scale point for scoring (``metrics.evaluate``).

Scores the NMT drafts of a ``perfbench/gen.py`` input directory against its
test references, as a cell's NMT-only baseline is scored, and records the
wall time and memory of ``evaluate`` with digests of what it returned. Each
side is a ``src`` directory, so a parent and a change can be compared:

    PYTHONPATH=src python3 perfbench/gen.py --seed 0 --out /tmp/paper
    python3 tools/bench_scoring.py --inputs /tmp/paper \\
        --side parent=/tmp/parent/src --side change=src --out BENCH_scoring.json

Every repetition runs each side in a fresh interpreter, the sides
alternating which goes first. It is a one-shot measurement, not a gate.
"""

from __future__ import annotations

import hashlib
import json
import os
import resource
import statistics
import time
import tracemalloc

from paper_point import main, rss_mb

WHAT = ("Scoring (metrics.evaluate: chrF++ and whitespace BLEU, per sentence and pooled) "
        "of the paper-scale NMT drafts against their references.")
METHOD = [
    "Inputs: perfbench/gen.py at its paper-scale defaults; the hypotheses are drafts.tsv, "
    "the references and ids test.tsv's target verses (500).",
    "Each repetition runs each side in a fresh interpreter, sides alternating which goes "
    "first, one after another with nothing else running. evaluate over the first 5 verses "
    "runs first, so numpy's one-off set-up is outside every figure.",
    "first_s: time.perf_counter() around the first evaluate over all verses. rss_growth_mb: "
    "ru_maxrss after it minus VmRSS just before it. evaluate_s: the median of 5 more calls. "
    "traced_peak_mb: tracemalloc's peak over one more call. MB are MiB.",
    "report_sha256 hashes the report's to_dict() as sorted JSON; scores_sha256 every "
    "sentence's (id, bleu.hex(), chrf.hex()) and the two corpus scores' hex().",
]


def measure(args) -> dict:
    """One side, in this process: ``ragmt`` must be importable."""
    from ragmt.corpus import load_parallel
    from ragmt.metrics import evaluate
    from ragmt.pipeline import load_drafts

    test = load_parallel(os.path.join(args.inputs, "test.tsv"))
    drafts = load_drafts(os.path.join(args.inputs, "drafts.tsv"))
    ids = [p.id for p in test]
    hyps = [drafts[i] for i in ids]
    refs = [p.target_text for p in test]
    evaluate(ids[:5], hyps[:5], refs[:5])  # whatever numpy sets up on first use

    rss_before = rss_mb()
    start = time.perf_counter()
    report = evaluate(ids, hyps, refs)
    first_s = time.perf_counter() - start
    peak_rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    times = []
    for _ in range(5):
        start = time.perf_counter()
        evaluate(ids, hyps, refs)
        times.append(time.perf_counter() - start)
    tracemalloc.start()
    evaluate(ids, hyps, refs)
    traced_peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()

    scores = [(s.id, s.bleu.hex(), s.chrf.hex()) for s in report.per_sentence]
    scores.append((report.corpus_bleu.hex(), report.corpus_chrf.hex()))
    return {
        "first_s": first_s,
        "evaluate_s": statistics.median(times),
        "rss_growth_mb": peak_rss - rss_before,
        "traced_peak_mb": traced_peak / 2**20,
        "sentences": len(ids),
        "corpus_chrf": round(report.corpus_chrf, 2),
        "corpus_bleu": round(report.corpus_bleu, 2),
        "report_sha256": hashlib.sha256(
            json.dumps(report.to_dict(), sort_keys=True).encode()).hexdigest(),
        "scores_sha256": hashlib.sha256(json.dumps(scores).encode()).hexdigest(),
    }


if __name__ == "__main__":
    main(__file__, "scoring", WHAT, METHOD, measure)
