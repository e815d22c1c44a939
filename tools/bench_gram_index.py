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

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import tracemalloc

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


def _field(path: str, name: str) -> str:
    """The value of the first ``name:`` line of a /proc file."""
    with open(path, encoding="ascii", errors="replace") as lines:
        return next(line.split(":", 1)[1].strip() for line in lines if line.startswith(name))


def _rss_mb() -> float:
    return int(_field("/proc/self/status", "VmRSS:").split()[0]) / 1024


def _p50_ms(calls) -> float:
    times = []
    for call in calls:
        start = time.perf_counter()
        call()
        times.append(time.perf_counter() - start)
    return 1000 * statistics.median(times)


def measure(inputs: str, queries: int) -> dict:
    """One side, in this process: ``ragmt`` must be importable."""
    import numpy as np

    from ragmt.corpus import load_parallel
    from ragmt.retrieval import GramIndex, chrf_counterweighted_retrieve

    pool = [p for p in load_parallel(os.path.join(inputs, "corpus.tsv")) if p.origin == "NT"]
    tests = [p.source_text for p in load_parallel(os.path.join(inputs, "test.tsv"))][:queries]
    GramIndex(pool[:10])  # whatever numpy sets up on first use

    rss_before = _rss_mb()
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
        "gram_ids_p50_ms": _p50_ms(lambda q=q: index.gram_ids(q) for q in tests),
        "query_k10_p50_ms": _p50_ms(lambda q=q: chrf_counterweighted_retrieve(index, q, 10)
                                    for q in tests),
        "pool_pairs": len(pool),
        "postings": int(len(index.holders)),
        "ngrams": int(len(index.starts) - 1),
        "arrays_sha256": digest.hexdigest(),
        "picks_sha256": hashlib.sha256(json.dumps(picks).encode()).hexdigest(),
    }


def _machine() -> dict:
    import numpy

    cpu = _field("/proc/cpuinfo", "model name")
    memory_kb = int(_field("/proc/meminfo", "MemTotal:").split()[0])

    return {"nproc": os.cpu_count(), "cpu": cpu, "memory_mb": memory_kb // 1024,
            "python": platform.python_version(), "numpy": numpy.__version__,
            "os": f"{platform.system()} {platform.release()}"}


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--inputs", required=True, help="a perfbench/gen.py output directory")
    parser.add_argument("--side", action="append", default=[], metavar="LABEL=SRC",
                        help="a side to measure: its label and its src directory")
    parser.add_argument("--reps", type=int, default=3)
    parser.add_argument("--queries", type=int, default=200)
    parser.add_argument("--out")
    parser.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.child:
        print(json.dumps(measure(args.inputs, args.queries)))
        return

    sides = dict(side.split("=", 1) for side in args.side)
    runs: dict[str, list[dict]] = {label: [] for label in sides}
    for rep in range(args.reps):
        order = list(sides) if rep % 2 == 0 else list(sides)[::-1]
        for label in order:
            env = dict(os.environ, PYTHONPATH=os.path.abspath(sides[label]))
            done = subprocess.run(
                [sys.executable, __file__, "--child", "--inputs", args.inputs,
                 "--queries", str(args.queries)],
                env=env, capture_output=True, text=True, check=True)
            runs[label].append(json.loads(done.stdout))
            print(label, runs[label][-1], file=sys.stderr)

    point = {"label": "gram_index", "what": WHAT, "machine": _machine(), "method": METHOD}
    for label, side in runs.items():
        summary = {}
        for metric, value in side[0].items():
            values = [run[metric] for run in side]
            if isinstance(value, float):
                summary[metric] = {"median": round(statistics.median(values), 4),
                                   "runs": [round(v, 4) for v in values]}
            elif len(set(values)) == 1:
                summary[metric] = value
            else:
                raise RuntimeError(f"{label}: {metric} differs between runs: {values}")
        point[label] = summary
    text = json.dumps(point, indent=1)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as out:
            out.write(text + "\n")
    print(text)


if __name__ == "__main__":
    main()
