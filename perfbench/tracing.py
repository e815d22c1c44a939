"""Spans around the pipeline's layer entry points, and the per-layer metrics.

``install`` wraps, from outside the program, the module attributes the
pipeline calls through. Each call records a span (name, start, end, parent,
run id) in memory; the child process writes them out when the run ends.
The pipeline is single-threaded, so one stack gives every span its parent.
"""

from __future__ import annotations

import functools
import inspect
import math
import statistics
import time

# Called once per token pair inside the retrievers: a wrapper would cost
# more than the call and distort the layer it measures.
INNER_LOOP = frozenset({"levenshtein", "normalized_levenshtein"})

LAYERS = ("corpus", "retrieval", "prompt", "provider", "metrics", "pipeline")

# per-call timing metric -> which spans it covers
TIMINGS = {
    "corpus.load_s": lambda s, top: s["name"].startswith("corpus."),
    "retrieval.fuzzy_word_s": lambda s, top: s["name"] == "retrieval.fuzzy_word_retrieve",
    "retrieval.chrf_cw_s":
        lambda s, top: s["name"] == "retrieval.chrf_counterweighted_retrieve",
    "retrieval.lexicon_fuzzy_s":
        lambda s, top: s["name"] == "retrieval.lexicon_fuzzy_retrieve",
    "retrieval.dense_s": lambda s, top: s["name"] == "retrieval.dense_retrieve",
    "retrieval.index_build_s": lambda s, top: s["name"] == "retrieval.index_build",
    "prompt.render_s": lambda s, top: s["name"].startswith("prompt."),
    "provider.complete_s": lambda s, top: s["name"] == "provider.complete",
    "provider.embed_s": lambda s, top: s["name"] == "provider.embed",
    # outermost scoring calls only: evaluate() nests sentence-level calls
    "metrics.score_s": lambda s, top: s["name"].startswith("metrics.") and top,
    "pipeline.manifest_save_s": lambda s, top: s["name"] == "pipeline.manifest_save",
    "pipeline.cell_s": lambda s, top: s["name"] == "pipeline.run_experiment",
}


class Tracer:
    def __init__(self, run_id: int):
        self.run_id = run_id
        self.spans: list[dict] = []
        self._stack: list[int] = []

    def wrap(self, name: str, fn, attrs=None):
        """``fn`` recording a span per call; ``attrs(result)`` adds fields."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = {"name": name, "run": self.run_id,
                    "parent": self._stack[-1] if self._stack else -1}
            self._stack.append(len(self.spans))
            self.spans.append(span)
            span["start"] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                self._stack.pop()
            if attrs is not None:
                span.update(attrs(result))
            return result

        return traced


def _public_functions(module) -> list[tuple[str, object]]:
    return [
        (name, obj) for name, obj in vars(module).items()
        if inspect.isfunction(obj) and obj.__module__ == module.__name__
        and not name.startswith("_")
    ]


def install(tracer: Tracer, provider) -> None:
    """Wrap ragmt's layer entry points and the provider object's methods."""
    from ragmt import metrics, pipeline, retrieval

    for name, fn in _public_functions(retrieval):
        if name not in INNER_LOOP:
            setattr(retrieval, name, tracer.wrap(f"retrieval.{name}", fn))
    for cls in (retrieval.Bm25Index, retrieval.EmbeddingIndex):
        cls.__init__ = tracer.wrap("retrieval.index_build", cls.__init__)
    for name, fn in _public_functions(metrics):
        setattr(metrics, name, tracer.wrap(f"metrics.{name}", fn))
    for name in ("load_parallel", "load_lexicon", "load_drafts"):
        setattr(pipeline, name, tracer.wrap(f"corpus.{name}", getattr(pipeline, name)))
    for name in ("render_postedit", "render_direct"):
        setattr(pipeline, name, tracer.wrap(
            f"prompt.{name}", getattr(pipeline, name),
            attrs=lambda p: {"chars": len(p.system) + len(p.user)},
        ))
    pipeline.run_experiment = tracer.wrap("pipeline.run_experiment", pipeline.run_experiment)
    pipeline.sweep = tracer.wrap("pipeline.sweep", pipeline.sweep)
    pipeline.RunManifest.save = tracer.wrap("pipeline.manifest_save", pipeline.RunManifest.save)
    provider.complete = tracer.wrap(
        "provider.complete", provider.complete, attrs=lambda ex: {"cache_hit": ex.cache_hit}
    )
    provider.embed = tracer.wrap("provider.embed", provider.embed)


def tail(values: list[float]) -> float:
    """The highest of p99/p95/p90/p75/p50 with at least 10 samples beyond
    it (nearest rank); the maximum when there are fewer than 20 samples."""
    ordered = sorted(values)
    n = len(ordered)
    for p in (99, 95, 90, 75, 50):
        rank = math.ceil(p * n / 100)
        if n - rank >= 10:
            return statistics.median(ordered) if p == 50 else ordered[rank - 1]
    return ordered[-1]


def _self_times(spans: list[dict]) -> list[float]:
    own = [s["end"] - s["start"] for s in spans]
    for s in spans:
        if s["parent"] >= 0:
            own[s["parent"]] -= s["end"] - s["start"]
    return own


def layer_metrics(runs: list[dict]) -> dict:
    """Per-layer metrics over traced repetitions.

    Each run is {"spans": [...], "scored": n, "examples": n, "mock": {...}};
    span parents index into the run's own span list.
    """
    calls: dict[str, list[float]] = {name: [] for name in TIMINGS}
    busy = dict.fromkeys(LAYERS, 0.0)
    wall = 0.0
    pipeline_self, chars, hits, sentence_calls = [], [], [], 0
    for run in runs:
        spans = run["spans"]
        own = _self_times(spans)
        run_pipeline_self = 0.0
        for span, self_s in zip(spans, own):
            name = span["name"]
            layer = name.split(".", 1)[0]
            busy[layer] += self_s
            if layer == "pipeline":
                run_pipeline_self += self_s
            if span["parent"] < 0:
                wall += span["end"] - span["start"]
            top = span["parent"] < 0 or not spans[span["parent"]]["name"].startswith(layer + ".")
            for metric, covers in TIMINGS.items():
                if covers(span, top):
                    calls[metric].append(span["end"] - span["start"])
            if "chars" in span:
                chars.append(span["chars"])
            if "cache_hit" in span:
                hits.append(span["cache_hit"])
            if name in ("metrics.sentence_bleu", "metrics.chrf_pp"):
                sentence_calls += 1
        pipeline_self.append(run_pipeline_self)
    accounted = sum(busy.values())
    if not math.isclose(accounted, wall, rel_tol=1e-9, abs_tol=1e-9):
        raise RuntimeError(f"layer self times sum to {accounted} s, wall is {wall} s")

    scored = sum(r["scored"] for r in runs)
    out: dict[str, tuple[float, str]] = {}
    for metric, values in calls.items():
        base = metric[: -len("_s")]
        out[metric] = (statistics.median(values) if values else 0.0, "s")
        out[metric + ".tail"] = (tail(values) if values else 0.0, "s")
        out[base + "_calls"] = (len(values) / len(runs), "count")
    for layer in LAYERS:
        out[f"{layer}.share"] = (busy[layer] / wall, "ratio")
    out["pipeline.self_s"] = (statistics.median(pipeline_self), "s")
    out["retrieval.examples_per_sentence"] = (
        sum(r["examples"] for r in runs) / scored if scored else 0.0, "count")
    out["prompt.chars_per_sentence"] = (statistics.fmean(chars) if chars else 0.0, "chars")
    out["provider.cache_hit_rate"] = (statistics.fmean(hits) if hits else 0.0, "ratio")
    out["metrics.sentence_calls_per_sentence"] = (
        sentence_calls / scored if scored else 0.0, "count")
    mock = [r["mock"] for r in runs]
    out["provider.http_requests"] = (statistics.median(m["requests"] for m in mock), "count")
    out["provider.retries"] = (
        statistics.median(m["requests"] - m["distinct_requests"] for m in mock), "count")
    out["provider.in_flight_max"] = (max(m["in_flight_max"] for m in mock), "count")
    return out
