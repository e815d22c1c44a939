"""One repetition of a workload, in a fresh process.

Usage: python3 perfbench/child.py SPEC.json

SPEC names the workload, the mode ("record", "timed" or "traced"), the
generated data directory, a fresh output directory, the fixture directory
or the mock's URL and a fresh cache directory, and where to write the
result. The process receives only the generated files: it builds the
experiment config from them and runs ``pipeline.run_experiment`` or
``pipeline.sweep`` exactly as a user would.

"record" runs the replay workloads live against the mock with the fixture
directory as the provider's cache, so the fixtures are written by the
program's own cache in its own schema. "timed" and "traced" replay them
(or, for the HTTP workload, talk to the mock with an empty cache).
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time
import traceback
from pathlib import Path

from ragmt import pipeline
from ragmt.provider import ProviderConfig, build_provider

import tracing
from workloads import WORKLOADS


class ClockedProvider:
    """The provider the pipeline sees: forwards every call and notes when
    the first chat request reached it, one clock reading per call."""

    def __init__(self, inner):
        self.inner = inner
        self.first_chat: float | None = None

    @property
    def fingerprint(self) -> str:
        return self.inner.fingerprint

    def complete(self, prompt):
        now = time.perf_counter()
        if self.first_chat is None:
            self.first_chat = now
        return self.inner.complete(prompt)

    def embed(self, texts):
        return self.inner.embed(texts)


def experiment_config(spec: dict) -> pipeline.ExperimentConfig:
    workload = WORKLOADS[spec["workload"]]
    data = Path(spec["data"])
    provider = ProviderConfig(
        model_name="bench-chat",
        embedding_model_name="bench-embed",
        max_in_flight=min(2, os.cpu_count() or 1),
        request_timeout=30.0,
        base_url=spec.get("base_url") or "",
        cache_dir=spec.get("cache_dir"),
        replay_dir=spec.get("replay_dir"),
    )
    cell = dict(workload.cell) or pipeline.final_preset()
    return pipeline.ExperimentConfig(
        **cell,
        corpus_path=str(data / "corpus.tsv"),
        lexicon_path=str(data / "lexicon.tsv"),
        test_path=str(data / "test.tsv"),
        draft_path=str(data / "drafts.tsv"),
        output_dir=spec["out"],
        provider=provider,
    )


def outputs(out_dir: Path) -> list[dict]:
    """Each cell's manifest records and corpus scores, from its output files."""
    cells = []
    for manifest_path in sorted(out_dir.glob("manifest-*.json")):
        manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
        report_path = out_dir / manifest_path.name.replace("manifest-", "report-", 1)
        scores = None
        if report_path.exists():
            report = json.loads(report_path.read_text(encoding="utf-8"))
            scores = [report["corpus_bleu"], report["corpus_chrf"]]
        cells.append({"records": manifest["records"], "corpus": scores})
    return cells


def run(spec: dict) -> dict:
    workload = WORKLOADS[spec["workload"]]
    config = experiment_config(spec)
    provider = ClockedProvider(build_provider(config.provider))
    tracer = None
    if spec["mode"] == "traced":
        tracer = tracing.Tracer(spec.get("run_id", 0))
        tracing.install(tracer, provider)

    error = None
    start = time.perf_counter()
    try:
        if workload.sweep:
            pipeline.sweep(config, list(workload.sweep), provider=provider)
        else:
            pipeline.run_experiment(config, provider=provider)
    except Exception:  # a failed cell is counted, not fatal to the benchmark
        error = traceback.format_exc()
    end = time.perf_counter()
    peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    return {
        "wall_s": end - start,
        "setup_s": None if provider.first_chat is None else provider.first_chat - start,
        "peak_rss_mb": peak_rss_kb / 1024.0,
        "error": error,
        "cells": outputs(Path(spec["out"])),
        "spans": tracer.spans if tracer else None,
    }


def main() -> None:
    spec = json.loads(Path(sys.argv[1]).read_text(encoding="utf-8"))
    result = run(spec)
    Path(spec["result"]).write_text(json.dumps(result, ensure_ascii=False), encoding="utf-8")


if __name__ == "__main__":
    main()
