"""Seeded, offline benchmark of the ragmt experiment loop.

Usage:
  python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

One run generates the workload's inputs from the seed, records replay
fixtures where the workload replays, then repeats the workload, each
repetition in a fresh child process, until ``--seconds`` have passed (and
at least three times). Every repetition's outputs are checked against the
reference: the digest committed in reference.json for the default seed,
otherwise the record pass (replay workloads) or the first repetition. A
missing fixture, a failed cell or a changed record counts as a failed
sentence, and any failure makes the run incorrect.

--trace 0 reports the end-to-end metrics over the untraced repetitions:
  sentences_per_s  scored test sentences / wall time of run_experiment or sweep,
                   both summed over repetitions
  setup_s          median time from that call until the first chat request
                   reaches the provider
  peak_rss_mb      median of the child process's max RSS
and prints error_rate (failed / attempted sentences) beside them.
--trace 1 alternates untraced and traced repetitions and reports the
per-layer metrics of tracing.py plus trace.overhead_ratio.

The last stdout line is one JSON object: correct, attempted, failed,
metrics. Raw samples, machine info, input properties and trace spans go to
.bench_run/records/. ``--write-reference`` (default seed only) stores the
run's digest in reference.json.
"""

from __future__ import annotations

import argparse
import collections
import contextlib
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
import urllib.request
from pathlib import Path

import gen
from workloads import WORKLOADS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_run"
REFERENCE = BENCH / "reference.json"
DEFAULT_SEED = 0
MIN_REPS = 3
TIME_CAP_S = 150.0  # no repetition starts if it could end past this


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    env["NO_PROXY"] = ",".join(filter(None, ["127.0.0.1", env.get("NO_PROXY")]))
    return env


class Mock:
    """The mock endpoint's process and its request counters."""

    _opener = urllib.request.build_opener(urllib.request.ProxyHandler({}))

    def __init__(self, url: str):
        self.url = url

    def _call(self, path: str, data: bytes | None = None) -> dict:
        with self._opener.open(self.url + path, data=data, timeout=10) as resp:
            return json.loads(resp.read())

    def reset(self) -> None:
        self._call("/stats/reset", data=b"{}")

    def stats(self) -> dict:
        return self._call("/stats")


@contextlib.contextmanager
def mock_server(delays: dict):
    proc = subprocess.Popen(
        [sys.executable, str(BENCH / "mock_server.py"),
         "--chat-delay", str(delays["chat"]), "--embed-delay", str(delays["embed"])],
        stdout=subprocess.PIPE, text=True, env=child_env(),
    )
    try:
        port = int(proc.stdout.readline())
        yield Mock(f"http://127.0.0.1:{port}")
    finally:
        proc.terminate()
        try:
            proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
        proc.stdout.close()


def run_child(spec: dict, work: Path, deadline: float) -> dict:
    spec_path = work / "spec.json"
    spec["result"] = str(work / "result.json")
    spec_path.write_text(json.dumps(spec), encoding="utf-8")
    subprocess.run(
        [sys.executable, str(BENCH / "child.py"), str(spec_path)],
        env=child_env(), check=True, timeout=max(1.0, deadline - time.monotonic()),
    )
    return json.loads(Path(spec["result"]).read_text(encoding="utf-8"))


def record_fixtures(base: dict, mock: Mock, work: Path, deadline: float) -> dict:
    """Run the workload live against the mock with the fixture directory as
    the provider's cache; return the summary of that pass."""
    recorded = run_child(
        {**base, "mode": "record", "replay_dir": None, "base_url": mock.url,
         "cache_dir": base["replay_dir"], "out": str(work / "record")},
        work, deadline)
    if recorded["error"]:
        raise RuntimeError(f"record pass failed:\n{recorded['error']}")
    return summarize(recorded["cells"])


def record_hash(record: dict) -> str:
    """A manifest record's outputs; config fingerprints are left out."""
    fields = [record[k] for k in ("id", "retrieved_ids", "prompt_hash", "completion",
                                  "bleu", "chrf")]
    return hashlib.sha256(json.dumps(fields, ensure_ascii=False).encode()).hexdigest()[:16]


def summarize(cells: list[dict]) -> dict:
    """Order-free digest over cells: their good records and corpus scores."""
    per_cell = [
        json.dumps([[record_hash(r) for r in c["records"] if r["error"] is None],
                    c["corpus"]])
        for c in cells
    ]
    return {
        "digest": hashlib.sha256("\n".join(sorted(per_cell)).encode()).hexdigest(),
        "records": sorted(record_hash(r) for c in cells for r in c["records"]
                          if r["error"] is None),
    }


def check(result: dict, reference: dict, expected: int) -> dict:
    """Sentences attempted, scored and failed in one repetition."""
    summary = summarize(result["cells"])
    matched = collections.Counter(summary["records"]) & collections.Counter(reference["records"])
    failed = expected - sum(matched.values())
    if summary["digest"] != reference["digest"]:
        failed = max(failed, 1)
    return {
        "attempted": expected,
        "failed": failed,
        "scored": sum(1 for c in result["cells"] for r in c["records"] if r["error"] is None),
        "examples": sum(len(r["retrieved_ids"]) for c in result["cells"] for r in c["records"]
                        if r["error"] is None),
        "digest": summary["digest"],
    }


def machine_info() -> dict:
    import numpy

    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "platform": platform.platform()}


def bench(name: str, seed: int, seconds: float, trace: bool, write_reference: bool) -> dict:
    started = time.monotonic()
    deadline = started + 170.0
    workload = WORKLOADS[name]
    work = WORK / f"{name}-seed{seed}-trace{int(trace)}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    paths = gen.generate(seed, work / "data", **workload.sizes)
    expected = workload.cells * workload.sizes["test"]
    record = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": trace,
        "machine": machine_info(),
        "inputs": {**workload.sizes,
                   **gen.input_properties(paths, workload.pool_origins)},
        "repetitions": [],
    }

    with mock_server(workload.mock_delays) as mock:
        base = {"workload": name, "data": str(work / "data")}
        if workload.provider == "replay":
            base["replay_dir"] = str(work / "fixtures")
            reference = record_fixtures(base, mock, work, deadline)
            record["record_pass"] = reference
        else:
            base["base_url"] = mock.url
            reference = None
        committed = json.loads(REFERENCE.read_text(encoding="utf-8")) if REFERENCE.exists() else {}
        if seed == DEFAULT_SEED and name in committed and not write_reference:
            reference = committed[name]
            record["reference"] = "committed"
        else:
            record["reference"] = "record pass" if reference else "first repetition"

        measure_start = time.monotonic()
        last = 0.0
        modes = ["timed", "traced"] if trace else ["timed"]
        while True:
            reps = len(record["repetitions"])
            now = time.monotonic()
            if reps >= MIN_REPS * len(modes) and now - measure_start >= seconds:
                break
            if reps and reps % len(modes) == 0 and now - started + last > TIME_CAP_S:
                break
            mode = modes[reps % len(modes)]
            out = work / "out"
            cache = work / "cache"
            shutil.rmtree(out, ignore_errors=True)
            shutil.rmtree(cache, ignore_errors=True)
            spec = {**base, "mode": mode, "out": str(out), "run_id": reps}
            if workload.provider == "http":
                spec["cache_dir"] = str(cache)
            mock.reset()
            began = time.monotonic()
            result = run_child(spec, work, deadline)
            last = time.monotonic() - began
            if reference is None:
                reference = summarize(result["cells"])
            result.update(check(result, reference, expected), mode=mode, mock=mock.stats())
            record["repetitions"].append(result)
    shutil.rmtree(work)

    if write_reference:
        if seed != DEFAULT_SEED:
            raise SystemExit("--write-reference needs the default seed")
        committed[name] = reference
        REFERENCE.write_text(json.dumps(committed, indent=1, sort_keys=True) + "\n",
                             encoding="utf-8")
    return record


def end_to_end(reps: list[dict]) -> dict:
    timed = [r for r in reps if r["mode"] == "timed"]
    # Pooled, not a median of per-repetition rates: the host's speed shifts
    # between states lasting several repetitions, and a median follows
    # whichever state held most of the run, where the pooled rate weighs
    # each state by its share of the run's time.
    scored = sum(r["scored"] for r in timed)
    return {
        "sentences_per_s": (scored / sum(r["wall_s"] for r in timed), "1/s"),
        "setup_s": (statistics.median(r["setup_s"] or r["wall_s"] for r in timed), "s"),
        "peak_rss_mb": (statistics.median(r["peak_rss_mb"] for r in timed), "MB"),
    }


def per_layer(reps: list[dict]) -> dict:
    import tracing

    traced = [r for r in reps if r["mode"] == "traced"]
    timed = [r for r in reps if r["mode"] == "timed"]
    metrics = tracing.layer_metrics(traced)
    metrics["trace.overhead_ratio"] = (
        statistics.median(r["wall_s"] for r in traced)
        / statistics.median(r["wall_s"] for r in timed), "ratio")
    return metrics


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description="ragmt experiment-loop benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-reference", action="store_true")
    args = parser.parse_args(argv)
    if not (SRC / "ragmt" / "__init__.py").is_file():
        sys.exit(f"perfbench: no ragmt sources under {SRC}; run from a checkout of the repository")
    sys.path.insert(0, str(SRC))

    record = bench(args.workload, args.seed, args.seconds, bool(args.trace),
                   args.write_reference)
    reps = record["repetitions"]
    attempted = sum(r["attempted"] for r in reps)
    failed = sum(r["failed"] for r in reps)
    errors = [r["error"] for r in reps if r["error"]]
    correct = failed == 0 and not errors
    metrics = per_layer(reps) if args.trace else end_to_end(reps)

    records_dir = WORK / "records"
    records_dir.mkdir(parents=True, exist_ok=True)
    record.update(attempted=attempted, failed=failed, correct=correct,
                  metrics={k: v for k, (v, _) in metrics.items()})
    record_path = records_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record_path.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")

    print(f"{args.workload} seed={args.seed} repetitions={len(reps)} "
          f"reference={record['reference']} record={record_path.relative_to(ROOT)}")
    for error in errors[:1]:
        print(error.rstrip())
    for key, (value, unit) in metrics.items():
        print(f"  {key:40s} {value:14.6g} {unit}")
    print(f"  {'error_rate':40s} {failed / attempted:14.6g} ratio "
          f"({failed} of {attempted} sentences failed)")
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    if not correct:
        sys.exit(1)


if __name__ == "__main__":
    main()
