"""The benchmark's own checks, on tiny inputs.

Run: python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import sys
import time
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import gen  # noqa: E402
import run  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

TINY = {"nt": 40, "grammar": 4, "test": 3, "lexicon": 60}


def _replay_setup(name: str, seed: int, tmp_path: Path, mock) -> tuple[dict, dict]:
    gen.generate(seed, tmp_path / "data", **TINY)
    base = {"workload": name, "data": str(tmp_path / "data"),
            "replay_dir": str(tmp_path / "fixtures")}
    reference = run.record_fixtures(base, mock, tmp_path, time.monotonic() + 120)
    return base, reference


def test_same_seed_gives_identical_files(tmp_path):
    first = gen.generate(7, tmp_path / "a", **TINY)
    second = gen.generate(7, tmp_path / "b", **TINY)
    other = gen.generate(8, tmp_path / "c", **TINY)
    for name, path in first.items():
        assert path.read_bytes() == second[name].read_bytes(), name
    assert first["corpus"].read_bytes() != other["corpus"].read_bytes()


@pytest.mark.parametrize("name", ["chrfcw_sweep_replay", "fuzzy_final_replay"])
def test_traced_and_untraced_runs_agree(name, tmp_path):
    workload = WORKLOADS[name]
    with run.mock_server(workload.mock_delays) as mock:
        base, reference = _replay_setup(name, 3, tmp_path, mock)
        digests = []
        for mode in ("timed", "traced"):
            out = tmp_path / mode
            result = run.run_child({**base, "mode": mode, "out": str(out)},
                                   tmp_path, time.monotonic() + 120)
            counts = run.check(result, reference, workload.cells * TINY["test"])
            assert result["error"] is None
            assert counts["failed"] == 0
            digests.append(counts["digest"])
    assert digests == [reference["digest"]] * 2
    assert result["spans"], "the traced run recorded no spans"


@pytest.mark.parametrize("name", ["chrfcw_sweep_replay", "fuzzy_final_replay"])
def test_missing_fixture_counts_as_failed(name, tmp_path):
    workload = WORKLOADS[name]
    with run.mock_server(workload.mock_delays) as mock:
        base, reference = _replay_setup(name, 4, tmp_path, mock)
        fixtures = sorted((tmp_path / "fixtures").glob("*.json"))
        assert len(fixtures) == workload.cells * TINY["test"]
        fixtures[0].unlink()
        result = run.run_child({**base, "mode": "timed", "out": str(tmp_path / "out")},
                               tmp_path, time.monotonic() + 120)
    counts = run.check(result, reference, workload.cells * TINY["test"])
    assert counts["failed"] >= 1
    assert counts["scored"] < workload.cells * TINY["test"]


def test_tail_needs_ten_samples_beyond():
    from tracing import tail

    assert tail([3.0, 1.0, 2.0]) == 3.0  # too few samples: the maximum
    values = [float(i) for i in range(1, 101)]
    assert tail(values) == 90.0  # p90 has 10 samples beyond it; p95 has 5
