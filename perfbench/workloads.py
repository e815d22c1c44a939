"""The benchmark's workloads: input sizes, experiment cell and provider.

Sizes are far below the paper's (an ~8k-pair pool, 500 test verses) because
the brute-force retrievers cost seconds per query at that scale and one
repetition has to fit a few seconds. The generator's default is still the
paper's scale, and every cost here grows linearly with pool and test size.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(frozen=True)
class Workload:
    why: str
    sizes: dict  # generator sizes: nt, grammar, test, lexicon
    cell: dict  # ExperimentConfig fields; final_preset() fills them when empty
    provider: str  # "replay" over recorded fixtures, or "http" to the mock
    sweep: tuple = ()  # sweep values; empty for a single run_experiment cell
    mock_delays: dict = field(default_factory=lambda: {"chat": 0.0, "embed": 0.0})

    @property
    def pool_origins(self) -> tuple:
        corpus = self.cell.get("retrieval_corpus", "NT_PLUS_GRAMMAR")
        return ("NT",) if corpus == "NT" else ("NT", "GRAMMAR")

    @property
    def cells(self) -> int:
        return len(self.sweep) or 1


WORKLOADS = {
    "fuzzy_final_replay": Workload(
        why="the paper's best system: fuzzy-word retrieval dominates and prompts "
            "carry the full lexicon; the provider only reads fixtures from disk",
        sizes={"nt": 150, "grammar": 10, "test": 5, "lexicon": 3000},
        cell={},
        provider="replay",
    ),
    "chrfcw_sweep_replay": Workload(
        why="a 4-cell k sweep that reloads, re-indexes and re-scores per cell; "
            "chrF-CW profile rebuilds and the lexicon fuzzy scan dominate",
        sizes={"nt": 300, "grammar": 0, "test": 3, "lexicon": 500},
        cell={"mode": "POST_EDIT", "context": "CHRF_CW", "k": 1,
              "lexicon_mode": "FUZZY_N", "lexicon_n": 2, "retrieval_corpus": "NT"},
        provider="replay",
        sweep=(1, 2, 5, 10),
    ),
    "dense_http_cold": Workload(
        why="dense retrieval over HTTP to a delayed mock with a cold cache: "
            "provider calls dominate and the cache is written",
        sizes={"nt": 1875, "grammar": 125, "test": 30, "lexicon": 0},
        cell={"mode": "POST_EDIT", "context": "DENSE", "k": 5,
              "retrieval_corpus": "NT_PLUS_GRAMMAR"},
        provider="http",
        mock_delays={"chat": 0.05, "embed": 0.02},
    ),
}
