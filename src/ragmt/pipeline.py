"""Experiment orchestration: baselines, retrieval sweeps, and comparisons.

A run walks the test set sentence by sentence: retrieve context per the
config and render the prompt on the calling thread, send the prompt to the
provider from a pool of ``max_in_flight`` worker threads (or score the
supplied draft directly in NMT_ONLY mode), then score everything with
chrF++ and BLEU. Records are kept in test order, so a run's files do not
depend on ``max_in_flight``. Every run persists a manifest so interrupted
sweeps can resume and every completion stays traceable to a cached exchange.
"""

from __future__ import annotations

import csv
import hashlib
import json
import random
import statistics
from collections import deque
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path

from . import metrics, retrieval
from .corpus import LexiconEntry, ParallelPair, load_lexicon, load_parallel
from .metrics import ChrfParams, EvalReport, WhitespaceTokenizer
from .prompt import (
    DHAO_PROFILE,
    ContextBundle,
    LanguageProfile,
    render_direct,
    render_postedit,
)
from .provider import ProviderConfig, ProviderError, build_provider

MODES = ("NMT_ONLY", "DIRECT_LLM", "POST_EDIT")
CONTEXTS = ("NONE", "STATIC_K", "BM25", "DENSE", "CHRF_CW", "FUZZY_WORD")
LEXICON_MODES = ("NONE", "FUZZY_N", "FULL")


class ConfigError(ValueError):
    """Raised for invalid experiment configurations, before any network call."""


@dataclass
class ExperimentConfig:
    mode: str
    context: str = "NONE"
    lexicon_mode: str = "NONE"
    k: int | None = None
    n: int | None = None
    lexicon_n: int | None = None
    retrieval_corpus: str = "NT"
    static_seed: int = 0
    gamma: float = 0.5
    corpus_path: str = ""
    lexicon_path: str = ""
    test_path: str = ""
    draft_path: str = ""
    output_dir: str = "runs"
    provider: ProviderConfig | None = None
    language: str = "Dhao"

    def __post_init__(self):
        if self.mode not in MODES:
            raise ConfigError(f"unknown mode {self.mode!r}")
        if self.context not in CONTEXTS:
            raise ConfigError(f"unknown context {self.context!r}")
        if self.lexicon_mode not in LEXICON_MODES:
            raise ConfigError(f"unknown lexicon_mode {self.lexicon_mode!r}")
        if self.retrieval_corpus not in ("NT", "NT_PLUS_GRAMMAR"):
            raise ConfigError(f"unknown retrieval_corpus {self.retrieval_corpus!r}")
        if self.mode == "NMT_ONLY":
            if not self.draft_path:
                raise ConfigError("NMT_ONLY requires a draft file")
            if self.provider is not None:
                raise ConfigError("NMT_ONLY forbids a provider")
        else:
            if self.provider is None:
                raise ConfigError(f"{self.mode} requires a provider")
        if self.mode == "POST_EDIT" and not self.draft_path:
            raise ConfigError("POST_EDIT requires a draft file")
        if self.context == "STATIC_K" and (self.k is None or self.k < 1):
            raise ConfigError("STATIC_K requires k >= 1")
        if self.context in ("BM25", "DENSE", "CHRF_CW") and (self.k is None or self.k < 1):
            raise ConfigError(f"{self.context} requires k >= 1")
        if self.context == "DENSE" and self.provider is None:
            raise ConfigError("DENSE requires a provider for embeddings")
        if self.context == "FUZZY_WORD" and (self.n is None or self.n < 1):
            raise ConfigError("FUZZY_WORD requires n >= 1")
        if self.lexicon_mode == "FUZZY_N" and (self.lexicon_n is None or self.lexicon_n < 1):
            raise ConfigError("FUZZY_N requires lexicon_n >= 1")
        if self.lexicon_mode != "NONE" and not self.lexicon_path:
            raise ConfigError(f"lexicon_mode {self.lexicon_mode} requires a lexicon file")

    def to_dict(self) -> dict:
        data = asdict(self)
        if self.provider is None:
            del data["provider"]
        return data

    @classmethod
    def from_dict(cls, data: dict) -> "ExperimentConfig":
        data = dict(data)
        provider = data.pop("provider", None)
        if provider is not None:
            provider = ProviderConfig.from_dict(provider)
        return cls(provider=provider, **data)

    @classmethod
    def load(cls, path: str | Path) -> "ExperimentConfig":
        return cls.from_dict(json.loads(Path(path).read_text(encoding="utf-8")))

    def fingerprint(self) -> str:
        """The run's identity, naming its manifest and report: every field
        that decides its outputs. Where it writes and how it reaches the
        model stay out, so a resume or replay may change them."""
        identity = self.to_dict()
        del identity["output_dir"]
        if self.provider is not None:
            # the provider fields a request key hashes; the rest say how to reach the model
            identity["provider"] = {
                name: identity["provider"][name]
                for name in ("model_name", "embedding_model_name", "temperature")
            }
        return hashlib.sha256(
            json.dumps(identity, sort_keys=True, ensure_ascii=False).encode()
        ).hexdigest()[:16]


def final_preset(**overrides) -> dict:
    """The combined best configuration: word-level fuzzy n=10 + full lexicon."""
    preset = {
        "mode": "POST_EDIT",
        "context": "FUZZY_WORD",
        "n": 10,
        "lexicon_mode": "FULL",
        "retrieval_corpus": "NT_PLUS_GRAMMAR",
    }
    preset.update(overrides)
    return preset


@dataclass
class SentenceRecord:
    id: str
    source: str
    reference: str
    draft: str | None
    retrieved_ids: list[str]
    lexicon_count: int
    effective_k: int
    prompt_hash: str | None
    completion: str | None
    bleu: float | None = None
    chrf: float | None = None
    error: str | None = None


@dataclass
class RunManifest:
    config_fingerprint: str
    corpus_hashes: dict = field(default_factory=dict)
    records: list[SentenceRecord] = field(default_factory=list)
    effective_k_mean: float = 0.0

    def to_dict(self) -> dict:
        return {
            "config_fingerprint": self.config_fingerprint,
            "corpus_hashes": self.corpus_hashes,
            "effective_k_mean": self.effective_k_mean,
            "records": [vars(r).copy() for r in self.records],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "RunManifest":
        return cls(
            config_fingerprint=data["config_fingerprint"],
            corpus_hashes=data.get("corpus_hashes", {}),
            effective_k_mean=data.get("effective_k_mean", 0.0),
            records=[SentenceRecord(**r) for r in data.get("records", [])],
        )

    def save(self, path: str | Path) -> None:
        Path(path).parent.mkdir(parents=True, exist_ok=True)
        Path(path).write_text(
            json.dumps(self.to_dict(), sort_keys=True, ensure_ascii=False, indent=1),
            encoding="utf-8",
        )

    @classmethod
    def load(cls, path: str | Path) -> "RunManifest":
        return cls.from_dict(json.loads(Path(path).read_text(encoding="utf-8")))


def _prompt_digest(system: str, user: str) -> str:
    return hashlib.sha256(f"{system}\x1e{user}".encode()).hexdigest()


def _prompt_hash(system: str, user: str) -> str:
    return _prompt_digest(system, user)[:16]


def _rows_hash(rows) -> str:
    """Content hash of rows of strings: fields joined by \\x1f, rows ended by \\x1e."""
    h = hashlib.sha256()
    for row in rows:
        h.update(("\x1f".join(row) + "\x1e").encode())
    return h.hexdigest()


def _pairs_hash(pairs: list[ParallelPair]) -> str:
    return _rows_hash((p.id, p.source_text, p.target_text, p.origin) for p in pairs)


def load_drafts(path: str | Path) -> dict[str, str]:
    """Draft file: ``id \\t hypothesis`` per line."""
    drafts: dict[str, str] = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.rstrip("\n")
            if not line.strip():
                continue
            cols = line.split("\t")
            if len(cols) != 2:
                raise ConfigError(f"draft file line {lineno}: expected 2 columns")
            drafts[cols[0]] = cols[1]
    return drafts


class _ContextSource:
    """Per-sentence examples and lexicon entries for one experiment cell;
    each index or static draw is made on first use and kept for the cell."""

    def __init__(self, config: ExperimentConfig, pool: list[ParallelPair],
                 lexicon: list[LexiconEntry], provider):
        self.config = config
        self.pool = pool
        self.lexicon = lexicon
        self._retriever: retrieval.Retriever | None = None
        if config.context not in ("NONE", "STATIC_K"):
            self._retriever = retrieval.Retriever(
                config.context, pool, gamma=config.gamma, provider=provider
            )
        self._lexicon_index: retrieval._TokenMatcher | None = None
        self._static: list[retrieval.RetrievedExample] | None = None

    def _static_examples(self) -> list[retrieval.RetrievedExample]:
        # fixed corpus-wide: the same seeded draw is reused for every sentence
        if self._static is None:
            nt = [p for p in self.pool if p.origin == "NT"]
            if len(nt) < self.config.k:
                raise ConfigError(f"STATIC_K: only {len(nt)} NT pairs for k={self.config.k}")
            chosen = random.Random(self.config.static_seed).sample(nt, self.config.k)
            self._static = [
                retrieval.RetrievedExample(pair=p, score=1.0, strategy="STATIC")
                for p in chosen
            ]
        return self._static

    def prepare(self, sources: list[str]) -> None:
        """Ahead of the loop: embed every DENSE query in one batch."""
        if self._retriever is not None:
            self._retriever.prepare(sources)

    def examples_for(self, source: str) -> list[retrieval.RetrievedExample]:
        cfg = self.config
        if cfg.context == "NONE":
            return []
        if cfg.context == "STATIC_K":
            return self._static_examples()
        return self._retriever.retrieve(source, cfg.n if cfg.context == "FUZZY_WORD" else cfg.k)

    def lexicon_for(self, source: str) -> list[retrieval.RetrievedLexicon]:
        cfg = self.config
        if cfg.lexicon_mode == "NONE":
            return []
        if cfg.lexicon_mode == "FULL":
            return retrieval.lexicon_full(self.lexicon)
        if self._lexicon_index is None:
            self._lexicon_index = retrieval._TokenMatcher.over_lexicon(self.lexicon)
        return retrieval.lexicon_fuzzy_retrieve(self._lexicon_index, source, cfg.lexicon_n)


def _completion_text(provider, rendered) -> str:
    return provider.complete(rendered).response_text


def run_experiment(
    config: ExperimentConfig,
    provider=None,
    resume: bool = True,
) -> tuple[EvalReport, RunManifest]:
    """Execute one experiment cell and return (report, manifest).

    A provider failure stops sending prompts and aborts the run once the
    ones in flight have settled; the partial manifest keeps every completed
    sentence and the first failed one, and rerunning with ``resume=True``
    skips the completed sentences.
    """
    fingerprint = config.fingerprint()
    test_pairs = load_parallel(config.test_path)
    if not test_pairs:
        raise ConfigError("test set is empty")
    pool: list[ParallelPair] = []
    if config.context not in ("NONE",):
        all_pairs = load_parallel(config.corpus_path)
        wanted = ("NT",) if config.retrieval_corpus == "NT" else ("NT", "GRAMMAR")
        pool = [p for p in all_pairs if p.origin in wanted]
    lexicon = load_lexicon(config.lexicon_path) if config.lexicon_mode != "NONE" else []
    drafts = load_drafts(config.draft_path) if config.draft_path else {}
    missing = [p.id for p in test_pairs if p.id not in drafts]
    if config.draft_path and missing:
        raise ConfigError(f"draft file missing ids: {missing[:5]}")
    if config.mode == "POST_EDIT":
        # NMT_ONLY scores an empty draft as it is; post-editing needs text to edit
        empty = [p.id for p in test_pairs if not drafts[p.id].strip()]
        if empty:
            raise ConfigError(f"POST_EDIT needs a non-empty draft; empty for ids: {empty[:5]}")

    if config.mode != "NMT_ONLY" and provider is None:
        provider = build_provider(config.provider)

    out_dir = Path(config.output_dir)
    manifest_path = out_dir / f"manifest-{fingerprint}.json"
    manifest = RunManifest(
        config_fingerprint=fingerprint,
        corpus_hashes={
            "test": _pairs_hash(test_pairs),
            "pool": _pairs_hash(pool),
            "lexicon": _rows_hash((e.source_word, e.pos or "", e.target_word) for e in lexicon),
            "drafts": _rows_hash(drafts.items()),
        },
    )
    done: dict[str, SentenceRecord] = {}
    if resume and manifest_path.exists():
        prior = RunManifest.load(manifest_path)
        # the fingerprint hashes file paths, not contents: a file edited in
        # place keeps it, so its records are reused only if every input matches
        if (prior.config_fingerprint == fingerprint
                and prior.corpus_hashes == manifest.corpus_hashes):
            done = {r.id: r for r in prior.records if r.error is None}

    profile = (
        DHAO_PROFILE if config.language == "Dhao" else LanguageProfile(name=config.language)
    )
    retriever = _ContextSource(config, pool, lexicon, provider)
    retriever.prepare([p.source_text for p in test_pairs if p.id not in done])

    # Retrieval and rendering stay on this thread, in test order; prompts go
    # to max_in_flight workers. The oldest is settled before another is
    # sent, so at most max_in_flight prompts wait on the provider at once.
    in_flight = config.provider.max_in_flight if config.provider else 1
    window: deque[tuple[SentenceRecord, Future]] = deque()
    sent: dict[str, Future] = {}  # prompt digest -> its completion text
    failed: SentenceRecord | None = None
    failure: ProviderError | None = None

    def settle_oldest() -> None:
        nonlocal failed, failure
        record, future = window.popleft()
        try:
            record.completion = future.result()
        except ProviderError as exc:
            record.error = str(exc)
            if failure is None:  # settled in test order: the first failure
                failed, failure = record, exc

    with ThreadPoolExecutor(max_workers=in_flight) as executor:
        for pair in test_pairs:
            if pair.id in done:
                manifest.records.append(done[pair.id])
                continue
            if failure is not None:  # send nothing more after a failure
                continue
            draft = drafts.get(pair.id)
            examples = retriever.examples_for(pair.source_text)
            lex = retriever.lexicon_for(pair.source_text)
            bundle = ContextBundle(examples=examples, lexicon=lex)
            record = SentenceRecord(
                id=pair.id,
                source=pair.source_text,
                reference=pair.target_text,
                draft=draft,
                retrieved_ids=[ex.pair.id for ex in examples],
                lexicon_count=len(lex),
                effective_k=len(examples),
                prompt_hash=None,
                completion=None,
            )
            if config.mode == "NMT_ONLY":
                record.completion = draft
                manifest.records.append(record)
                continue
            if config.mode == "POST_EDIT":
                rendered = render_postedit(pair.source_text, draft, bundle, profile)
            else:
                rendered = render_direct(pair.source_text, bundle, profile)
            digest = _prompt_digest(rendered.system, rendered.user)
            record.prompt_hash = digest[:16]
            # a prompt already sent in this run is not sent again
            future = sent.get(digest)
            if future is None:
                while len(window) >= in_flight:
                    settle_oldest()
                if failure is not None:
                    continue
                future = sent[digest] = executor.submit(_completion_text, provider, rendered)
            manifest.records.append(record)
            window.append((record, future))
        while window:
            settle_oldest()
    # keep the first failure in test order; the later ones are resent on resume
    manifest.records = [r for r in manifest.records if r.error is None or r is failed]

    completed = [r for r in manifest.records if r.error is None]
    if completed:
        report = metrics.evaluate(
            ids=[r.id for r in completed],
            hypotheses=[r.completion for r in completed],
            references=[r.reference for r in completed],
            tokenizer=WhitespaceTokenizer(),
            chrf_params=ChrfParams(),
            config_fingerprint=fingerprint,
        )
        for record, score in zip(completed, report.per_sentence):
            record.bleu = score.bleu
            record.chrf = score.chrf
        manifest.effective_k_mean = statistics.fmean(r.effective_k for r in completed)
    manifest.save(manifest_path)

    if failure is not None:
        raise ProviderError(
            f"run aborted after provider failure (partial manifest at {manifest_path}): {failure}",
            failure.status,
        )

    report.metadata["test_fingerprint"] = manifest.corpus_hashes["test"]
    report.metadata["effective_k_mean"] = manifest.effective_k_mean
    report.metadata["temperature"] = (
        config.provider.temperature if config.provider else None
    )
    report.metadata["mode"] = config.mode
    report.metadata["context"] = config.context
    report_path = out_dir / f"report-{fingerprint}.json"
    report_path.write_text(
        json.dumps(report.to_dict(), sort_keys=True, ensure_ascii=False, indent=1),
        encoding="utf-8",
    )
    return report, manifest


SWEEP_COLUMNS = ("strategy", "k_or_n", "effective_k_mean", "spBLEU", "chrF++", "error")


def sweep(
    base_config: ExperimentConfig,
    values: list[int],
    provider=None,
    csv_path: str | Path | None = None,
) -> list[dict]:
    """One run per k/n value; failed cells are marked and the sweep continues."""
    if not values:
        raise ConfigError("sweep requires at least one value")
    rows = []
    for value in values:
        if base_config.context == "FUZZY_WORD":
            config = replace(base_config, n=value)
        else:
            config = replace(base_config, k=value)
        row = {
            "strategy": config.context,
            "k_or_n": value,
            "effective_k_mean": "",
            "spBLEU": "",
            "chrF++": "",
            "error": "",
        }
        try:
            report, manifest = run_experiment(config, provider=provider)
            row["effective_k_mean"] = round(manifest.effective_k_mean, 2)
            row["spBLEU"] = round(report.corpus_bleu, 2)
            row["chrF++"] = round(report.corpus_chrf, 2)
        except (ProviderError, ConfigError, OSError) as exc:
            row["error"] = str(exc)
        rows.append(row)
    if csv_path is not None:
        write_sweep_csv(csv_path, rows)
    return rows


def write_sweep_csv(path: str | Path, rows: list[dict]) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=SWEEP_COLUMNS)
        writer.writeheader()
        writer.writerows(rows)


def read_sweep_csv(path: str | Path) -> list[dict]:
    with open(path, encoding="utf-8", newline="") as fh:
        return list(csv.DictReader(fh))


def compare(reports: dict[str, EvalReport], baseline: str) -> list[dict]:
    """Ranking table with (+x.xx) deltas against the named baseline row."""
    if len(reports) < 2:
        raise ValueError("compare needs at least two reports")
    if baseline not in reports:
        raise ValueError(f"unknown baseline {baseline!r}")
    fingerprints = {
        r.metadata.get("test_fingerprint") for r in reports.values()
    }
    if len(fingerprints) > 1:
        raise ValueError(f"reports cover different test sets: {sorted(map(str, fingerprints))}")
    base = reports[baseline]
    base_bleu = round(base.corpus_bleu, 2)
    base_chrf = round(base.corpus_chrf, 2)
    rows = []
    for label, report in reports.items():
        bleu = round(report.corpus_bleu, 2)
        chrf = round(report.corpus_chrf, 2)
        rows.append({
            "label": label,
            "spBLEU": bleu,
            "chrF++": chrf,
            "delta_spBLEU": f"{bleu - base_bleu:+.2f}",
            "delta_chrF++": f"{chrf - base_chrf:+.2f}",
        })
    rows.sort(key=lambda r: -r["chrF++"])
    return rows
