"""Experiment orchestration: baselines, retrieval sweeps, and comparisons.

A run opens one session over its inputs. The session reads and checks the
inputs, hashes them and builds the provider, unless one is handed in. It
retrieves each test sentence's examples and lexicon entries once, at the
largest k or n of a sweep, when the first cell reaches the sentence, and
renders each glossary block once. Its ``run`` dispatches one cell: render
each prompt on the calling thread, send it to the provider from a pool of
``max_in_flight`` worker threads (or score the supplied draft directly in
NMT_ONLY mode), then score everything with chrF++ and BLEU. A replay
(``replay_dir`` set) reaches no network, so its prompts are answered on
the calling thread, one at a time, with no worker pool
(``chrfcw_sweep_replay``: 198 -> 225 sentences/s, medians of 10 runs on
2 vCPUs; a paper-scale ``final_preset()`` replay cell, with the FULL
glossary rendered once and the fuzzy top lists memoised, 5.6-5.9 s ->
4.2-4.3 s).
``run_experiment`` is one session and one cell; ``sweep`` is one session
and a cell per value, and each of its cells writes the files a single run
would. Records are kept in test order, so a run's files do not depend on
``max_in_flight`` or on replaying. Every run persists a manifest, replaced
whole on each save, so interrupted sweeps can resume and every completion
stays traceable to a cached exchange.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import random
import typing
from collections.abc import Callable
from concurrent.futures import FIRST_COMPLETED, Future, ThreadPoolExecutor, wait
from dataclasses import MISSING, asdict, dataclass, field, fields, is_dataclass, replace
from pathlib import Path

from . import metrics, retrieval
from .corpus import (CorpusError, LexiconEntry, ParallelPair, load_lexicon, load_parallel,
                     naming_errors)
from .metrics import ChrfParams, EvalReport, WhitespaceTokenizer
from .prompt import (
    DHAO_PROFILE,
    ContextBundle,
    LanguageProfile,
    glossary_block,
    render_direct,
    render_postedit,
)
from .provider import Provider, ProviderConfig, ProviderError, _write_atomic

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
        if not 0.0 <= self.gamma <= 1.0:
            raise ConfigError(f"gamma must be in [0, 1], got {self.gamma!r}")
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
        """A config from its JSON object; anything invalid is a ``ConfigError``."""
        data = _checked(cls, data, "config")
        if data.get("provider") is not None:
            data["provider"] = provider_config_from_dict(data["provider"])
        return cls(**data)

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


def provider_config_from_dict(data) -> ProviderConfig:
    """A provider config from its JSON object; anything invalid is a ``ConfigError``."""
    data = _checked(ProviderConfig, data, "provider")
    try:
        config = ProviderConfig(**data)
    except ValueError as exc:
        raise ConfigError(f"provider: {exc}") from None
    if not config.base_url and not config.replay_dir:
        raise ConfigError("provider: base_url is required without replay_dir")
    return config


def _checked(cls, data, what: str) -> dict:
    """``data``, checked to be a JSON object of ``cls``'s fields, each of its
    declared type; a float may be given as an int, a nested config as an
    object."""
    if not isinstance(data, dict):
        raise ConfigError(f"{what} must be a JSON object, got {type(data).__name__}")
    unknown = sorted(set(data) - {f.name for f in fields(cls)})
    if unknown:
        raise ConfigError(f"unknown {what} field(s): {', '.join(map(repr, unknown))}")
    hints = typing.get_type_hints(cls)
    for f in fields(cls):
        if f.name not in data:
            if f.default is MISSING and f.default_factory is MISSING:
                raise ConfigError(f"{what} field {f.name!r} is missing")
            continue
        allowed = tuple(dict if is_dataclass(t) else t
                        for t in typing.get_args(hints[f.name]) or (hints[f.name],))
        allowed += (int,) if float in allowed else ()
        if isinstance(data[f.name], bool) or not isinstance(data[f.name], allowed):
            raise ConfigError(f"{what} field {f.name!r} must be {f.type}, got {data[f.name]!r}")
    return dict(data)


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
        _write_atomic(Path(path), json.dumps(self.to_dict(), sort_keys=True,
                                             ensure_ascii=False, indent=1))

    @classmethod
    def load(cls, path: str | Path) -> "RunManifest":
        """A saved manifest; one that is not UTF-8 JSON of a manifest's shape
        is a ``ConfigError`` naming ``path``."""
        with naming_errors(path, ConfigError):
            data = json.loads(Path(path).read_text(encoding="utf-8"))
            try:
                return cls.from_dict(data)
            except (AttributeError, KeyError, TypeError):
                raise ConfigError("not a run manifest") from None


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
    """Draft file: ``id \\t hypothesis`` per line, each id once."""
    drafts: dict[str, str] = {}
    seen: dict[str, int] = {}
    with naming_errors(path, ConfigError), open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.rstrip("\n")
            if not line.strip():
                continue
            cols = line.split("\t")
            if len(cols) != 2:
                raise ConfigError(f"line {lineno}: expected 2 TSV columns, got {len(cols)}")
            if cols[0] in seen:
                raise ConfigError(
                    f"duplicate id {cols[0]!r} on lines {seen[cols[0]]} and {lineno}"
                )
            seen[cols[0]] = lineno
            drafts[cols[0]] = cols[1]
    return drafts


def load_pool(path: str, retrieval_corpus: str, context: str) -> list[ParallelPair]:
    """The pairs of the corpus at ``path`` that a ``retrieval_corpus`` pool
    (NT or NT_PLUS_GRAMMAR) holds; an empty pool is a ``ConfigError``."""
    wanted = ("NT",) if retrieval_corpus == "NT" else ("NT", "GRAMMAR")
    pool = [p for p in load_parallel(path) if p.origin in wanted]
    if not pool:
        raise ConfigError(f"{context}: the retrieval pool is empty "
                          f"(no {' or '.join(wanted)} pairs in {path})")
    return pool


def _size(config: ExperimentConfig) -> int | None:
    """How many examples a cell asks for: n for FUZZY_WORD, else k."""
    return config.n if config.context == "FUZZY_WORD" else config.k


class _Session:
    """One set of inputs and what every cell of a sweep over them shares:
    their content hashes, the provider and the plan.

    Built, like ``open``, it reads, checks and hashes the inputs, then
    builds the provider when none is handed in, so an input that fails to
    load leaves nothing open; on exit it closes only a provider it built.
    ``config`` may be any cell of a sweep: its cells differ only in k or n.

    The plan: one retriever retrieves each sentence's examples at ``size``,
    the largest any cell asks for, and each cell reads its own size from
    them (``Retriever.prefixes``). STATIC_K draws per k instead: a seeded
    sample of k is not a prefix of a larger one.
    """

    def __init__(self, config: ExperimentConfig, provider, size: int | None):
        self.config = config
        self.size = size
        self.test_pairs = load_parallel(config.test_path)
        if not self.test_pairs:
            raise ConfigError("test set is empty")
        self.pool = ([] if config.context == "NONE"
                     else load_pool(config.corpus_path, config.retrieval_corpus, config.context))
        self.lexicon = load_lexicon(config.lexicon_path) if config.lexicon_mode != "NONE" else []
        self.drafts = load_drafts(config.draft_path) if config.draft_path else {}
        missing = [p.id for p in self.test_pairs if p.id not in self.drafts]
        if config.draft_path and missing:
            raise ConfigError(f"draft file missing ids: {missing[:5]}")
        if config.mode == "POST_EDIT":
            # NMT_ONLY scores an empty draft as it is; post-editing needs text to edit
            empty = [p.id for p in self.test_pairs if not self.drafts[p.id].strip()]
            if empty:
                raise ConfigError(f"POST_EDIT needs a non-empty draft; empty for ids: {empty[:5]}")
        self.corpus_hashes = {
            "test": _pairs_hash(self.test_pairs),
            "pool": _pairs_hash(self.pool),
            "lexicon": _rows_hash((e.source_word, e.pos or "", e.target_word)
                                  for e in self.lexicon),
            "drafts": _rows_hash(self.drafts.items()),
        }
        self.profile = (DHAO_PROFILE if config.language == "Dhao"
                        else LanguageProfile(name=config.language))
        # FULL: the whole dictionary's block, one string shared by every
        # prompt; ("", 0) in the other modes
        self._full = self._glossary(self.lexicon if config.lexicon_mode == "FULL" else [])
        self._examples: dict[int, Callable[[int], list[retrieval.RetrievedExample]]] = {}
        self._lexicon: dict[int, tuple[str, int]] = {}  # FUZZY_N, per sentence
        self._lexicon_index: retrieval.TokenIndex | None = None
        self._static: dict[int, list[retrieval.RetrievedExample]] = {}

        self._built = None
        if config.mode != "NMT_ONLY" and provider is None:
            provider = self._built = Provider(config.provider)
        self.provider = provider
        self._retriever: retrieval.Retriever | None = None
        if config.context not in ("NONE", "STATIC_K"):
            self._retriever = retrieval.Retriever(
                config.context, self.pool, gamma=config.gamma, provider=provider
            )

    def __enter__(self) -> "_Session":
        return self

    def __exit__(self, *exc_info) -> None:
        if self._built is not None:
            self._built.close()

    def _glossary(self, entries: list[LexiconEntry]) -> tuple[str, int]:
        """The glossary block of ``entries``, "" for none, and their count."""
        return (glossary_block(entries, self.profile) if entries else ""), len(entries)

    def prepare(self, indices: list[int]) -> None:
        """Ahead of a cell's loop: embed the DENSE queries of the test
        sentences at ``indices`` not planned yet, in one ``embed`` call
        (with the pool's texts, on the first)."""
        if self._retriever is not None:
            self._retriever.prepare([
                self.test_pairs[i].source_text for i in indices if i not in self._examples
            ])

    def _static_examples(self, k: int) -> list[retrieval.RetrievedExample]:
        # fixed corpus-wide: the same seeded draw is reused for every sentence
        if k not in self._static:
            nt = [p for p in self.pool if p.origin == "NT"]
            if len(nt) < k:
                raise ConfigError(f"STATIC_K: only {len(nt)} NT pairs for k={k}")
            chosen = random.Random(self.config.static_seed).sample(nt, k)
            self._static[k] = [
                retrieval.RetrievedExample(pair=p, score=1.0, strategy="STATIC")
                for p in chosen
            ]
        return self._static[k]

    def examples(self, i: int, size: int | None) -> list[retrieval.RetrievedExample]:
        """The examples of test sentence ``i`` for a cell asking for ``size``."""
        if self.config.context == "NONE":
            return []
        if self.config.context == "STATIC_K":
            return self._static_examples(size)
        if i not in self._examples:
            self._examples[i] = self._retriever.prefixes(self.test_pairs[i].source_text,
                                                         self.size)
        return self._examples[i](size)

    def context(self, i: int, size: int | None) -> tuple[ContextBundle, int]:
        """The context of test sentence ``i`` for a cell asking for ``size``,
        and how many lexicon entries it shows; every cell shows the same
        entries, in one glossary string rendered once per session."""
        examples = self.examples(i, size)
        if self.config.lexicon_mode == "FUZZY_N" and i not in self._lexicon:
            if self._lexicon_index is None:
                self._lexicon_index = retrieval.TokenIndex.over_lexicon(self.lexicon)
            hits = retrieval.lexicon_fuzzy_retrieve(
                self._lexicon_index, self.test_pairs[i].source_text, self.config.lexicon_n
            )
            self._lexicon[i] = self._glossary([hit.entry for hit in hits])
        glossary, count = self._lexicon.get(i, self._full)
        return ContextBundle(examples, glossary), count

    def run(self, config: ExperimentConfig, resume: bool) -> tuple[EvalReport, RunManifest]:
        """Render, send, score and save one cell, ``config``.

        A provider failure stops sending prompts and aborts the cell once
        the ones in flight have settled; the partial manifest keeps every
        completed sentence and the first failed one.
        """
        fingerprint = config.fingerprint()
        out_dir = Path(config.output_dir)
        manifest_path = out_dir / f"manifest-{fingerprint}.json"
        manifest = RunManifest(config_fingerprint=fingerprint,
                               corpus_hashes=dict(self.corpus_hashes))
        done: dict[str, SentenceRecord] = {}
        if resume and manifest_path.exists():
            prior = RunManifest.load(manifest_path)
            # the fingerprint hashes file paths, not contents: a file edited in
            # place keeps it, so its records are reused only if every input matches
            if (prior.config_fingerprint == fingerprint
                    and prior.corpus_hashes == manifest.corpus_hashes):
                done = {r.id: r for r in prior.records if r.error is None}

        size = _size(config)
        self.prepare([i for i, p in enumerate(self.test_pairs) if p.id not in done])

        # Retrieval and rendering stay on this thread, in test order; prompts
        # go to max_in_flight workers, and at most that many distinct prompts
        # are unsettled at once. A prompt that finds them all taken waits for
        # whichever answers first, so a slow or retried request holds only
        # its own worker. Every answered prompt is settled before the next
        # sentence is planned, so a failure seen there stops the run before
        # more retrieval and rendering. A replay answers each prompt on this
        # thread as it is sent and settles it before the next sentence, so
        # nothing is planned or sent after a failure.
        if config.provider is None or config.provider.replay_dir:
            in_flight, executor = 1, _Inline()
        else:
            in_flight = config.provider.max_in_flight
            executor = ThreadPoolExecutor(max_workers=in_flight)
        unsettled: list[tuple[int, SentenceRecord, Future]] = []  # in test order
        sent: dict[str, Future] = {}  # prompt digest -> its completion text
        failures: dict[int, tuple[SentenceRecord, ProviderError]] = {}  # by test index

        def settle(block: bool) -> None:
            """Settle every answered prompt; with ``block``, wait for one first."""
            if block:
                wait({pending for _, _, pending in unsettled}, return_when=FIRST_COMPLETED)
            waiting = []
            for i, record, future in unsettled:
                if not future.done():
                    waiting.append((i, record, future))
                    continue
                try:
                    record.completion = future.result()
                except ProviderError as exc:
                    record.error = str(exc)
                    failures[i] = record, exc
            unsettled[:] = waiting

        with executor:
            for i, pair in enumerate(self.test_pairs):
                if pair.id in done:
                    manifest.records.append(done[pair.id])
                    continue
                settle(block=False)
                if failures:  # plan and send nothing more after a failure
                    continue
                draft = self.drafts.get(pair.id)
                bundle, lexicon_count = self.context(i, size)
                record = SentenceRecord(
                    id=pair.id,
                    source=pair.source_text,
                    reference=pair.target_text,
                    draft=draft,
                    retrieved_ids=[ex.pair.id for ex in bundle.examples],
                    lexicon_count=lexicon_count,
                    effective_k=len(bundle.examples),
                    prompt_hash=None,
                    completion=None,
                )
                if config.mode == "NMT_ONLY":
                    record.completion = draft
                    manifest.records.append(record)
                    continue
                if config.mode == "POST_EDIT":
                    rendered = render_postedit(pair.source_text, draft, bundle, self.profile)
                else:
                    rendered = render_direct(pair.source_text, bundle, self.profile)
                digest = _prompt_digest(rendered.system, rendered.user)
                record.prompt_hash = digest[:16]
                # a prompt already sent in this run is not sent again
                future = sent.get(digest)
                if future is None:
                    while len({pending for _, _, pending in unsettled}) >= in_flight:
                        settle(block=True)
                    if failures:
                        continue
                    future = sent[digest] = executor.submit(
                        _completion_text, self.provider, rendered
                    )
                manifest.records.append(record)
                unsettled.append((i, record, future))
            while unsettled:
                settle(block=True)
        # keep the first failure in test order; the later ones are resent on resume
        failed, failure = failures[min(failures)] if failures else (None, None)
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
            # statistics.fmean's arithmetic, without importing statistics
            effective_k = [r.effective_k for r in completed]
            manifest.effective_k_mean = math.fsum(effective_k) / len(effective_k)
        manifest.save(manifest_path)

        if failure is not None:
            raise ProviderError(
                f"run aborted after provider failure (partial manifest at {manifest_path}): "
                f"{failure}",
                failure.status,
            )

        report.metadata["test_fingerprint"] = manifest.corpus_hashes["test"]
        report.metadata["effective_k_mean"] = manifest.effective_k_mean
        report.metadata["temperature"] = (
            config.provider.temperature if config.provider else None
        )
        report.metadata["mode"] = config.mode
        report.metadata["context"] = config.context
        _write_atomic(out_dir / f"report-{fingerprint}.json",
                      json.dumps(report.to_dict(), sort_keys=True, ensure_ascii=False, indent=1))
        return report, manifest


def _completion_text(provider, rendered) -> str:
    return provider.complete(rendered).response_text


class _Inline:
    """An executor that runs each call on the calling thread as it is
    submitted, for replays: their ``complete`` reads a file and never waits
    on the network, so a worker thread would only add a hand-off."""

    def __enter__(self) -> "_Inline":
        return self

    def __exit__(self, *exc_info) -> None:
        pass

    def submit(self, fn, *args) -> Future:
        """A settled future: ``fn(*args)``'s result or its exception; a
        ``BaseException`` such as ``KeyboardInterrupt`` propagates at once."""
        future: Future = Future()
        try:
            future.set_result(fn(*args))
        except Exception as exc:
            future.set_exception(exc)
        return future


def run_experiment(
    config: ExperimentConfig,
    provider=None,
    resume: bool = True,
) -> tuple[EvalReport, RunManifest]:
    """Execute one experiment cell and return (report, manifest).

    A sweep of one value: one session, one cell. A provider failure stops
    sending prompts and aborts the run once the ones in flight have
    settled; the partial manifest keeps every completed sentence and the
    first failed one, and rerunning with ``resume=True`` skips the
    completed sentences. A provider built here is closed on return; one
    handed in is left open.
    """
    with _Session(config, provider, _size(config)) as session:
        return session.run(config, resume)


SWEEP_COLUMNS = ("strategy", "k_or_n", "effective_k_mean", "spBLEU", "chrF++", "error")


def sweep(
    base_config: ExperimentConfig,
    values: list[int],
    provider=None,
    csv_path: str | Path | None = None,
) -> list[dict]:
    """One cell per k/n value, each written as ``run_experiment`` writes it;
    failed cells are marked and the sweep continues.

    One session loads the inputs, builds the provider and retrieves each
    test sentence's examples and lexicon entries once, at the largest
    value; each cell renders, sends, scores and saves its own prompts. A
    value run_experiment would reject marks its own cell; an input that
    fails to load marks every cell. A provider built here is closed on
    return; one handed in is left open.
    """
    if not values:
        raise ConfigError("sweep requires at least one value")
    swept = "n" if base_config.context == "FUZZY_WORD" else "k"
    rows, cells = [], []  # cells: (row, config) for each value not rejected
    for value in values:
        row = {"strategy": base_config.context, "k_or_n": value, "effective_k_mean": "",
               "spBLEU": "", "chrF++": "", "error": ""}
        try:
            cells.append((row, replace(base_config, **{swept: value})))
        except ConfigError as exc:
            row["error"] = str(exc)
        rows.append(row)
    if cells:
        try:
            session = _Session(base_config, provider, max(_size(cell) for _, cell in cells))
        except (ProviderError, ConfigError, CorpusError, OSError) as exc:
            for row, _ in cells:
                row["error"] = str(exc)
        else:
            with session:
                for row, cell in cells:
                    try:
                        report, manifest = session.run(cell, resume=True)
                    except (ProviderError, ConfigError, OSError) as exc:
                        row["error"] = str(exc)
                        continue
                    row["effective_k_mean"] = round(manifest.effective_k_mean, 2)
                    row["spBLEU"] = round(report.corpus_bleu, 2)
                    row["chrF++"] = round(report.corpus_chrf, 2)
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
