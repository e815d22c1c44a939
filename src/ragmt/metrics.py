"""Native chrF++ and pooled-count BLEU for corpus and sentence scoring.

chrF++ follows the published definition: character n-grams (orders
1..char_order) extracted with whitespace removed, word n-grams (orders
1..word_order) over punctuation-separated tokens, precision/recall averaged
over effective orders, combined with F-beta. Corpus scores pool n-gram
statistics over segments rather than averaging sentence scores.

Every scorer reads its counts from ``_statistics``, which counts all the
segments it is given in one numpy pass. Each hypothesis and reference is
coded once as squeezed characters, as punctuation-separated words and as
tokenizer tokens (each text tokenized once). ``text.chained_ngrams`` then
sorts, once per order for all three streams, the (n-gram, text) values; a
segment's clipped matches are read off the sorted runs, and its n-gram
totals follow from its texts' lengths. The counts come back as one int64
array per metric, a row per segment, and a corpus score is computed from
the column sums.
"""

from __future__ import annotations

import json
import math
import string
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .corpus import naming_errors
from .text import _code_points, _run_starts, _sorted_distinct, chained_ngrams

_PUNCTS = set(string.punctuation)

BLEU_SMOOTHING_EPSILON = 1e-9


@dataclass(frozen=True)
class ChrfParams:
    char_order: int = 6
    word_order: int = 2
    beta: float = 2.0

    def __post_init__(self):
        if self.char_order < 1:
            raise ValueError("char_order must be >= 1")
        if self.word_order < 0:
            raise ValueError("word_order must be >= 0")
        if self.beta <= 0:
            raise ValueError("beta must be positive")


class WhitespaceTokenizer:
    """Fallback subword tokenizer: plain whitespace splitting.

    Scores computed with it are plain token BLEU, not spBLEU; the report
    labels them accordingly.
    """

    name = "whitespace"
    is_subword_model = False

    def tokenize(self, text: str) -> list[str]:
        return text.split()


class SentencePieceTokenizer:
    """Subword tokenizer backed by an external SentencePiece model file."""

    is_subword_model = True

    def __init__(self, model_path: str | Path):
        try:
            import sentencepiece
        except ImportError as exc:
            raise RuntimeError(
                "sentencepiece is required for subword BLEU; install it or "
                "use the whitespace tokenizer"
            ) from exc
        self._sp = sentencepiece.SentencePieceProcessor(model_file=str(model_path))
        self.name = f"sentencepiece:{Path(model_path).name}"

    def tokenize(self, text: str) -> list[str]:
        return self._sp.encode(text, out_type=str)


@dataclass
class SentenceScore:
    id: str
    bleu: float
    chrf: float


@dataclass
class EvalReport:
    corpus_bleu: float
    corpus_chrf: float
    per_sentence: list[SentenceScore]
    config_fingerprint: str
    bleu_label: str = "BLEU(whitespace)"
    metadata: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "corpus_bleu": round(self.corpus_bleu, 2),
            "corpus_chrf": round(self.corpus_chrf, 2),
            "bleu_label": self.bleu_label,
            "config_fingerprint": self.config_fingerprint,
            "metadata": self.metadata,
            "per_sentence": [
                {"id": s.id, "bleu": round(s.bleu, 2), "chrf": round(s.chrf, 2)}
                for s in self.per_sentence
            ],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "EvalReport":
        return cls(
            corpus_bleu=data["corpus_bleu"],
            corpus_chrf=data["corpus_chrf"],
            per_sentence=[SentenceScore(**s) for s in data.get("per_sentence", [])],
            config_fingerprint=data.get("config_fingerprint", ""),
            bleu_label=data.get("bleu_label", "BLEU(whitespace)"),
            metadata=data.get("metadata", {}),
        )

    @classmethod
    def load(cls, path: str | Path) -> "EvalReport":
        """A saved report; one that is not UTF-8 JSON of a report's shape is
        a ``ValueError`` naming ``path``."""
        with naming_errors(path, ValueError):
            data = json.loads(Path(path).read_text(encoding="utf-8"))
            try:
                return cls.from_dict(data)
            except (AttributeError, KeyError, TypeError):
                raise ValueError("not an evaluation report") from None


# ---------------------------------------------------------------------------
# n-gram counts


def _separate_punctuation(text: str) -> list[str]:
    """Split off a single leading or trailing punctuation mark per word."""
    tokens = []
    for w in text.split():
        if len(w) == 1:
            tokens.append(w)
        elif w[-1] in _PUNCTS:
            tokens.extend([w[:-1], w[-1]])
        elif w[0] in _PUNCTS:
            tokens.extend([w[0], w[1:]])
        else:
            tokens.append(w)
    return tokens


def _statistics(
    hypotheses: list[str],
    references: list[str],
    chrf_params: ChrfParams | None = None,
    tokenizer=None,
    max_order: int = 4,
) -> tuple[np.ndarray | None, np.ndarray | None]:
    """Each segment's chrF++ counts (given ``chrf_params``) and BLEU counts
    (given ``tokenizer``), as one int64 array per metric with a row per
    segment; None for a metric not asked for.

    A chrF++ row holds, per order, characters before words, (hypothesis
    n-grams, reference n-grams, matches). A BLEU row holds the matches of
    each order, then the hypothesis n-grams of each order, then the
    hypothesis and reference lengths in tokens. A match is clipped: an
    n-gram matches min(its hypothesis count, its reference count) times.
    """
    n = len(hypotheses)
    texts = [text for pair in zip(hypotheses, references) for text in pair]
    vocab: dict[str, int] = {}  # word and token codes; the streams never mix
    # per stream: its highest order, its codes and each text's length in
    # them; segment i's texts are a stream's texts 2i and 2i + 1
    orders, codes, lengths = [], [], []

    def add_tokens(order: int, tokenize) -> None:
        """A stream of each text's tokens, coded through ``vocab``."""
        tokens = [tokenize(text) for text in texts]
        counts = np.fromiter(map(len, tokens), dtype=np.intp, count=len(texts))
        orders.append(order)
        codes.append(np.fromiter((vocab.setdefault(t, len(vocab)) for ts in tokens for t in ts),
                                 dtype=np.int64, count=int(counts.sum())))
        lengths.append(counts)

    size = 0
    if chrf_params is not None:
        squeezed = ["".join(text.split()) for text in texts]
        lengths.append(np.fromiter(map(len, squeezed), dtype=np.intp, count=len(texts)))
        points = _code_points("".join(squeezed))
        del squeezed
        alphabet = _sorted_distinct(points)
        size = len(alphabet)
        orders.append(chrf_params.char_order)
        codes.append(np.searchsorted(alphabet, points))
        del points
        if chrf_params.word_order:
            add_tokens(chrf_params.word_order, _separate_punctuation)
    chrf_streams = len(orders)
    if tokenizer is not None:
        add_tokens(max_order, tokenizer.tokenize)
    codes = np.concatenate(codes)
    lengths = np.concatenate(lengths)
    bits = max(len(lengths) - 1, 0).bit_length()
    matches = np.zeros((max(orders), len(orders) * n), dtype=np.int64)  # by order, (stream, segment)
    for k, values, _ in chained_ngrams(codes, max(size, len(vocab)), lengths, 1, max(orders),
                                       caps=np.repeat(orders, 2 * n)):
        matches[k - 1] = _clipped_matches(values, bits, matches.shape[1])
    lengths = lengths.reshape(len(orders), n, 2)

    def counts_by_order(s: int) -> np.ndarray:
        """Stream s's (segments, orders, 3) hypothesis, reference and match counts."""
        order = orders[s]
        totals = np.maximum(lengths[s][:, :, None] - np.arange(order), 0)
        return np.stack([totals[:, 0], totals[:, 1], matches[:order, s * n:(s + 1) * n].T], axis=2)

    chrf_rows = bleu_rows = None
    if chrf_params is not None:
        chrf_rows = np.concatenate(
            [counts_by_order(s).reshape(n, -1) for s in range(chrf_streams)], axis=1)
    if tokenizer is not None:
        bleu = counts_by_order(chrf_streams)
        bleu_rows = np.concatenate([bleu[:, :, 2], bleu[:, :, 0], lengths[-1]], axis=1)
    return chrf_rows, bleu_rows


def _clipped_matches(values: np.ndarray, bits: int, width: int) -> np.ndarray:
    """Per pair of texts 2i, 2i + 1, the n-grams they share, each counted
    min(its count in 2i, its count in 2i + 1) times: ``values`` is one
    order's sorted key << bits | text values from ``chained_ngrams``."""
    starts = np.flatnonzero(_run_starts(values))
    runs, counts = values[starts], np.diff(starts, append=len(values))
    # an n-gram's run in text 2i, then its run in text 2i + 1: the two values
    # differ in the last bit alone
    both = (runs[1:] ^ runs[:-1]) == 1
    where = (runs[:-1][both] & ((1 << bits) - 1)) >> 1
    return np.bincount(where, np.minimum(counts[:-1], counts[1:])[both], minlength=width)


def _pooled(rows: np.ndarray) -> list[int]:
    """Column sums of per-segment count rows: corpus scores pool counts."""
    return rows.sum(axis=0).tolist()


# ---------------------------------------------------------------------------
# chrF++


def _f_score(stats: list[int], params: ChrfParams) -> float:
    n_orders = params.char_order + params.word_order
    factor = params.beta**2
    avg_prec = avg_rec = 0.0
    effective = 0
    for i in range(n_orders):
        n_hyp, n_ref, n_match = stats[3 * i : 3 * i + 3]
        if n_hyp > 0 and n_ref > 0:
            avg_prec += n_match / n_hyp
            avg_rec += n_match / n_ref
            effective += 1
    if effective == 0:
        return 0.0
    avg_prec /= effective
    avg_rec /= effective
    denom = factor * avg_prec + avg_rec
    if denom == 0:
        return 0.0
    return 100.0 * (1 + factor) * avg_prec * avg_rec / denom


def _check_pairs(hypotheses: list[str], references: list[str]) -> None:
    if len(hypotheses) != len(references):
        raise ValueError(
            f"{len(hypotheses)} hypotheses vs {len(references)} references"
        )
    if not hypotheses:
        raise ValueError("need at least one hypothesis/reference pair")


def chrf_pp(hypothesis: str, reference: str, params: ChrfParams = ChrfParams()) -> float:
    """Sentence-level chrF++ in [0, 100]."""
    return _f_score(_pooled(_statistics([hypothesis], [reference], params)[0]), params)


def corpus_chrf(
    hypotheses: list[str], references: list[str], params: ChrfParams = ChrfParams()
) -> float:
    """Corpus-level chrF++ over pooled n-gram statistics."""
    _check_pairs(hypotheses, references)
    return _f_score(_pooled(_statistics(hypotheses, references, params)[0]), params)


# ---------------------------------------------------------------------------
# BLEU


def _bleu_from_pooled(stats: list[int], max_order: int) -> float:
    matches, totals = stats[:max_order], stats[max_order : 2 * max_order]
    hyp_len, ref_len = stats[-2:]
    if hyp_len == 0:
        return 0.0
    log_sum = 0.0
    for m, t in zip(matches, totals):
        # matches never exceed totals, so m == 0 covers an order with no n-grams
        log_sum += math.log(m / t if m else BLEU_SMOOTHING_EPSILON)
    geo_mean = math.exp(log_sum / max_order)
    bp = 1.0 if hyp_len >= ref_len else math.exp(1.0 - ref_len / hyp_len)
    return 100.0 * bp * geo_mean


def corpus_bleu(
    hypotheses: list[str],
    references: list[str],
    tokenizer=None,
    max_order: int = 4,
) -> float:
    """Pooled-count BLEU with brevity penalty and epsilon smoothing."""
    _check_pairs(hypotheses, references)
    _, rows = _statistics(hypotheses, references, tokenizer=tokenizer or WhitespaceTokenizer(),
                          max_order=max_order)
    return _bleu_from_pooled(_pooled(rows), max_order)


def sentence_bleu(hypothesis: str, reference: str, tokenizer=None) -> float:
    return corpus_bleu([hypothesis], [reference], tokenizer=tokenizer)


def evaluate(
    ids: list[str],
    hypotheses: list[str],
    references: list[str],
    tokenizer=None,
    chrf_params: ChrfParams = ChrfParams(),
    config_fingerprint: str = "",
) -> EvalReport:
    """Corpus + per-sentence scoring bundled into one report.

    Each segment's counts are taken once: a sentence score comes from its
    own counts and a corpus score from their sums, exactly as ``chrf_pp``,
    ``sentence_bleu``, ``corpus_chrf`` and ``corpus_bleu`` compute them.
    """
    if not (len(ids) == len(hypotheses) == len(references)):
        raise ValueError("ids, hypotheses, and references must align")
    _check_pairs(hypotheses, references)
    tokenizer = tokenizer or WhitespaceTokenizer()
    max_order = 4
    chrf_rows, bleu_rows = _statistics(hypotheses, references, chrf_params, tokenizer, max_order)
    per_sentence = [
        SentenceScore(id=i, bleu=_bleu_from_pooled(b, max_order), chrf=_f_score(c, chrf_params))
        for i, b, c in zip(ids, bleu_rows.tolist(), chrf_rows.tolist())
    ]
    label = "spBLEU" if tokenizer.is_subword_model else f"BLEU({tokenizer.name})"
    return EvalReport(
        corpus_bleu=_bleu_from_pooled(_pooled(bleu_rows), max_order),
        corpus_chrf=_f_score(_pooled(chrf_rows), chrf_params),
        per_sentence=per_sentence,
        config_fingerprint=config_fingerprint,
        bleu_label=label,
        metadata={
            "tokenizer": tokenizer.name,
            "bleu_smoothing": f"epsilon={BLEU_SMOOTHING_EPSILON}",
            "chrf_char_order": chrf_params.char_order,
            "chrf_word_order": chrf_params.word_order,
            "chrf_beta": chrf_params.beta,
        },
    )
