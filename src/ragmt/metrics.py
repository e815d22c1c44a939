"""Native chrF++ and pooled-count BLEU for corpus and sentence scoring.

chrF++ follows the published definition: character n-grams (orders
1..char_order) extracted with whitespace removed, word n-grams (orders
1..word_order) over punctuation-separated tokens, precision/recall averaged
over effective orders, combined with F-beta. Corpus scores pool n-gram
statistics over segments rather than averaging sentence scores.
"""

from __future__ import annotations

import json
import math
import string
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

from .corpus import naming_errors
from .text import char_ngrams

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
# chrF++


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


def _word_ngram_counts(tokens: list[str], order: int) -> Counter:
    return Counter(
        " ".join(tokens[i : i + order]) for i in range(len(tokens) - order + 1)
    )


def _segment_statistics(hyp: str, ref: str, params: ChrfParams) -> list[int]:
    """Per order: (hyp count, ref count, match count), chars then words."""
    stats: list[int] = []
    for order in range(1, params.char_order + 1):
        h = char_ngrams(hyp, order, order)
        r = char_ngrams(ref, order, order)
        stats += [sum(h.values()), sum(r.values()), sum((h & r).values())]
    if params.word_order > 0:
        h_toks = _separate_punctuation(hyp)
        r_toks = _separate_punctuation(ref)
        for order in range(1, params.word_order + 1):
            h = _word_ngram_counts(h_toks, order)
            r = _word_ngram_counts(r_toks, order)
            stats += [sum(h.values()), sum(r.values()), sum((h & r).values())]
    return stats


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


def _pooled(rows) -> list[int]:
    """Column sums of per-segment count rows: corpus scores pool counts."""
    return [sum(column) for column in zip(*rows)]


def chrf_pp(hypothesis: str, reference: str, params: ChrfParams = ChrfParams()) -> float:
    """Sentence-level chrF++ in [0, 100]."""
    return _f_score(_segment_statistics(hypothesis, reference, params), params)


def corpus_chrf(
    hypotheses: list[str], references: list[str], params: ChrfParams = ChrfParams()
) -> float:
    """Corpus-level chrF++ over pooled n-gram statistics."""
    _check_pairs(hypotheses, references)
    return _f_score(
        _pooled(_segment_statistics(h, r, params) for h, r in zip(hypotheses, references)),
        params,
    )


# ---------------------------------------------------------------------------
# BLEU


def _bleu_statistics(hyp: str, ref: str, tokenizer, max_order: int) -> list[int]:
    """One segment's BLEU counts: n-gram matches per order, n-gram totals
    per order, then the hypothesis and reference lengths in tokens."""
    h_toks = tokenizer.tokenize(hyp)
    r_toks = tokenizer.tokenize(ref)
    matches, totals = [], []
    for order in range(1, max_order + 1):
        h = _word_ngram_counts(h_toks, order)
        r = _word_ngram_counts(r_toks, order)
        totals.append(sum(h.values()))
        matches.append(sum((h & r).values()))
    return matches + totals + [len(h_toks), len(r_toks)]


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
    tokenizer = tokenizer or WhitespaceTokenizer()
    rows = (_bleu_statistics(h, r, tokenizer, max_order) for h, r in zip(hypotheses, references))
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
    chrf_rows = [_segment_statistics(h, r, chrf_params) for h, r in zip(hypotheses, references)]
    bleu_rows = [
        _bleu_statistics(h, r, tokenizer, max_order) for h, r in zip(hypotheses, references)
    ]
    per_sentence = [
        SentenceScore(id=i, bleu=_bleu_from_pooled(b, max_order), chrf=_f_score(c, chrf_params))
        for i, b, c in zip(ids, bleu_rows, chrf_rows)
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
