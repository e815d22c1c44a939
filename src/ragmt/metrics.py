"""Native chrF++ and pooled-count BLEU for corpus and sentence scoring.

Both metrics are fixed at the paper's definitions. chrF++ (Popović, WMT
2017) takes character n-grams of orders 1..6 with whitespace removed and
word n-grams of orders 1..2 over punctuation-separated tokens, averages
precision and recall over the effective orders and combines them with
F-beta at beta = 2. BLEU counts tokenizer n-grams of orders 1..4. Corpus
scores pool n-gram statistics over segments rather than averaging sentence
scores.

Every scorer reads its counts from ``_statistics``, which counts all the
segments it is given in numpy, one stream at a time: squeezed characters
(coded by ``text.char_codes``), punctuation-separated words and tokenizer
tokens (each text tokenized once). ``text.chained_ngrams`` sorts a
stream's (n-gram, text) values once per order, with the stream's own
alphabet or vocabulary as its radix; a segment's clipped matches are read
off the sorted runs, and its n-gram totals follow from its texts' lengths.
The counts come back as one int64 array per metric, a row per segment, and
a corpus score is computed from the column sums.
"""

from __future__ import annotations

import json
import math
import string
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .corpus import naming_errors
from .text import _run_starts, chained_ngrams, char_codes

_PUNCTS = set(string.punctuation)

CHRF_CHAR_ORDER = 6
CHRF_WORD_ORDER = 2
CHRF_BETA = 2.0
BLEU_ORDER = 4
BLEU_SMOOTHING_EPSILON = 1e-9


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


def _statistics(hypotheses: list[str], references: list[str],
                tokenizer) -> tuple[np.ndarray, np.ndarray]:
    """Each segment's chrF++ counts and BLEU counts (over ``tokenizer``'s
    tokens), as one int64 array per metric with a row per segment.

    A chrF++ row holds, per order, characters before words, (hypothesis
    n-grams, reference n-grams, matches). A BLEU row holds the matches of
    each order, then the hypothesis n-grams of each order, then the
    hypothesis and reference lengths in tokens. A match is clipped: an
    n-gram matches min(its hypothesis count, its reference count) times.
    """
    n = len(hypotheses)
    texts = [text for pair in zip(hypotheses, references) for text in pair]
    codes, lengths, alphabet = char_codes(texts)
    chars = _counts(codes, len(alphabet), lengths, CHRF_CHAR_ORDER)
    words = _counts(*_token_codes([_separate_punctuation(text) for text in texts]),
                    CHRF_WORD_ORDER)
    tokens = _counts(*_token_codes([tokenizer.tokenize(text) for text in texts]), BLEU_ORDER)
    chrf_rows = np.concatenate([chars.reshape(n, -1), words.reshape(n, -1)], axis=1)
    # a text's unigrams are its tokens, so its length is its order-1 count
    bleu_rows = np.concatenate([tokens[:, :, 2], tokens[:, :, 0], tokens[:, 0, :2]], axis=1)
    return chrf_rows, bleu_rows


def _token_codes(tokens: list[list[str]]) -> tuple[np.ndarray, int, np.ndarray]:
    """Each text's tokens for ``chained_ngrams``: their codes, one text
    after another, each a token's place in the order of first appearance;
    the vocabulary's size; and each text's length in tokens."""
    vocab: dict[str, int] = {}
    lengths = np.fromiter(map(len, tokens), dtype=np.intp, count=len(tokens))
    codes = np.fromiter((vocab.setdefault(t, len(vocab)) for ts in tokens for t in ts),
                        dtype=np.int64, count=int(lengths.sum()))
    return codes, len(vocab), lengths


def _counts(codes: np.ndarray, size: int, lengths: np.ndarray, order: int) -> np.ndarray:
    """One stream's (segments, orders, 3) hypothesis n-grams, reference
    n-grams and clipped matches, orders 1..``order``: segment i's texts are
    the coded texts 2i and 2i + 1, chained with radix ``size``."""
    n = len(lengths) // 2
    bits = max(len(lengths) - 1, 0).bit_length()
    matches = np.zeros((n, order), dtype=np.int64)
    for k, values, _ in chained_ngrams(codes, size, lengths, 1, order):
        matches[:, k - 1] = _clipped_matches(values, bits, n)
    totals = np.maximum(lengths.reshape(n, 2, 1) - np.arange(order), 0)
    return np.stack([totals[:, 0], totals[:, 1], matches], axis=2)


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


def _f_score(stats: list[int]) -> float:
    factor = CHRF_BETA**2
    avg_prec = avg_rec = 0.0
    effective = 0
    for i in range(CHRF_CHAR_ORDER + CHRF_WORD_ORDER):
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


def chrf_pp(hypothesis: str, reference: str) -> float:
    """Sentence-level chrF++ in [0, 100]."""
    return corpus_chrf([hypothesis], [reference])


def corpus_chrf(hypotheses: list[str], references: list[str]) -> float:
    """Corpus-level chrF++ over pooled n-gram statistics."""
    _check_pairs(hypotheses, references)
    rows, _ = _statistics(hypotheses, references, WhitespaceTokenizer())
    return _f_score(_pooled(rows))


# ---------------------------------------------------------------------------
# BLEU


def _bleu_from_pooled(stats: list[int]) -> float:
    matches, totals = stats[:BLEU_ORDER], stats[BLEU_ORDER : 2 * BLEU_ORDER]
    hyp_len, ref_len = stats[-2:]
    if hyp_len == 0:
        return 0.0
    log_sum = 0.0
    for m, t in zip(matches, totals):
        # matches never exceed totals, so m == 0 covers an order with no n-grams
        log_sum += math.log(m / t if m else BLEU_SMOOTHING_EPSILON)
    geo_mean = math.exp(log_sum / BLEU_ORDER)
    bp = 1.0 if hyp_len >= ref_len else math.exp(1.0 - ref_len / hyp_len)
    return 100.0 * bp * geo_mean


def corpus_bleu(hypotheses: list[str], references: list[str], tokenizer=None) -> float:
    """Pooled-count BLEU with brevity penalty and epsilon smoothing."""
    _check_pairs(hypotheses, references)
    _, rows = _statistics(hypotheses, references, tokenizer or WhitespaceTokenizer())
    return _bleu_from_pooled(_pooled(rows))


def sentence_bleu(hypothesis: str, reference: str, tokenizer=None) -> float:
    return corpus_bleu([hypothesis], [reference], tokenizer=tokenizer)


def evaluate(
    ids: list[str],
    hypotheses: list[str],
    references: list[str],
    tokenizer=None,
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
    chrf_rows, bleu_rows = _statistics(hypotheses, references, tokenizer)
    per_sentence = [
        SentenceScore(id=i, bleu=_bleu_from_pooled(b), chrf=_f_score(c))
        for i, b, c in zip(ids, bleu_rows.tolist(), chrf_rows.tolist())
    ]
    label = "spBLEU" if tokenizer.is_subword_model else f"BLEU({tokenizer.name})"
    return EvalReport(
        corpus_bleu=_bleu_from_pooled(_pooled(bleu_rows)),
        corpus_chrf=_f_score(_pooled(chrf_rows)),
        per_sentence=per_sentence,
        config_fingerprint=config_fingerprint,
        bleu_label=label,
        metadata={
            "tokenizer": tokenizer.name,
            "bleu_smoothing": f"epsilon={BLEU_SMOOTHING_EPSILON}",
            "chrf_char_order": CHRF_CHAR_ORDER,
            "chrf_word_order": CHRF_WORD_ORDER,
            "chrf_beta": CHRF_BETA,
        },
    )
