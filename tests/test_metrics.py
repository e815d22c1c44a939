from __future__ import annotations

import math
import string
import sys
import types

import pytest
from hypothesis import given
from hypothesis import strategies as st

from ragmt.metrics import (
    ChrfParams,
    EvalReport,
    SentencePieceTokenizer,
    WhitespaceTokenizer,
    chrf_pp,
    corpus_bleu,
    corpus_chrf,
    evaluate,
    sentence_bleu,
)

# 20 hypothesis/reference pairs across scripts, lengths, and error patterns.
FIXTURE_PAIRS = [
    ("the quick brown fox jumps over the lazy dog",
     "the quick brown fox jumped over the lazy dog"),
    ("In the beginning God created the heavens and the earth.",
     "In the beginning, God created the heaven and the earth."),
    ("Pa petari, Lamatua tao lani ma rai balu.",
     "Pa petari, Lamatua tao lani ma rai."),
    ("Der schnelle braune Fuchs springt", "Der schnelle braune Fuchs sprang"),
    ("la lumière brille dans les ténèbres", "la lumiere brille dans les tenebres"),
    ("совершенно другое предложение", "в начале сотворил Бог небо и землю"),
    ("καλημέρα κόσμε", "καλημέρα κόσμε"),
    ("שלום עולם", "שלום לכל העולם"),
    ("hello world", "completely different text here"),
    ("a", "a"),
    ("one two three four five six seven", "one two three four five six seven eight nine"),
    ("short", "a very much longer reference sentence than the hypothesis"),
    ("El señor habló a Moisés", "El señor habló a moisés"),
    ("he said, let there be light!", "And he said: let there be light."),
    ("水 は 低き に 流れる", "水 は 低き へ 流れる"),
    ("tujuh hari dalam seminggu", "ada tujuh hari dalam satu minggu"),
    ("répétition répétition répétition", "pas de répétition ici"),
    ("the lord came down to see the city", "the lord came down to see the city and the tower"),
    ("mane ka dou susa nitu", "mane ka dou susa nitu rai sorga"),
    ("numbers 1 2 3 and symbols #!", "numbers 1 2 3 and symbols"),
]

# Oracle outputs, frozen after computing them once with the independent
# implementations below (see test_fixture_scores_match_frozen_oracle).
FROZEN_CORPUS_CHRF = 63.2496
FROZEN_CORPUS_BLEU = 47.8941
FROZEN_SENTENCE_CHRF = [
    85.5799, 83.1213, 93.3576, 86.3447, 64.0268, 7.2110, 100.0, 29.2416,
    4.8141, 100.0, 77.9659, 2.0730, 77.4735, 66.7878, 44.8661, 62.7414,
    36.6330, 74.0580, 70.2991, 96.7326,
]


# ---------------------------------------------------------------------------
# Independent oracle: a from-scratch chrF++ per the published definition,
# structured differently from the package implementation.


def _oracle_char_grams(text, n):
    text = text.replace(" ", "").replace("\t", "")
    out = {}
    for i in range(len(text) - n + 1):
        g = text[i : i + n]
        out[g] = out.get(g, 0) + 1
    return out


def _oracle_word_grams(text, n):
    words = []
    for w in text.split():
        if len(w) > 1 and w[-1] in string.punctuation:
            words += [w[:-1], w[-1]]
        elif len(w) > 1 and w[0] in string.punctuation:
            words += [w[0], w[1:]]
        else:
            words.append(w)
    out = {}
    for i in range(len(words) - n + 1):
        g = tuple(words[i : i + n])
        out[g] = out.get(g, 0) + 1
    return out


def _overlap(h, r):
    return sum(min(c, r.get(g, 0)) for g, c in h.items())


def oracle_chrf(pairs, char_order=6, word_order=2, beta=2.0):
    """Pooled precision/recall per order, averaged, then one F-beta."""
    grams = []
    for n in range(1, char_order + 1):
        grams.append([(_oracle_char_grams(h, n), _oracle_char_grams(r, n)) for h, r in pairs])
    for n in range(1, word_order + 1):
        grams.append([(_oracle_word_grams(h, n), _oracle_word_grams(r, n)) for h, r in pairs])
    prec_sum = rec_sum = 0.0
    effective = 0
    for per_order in grams:
        hyp_total = sum(sum(h.values()) for h, _ in per_order)
        ref_total = sum(sum(r.values()) for _, r in per_order)
        match = sum(_overlap(h, r) for h, r in per_order)
        if hyp_total and ref_total:
            prec_sum += match / hyp_total
            rec_sum += match / ref_total
            effective += 1
    if not effective:
        return 0.0
    p, r = prec_sum / effective, rec_sum / effective
    if p + r == 0:
        return 0.0
    return 100.0 * (1 + beta**2) * p * r / (beta**2 * p + r)


def oracle_bleu(pairs, max_order=4, eps=1e-9):
    """Independent pooled-count BLEU over whitespace tokens."""
    match = [0] * max_order
    total = [0] * max_order
    hyp_len = ref_len = 0
    for hyp, ref in pairs:
        h_toks, r_toks = hyp.split(), ref.split()
        hyp_len += len(h_toks)
        ref_len += len(r_toks)
        for n in range(1, max_order + 1):
            h_counts = {}
            for i in range(len(h_toks) - n + 1):
                g = tuple(h_toks[i : i + n])
                h_counts[g] = h_counts.get(g, 0) + 1
            r_counts = {}
            for i in range(len(r_toks) - n + 1):
                g = tuple(r_toks[i : i + n])
                r_counts[g] = r_counts.get(g, 0) + 1
            total[n - 1] += sum(h_counts.values())
            match[n - 1] += sum(min(c, r_counts.get(g, 0)) for g, c in h_counts.items())
    log_p = 0.0
    for m, t in zip(match, total):
        p = m / t if (t and m) else eps
        log_p += math.log(p)
    bp = 1.0 if hyp_len >= ref_len else math.exp(1 - ref_len / hyp_len)
    return 100.0 * bp * math.exp(log_p / max_order)


# ---------------------------------------------------------------------------


class TestChrfSentence:
    def test_identity_is_100(self):
        assert chrf_pp("hello world", "hello world") == pytest.approx(100.0)

    def test_empty_hypothesis_is_0(self):
        assert chrf_pp("", "hello world") == 0.0

    def test_asymmetric_at_beta_2(self):
        hyp, ref = "the light", "the light of the world"
        assert chrf_pp(hyp, ref) != pytest.approx(chrf_pp(ref, hyp))

    def test_symmetric_at_beta_1(self):
        params = ChrfParams(beta=1.0)
        hyp, ref = "the light", "the light of the world"
        assert chrf_pp(hyp, ref, params) == pytest.approx(chrf_pp(ref, hyp, params))

    def test_bounded(self):
        for hyp, ref in FIXTURE_PAIRS:
            assert 0.0 <= chrf_pp(hyp, ref) <= 100.0

    def test_100_only_for_identity(self):
        assert chrf_pp("almost the same", "almost the same!") < 100.0


class TestChrfCorpus:
    def test_single_pair_equals_sentence(self):
        hyp, ref = FIXTURE_PAIRS[0]
        assert corpus_chrf([hyp], [ref]) == pytest.approx(chrf_pp(hyp, ref))

    def test_identical_corpus_is_100(self):
        refs = [r for _, r in FIXTURE_PAIRS]
        assert corpus_chrf(refs, refs) == pytest.approx(100.0)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            corpus_chrf(["a"], ["a", "b"])

    def test_permutation_invariance(self):
        hyps = [h for h, _ in FIXTURE_PAIRS]
        refs = [r for _, r in FIXTURE_PAIRS]
        score = corpus_chrf(hyps, refs)
        assert corpus_chrf(hyps[::-1], refs[::-1]) == pytest.approx(score)

    def test_fixture_scores_match_frozen_oracle(self):
        # frozen values were produced by oracle_chrf; both sides are checked
        # so neither implementation can drift
        oracle = oracle_chrf(FIXTURE_PAIRS)
        assert oracle == pytest.approx(FROZEN_CORPUS_CHRF, abs=1e-3)
        hyps = [h for h, _ in FIXTURE_PAIRS]
        refs = [r for _, r in FIXTURE_PAIRS]
        assert corpus_chrf(hyps, refs) == pytest.approx(FROZEN_CORPUS_CHRF, abs=0.1)

    def test_per_sentence_against_frozen_oracle(self):
        for (hyp, ref), frozen in zip(FIXTURE_PAIRS, FROZEN_SENTENCE_CHRF):
            assert oracle_chrf([(hyp, ref)]) == pytest.approx(frozen, abs=1e-3)
            assert chrf_pp(hyp, ref) == pytest.approx(frozen, abs=0.1)


class TestBleu:
    def test_identity_is_100(self):
        refs = [r for _, r in FIXTURE_PAIRS]
        assert corpus_bleu(refs, refs) == pytest.approx(100.0)

    def test_disjoint_unigrams_near_zero(self):
        assert corpus_bleu(["aa bb cc dd ee"], ["vv ww xx yy zz"]) < 1e-6

    def test_matches_independent_oracle(self):
        hyps = [h for h, _ in FIXTURE_PAIRS]
        refs = [r for _, r in FIXTURE_PAIRS]
        got = corpus_bleu(hyps, refs)
        assert got == pytest.approx(oracle_bleu(FIXTURE_PAIRS), abs=0.01)
        assert got == pytest.approx(FROZEN_CORPUS_BLEU, abs=0.01)

    def test_ten_pair_toy_set_against_oracle(self):
        toy = FIXTURE_PAIRS[:10]
        got = corpus_bleu([h for h, _ in toy], [r for _, r in toy])
        assert got == pytest.approx(oracle_bleu(toy), abs=0.01)

    def test_brevity_penalty_applies(self):
        long_ref = "one two three four five six seven eight"
        assert sentence_bleu("one two three", long_ref) < sentence_bleu(
            "one two three four five six seven eight", long_ref
        )

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            corpus_bleu(["a"], ["a", "b"])

    def test_permutation_invariance(self):
        hyps = [h for h, _ in FIXTURE_PAIRS]
        refs = [r for _, r in FIXTURE_PAIRS]
        assert corpus_bleu(hyps[::-1], refs[::-1]) == pytest.approx(corpus_bleu(hyps, refs))


class TestEvaluate:
    def test_report_shape_and_labels(self):
        ids = [str(i) for i in range(len(FIXTURE_PAIRS))]
        hyps = [h for h, _ in FIXTURE_PAIRS]
        refs = [r for _, r in FIXTURE_PAIRS]
        report = evaluate(ids, hyps, refs)
        assert len(report.per_sentence) == 20
        assert report.bleu_label == "BLEU(whitespace)"
        assert report.metadata["tokenizer"] == "whitespace"

    def test_report_round_trip(self, tmp_path):
        report = evaluate(["1"], ["a b"], ["a b"])
        (tmp_path / "r.json").write_text(
            __import__("json").dumps(report.to_dict()), encoding="utf-8"
        )
        loaded = EvalReport.load(tmp_path / "r.json")
        assert loaded.corpus_chrf == pytest.approx(100.0)
        assert loaded.bleu_label == report.bleu_label

    def test_corpus_bleu_is_pooled_not_averaged(self):
        # a corpus where averaging sentence BLEU differs from pooled counts
        pairs = [("a b c d", "a b c d"), ("x y", "p q")]
        hyps = [h for h, _ in pairs]
        refs = [r for _, r in pairs]
        pooled = corpus_bleu(hyps, refs)
        averaged = sum(sentence_bleu(h, r) for h, r in pairs) / 2
        assert pooled != pytest.approx(averaged)
        assert pooled == pytest.approx(oracle_bleu(pairs), abs=1e-6)

    # words of letters (with non-ASCII) or of punctuation only; a segment
    # may have no words at all, so hypotheses can be empty
    SEGMENTS = st.lists(
        st.one_of(
            st.text(alphabet="abcéßπ水", min_size=1, max_size=5),
            st.text(alphabet=".,!?;:'\"-", min_size=1, max_size=3),
        ),
        max_size=8,
    ).map(" ".join)

    @given(
        st.lists(st.tuples(SEGMENTS, SEGMENTS), min_size=1, max_size=6),
        st.sampled_from([ChrfParams(), ChrfParams(char_order=3, word_order=0, beta=1.0)]),
    )
    def test_single_pass_equals_public_scorers(self, pairs, params):
        hyps = [h for h, _ in pairs]
        refs = [r for _, r in pairs]
        report = evaluate([str(i) for i in range(len(pairs))], hyps, refs, chrf_params=params)
        for score, h, r in zip(report.per_sentence, hyps, refs):
            assert score.bleu == sentence_bleu(h, r)
            assert score.chrf == chrf_pp(h, r, params)
        assert report.corpus_bleu == corpus_bleu(hyps, refs)
        assert report.corpus_chrf == corpus_chrf(hyps, refs, params)


def test_whitespace_tokenizer_round_trip():
    tok = WhitespaceTokenizer()
    tokens = tok.tokenize("a b  c")
    assert tok.tokenize(" ".join(tokens)) == tokens


def _pieces(text: str) -> list[str]:
    """Two-character pieces, each word's first marked as SentencePiece marks it."""
    return [("\u2581" if i == 0 else "") + word[i : i + 2]
            for word in text.split() for i in range(0, len(word), 2)]


class TestSentencePieceTokenizer:
    """The subword tokenizer over a stub ``sentencepiece`` module, which is
    an optional dependency."""

    def test_evaluate_tokenizes_through_it(self, monkeypatch):
        encoded, loaded = [], []

        class Processor:
            def __init__(self, model_file):
                loaded.append(model_file)

            def encode(self, text, out_type):
                assert out_type is str
                encoded.append(text)
                return _pieces(text)

        monkeypatch.setitem(sys.modules, "sentencepiece",
                            types.SimpleNamespace(SentencePieceProcessor=Processor))
        tokenizer = SentencePieceTokenizer("models/spm.model")
        assert loaded == ["models/spm.model"]
        pairs = FIXTURE_PAIRS[:4]
        hyps = [h for h, _ in pairs]
        refs = [r for _, r in pairs]
        report = evaluate([str(i) for i in range(len(pairs))], hyps, refs, tokenizer=tokenizer)
        assert report.bleu_label == "spBLEU"
        assert report.metadata["tokenizer"] == "sentencepiece:spm.model"
        assert sorted(encoded) == sorted(hyps + refs)
        # BLEU over the pieces, not over the words
        spaced = [[" ".join(_pieces(t)) for t in texts] for texts in (hyps, refs)]
        assert report.corpus_bleu == corpus_bleu(*spaced)
        assert report.corpus_bleu != corpus_bleu(hyps, refs)

    def test_missing_module_names_the_fallback(self, monkeypatch):
        monkeypatch.setitem(sys.modules, "sentencepiece", None)  # import fails
        with pytest.raises(RuntimeError, match="use the whitespace tokenizer"):
            SentencePieceTokenizer("models/spm.model")
