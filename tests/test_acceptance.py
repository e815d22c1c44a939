"""Acceptance gate: one test per release criterion.

Each test prints a single pass/fail line (run with ``pytest -s`` to see the
lines for passing criteria too). The oracles live next to the unit tests;
this module only re-runs them at the stated scales and tolerances.
"""

from __future__ import annotations

import contextlib
import os
import random
import sys
import time
from pathlib import Path

import pytest

import ragmt.transport
from conftest import GOLDEN_DIR, REPO_ROOT, make_pairs
from ragmt.analysis import build_vocab, oov_rate
from ragmt.corpus import ParallelPair
from ragmt.metrics import chrf_pp, corpus_bleu, corpus_chrf
from ragmt.pipeline import compare, run_experiment
from ragmt.prompt import DHAO_PROFILE, ContextBundle, glossary_block, render_direct, render_postedit
from ragmt.retrieval import (
    Bm25Index,
    EmbeddingIndex,
    GramIndex,
    TokenIndex,
    bm25_retrieve,
    chrf_counterweighted_retrieve,
    dense_retrieve,
    fuzzy_word_lists,
    lexicon_fuzzy_retrieve,
)
from ragmt.text import word_tokenize
from test_metrics import (
    FIXTURE_PAIRS,
    FROZEN_CORPUS_BLEU,
    FROZEN_CORPUS_CHRF,
    FROZEN_SENTENCE_CHRF,
)
from test_pipeline import base_config, record_fixtures, replay_config
from test_retrieval import (
    _unit_rows,
    bm25_oracle,
    chrf_cw_oracle,
    dense_oracle,
    edit_distance_oracle,
    fuzzy_oracle,
)


@contextlib.contextmanager
def criterion(number: int, name: str):
    try:
        yield
    except pytest.skip.Exception as exc:
        print(f"[acceptance] criterion {number} ({name}): SKIP — {exc}", file=sys.stderr)
        raise
    except BaseException:
        print(f"[acceptance] criterion {number} ({name}): FAIL", file=sys.stderr)
        raise
    print(f"[acceptance] criterion {number} ({name}): PASS", file=sys.stderr)


def test_criterion_1_metric_parity():
    with criterion(1, "metric parity"):
        hyps = [h for h, _ in FIXTURE_PAIRS]
        refs = [r for _, r in FIXTURE_PAIRS]
        start = time.perf_counter()
        corpus_chrf_score = corpus_chrf(hyps, refs)
        sentence_scores = [chrf_pp(h, r) for h, r in FIXTURE_PAIRS]
        bleu_score = corpus_bleu(hyps, refs)
        elapsed = time.perf_counter() - start
        assert corpus_chrf_score == pytest.approx(FROZEN_CORPUS_CHRF, abs=0.1)
        for got, frozen in zip(sentence_scores, FROZEN_SENTENCE_CHRF):
            assert got == pytest.approx(frozen, abs=0.1)
        assert bleu_score == pytest.approx(FROZEN_CORPUS_BLEU, abs=0.01)
        assert elapsed < 1.0, f"scored 20 pairs in {elapsed:.2f}s (limit 1s)"


def test_criterion_2_retrieval_oracle_equivalence():
    with criterion(2, "retrieval oracle equivalence"):
        start = time.perf_counter()
        rng = random.Random(99)

        pairs = make_pairs(1000, seed=4)
        index = Bm25Index(pairs)
        queries = [p.source_text for p in rng.sample(pairs, 20)]
        for query in queries:
            got = [(r.pair.id, r.score) for r in bm25_retrieve(index, query, 10)]
            assert got == [(pid, s) for s, pid in bm25_oracle(pairs, query, 10)]

        small = make_pairs(200, seed=5)
        matrix = _unit_rows(len(small), 16, seed=6)
        dense_index = EmbeddingIndex(small, matrix)
        for _ in range(10):
            query = _unit_rows(1, 16, seed=rng.randrange(10**6))[0]
            got = [r.pair.id for r in dense_retrieve(dense_index, query, 8)]
            want = [pid for _, pid in dense_oracle(small, matrix, query, 8)]
            assert got == want

        words = TokenIndex.over_pairs(pairs[:300])
        for query in queries[:8]:
            got = [(r.pair.id, r.score) for r in fuzzy_word_lists(words, query, 3).union(3)]
            want = [(pid, s) for s, pid in fuzzy_oracle(pairs[:300], query, 3)]
            assert [g[0] for g in got] == [w[0] for w in want]

        from ragmt.corpus import LexiconEntry

        lexicon = [LexiconEntry(source_word=w, target_word=w[::-1])
                   for p in small[:50] for w in set(word_tokenize(p.source_text))]
        lexicon = list({e.source_word: e for e in lexicon}.values())
        headwords = TokenIndex.over_lexicon(lexicon)
        for query in queries[:5]:
            got = lexicon_fuzzy_retrieve(headwords, query, 2)
            for r in got:
                dist = edit_distance_oracle(r.query_word, r.entry.source_word)
                sim = 1 - dist / max(len(r.query_word), len(r.entry.source_word))
                assert r.score == pytest.approx(sim)
                assert sim >= 0.5

        elapsed = time.perf_counter() - start
        assert elapsed < 10.0, f"retrieval checks took {elapsed:.2f}s (limit 10s)"


def test_criterion_3_chrf_counterweight_properties():
    with criterion(3, "chrF-counterweight properties"):
        pairs = make_pairs(300, seed=7)
        index = GramIndex(pairs)
        rng = random.Random(11)
        queries = [" ".join(rng.sample(word_tokenize(p.source_text),
                                       min(4, len(word_tokenize(p.source_text)))))
                   for p in rng.sample(pairs, 50)]

        # k=1 equals the plain overlap top-1 (gamma never applies before pick 1)
        for query in queries[:20]:
            got = chrf_counterweighted_retrieve(index, query, 1)
            want = chrf_cw_oracle(pairs, query, 1, gamma=1.0)
            assert [(r.pair.id) for r in got] == [pid for pid, _ in want]

        # gamma=1 is rank-equivalent to the non-penalized scorer, 50 queries
        for query in queries:
            got = [r.pair.id for r in chrf_counterweighted_retrieve(index, query, 5, gamma=1.0)]
            want = [pid for pid, _ in chrf_cw_oracle(pairs, query, 5, gamma=1.0)]
            assert got == want

        # gamma=0.5 never selects byte-identical duplicates while a distinct
        # overlapping candidate still has positive score
        dup = ParallelPair("dup1", "the shepherd watches the sheep", "t", "NT")
        dup2 = ParallelPair("dup2", "the shepherd watches the sheep", "t", "NT")
        distinct = ParallelPair("alt1", "a shepherd guards his sheep", "t", "NT")
        filler = ParallelPair("far1", "completely unrelated words here", "t", "NT")
        got = chrf_counterweighted_retrieve(
            GramIndex([dup, dup2, distinct, filler]), "the shepherd watches the sheep", 2,
            gamma=0.5,
        )
        texts = [r.pair.source_text for r in got]
        assert len(set(texts)) == len(texts)
        assert distinct.source_text in texts


def test_criterion_4_prompt_goldens(demo_corpus, demo_lexicon):
    with criterion(4, "prompt goldens"):
        from ragmt.retrieval import RetrievedExample

        source = "In the beginning, God created the heavens and the earth."
        draft = "Pa petari, Lamatua tao lani ma rai balu."
        by_id = {p.id: p for p in demo_corpus}
        by_word = {e.source_word: e for e in demo_lexicon}
        examples = [
            RetrievedExample(pair=by_id["JHN.1.1"], score=0.9, strategy="BM25"),
            RetrievedExample(pair=by_id["MAT.6.9"], score=0.7, strategy="BM25"),
        ]
        gloss_pos = glossary_block([by_word["father"], by_word["light"]], DHAO_PROFILE)
        gloss_nopos = glossary_block([by_word["love"], by_word["father"]], DHAO_PROFILE)
        cases = {
            "zero": ContextBundle(),
            "two_examples": ContextBundle(examples=examples),
            "glossary_pos": ContextBundle(glossary=gloss_pos),
            "glossary_nopos": ContextBundle(glossary=gloss_nopos),
            "combined_pos": ContextBundle(examples=examples, glossary=gloss_pos),
            "combined_nopos": ContextBundle(examples=examples, glossary=gloss_nopos),
        }
        for name, bundle in cases.items():
            for mode in ("direct", "postedit"):
                if mode == "direct":
                    rendered = render_direct(source, bundle)
                else:
                    rendered = render_postedit(source, draft, bundle)
                golden = (GOLDEN_DIR / f"{mode}_{name}.user.txt").read_bytes()
                assert rendered.user.encode("utf-8") == golden, f"{mode}_{name}"
        for mode in ("direct", "postedit"):
            rendered = render_direct(source) if mode == "direct" else render_postedit(source, draft)
            assert rendered.system.encode("utf-8") == (
                GOLDEN_DIR / f"{mode}.system.txt"
            ).read_bytes()


def test_criterion_5_replay_determinism(tmp_path, monkeypatch):
    with criterion(5, "replay determinism"):
        kwargs = dict(mode="POST_EDIT", context="FUZZY_WORD", n=2,
                      lexicon_mode="FULL", retrieval_corpus="NT_PLUS_GRAMMAR")
        fixtures = record_fixtures(tmp_path, kwargs)
        config = replay_config(tmp_path, fixtures, kwargs)
        out = Path(config.output_dir)
        blobs = []
        for _ in range(3):
            run_experiment(config, resume=False)
            blobs.append((
                (out / f"report-{config.fingerprint()}.json").read_bytes(),
                (out / f"manifest-{config.fingerprint()}.json").read_bytes(),
            ))
        assert blobs[0] == blobs[1] == blobs[2]

        def explode(*args, **kwargs):
            raise AssertionError("NMT_ONLY issued a network request")

        monkeypatch.setattr(ragmt.transport.Transport, "post", explode)
        report, manifest = run_experiment(base_config(tmp_path))
        assert len(manifest.records) == 10


def test_criterion_6_dynamic_k_law(demo_corpus, demo_test_pairs):
    with criterion(6, "dynamic-k law"):
        pool = [p for p in demo_corpus if p.origin in ("NT", "GRAMMAR")]
        sources = [p.source_text for p in demo_test_pairs]
        mean_tokens = sum(len(word_tokenize(s)) for s in sources) / len(sources)
        words = TokenIndex.over_pairs(pool)
        means = []
        for n in (1, 2, 3, 4):
            ks = [len(fuzzy_word_lists(words, s, n).union(n)) for s in sources]
            mean_k = sum(ks) / len(ks)
            assert mean_k <= n * mean_tokens + 1e-9
            means.append(mean_k)
        assert means == sorted(means), "mean effective k must grow with n"
        assert means[0] < means[-1]


WEB_DIR = Path(os.environ.get("RAGMT_WEB_DIR", REPO_ROOT / "data" / "web"))


def test_criterion_7_domain_shift_on_public_bible_text():
    with criterion(7, "public-corpus OOV reproduction"):
        needed = [WEB_DIR / name for name in
                  ("nt_train.txt", "nt_eval.txt", "ot_eval.txt")]
        if not all(p.exists() for p in needed):
            pytest.skip(
                f"public WEB corpus not present under {WEB_DIR}; "
                "criteria 1-6 stand alone (see configs/README.md)"
            )
        train = needed[0].read_text(encoding="utf-8").splitlines()
        nt_eval = needed[1].read_text(encoding="utf-8").splitlines()
        ot_eval = needed[2].read_text(encoding="utf-8").splitlines()
        vocab = build_vocab(train)
        in_domain = oov_rate(vocab, nt_eval, level="token")
        out_domain = oov_rate(vocab, ot_eval, level="token")
        assert in_domain == pytest.approx(0.081, abs=0.01)
        assert out_domain == pytest.approx(0.259, abs=0.01)


def test_criterion_8_delta_bookkeeping():
    with criterion(8, "delta bookkeeping"):
        from test_pipeline import make_report

        reports = {
            "nmt_only": make_report(27.11, 7.66),
            "static_5shot": make_report(31.44, 14.02),
            "final": make_report(35.21, 19.88),
        }
        rows = compare(reports, baseline="nmt_only")
        by_label = {r["label"]: r for r in rows}
        assert by_label["final"]["delta_chrF++"] == "+8.10"
        assert by_label["final"]["delta_spBLEU"] == "+12.22"
        assert by_label["nmt_only"]["delta_chrF++"] == "+0.00"
        assert [r["label"] for r in rows] == ["final", "static_5shot", "nmt_only"]
