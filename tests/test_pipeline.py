from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import threading
import time
from collections import Counter
from dataclasses import fields, replace
from pathlib import Path

import pytest

import ragmt.transport
from conftest import DEMO_DATA, REPO_ROOT, make_pairs
from mock_server import MockProviderServer
from ragmt import pipeline, retrieval
from ragmt.corpus import load_lexicon, load_parallel
from ragmt.metrics import EvalReport, SentenceScore, chrf_pp, sentence_bleu
from ragmt.pipeline import (
    ConfigError,
    ExperimentConfig,
    RunManifest,
    _pairs_hash,
    compare,
    final_preset,
    load_drafts,
    read_sweep_csv,
    run_experiment,
    sweep,
    write_sweep_csv,
)
from ragmt.prompt import DHAO_PROFILE, ContextBundle, glossary_block, render_postedit
from ragmt.provider import (ChatExchange, Provider, ProviderConfig, ProviderError,
                            chat_request_key)


def base_config(tmp_path, **overrides) -> ExperimentConfig:
    defaults = dict(
        mode="NMT_ONLY",
        corpus_path=str(DEMO_DATA / "corpus.tsv"),
        lexicon_path=str(DEMO_DATA / "lexicon.tsv"),
        test_path=str(DEMO_DATA / "test.tsv"),
        draft_path=str(DEMO_DATA / "drafts.tsv"),
        output_dir=str(tmp_path / "runs"),
    )
    defaults.update(overrides)
    return ExperimentConfig(**defaults)


def perfect_draft_file(tmp_path) -> str:
    from ragmt.corpus import load_parallel

    path = tmp_path / "perfect.tsv"
    pairs = load_parallel(DEMO_DATA / "test.tsv")
    path.write_text(
        "".join(f"{p.id}\t{p.target_text}\n" for p in pairs), encoding="utf-8"
    )
    return str(path)


def record_fixtures(tmp_path, config_kwargs) -> str:
    """Run once against the mock server, caching exchanges for replay."""
    fixtures = str(tmp_path / "fixtures")
    with MockProviderServer() as server:
        provider_config = ProviderConfig(
            base_url=server.base_url, model_name="mock-chat",
            embedding_model_name="mock-embed", cache_dir=fixtures,
        )
        config = base_config(tmp_path, provider=provider_config, **config_kwargs)
        run_experiment(config, resume=False)
    return fixtures


def replay_config(tmp_path, fixtures, config_kwargs) -> ExperimentConfig:
    provider_config = ProviderConfig(
        model_name="mock-chat", embedding_model_name="mock-embed",
        replay_dir=fixtures,
    )
    return base_config(tmp_path, provider=provider_config, **config_kwargs)


def with_changes(config: ExperimentConfig, change: dict) -> ExperimentConfig:
    """``config`` with fields of its own or of its provider replaced."""
    provider_fields = {f.name for f in fields(ProviderConfig)}
    provider = replace(config.provider,
                       **{k: v for k, v in change.items() if k in provider_fields})
    return replace(config, provider=provider,
                   **{k: v for k, v in change.items() if k not in provider_fields})


class TestConfigInvariants:
    def test_nmt_only_forbids_provider(self, tmp_path):
        with pytest.raises(ConfigError, match="forbids"):
            base_config(tmp_path, provider=ProviderConfig(model_name="m"))

    def test_nmt_only_requires_drafts(self, tmp_path):
        with pytest.raises(ConfigError, match="draft"):
            base_config(tmp_path, draft_path="")

    def test_postedit_requires_provider(self, tmp_path):
        with pytest.raises(ConfigError, match="provider"):
            base_config(tmp_path, mode="POST_EDIT")

    def test_static_k_requires_k(self, tmp_path):
        with pytest.raises(ConfigError, match="STATIC_K"):
            base_config(tmp_path, context="STATIC_K")

    def test_fuzzy_requires_n(self, tmp_path):
        with pytest.raises(ConfigError, match="FUZZY_WORD"):
            base_config(tmp_path, context="FUZZY_WORD")

    def test_dense_requires_provider(self, tmp_path):
        with pytest.raises(ConfigError, match="DENSE"):
            base_config(tmp_path, context="DENSE", k=2)

    @pytest.mark.parametrize("gamma", [-2.0, -0.01, 1.5, float("nan"), float("inf")])
    def test_gamma_outside_unit_interval(self, tmp_path, gamma):
        with pytest.raises(ConfigError, match="gamma"):
            base_config(tmp_path, context="CHRF_CW", k=2, gamma=gamma)

    @pytest.mark.parametrize("gamma", [0.0, 1.0])
    def test_gamma_bounds_are_valid(self, tmp_path, gamma):
        assert base_config(tmp_path, context="CHRF_CW", k=2, gamma=gamma).gamma == gamma

    def test_config_json_round_trip(self, tmp_path):
        config = base_config(tmp_path, context="FUZZY_WORD", n=5,
                             lexicon_mode="FULL")
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(config.to_dict()), encoding="utf-8")
        loaded = ExperimentConfig.load(path)
        assert loaded == config
        assert loaded.fingerprint() == config.fingerprint()

    @pytest.mark.parametrize("kwargs, fingerprint", [
        (dict(mode="NMT_ONLY"), "faa272b176b1b692"),
        (dict(final_preset(), provider=ProviderConfig(model_name="mock-chat",
                                                      replay_dir="fixtures")),
         "ef69fd46a4148f28"),
        (dict(mode="POST_EDIT", context="CHRF_CW", k=5, gamma=0.25,
              lexicon_mode="FUZZY_N", lexicon_n=2,
              provider=ProviderConfig(base_url="http://localhost:8000/v1",
                                      model_name="mock-chat",
                                      embedding_model_name="mock-embed",
                                      cache_dir="cache")),
         "99e041f52de5887a"),
    ])
    def test_fingerprint_pinned(self, kwargs, fingerprint):
        # the fingerprint names a run's manifest and report files, so a
        # changed serialisation would orphan every earlier run
        config = ExperimentConfig(
            corpus_path="data/corpus.tsv", lexicon_path="data/lexicon.tsv",
            test_path="data/test.tsv", draft_path="data/drafts.tsv", **kwargs,
        )
        assert config.fingerprint() == fingerprint

    LIVE = ProviderConfig(model_name="mock-chat", embedding_model_name="mock-embed",
                          base_url="http://localhost:8000/v1", cache_dir="cache")

    @pytest.mark.parametrize("change", [
        dict(base_url="http://localhost:9000/v1"), dict(api_key_env="OTHER_KEY"),
        dict(max_retries=7), dict(request_timeout=300.0), dict(max_in_flight=16),
        dict(embed_batch_size=8), dict(backoff_base=0.5), dict(cache_dir="elsewhere"),
        dict(cache_dir=None, replay_dir="cache"), dict(output_dir="elsewhere"),
    ], ids="+".join)
    def test_operational_fields_keep_identity(self, tmp_path, change):
        config = base_config(tmp_path, mode="POST_EDIT", context="BM25", k=2,
                             provider=self.LIVE)
        assert with_changes(config, change).fingerprint() == config.fingerprint()

    @pytest.mark.parametrize("change", [
        dict(model_name="other-chat"), dict(embedding_model_name="other-embed"),
        dict(temperature=0.7), dict(k=3), dict(gamma=0.25),
        dict(test_path="data/other_test.tsv"),
    ], ids="+".join)
    def test_output_fields_change_identity(self, tmp_path, change):
        config = base_config(tmp_path, mode="POST_EDIT", context="BM25", k=2,
                             provider=self.LIVE)
        assert with_changes(config, change).fingerprint() != config.fingerprint()

    @pytest.mark.parametrize("path", sorted((REPO_ROOT / "configs").glob("*.json")),
                             ids=lambda p: p.stem)
    def test_shipped_configs_load(self, path):
        config = ExperimentConfig.load(path)
        if config.provider is not None:
            # configs/README.md: a live run's cache replays as the same run
            replayed = replace(config, provider=replace(
                config.provider, cache_dir=None, replay_dir=config.provider.cache_dir))
            assert replayed.fingerprint() == config.fingerprint()

    def test_final_preset_matches_best_system(self):
        preset = final_preset()
        assert preset["context"] == "FUZZY_WORD"
        assert preset["n"] == 10
        assert preset["lexicon_mode"] == "FULL"
        assert preset["retrieval_corpus"] == "NT_PLUS_GRAMMAR"


class TestNmtOnly:
    def test_perfect_drafts_score_100(self, tmp_path):
        config = base_config(tmp_path, draft_path=perfect_draft_file(tmp_path))
        report, manifest = run_experiment(config)
        assert report.corpus_bleu == pytest.approx(100.0)
        assert report.corpus_chrf == pytest.approx(100.0)
        assert len(manifest.records) == 10

    def test_never_touches_network(self, tmp_path, monkeypatch):
        def explode(*args, **kwargs):
            raise AssertionError("network touched in NMT_ONLY mode")

        monkeypatch.setattr(ragmt.transport.Transport, "post", explode)
        report, _ = run_experiment(base_config(tmp_path))
        assert 0.0 < report.corpus_chrf < 100.0

    def test_manifest_traceability(self, tmp_path):
        config = base_config(tmp_path)
        _, manifest = run_experiment(config)
        for record in manifest.records:
            assert record.completion == record.draft
            assert record.prompt_hash is None
        path = Path(config.output_dir) / f"manifest-{config.fingerprint()}.json"
        assert RunManifest.load(path).config_fingerprint == config.fingerprint()


    def test_record_scores_are_sentence_scores(self, tmp_path):
        _, manifest = run_experiment(base_config(tmp_path))
        for record in manifest.records:
            assert record.bleu == sentence_bleu(record.completion, record.reference)
            assert record.chrf == chrf_pp(record.completion, record.reference)


class TestPostEditReplay:
    KWARGS = dict(mode="POST_EDIT", context="FUZZY_WORD", n=2,
                  lexicon_mode="FUZZY_N", lexicon_n=2,
                  retrieval_corpus="NT_PLUS_GRAMMAR")

    def test_bit_identical_across_three_runs(self, tmp_path):
        fixtures = record_fixtures(tmp_path, self.KWARGS)
        config = replay_config(tmp_path, fixtures, self.KWARGS)
        out = Path(config.output_dir)
        blobs = []
        for _ in range(3):
            run_experiment(config, resume=False)
            report_bytes = (out / f"report-{config.fingerprint()}.json").read_bytes()
            manifest_bytes = (out / f"manifest-{config.fingerprint()}.json").read_bytes()
            blobs.append((report_bytes, manifest_bytes))
        assert blobs[0] == blobs[1] == blobs[2]

    def test_manifest_ids_regenerate_identical_prompts(self, tmp_path):
        from ragmt.corpus import load_lexicon, load_parallel
        from ragmt.pipeline import _prompt_hash
        from ragmt.retrieval import TokenIndex, fuzzy_word_lists, lexicon_fuzzy_retrieve

        fixtures = record_fixtures(tmp_path, self.KWARGS)
        config = replay_config(tmp_path, fixtures, self.KWARGS)
        _, manifest = run_experiment(config, resume=False)

        pool_all = load_parallel(config.corpus_path)
        pool = [p for p in pool_all if p.origin in ("NT", "GRAMMAR")]
        lexicon = load_lexicon(config.lexicon_path)
        drafts = load_drafts(config.draft_path)
        words, headwords = TokenIndex.over_pairs(pool), TokenIndex.over_lexicon(lexicon)
        for record in manifest.records:
            examples = fuzzy_word_lists(words, record.source, config.n).union(config.n)
            assert [e.pair.id for e in examples] == record.retrieved_ids
            hits = lexicon_fuzzy_retrieve(headwords, record.source, config.lexicon_n)
            bundle = ContextBundle(
                examples=examples,
                glossary=glossary_block((hit.entry for hit in hits), DHAO_PROFILE),
            )
            rendered = render_postedit(record.source, drafts[record.id], bundle)
            assert _prompt_hash(rendered.system, rendered.user) == record.prompt_hash

    def test_static_context_fixed_corpus_wide(self, tmp_path):
        kwargs = dict(mode="POST_EDIT", context="STATIC_K", k=5, static_seed=11)
        fixtures = record_fixtures(tmp_path, kwargs)
        config = replay_config(tmp_path, fixtures, kwargs)
        _, manifest = run_experiment(config, resume=False)
        id_lists = {tuple(r.retrieved_ids) for r in manifest.records}
        assert len(id_lists) == 1  # same 5 examples in every prompt
        assert len(next(iter(id_lists))) == 5

    def test_dense_context_via_replayed_embeddings(self, tmp_path):
        kwargs = dict(mode="POST_EDIT", context="DENSE", k=3)
        fixtures = record_fixtures(tmp_path, kwargs)
        config = replay_config(tmp_path, fixtures, kwargs)
        report, manifest = run_experiment(config, resume=False)
        assert all(len(r.retrieved_ids) == 3 for r in manifest.records)
        assert 0.0 <= report.corpus_chrf <= 100.0


class TestFailureAndResume:
    KWARGS = dict(mode="POST_EDIT", context="BM25", k=3)

    def test_partial_manifest_then_resume(self, tmp_path):
        fixtures = str(tmp_path / "fixtures")
        with MockProviderServer() as server:
            # three sentences succeed, then the server fails hard
            server.status_script = [200, 200, 200] + [500] * 50
            provider_config = ProviderConfig(
                base_url=server.base_url, model_name="mock-chat",
                cache_dir=fixtures, max_retries=1, backoff_base=0.01,
            )
            config = base_config(tmp_path, provider=provider_config, **self.KWARGS)
            with pytest.raises(ProviderError, match="partial manifest"):
                run_experiment(config, resume=False)
            manifest_path = Path(config.output_dir) / f"manifest-{config.fingerprint()}.json"
            partial = RunManifest.load(manifest_path)
            completed = [r for r in partial.records if r.error is None]
            failed = [r for r in partial.records if r.error is not None]
            assert len(completed) == 3
            assert len(failed) == 1

        with MockProviderServer() as server:
            provider_config = ProviderConfig(
                base_url=server.base_url, model_name="mock-chat",
                cache_dir=fixtures, max_retries=1, backoff_base=0.01,
            )
            config = base_config(tmp_path, provider=provider_config, **self.KWARGS)
            report, manifest = run_experiment(config, resume=True)
            assert len(manifest.records) == 10
            assert all(r.error is None for r in manifest.records)
            # the three completed sentences were not re-requested
            chat_requests = [r for r in server.requests if "chat" in r["path"]]
            assert len(chat_requests) == 7

    def test_reply_that_is_not_json_aborts_with_partial_manifest(self, tmp_path):
        with MockProviderServer() as server:
            server.reply_body = b"<html>maintenance</html>"
            provider_config = ProviderConfig(base_url=server.base_url, model_name="mock-chat",
                                             max_in_flight=1)
            config = base_config(tmp_path, provider=provider_config, **self.KWARGS)
            with pytest.raises(ProviderError, match="partial manifest"):
                run_experiment(config, resume=False)
            assert len(server.requests) == 1  # not retried, nothing sent after it
        partial = RunManifest.load(
            Path(config.output_dir) / f"manifest-{config.fingerprint()}.json")
        assert len(partial.records) == 1
        assert "is not JSON: b'<html>maintenance" in partial.records[0].error

    def test_resume_with_other_operational_settings(self, tmp_path):
        # no cache: only the manifest can spare the completed sentences
        with MockProviderServer() as server:
            server.status_script = [200, 200, 200] + [500] * 50
            provider_config = ProviderConfig(
                base_url=server.base_url, model_name="mock-chat",
                max_retries=1, backoff_base=0.01,
            )
            config = base_config(tmp_path, provider=provider_config, **self.KWARGS)
            with pytest.raises(ProviderError, match="partial manifest"):
                run_experiment(config)

        with MockProviderServer() as server:
            provider_config = replace(provider_config, base_url=server.base_url,
                                      request_timeout=120.0)
            config = base_config(tmp_path, provider=provider_config, **self.KWARGS)
            _, manifest = run_experiment(config)
            assert all(r.error is None for r in manifest.records)
            chat_requests = [r for r in server.requests if "chat" in r["path"]]
            assert len(chat_requests) == 7

    def test_replay_of_a_live_run_shares_its_manifest(self, tmp_path):
        # both runs write to base_config's output_dir
        fixtures = record_fixtures(tmp_path, self.KWARGS)
        config = replay_config(tmp_path, fixtures, self.KWARGS)
        _, manifest = run_experiment(config)
        assert [p.name for p in Path(config.output_dir).glob("manifest-*.json")] == [
            f"manifest-{config.fingerprint()}.json"
        ]
        assert all(r.error is None for r in manifest.records)

    @pytest.mark.parametrize("edited", ["test", "corpus", "lexicon", "drafts"])
    def test_resume_skips_records_of_a_file_edited_in_place(self, tmp_path, edited):
        paths = {}
        for name in ("corpus", "test", "drafts", "lexicon"):
            paths[name] = tmp_path / f"{name}.tsv"
            shutil.copy(DEMO_DATA / f"{name}.tsv", paths[name])
        with MockProviderServer() as server:
            # post-editing, so lexicon entries reach the prompt and its hash
            config = base_config(
                tmp_path, mode="POST_EDIT", context="BM25", k=2,
                lexicon_mode="FUZZY_N", lexicon_n=1,
                provider=ProviderConfig(base_url=server.base_url, model_name="mock-chat"),
                corpus_path=str(paths["corpus"]), test_path=str(paths["test"]),
                draft_path=str(paths["drafts"]), lexicon_path=str(paths["lexicon"]),
            )
            _, original = run_experiment(config, resume=False)

            # same paths, so the same config fingerprint, but other contents:
            # rotate source texts (corpus), reference texts (test), headwords
            # (lexicon) or hypotheses (drafts) between rows
            rows = [line.split("\t") for line in paths[edited].read_text("utf-8").splitlines()]
            column = {"corpus": 1, "test": 2, "lexicon": 0, "drafts": 1}[edited]
            texts = [row[column] for row in rows]
            for row, text in zip(rows, texts[1:] + texts[:1]):
                row[column] = text
            paths[edited].write_text("".join("\t".join(r) + "\n" for r in rows), "utf-8")

            _, resumed = run_experiment(config, resume=True)
            _, fresh = run_experiment(config, resume=False)
        assert resumed.to_dict() == fresh.to_dict()
        assert fresh.to_dict() != original.to_dict()


class TestConcurrentDispatch:
    KWARGS = dict(mode="POST_EDIT", context="BM25", k=2)

    def test_outputs_do_not_depend_on_max_in_flight(self, tmp_path):
        blobs = {}
        for in_flight in (1, 4):
            with MockProviderServer(response_delay=0.05) as server:
                config = base_config(
                    tmp_path, output_dir=str(tmp_path / f"runs{in_flight}"),
                    provider=ProviderConfig(base_url=server.base_url, model_name="mock-chat",
                                            max_in_flight=in_flight),
                    **self.KWARGS,
                )
                run_experiment(config, resume=False)
            assert server.high_water == in_flight
            out = Path(config.output_dir)
            blobs[in_flight] = [
                (out / f"{kind}-{config.fingerprint()}.json").read_bytes()
                for kind in ("manifest", "report")
            ]
        assert blobs[1] == blobs[4]

    def test_failed_run_keeps_completed_records_and_resumes_the_rest(self, tmp_path):
        test_ids = [p.id for p in load_parallel(DEMO_DATA / "test.tsv")]
        with MockProviderServer() as server:
            server.status_script = [200] * 5 + [500] * 50
            provider_config = ProviderConfig(
                base_url=server.base_url, model_name="mock-chat",
                max_retries=1, backoff_base=0.01, max_in_flight=4,
            )
            config = base_config(tmp_path, provider=provider_config, **self.KWARGS)
            with pytest.raises(ProviderError, match="partial manifest"):
                run_experiment(config, resume=False)
        partial = RunManifest.load(
            Path(config.output_dir) / f"manifest-{config.fingerprint()}.json")
        ids = [r.id for r in partial.records]
        errors = [r for r in partial.records if r.error is not None]
        # each of the five 200s completed a sentence, and all five are kept
        assert len(partial.records) - len(errors) == 5
        assert len(errors) == 1
        # in test order, and nothing before the failed sentence is missing
        assert ids == sorted(ids, key=test_ids.index)
        first_error = test_ids.index(errors[0].id)
        assert ids[: first_error + 1] == test_ids[: first_error + 1]
        # nothing was sent once a failure was seen: every prompt sent had
        # either completed by then or was among the max_in_flight unsettled
        prompts = {r["body"]["messages"][-1]["content"] for r in server.requests}
        assert len(prompts) <= len(partial.records) - len(errors) + provider_config.max_in_flight

        with MockProviderServer() as server:
            config = base_config(tmp_path, provider=replace(
                provider_config, base_url=server.base_url), **self.KWARGS)
            _, manifest = run_experiment(config)
        assert [r.id for r in manifest.records] == test_ids
        assert all(r.error is None for r in manifest.records)
        chat_requests = [r for r in server.requests if "chat" in r["path"]]
        assert len(chat_requests) == 5  # no cache: only the manifest spares the others

    def test_at_most_max_in_flight_prompts_outstanding(self, tmp_path, monkeypatch):
        release = threading.Event()

        class BlockingProvider:
            def __init__(self):
                self.calls = 0
                self.lock = threading.Lock()

            def complete(self, prompt):
                with self.lock:
                    self.calls += 1
                release.wait(timeout=60)
                return ChatExchange(request={}, response_text="done", latency=0.0)

        rendered = []
        render = pipeline.render_postedit
        monkeypatch.setattr(pipeline, "render_postedit",
                            lambda *args: rendered.append(args[0]) or render(*args))
        provider = BlockingProvider()
        config = base_config(tmp_path, mode="POST_EDIT", context="NONE",
                             provider=ProviderConfig(model_name="m", max_in_flight=2))
        results = []
        thread = threading.Thread(
            target=lambda: results.append(run_experiment(config, provider, resume=False)))
        thread.start()
        try:
            deadline = time.monotonic() + 30
            while (provider.calls < 2 or len(rendered) < 3) and time.monotonic() < deadline:
                time.sleep(0.01)
            time.sleep(0.2)  # time for a wrongly sent third prompt or fourth render
            # two prompts sent; the third waits for the oldest to settle
            assert provider.calls == 2
            assert len(rendered) == 3
        finally:
            release.set()
            thread.join(timeout=60)
        assert not thread.is_alive()
        _, manifest = results[0]
        assert [r.completion for r in manifest.records] == ["done"] * 10

    def test_slow_prompt_holds_only_its_own_worker(self, tmp_path):
        # prompt 1 is answered only once prompt 3 reaches the provider: the
        # other worker must go on to prompt 3 instead of waiting behind prompt 1
        sources = [p.source_text for p in load_parallel(DEMO_DATA / "test.tsv")]

        class HeadOfLineProvider:
            def __init__(self):
                self.third_sent = threading.Event()

            def complete(self, prompt):
                if sources[2] in prompt.user:
                    self.third_sent.set()
                if sources[0] in prompt.user and not self.third_sent.wait(timeout=5):
                    raise ProviderError("prompt 3 never reached the provider")
                return ChatExchange(request={}, response_text="done", latency=0.0)

        config = base_config(tmp_path, mode="POST_EDIT", context="NONE",
                             provider=ProviderConfig(model_name="m", max_in_flight=2))
        _, manifest = run_experiment(config, HeadOfLineProvider(), resume=False)
        assert [r.completion for r in manifest.records] == ["done"] * len(sources)

    def test_replies_in_any_order_reach_their_own_records(self, tmp_path):
        # more workers than cores, replies out of order and a short switch
        # interval; every sentence twice, so half the records share a prompt
        pairs = load_parallel(DEMO_DATA / "test.tsv")
        rows = [(f"{p.id}-{copy}", p) for copy in "ab" for p in pairs]
        test_path, draft_path = tmp_path / "test.tsv", tmp_path / "drafts.tsv"
        test_path.write_text("".join(f"{i}\t{p.source_text}\t{p.target_text}\tOT\n"
                                     for i, p in rows), encoding="utf-8")
        draft_path.write_text("".join(f"{i}\tdraft of {p.id}\n" for i, p in rows),
                              encoding="utf-8")
        sent = []

        class DigestProvider:
            def complete(self, prompt):
                digest = pipeline._prompt_digest(prompt.system, prompt.user)[:16]
                sent.append(digest)
                time.sleep(int(digest[:2], 16) / 50_000)  # up to 5 ms
                return ChatExchange(request={}, response_text=digest, latency=0.0)

        config = base_config(tmp_path, mode="POST_EDIT", context="NONE",
                             test_path=str(test_path), draft_path=str(draft_path),
                             provider=ProviderConfig(model_name="m", max_in_flight=8))
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            _, manifest = run_experiment(config, DigestProvider(), resume=False)
        finally:
            sys.setswitchinterval(interval)
        assert [r.id for r in manifest.records] == [i for i, _ in rows]
        assert all(r.completion == r.prompt_hash for r in manifest.records)
        assert sorted(sent) == sorted({r.prompt_hash for r in manifest.records})
        assert len(sent) == len(pairs)

    def test_identical_prompts_sent_once(self, tmp_path):
        pair = load_parallel(DEMO_DATA / "test.tsv")[0]
        test_path, draft_path = tmp_path / "test.tsv", tmp_path / "drafts.tsv"
        test_path.write_text(
            f"a\t{pair.source_text}\t{pair.target_text}\tOT\n"
            f"b\t{pair.source_text}\t{pair.target_text}\tOT\n", encoding="utf-8")
        draft_path.write_text("a\tsame draft\nb\tsame draft\n", encoding="utf-8")
        with MockProviderServer() as server:
            config = base_config(
                tmp_path, mode="POST_EDIT", context="NONE",
                test_path=str(test_path), draft_path=str(draft_path),
                provider=ProviderConfig(base_url=server.base_url, model_name="mock-chat"),
            )
            _, manifest = run_experiment(config, resume=False)
        assert len(server.requests) == 1
        a, b = manifest.records
        assert (a.id, b.id) == ("a", "b")
        assert a.prompt_hash == b.prompt_hash
        assert a.completion is not None
        assert a.completion == b.completion


class RecordingProvider:
    """Forwards every call to ``inner`` and notes, per ``complete``, the
    calling thread and the request key of the prompt."""

    def __init__(self, inner):
        self.inner = inner
        self.threads: list[int] = []
        self.keys: list[str] = []

    def complete(self, prompt):
        cfg = self.inner.config
        self.threads.append(threading.get_ident())
        self.keys.append(chat_request_key(cfg.model_name, cfg.temperature,
                                          prompt.system, prompt.user))
        return self.inner.complete(prompt)

    def embed(self, texts):
        return self.inner.embed(texts)


class TestInlineReplay:
    """A replay answers each prompt on the calling thread, whatever its
    ``max_in_flight``."""

    KWARGS = dict(mode="POST_EDIT", context="BM25", k=2)
    VALUES = [1, 2]

    @pytest.fixture
    def started(self, monkeypatch):
        """The threads started while the test runs."""
        threads = []
        start = threading.Thread.start
        monkeypatch.setattr(threading.Thread, "start",
                            lambda thread: threads.append(thread) or start(thread))
        return threads

    def test_run_and_sweep_complete_on_the_calling_thread(self, tmp_path, started):
        fixtures = str(tmp_path / "fixtures")
        with MockProviderServer() as server:
            provider_config = ProviderConfig(base_url=server.base_url, model_name="mock-chat",
                                             cache_dir=fixtures)
            sweep(base_config(tmp_path, output_dir=str(tmp_path / "live"),
                              provider=provider_config, **self.KWARGS), self.VALUES)
        started.clear()
        config = replay_config(tmp_path, fixtures, self.KWARGS)
        assert config.provider.max_in_flight > 1
        tests = len(load_parallel(DEMO_DATA / "test.tsv"))

        provider = RecordingProvider(Provider(config.provider))
        run_experiment(config, provider, resume=False)
        assert provider.threads == [threading.get_ident()] * tests
        provider = RecordingProvider(Provider(config.provider))
        rows = sweep(replace(config, output_dir=str(tmp_path / "sweep")), self.VALUES,
                     provider=provider)
        assert [row["error"] for row in rows] == [""] * len(self.VALUES)
        assert provider.threads == [threading.get_ident()] * (tests * len(self.VALUES))
        assert started == []

    def test_missing_fixture_stops_the_run_and_resume_sends_the_rest(self, tmp_path,
                                                                     monkeypatch):
        fixtures = record_fixtures(tmp_path, self.KWARGS)
        config = replay_config(tmp_path, fixtures, self.KWARGS)
        test_ids = [p.id for p in load_parallel(DEMO_DATA / "test.tsv")]
        provider = RecordingProvider(Provider(config.provider))
        _, full = run_experiment(config, provider, resume=False)
        keys = provider.keys
        assert len(set(keys)) == len(test_ids)

        third = Path(fixtures) / f"{keys[2]}.json"
        saved = third.read_bytes()
        third.unlink()
        provider = RecordingProvider(Provider(config.provider))
        rendered = []
        render = pipeline.render_postedit
        monkeypatch.setattr(pipeline, "render_postedit",
                            lambda *args: rendered.append(args[0]) or render(*args))
        with pytest.raises(ProviderError, match="partial manifest"):
            run_experiment(config, provider, resume=False)
        # nothing is sent, nor retrieved and rendered, after the failure
        assert provider.keys == keys[:3]
        assert len(rendered) == 3
        partial = RunManifest.load(
            Path(config.output_dir) / f"manifest-{config.fingerprint()}.json")
        assert [r.id for r in partial.records] == test_ids[:3]
        assert [r.error is None for r in partial.records] == [True, True, False]
        assert "no replay fixture" in partial.records[2].error

        third.write_bytes(saved)
        provider = RecordingProvider(Provider(config.provider))
        _, resumed = run_experiment(config, provider, resume=True)
        assert provider.keys == keys[2:]
        assert resumed.to_dict() == full.to_dict()


def test_corpus_fingerprint_sensitivity(tmp_path):
    a = make_pairs(5, seed=0)
    assert _pairs_hash(a) == _pairs_hash(make_pairs(5, seed=0))
    assert _pairs_hash(a) != _pairs_hash(make_pairs(5, seed=1))
    # content hashes stored in earlier manifests still match on resume
    _, manifest = run_experiment(base_config(tmp_path))
    assert manifest.corpus_hashes["test"] == (
        "af93b4cc112be044134e02ae3fb890d05c9bc30a7dba46327b294d47072b11c4"
    )


def test_other_language_prompt_has_no_dhao_blurb(tmp_path):
    with MockProviderServer() as server:
        config = base_config(
            tmp_path, mode="POST_EDIT", context="NONE", language="Sabu",
            provider=ProviderConfig(base_url=server.base_url, model_name="mock-chat"),
        )
        run_experiment(config, resume=False)
    systems = {r["body"]["messages"][0]["content"] for r in server.requests}
    assert len(systems) == 1
    system = systems.pop()
    assert system.startswith("You are an expert Bible translator in Sabu language. ")
    assert "Dhao" not in system


def test_fuzzy_indexes_built_once_per_cell(tmp_path, monkeypatch):
    built = []
    init = retrieval.TokenIndex.__init__

    def counting_init(self, items, *rest):
        built.append(type(items[0]).__name__)
        init(self, items, *rest)

    monkeypatch.setattr(retrieval.TokenIndex, "__init__", counting_init)
    config = base_config(tmp_path, context="FUZZY_WORD", n=2,
                         lexicon_mode="FUZZY_N", lexicon_n=2)
    _, manifest = run_experiment(config, resume=False)
    assert len(manifest.records) == 10
    assert sorted(built) == ["LexiconEntry", "ParallelPair"]


class TestDenseQueryBatch:
    def _run(self, tmp_path, name, **batch_size):
        with MockProviderServer() as server:
            provider_config = ProviderConfig(
                base_url=server.base_url, model_name="mock-chat",
                embedding_model_name="mock-embed", **batch_size,
            )
            config = base_config(tmp_path, mode="POST_EDIT", context="DENSE", k=3,
                                 provider=provider_config, output_dir=str(tmp_path / name))
            run_experiment(config, resume=False)
            embeds = [r for r in server.requests if r["path"].endswith("/embeddings")]
        files = sorted(Path(config.output_dir).glob("*.json"))
        return len(embeds), [(f.name, f.read_bytes()) for f in files]

    def test_queries_embedded_ahead_in_chunks(self, tmp_path, monkeypatch):
        pool = {p.source_text for p in load_parallel(DEMO_DATA / "corpus.tsv")
                if p.origin == "NT"}
        tests = load_parallel(DEMO_DATA / "test.tsv")
        queries = {p.source_text for p in tests}
        requests, files = self._run(tmp_path, "batched", embed_batch_size=4)
        # the pool and every query in one stream of 4-text chunks
        assert requests == -(-len(pool | queries) // 4)
        # the same run without the plan's batch: the first query joins the
        # pool's stream, and each later one is a request of its own
        monkeypatch.setattr(pipeline._Session, "prepare", lambda self, indices: None)
        one_by_one, files_one_by_one = self._run(tmp_path, "one_by_one", embed_batch_size=4)
        assert one_by_one == -(-(len(pool) + 1) // 4) + len(tests) - 1
        assert len(files) == 2
        assert files == files_one_by_one

    def test_outputs_do_not_depend_on_the_batch_size(self, tmp_path):
        pool = {p.source_text for p in load_parallel(DEMO_DATA / "corpus.tsv")
                if p.origin == "NT"}
        queries = {p.source_text for p in load_parallel(DEMO_DATA / "test.tsv")}
        small, files = self._run(tmp_path, "small", embed_batch_size=4)
        default, default_files = self._run(tmp_path, "default")
        assert (small, default) == (-(-len(pool | queries) // 4),
                                    -(-len(pool | queries) // 128))
        assert len(files) == 2  # the manifest and the report
        assert files == default_files


class TestDenseCache:
    def test_cold_warm_and_replay(self, tmp_path):
        pool = {p.source_text for p in load_parallel(DEMO_DATA / "corpus.tsv")
                if p.origin == "NT"}
        queries = {p.source_text for p in load_parallel(DEMO_DATA / "test.tsv")}
        cache = tmp_path / "cache"
        outputs = {}
        with MockProviderServer() as server:
            provider_config = ProviderConfig(
                base_url=server.base_url, model_name="mock-chat",
                embedding_model_name="mock-embed", embed_batch_size=4, cache_dir=str(cache),
            )
            for run in ("cold", "warm"):
                server.requests.clear()
                config = base_config(tmp_path, mode="POST_EDIT", context="DENSE", k=3,
                                     provider=provider_config, output_dir=str(tmp_path / run))
                run_experiment(config)
                outputs[run] = sorted((f.name, f.read_bytes()) for f in (tmp_path / run).iterdir())
                if run == "cold":
                    # one chunk per embedding reply, not one file per text
                    assert len(list(cache.glob("emb-*.keys"))) == -(-len(pool | queries) // 4)
                    assert len(list(cache.glob("emb-*.npy"))) == -(-len(pool | queries) // 4)
            assert server.requests == []
        config = replace(config, output_dir=str(tmp_path / "replay"),
                         provider=ProviderConfig(model_name="mock-chat",
                                                 embedding_model_name="mock-embed",
                                                 replay_dir=str(cache)))
        run_experiment(config)
        outputs["replay"] = sorted((f.name, f.read_bytes()) for f in (tmp_path / "replay").iterdir())
        assert len(outputs["cold"]) == 2
        assert outputs["cold"] == outputs["warm"] == outputs["replay"]


@pytest.mark.parametrize("umask, mode", [(0o022, 0o644), (0o077, 0o600)],
                         ids=["umask-022", "umask-077"])
def test_files_get_the_mode_of_the_umask(tmp_path, umask, mode):
    cache = tmp_path / "cache"
    previous = os.umask(umask)
    try:
        with MockProviderServer() as server:
            provider_config = ProviderConfig(
                base_url=server.base_url, model_name="mock-chat",
                embedding_model_name="mock-embed", cache_dir=str(cache))
            config = base_config(tmp_path, mode="POST_EDIT", context="DENSE", k=1,
                                 provider=provider_config)
            run_experiment(config)
    finally:
        os.umask(previous)
    outputs = sorted(p.name.split("-")[0] for p in Path(config.output_dir).iterdir())
    assert outputs == ["manifest", "report"]
    assert sorted({p.suffix for p in cache.iterdir()}) == [".json", ".keys", ".npy"]
    files = [*Path(config.output_dir).iterdir(), *cache.iterdir()]
    assert {oct(p.stat().st_mode & 0o777) for p in files} == {oct(mode)}


def test_missing_replay_dir_is_an_error_that_creates_nothing(tmp_path):
    missing = tmp_path / "typo" / "dir"
    (tmp_path / "file").write_text("", encoding="utf-8")
    for replay_dir in (missing, tmp_path / "file"):
        with pytest.raises(NotADirectoryError, match=f"replay_dir '{replay_dir}'"):
            Provider(ProviderConfig(model_name="mock-chat", replay_dir=str(replay_dir)))
    provider = ProviderConfig(model_name="mock-chat", replay_dir=str(missing))
    config = base_config(tmp_path, mode="POST_EDIT", context="BM25", k=1, provider=provider)
    rows = sweep(config, [1, 2])
    assert [str(missing) in row["error"] for row in rows] == [True, True]
    assert not (tmp_path / "typo").exists()
    assert not Path(config.output_dir).exists()


class TestEmptyDrafts:
    @staticmethod
    def drafts_with_blank(tmp_path) -> str:
        """The demo drafts with the second one whitespace only."""
        rows = (DEMO_DATA / "drafts.tsv").read_text(encoding="utf-8").splitlines()
        rows[1] = rows[1].split("\t")[0] + "\t  "
        path = tmp_path / "drafts.tsv"
        path.write_text("\n".join(rows) + "\n", encoding="utf-8")
        return str(path)

    def test_postedit_rejected_before_any_request(self, tmp_path):
        with MockProviderServer() as server:
            provider_config = ProviderConfig(base_url=server.base_url, model_name="mock-chat")
            config = base_config(tmp_path, mode="POST_EDIT", provider=provider_config,
                                 draft_path=self.drafts_with_blank(tmp_path))
            with pytest.raises(ConfigError, match="empty"):
                run_experiment(config, resume=False)
            assert server.requests == []
        assert not Path(config.output_dir).exists()

    def test_sweep_marks_the_cells_and_continues(self, tmp_path):
        with MockProviderServer() as server:
            provider_config = ProviderConfig(base_url=server.base_url, model_name="mock-chat")
            config = base_config(tmp_path, mode="POST_EDIT", context="BM25", k=1,
                                 provider=provider_config,
                                 draft_path=self.drafts_with_blank(tmp_path))
            rows = sweep(config, [1, 2])
            assert server.requests == []
        assert [r["k_or_n"] for r in rows] == [1, 2]
        assert all("empty" in r["error"] for r in rows)

    def test_nmt_only_scores_an_empty_draft(self, tmp_path):
        _, manifest = run_experiment(
            base_config(tmp_path, draft_path=self.drafts_with_blank(tmp_path)), resume=False
        )
        blank = manifest.records[1]
        assert blank.completion == "  "
        assert blank.error is None and blank.chrf is not None


class TestSweep:
    def test_fuzzy_sweep_reports_effective_k(self, tmp_path):
        kwargs = dict(mode="POST_EDIT", context="FUZZY_WORD", n=1)
        fixtures = str(tmp_path / "fixtures")
        with MockProviderServer() as server:
            provider_config = ProviderConfig(
                base_url=server.base_url, model_name="mock-chat", cache_dir=fixtures,
            )
            config = base_config(tmp_path, provider=provider_config, **kwargs)
            rows = sweep(config, [1, 2], csv_path=tmp_path / "sweep.csv")
        assert [r["k_or_n"] for r in rows] == [1, 2]
        assert all(r["error"] == "" for r in rows)
        assert rows[0]["effective_k_mean"] <= rows[1]["effective_k_mean"]
        loaded = read_sweep_csv(tmp_path / "sweep.csv")
        for row, orig in zip(loaded, rows):
            assert float(row["chrF++"]) == orig["chrF++"]
            assert float(row["effective_k_mean"]) == orig["effective_k_mean"]

    def test_shared_cache_reduces_calls(self, tmp_path):
        kwargs = dict(mode="POST_EDIT", context="STATIC_K", k=3, static_seed=5)
        fixtures = str(tmp_path / "fixtures")
        with MockProviderServer() as server:
            provider_config = ProviderConfig(
                base_url=server.base_url, model_name="mock-chat", cache_dir=fixtures,
            )
            config = base_config(tmp_path, provider=provider_config, **kwargs)
            sweep(config, [3, 3])
            # second cell repeats k=3: all its prompts coincide, all cached
            assert len(server.requests) == 10

    def test_failed_cell_marked_and_sweep_continues(self, tmp_path):
        kwargs = dict(mode="POST_EDIT", context="BM25", k=1)
        with MockProviderServer() as server:
            server.status_script = [500] * 2  # consumed by the k=1 cell
            # one request at a time, so both 500s hit one sentence's two attempts
            provider_config = ProviderConfig(
                base_url=server.base_url, model_name="mock-chat",
                max_retries=1, backoff_base=0.01, max_in_flight=1,
                cache_dir=str(tmp_path / "cache"),
            )
            config = base_config(tmp_path, provider=provider_config, **kwargs)
            rows = sweep(config, [1, 2])
        assert rows[0]["error"] != ""
        assert rows[1]["error"] == ""  # later cells still run after a failure

    @pytest.mark.parametrize("context, kwargs, values, rejected", [
        ("BM25", dict(k=1), [0, 2], "k >= 1"),
        ("FUZZY_WORD", dict(n=1), [2, -1], "n >= 1"),
    ])
    def test_value_below_one_marks_its_cell(self, tmp_path, context, kwargs, values, rejected):
        with MockProviderServer() as server:
            provider_config = ProviderConfig(base_url=server.base_url, model_name="mock-chat")
            config = base_config(tmp_path, mode="POST_EDIT", context=context,
                                 provider=provider_config, **kwargs)
            rows = sweep(config, values)
        assert [r["k_or_n"] for r in rows] == values
        for value, row in zip(values, rows):
            if value < 1:
                assert rejected in row["error"] and row["chrF++"] == ""
            else:
                assert row["error"] == "" and row["chrF++"] != ""

    def test_csv_round_trip(self, tmp_path):
        rows = [{"strategy": "BM25", "k_or_n": 5, "effective_k_mean": 5.0,
                 "spBLEU": 12.34, "chrF++": 30.21, "error": ""}]
        write_sweep_csv(tmp_path / "s.csv", rows)
        loaded = read_sweep_csv(tmp_path / "s.csv")
        assert float(loaded[0]["chrF++"]) == 30.21
        assert loaded[0]["strategy"] == "BM25"


class TestEmptyPool:
    @pytest.mark.parametrize("context", ["STATIC_K", "BM25", "DENSE", "CHRF_CW", "FUZZY_WORD"])
    def test_rejected_at_load_and_marked_by_sweep(self, tmp_path, context):
        # the demo corpus cut to its GRAMMAR rows: no pair for an NT pool
        rows = (DEMO_DATA / "corpus.tsv").read_text(encoding="utf-8").splitlines()
        corpus = tmp_path / "grammar.tsv"
        corpus.write_text("".join(r + "\n" for r in rows if r.endswith("\tGRAMMAR")),
                          encoding="utf-8")
        with MockProviderServer() as server:
            config = base_config(
                tmp_path, mode="POST_EDIT", context=context, k=1, n=1,
                corpus_path=str(corpus), retrieval_corpus="NT",
                provider=ProviderConfig(base_url=server.base_url, model_name="mock-chat",
                                        embedding_model_name="mock-embed"),
            )
            with pytest.raises(ConfigError, match="pool is empty"):
                run_experiment(config)
            cells = sweep(config, [1, 2])
            assert server.requests == []
        assert all("pool is empty" in c["error"] for c in cells)


class TestMalformedInput:
    @pytest.mark.parametrize("field, content", [
        ("corpus_path", b"only-one-column\n"),
        ("lexicon_path", b"only-one-column\n"),
        ("corpus_path", b"MAT.1.1\t\xff not utf-8\tx\tNT\n"),
    ], ids=["corpus", "lexicon", "corpus-bytes"])
    def test_sweep_marks_every_cell(self, tmp_path, field, content):
        bad = tmp_path / "bad.tsv"
        bad.write_bytes(content)
        config = replay_config(tmp_path, str(tmp_path / "fixtures"), {
            "mode": "POST_EDIT", "context": "BM25", "k": 1,
            "lexicon_mode": "FUZZY_N", "lexicon_n": 1, field: str(bad),
        })
        rows = sweep(config, [1, 2])
        assert [r["k_or_n"] for r in rows] == [1, 2]
        assert all(r["error"] and r["chrF++"] == "" for r in rows)
        assert list(Path(config.output_dir).glob("manifest-*.json")) == []

    def test_duplicate_draft_id_rejected_and_marks_every_cell(self, tmp_path):
        # every test id has a draft, the first one twice with different text
        rows = (DEMO_DATA / "drafts.tsv").read_text(encoding="utf-8").splitlines()
        first = rows[0].split("\t")[0]
        drafts = tmp_path / "drafts.tsv"
        drafts.write_text("".join(r + "\n" for r in rows + [first + "\tanother draft"]),
                          encoding="utf-8")
        config = replay_config(tmp_path, str(tmp_path / "fixtures"), {
            "mode": "POST_EDIT", "context": "BM25", "k": 1, "draft_path": str(drafts),
        })
        named = f"duplicate id {first!r} on lines 1 and {len(rows) + 1}"
        with pytest.raises(ConfigError, match=named):
            run_experiment(config, resume=False)
        cells = sweep(config, [1, 2])
        assert [c["k_or_n"] for c in cells] == [1, 2]
        assert all(named in c["error"] and c["chrF++"] == "" for c in cells)
        assert list(Path(config.output_dir).glob("manifest-*.json")) == []


class TestImportFootprint:
    """Replay runs and the CLI load no HTTP module (only a provider without
    ``replay_dir`` needs ``http.client``), and no ``numpy.ma``,
    ``statistics`` or ``decimal`` (nothing in the package does); no run
    loads ``requests``, and a live run loads ``urllib.request`` only when a
    proxy variable is set."""

    MODULES = ("requests", "numpy.ma", "http.client", "urllib.request", "statistics", "decimal")
    SCRIPT = (
        "import sys\n"
        "import ragmt.cli\n"
        "from ragmt.pipeline import ExperimentConfig, run_experiment\n"
        "for path in sys.argv[1:]:\n"
        "    run_experiment(ExperimentConfig.load(path), resume=False)\n"
        f"print(sorted(m for m in {MODULES!r} if m in sys.modules))\n"
    )

    def loaded(self, tmp_path, configs: list[ExperimentConfig], **env) -> str:
        """The modules of ``MODULES`` a fresh interpreter has loaded after
        running ``configs``, as it prints them."""
        paths = []
        for i, config in enumerate(configs):
            path = tmp_path / f"config-{i}.json"
            path.write_text(json.dumps(config.to_dict()), encoding="utf-8")
            paths.append(str(path))
        env = dict({k: v for k, v in os.environ.items() if not k.lower().endswith("_proxy")},
                   PYTHONPATH=os.pathsep.join(filter(None, [
                       str(REPO_ROOT / "src"), os.environ.get("PYTHONPATH")])), **env)
        done = subprocess.run([sys.executable, "-c", self.SCRIPT, *paths], env=env,
                              capture_output=True, text=True, timeout=300)
        assert done.returncode == 0, done.stderr
        return done.stdout.splitlines()[-1]

    def test_replay_of_every_context_loads_neither(self, tmp_path):
        fixtures = str(tmp_path / "fixtures")
        runs = [dict(mode="POST_EDIT", context=context, lexicon_mode=lexicon, lexicon_n=2,
                     **({"n": 2} if context == "FUZZY_WORD" else
                        {} if context == "NONE" else {"k": 2}))
                for context in pipeline.CONTEXTS for lexicon in ("FULL", "FUZZY_N")]
        with MockProviderServer() as server:
            live = ProviderConfig(base_url=server.base_url, model_name="mock-chat",
                                  embedding_model_name="mock-embed", cache_dir=fixtures)
            for kwargs in runs:
                run_experiment(base_config(tmp_path, provider=live, **kwargs), resume=False)
        configs = [replay_config(tmp_path, fixtures, kwargs) for kwargs in runs]
        assert self.loaded(tmp_path, configs) == "[]"

    def test_live_run_loads_only_http_client(self, tmp_path):
        with MockProviderServer() as server:
            live = ProviderConfig(base_url=server.base_url, model_name="mock-chat",
                                  embedding_model_name="mock-embed")
            config = base_config(tmp_path, provider=live, mode="POST_EDIT", context="DENSE",
                                 k=2)
            # NO_PROXY alone, as the benchmark sets it, names no proxy
            assert self.loaded(tmp_path, [config], NO_PROXY="127.0.0.1") == "['http.client']"
            assert len(server.requests) > 10  # the run was sent: embeddings and prompts


class TestProviderClosed:
    """A run, a sweep and ``ragmt retrieve`` close the provider they built,
    so no pooled keep-alive connection is left to the garbage collector,
    which ``python -X dev`` reports as a ``ResourceWarning``."""

    SCRIPT = (
        "import gc, sys\n"
        "from dataclasses import replace\n"
        "from ragmt import cli\n"
        "from ragmt.pipeline import ExperimentConfig, run_experiment, sweep\n"
        "config = ExperimentConfig.load(sys.argv[1])\n"
        "run_experiment(config, resume=False)\n"
        "sweep(replace(config, output_dir=config.output_dir + '-sweep'), [1, 3])\n"
        "cli.main(sys.argv[2:])\n"
        "gc.collect()\n"
    )

    def test_no_connection_left_open_under_dev_mode(self, tmp_path):
        with MockProviderServer(keep_alive=True) as server:
            live = ProviderConfig(base_url=server.base_url, model_name="mock-chat",
                                  embedding_model_name="mock-embed")
            config = base_config(tmp_path, provider=live, mode="POST_EDIT", context="BM25",
                                 k=2)
            config_path, provider_path = tmp_path / "config.json", tmp_path / "provider.json"
            config_path.write_text(json.dumps(config.to_dict()), encoding="utf-8")
            provider_path.write_text(json.dumps(vars(live)), encoding="utf-8")
            retrieve = ["retrieve", "--strategy", "dense", "--corpus-file", config.corpus_path,
                        "--query", "the light of the world", "--provider-config",
                        str(provider_path)]
            env = dict({k: v for k, v in os.environ.items()
                        if not k.lower().endswith("_proxy")},
                       PYTHONPATH=os.pathsep.join(filter(None, [
                           str(REPO_ROOT / "src"), os.environ.get("PYTHONPATH")])))
            done = subprocess.run(
                [sys.executable, "-X", "dev", "-c", self.SCRIPT, str(config_path), *retrieve],
                env=env, capture_output=True, text=True, timeout=300)
            assert done.returncode == 0, done.stderr
            sent = Counter(r["path"] for r in server.requests)
        assert sent["/chat/completions"] == 30  # 10 test verses, three cells
        assert sent["/embeddings"] > 0
        assert "ResourceWarning" not in done.stderr, done.stderr


class FakeProvider:
    """Answers every prompt with one text and counts its calls; fails from
    call ``fail_after + 1`` on when ``fail_after`` is set. No ``close``, as
    a wrapper such as the benchmark's ``ClockedProvider`` has none."""

    def __init__(self, fail_after: int | None = None):
        self.calls = 0
        self.fail_after = fail_after

    def complete(self, prompt):
        self.calls += 1
        if self.fail_after is not None and self.calls > self.fail_after:
            raise ProviderError("scripted failure", 500)
        return ChatExchange(request={}, response_text="the edited verse", latency=0.0)


class ClosableProvider(FakeProvider):
    def __init__(self, fail_after: int | None = None):
        super().__init__(fail_after)
        self.closed = 0

    def close(self):
        self.closed += 1


def fake_provider_config(tmp_path, **overrides) -> ExperimentConfig:
    """A POST_EDIT BM25 config whose provider settings name no server: it
    runs only with a provider handed in, or with ``pipeline.Provider``
    patched."""
    provider = ProviderConfig(model_name="mock-chat", replay_dir=str(tmp_path / "none"))
    return base_config(tmp_path, mode="POST_EDIT", context="BM25", k=2, provider=provider,
                       **overrides)


class TestProviderOwnership:
    """A run and a sweep close the provider they built and only that one."""

    @staticmethod
    def build_closable(monkeypatch, fail_after: int | None = None) -> list[ClosableProvider]:
        """Make the pipeline build ``ClosableProvider``s; the list of those built."""
        built = []
        monkeypatch.setattr(pipeline, "Provider", lambda config: built.append(
            ClosableProvider(fail_after)) or built[-1])
        return built

    def test_handed_in_provider_left_open(self, tmp_path):
        config = fake_provider_config(tmp_path)
        provider = ClosableProvider()
        run_experiment(config, provider=provider)
        rows = sweep(config, [1, 2], provider=provider)
        assert [r["error"] for r in rows] == ["", ""]
        rows = sweep(replace(config, test_path=str(tmp_path / "missing.tsv")), [1, 2],
                     provider=provider)
        assert all("missing.tsv" in r["error"] for r in rows)
        # 10 prompts each for the run and k=1; k=2 resumes the run's manifest
        assert provider.calls == 20
        assert provider.closed == 0

    def test_provider_without_close(self, tmp_path):
        config = fake_provider_config(tmp_path)
        provider = FakeProvider()
        _, manifest = run_experiment(config, provider=provider, resume=False)
        assert all(r.completion == "the edited verse" for r in manifest.records)
        assert [r["error"] for r in sweep(config, [1, 3], provider=provider)] == ["", ""]

    def test_built_provider_closed_once_and_none_built_for_bad_input(self, tmp_path,
                                                                     monkeypatch):
        built = self.build_closable(monkeypatch)
        config = fake_provider_config(tmp_path)
        run_experiment(config)
        sweep(config, [1, 3])
        short = tmp_path / "short-drafts.tsv"
        short.write_text("GEN.1.1\tone draft\n", encoding="utf-8")
        with pytest.raises(ConfigError, match="draft file missing ids"):
            run_experiment(replace(config, draft_path=str(short)))
        assert all(r["error"] for r in sweep(replace(config, draft_path=str(short)), [1, 2]))
        assert [(p.calls, p.closed) for p in built] == [(10, 1), (20, 1)]

    def test_built_provider_closed_when_a_cell_fails(self, tmp_path, monkeypatch):
        built = self.build_closable(monkeypatch, fail_after=3)
        config = fake_provider_config(tmp_path)
        with pytest.raises(ProviderError, match="partial manifest"):
            run_experiment(config)
        rows = sweep(config, [1, 2])
        assert all("scripted failure" in r["error"] for r in rows)
        assert [p.closed for p in built] == [1, 1]


class TestAtomicWrites:
    """Manifests and reports are replaced whole: a save that fails leaves
    the previous manifest as it was, for a later run to resume from."""

    def test_failed_save_keeps_the_prior_manifest(self, tmp_path, monkeypatch):
        config = fake_provider_config(tmp_path)
        with pytest.raises(ProviderError, match="partial manifest"):
            run_experiment(config, provider=FakeProvider(fail_after=3), resume=False)
        out = Path(config.output_dir)
        manifest_path = out / f"manifest-{config.fingerprint()}.json"
        partial = manifest_path.read_bytes()

        def no_replace(src, dst):
            raise OSError(28, "No space left on device")

        with monkeypatch.context() as patched:
            patched.setattr(os, "replace", no_replace)
            with pytest.raises(OSError, match="No space left"):
                run_experiment(config, provider=FakeProvider())
        assert manifest_path.read_bytes() == partial
        assert sorted(p.name for p in out.iterdir()) == [manifest_path.name]

        provider = FakeProvider()
        _, manifest = run_experiment(config, provider=provider)
        assert provider.calls == 7  # the three completed sentences are not sent again
        assert len(manifest.records) == 10 and all(r.error is None for r in manifest.records)
        assert (out / f"report-{config.fingerprint()}.json").exists()


class TestUnreadableManifest:
    """A prior manifest that is not a manifest's JSON is a ``ConfigError``
    naming it."""

    @staticmethod
    def spoil(config, content: bytes | None) -> Path:
        """Overwrite ``config``'s manifest with ``content``, or with its own
        first 100 bytes, as a write cut off midway leaves it."""
        path = Path(config.output_dir) / f"manifest-{config.fingerprint()}.json"
        path.write_bytes(path.read_bytes()[:100] if content is None else content)
        return path

    @pytest.mark.parametrize("content, why", [
        (None, "not JSON"),
        (b"[]", "not a run manifest"),
        (b'{"records": []}', "not a run manifest"),
        (b'{"config_fingerprint": "f", "records": [{"id": 1}]}', "not a run manifest"),
    ], ids=["truncated", "list", "no-fingerprint", "bad-record"])
    def test_run_raises_config_error_naming_the_file(self, tmp_path, content, why):
        config = base_config(tmp_path, context="BM25", k=1)
        run_experiment(config)
        path = self.spoil(config, content)
        with pytest.raises(ConfigError) as exc:
            run_experiment(config)
        assert str(exc.value).startswith(f"{path}: {why}")

    def test_sweep_marks_only_that_cell(self, tmp_path):
        config = base_config(tmp_path, context="BM25", k=1)
        first = sweep(config, [1, 2])
        path = self.spoil(config, None)
        rows = sweep(config, [1, 2])
        assert rows[0]["error"].startswith(f"{path}: not JSON")
        assert rows[0]["chrF++"] == ""
        assert rows[1] == first[1]


class TestSweepPlan:
    """A sweep loads, indexes and retrieves once, and each of its cells
    writes the bytes a single run_experiment of its value writes."""

    # the largest is not last; over the 30 NT pairs random.sample draws
    # k=8 by another method than k <= 5, and with seed 2 the k=2 and k=3
    # draws are not the first examples of the k=8 draw
    VALUES = [3, 1, 8, 2]
    CELLS = {
        "STATIC_K": dict(context="STATIC_K", k=1, static_seed=2),
        "BM25": dict(context="BM25", k=1),
        "DENSE": dict(context="DENSE", k=1),
        "CHRF_CW": dict(context="CHRF_CW", k=1, gamma=0.3),
        "FUZZY_WORD": dict(context="FUZZY_WORD", n=1, retrieval_corpus="NT_PLUS_GRAMMAR"),
    }
    RETRIEVE = {
        "BM25": "bm25_retrieve",
        "DENSE": "dense_retrieve",
        "CHRF_CW": "chrf_counterweighted_retrieve",
        "FUZZY_WORD": "fuzzy_word_lists",
    }

    def config(self, tmp_path, server, name, out) -> ExperimentConfig:
        return base_config(
            tmp_path, mode="POST_EDIT", lexicon_mode="FUZZY_N", lexicon_n=2,
            output_dir=str(tmp_path / out),
            provider=ProviderConfig(base_url=server.base_url, model_name="mock-chat",
                                    embedding_model_name="mock-embed"),
            **self.CELLS[name],
        )

    @staticmethod
    def files(out) -> list[tuple[str, bytes]]:
        return [(f.name, f.read_bytes()) for f in sorted(Path(out).iterdir())]

    @pytest.mark.parametrize("name", sorted(CELLS))
    def test_sweep_equals_per_cell_runs(self, tmp_path, name):
        swept = "n" if name == "FUZZY_WORD" else "k"
        with MockProviderServer() as server:
            config = self.config(tmp_path, server, name, "sweep")
            sweep(config, self.VALUES, csv_path=tmp_path / "sweep" / "sweep.csv")
            # the sweep as it was: one whole run_experiment per value
            rows = []
            for value in self.VALUES:
                cell = replace(self.config(tmp_path, server, name, "cells"), **{swept: value})
                report, manifest = run_experiment(cell)
                rows.append({"strategy": name, "k_or_n": value,
                             "effective_k_mean": round(manifest.effective_k_mean, 2),
                             "spBLEU": round(report.corpus_bleu, 2),
                             "chrF++": round(report.corpus_chrf, 2), "error": ""})
            write_sweep_csv(tmp_path / "cells" / "sweep.csv", rows)
        files = self.files(tmp_path / "sweep")
        assert len(files) == 2 * len(self.VALUES) + 1
        assert files == self.files(tmp_path / "cells")

    @pytest.mark.parametrize("name", sorted(RETRIEVE))
    def test_one_load_one_index_one_retrieval_per_sentence(self, tmp_path, monkeypatch, name):
        calls = Counter()

        def count(owner, attr, key=None):
            fn = getattr(owner, attr)

            def counted(*args, **kwargs):
                calls[key(*args) if key else attr] += 1
                return fn(*args, **kwargs)

            monkeypatch.setattr(owner, attr, counted)

        for loader in ("load_parallel", "load_lexicon", "load_drafts"):
            count(pipeline, loader, key=lambda path: Path(path).name)
        count(pipeline, "Provider")
        # the one index: DENSE adopts the rows of its pool's embedding stream
        count(retrieval.Retriever, "_build_index", key=lambda *args: "index")
        count(retrieval, "EmbeddingIndex", key=lambda *args: "index")
        count(retrieval.TokenIndex, "over_lexicon")
        count(retrieval, self.RETRIEVE[name], key=lambda *args: "retrieve")
        count(retrieval, "lexicon_fuzzy_retrieve")
        tests = load_parallel(DEMO_DATA / "test.tsv")
        with MockProviderServer() as server:
            config = self.config(tmp_path, server, name, "runs")
            rows = sweep(config, self.VALUES)
            assert all(r["error"] == "" for r in rows)
            assert calls == {
                "test.tsv": 1, "corpus.tsv": 1, "lexicon.tsv": 1, "drafts.tsv": 1,
                "Provider": 1, "index": 1, "over_lexicon": 1,
                "retrieve": len(tests), "lexicon_fuzzy_retrieve": len(tests),
            }
            embedded = [r["body"]["input"] for r in server.requests
                        if r["path"].endswith("/embeddings")]
            if name == "DENSE":
                # the pool and every query in one request
                pool = [p.source_text for p in load_parallel(DEMO_DATA / "corpus.tsv")
                        if p.origin == "NT"]
                assert embedded == [pool + [p.source_text for p in tests]]
            else:
                assert embedded == []

            # every cell resumes whole: nothing is retrieved or sent
            server.requests.clear()
            calls.clear()
            assert sweep(config, self.VALUES) == rows
            assert server.requests == []
            assert calls["retrieve"] == calls["index"] == 0


    def test_full_lexicon_built_once(self, tmp_path, monkeypatch):
        calls = []
        render = pipeline.glossary_block
        monkeypatch.setattr(pipeline, "glossary_block", lambda lexicon, profile: (
            calls.append(len(lexicon)) or render(lexicon, profile)))
        entries = len(load_lexicon(DEMO_DATA / "lexicon.tsv"))
        with MockProviderServer() as server:
            config = base_config(
                tmp_path, mode="POST_EDIT", context="BM25", k=1, lexicon_mode="FULL",
                provider=ProviderConfig(base_url=server.base_url, model_name="mock-chat"),
            )
            _, manifest = run_experiment(config)
            assert calls == [entries]
            assert {r.lexicon_count for r in manifest.records} == {entries}
            # the shared block renders as the whole dictionary's entries do
            pool = [p for p in load_parallel(DEMO_DATA / "corpus.tsv") if p.origin == "NT"]
            retriever = retrieval.Retriever("BM25", pool)
            glossary = glossary_block(load_lexicon(DEMO_DATA / "lexicon.tsv"), DHAO_PROFILE)
            drafts = load_drafts(config.draft_path)
            for record in manifest.records:
                bundle = ContextBundle(examples=retriever.prefixes(record.source, 1)(1),
                                       glossary=glossary)
                rendered = render_postedit(record.source, drafts[record.id], bundle)
                assert pipeline._prompt_hash(rendered.system, rendered.user) == record.prompt_hash
            calls.clear()
            sweep(replace(config, output_dir=str(tmp_path / "sweep")), self.VALUES)
            assert calls == [entries]


def make_report(chrf, bleu, fingerprint="ts1") -> EvalReport:
    return EvalReport(
        corpus_bleu=bleu, corpus_chrf=chrf,
        per_sentence=[SentenceScore("1", bleu, chrf)],
        config_fingerprint="cfg",
        metadata={"test_fingerprint": fingerprint},
    )


class TestCompare:
    def test_delta_bookkeeping(self):
        reports = {
            "nmt_only": make_report(27.11, 7.66),
            "final": make_report(35.21, 19.88),
        }
        rows = compare(reports, baseline="nmt_only")
        final = next(r for r in rows if r["label"] == "final")
        assert final["delta_chrF++"] == "+8.10"
        assert final["delta_spBLEU"] == "+12.22"

    def test_self_comparison_is_zero(self):
        reports = {"a": make_report(30.0, 10.0), "b": make_report(30.0, 10.0)}
        rows = compare(reports, baseline="a")
        assert all(r["delta_chrF++"] == "+0.00" for r in rows)

    def test_sorted_by_chrf_descending(self):
        reports = {
            "low": make_report(20.0, 5.0),
            "high": make_report(35.0, 15.0),
            "mid": make_report(28.0, 9.0),
        }
        rows = compare(reports, baseline="low")
        assert [r["label"] for r in rows] == ["high", "mid", "low"]

    def test_mismatched_test_sets_rejected(self):
        reports = {
            "a": make_report(20.0, 5.0, fingerprint="ts1"),
            "b": make_report(25.0, 8.0, fingerprint="ts2"),
        }
        with pytest.raises(ValueError, match="different test sets"):
            compare(reports, baseline="a")

    def test_needs_two_reports_and_known_baseline(self):
        with pytest.raises(ValueError):
            compare({"a": make_report(20.0, 5.0)}, baseline="a")
        with pytest.raises(ValueError, match="unknown baseline"):
            compare({"a": make_report(20, 5), "b": make_report(21, 6)}, baseline="zz")


def test_load_drafts_rejects_bad_rows(tmp_path):
    path = tmp_path / "d.tsv"
    path.write_text("id1\tdraft\textra\n", encoding="utf-8")
    with pytest.raises(ConfigError, match="line 1"):
        load_drafts(path)


def test_load_drafts_rejects_duplicate_ids(tmp_path):
    path = tmp_path / "d.tsv"
    path.write_text("id1\tfirst\nid2\tdraft\n\nid1\tsecond\n", encoding="utf-8")
    with pytest.raises(ConfigError, match=r"d\.tsv: duplicate id 'id1' on lines 1 and 4$"):
        load_drafts(path)
