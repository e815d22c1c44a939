from __future__ import annotations

import json
import logging
import sys
import threading
from dataclasses import replace

import pytest

import ragmt.provider
from mock_server import MockProviderServer
from ragmt.prompt import RenderedPrompt
from ragmt.provider import (
    ChatExchange,
    EmbeddingBatch,
    Provider,
    ProviderConfig,
    ProviderError,
    _JsonStore,
    chat_request_key,
    embedding_request_key,
)

PROMPT = RenderedPrompt(system="sys", user="translate this", mode="direct")


def make_config(server, tmp_path, **overrides) -> ProviderConfig:
    defaults = dict(
        base_url=server.base_url,
        model_name="mock-chat",
        embedding_model_name="mock-embed",
        cache_dir=str(tmp_path / "cache"),
        backoff_base=0.01,
        request_timeout=5.0,
    )
    defaults.update(overrides)
    return ProviderConfig(**defaults)


class TestComplete:
    def test_success_and_usage(self, tmp_path):
        with MockProviderServer() as server:
            provider = Provider(make_config(server, tmp_path))
            exchange = provider.complete(PROMPT)
            assert exchange.response_text == "echo:translate this"
            assert exchange.cache_hit is False
            assert exchange.token_usage["completion_tokens"] == 5

    def test_cache_warm_repeat_no_network(self, tmp_path):
        with MockProviderServer() as server:
            provider = Provider(make_config(server, tmp_path))
            provider.complete(PROMPT)
            count_after_first = len(server.requests)
            second = provider.complete(PROMPT)
            assert second.cache_hit is True
            assert second.response_text == "echo:translate this"
            assert len(server.requests) == count_after_first

    def test_two_429_then_success(self, tmp_path):
        with MockProviderServer() as server:
            server.status_script = [429, 429]
            provider = Provider(make_config(server, tmp_path))
            exchange = provider.complete(PROMPT)
            assert exchange.response_text.startswith("echo:")
            assert len(server.requests) == 3

    def test_exhausted_retries_carries_status(self, tmp_path):
        with MockProviderServer() as server:
            server.status_script = [503] * 10
            provider = Provider(make_config(server, tmp_path, max_retries=2))
            with pytest.raises(ProviderError) as err:
                provider.complete(PROMPT)
            assert err.value.status == 503
            assert len(server.requests) == 3  # initial + 2 retries

    def test_4xx_is_immediate(self, tmp_path):
        with MockProviderServer() as server:
            server.status_script = [401]
            provider = Provider(make_config(server, tmp_path))
            with pytest.raises(ProviderError) as err:
                provider.complete(PROMPT)
            assert err.value.status == 401
            assert len(server.requests) == 1

    def test_in_flight_bound(self, tmp_path):
        with MockProviderServer(response_delay=0.05) as server:
            provider = Provider(make_config(server, tmp_path, max_in_flight=2))
            prompts = [
                RenderedPrompt(system="s", user=f"query {i}", mode="direct")
                for i in range(8)
            ]
            threads = [
                threading.Thread(target=provider.complete, args=(p,)) for p in prompts
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            assert server.high_water <= 2
            assert len(server.requests) == 8


    def test_request_count_exact_across_threads(self, tmp_path, caplog):
        # more threads than cores and a short switch interval, so an unguarded
        # ``request_count += 1`` would lose updates
        with MockProviderServer(response_delay=0.02) as server:
            provider = Provider(make_config(server, tmp_path, max_in_flight=16))
            prompts = [
                RenderedPrompt(system="s", user=f"query {i}", mode="direct")
                for i in range(16)
            ]
            threads = [
                threading.Thread(target=provider.complete, args=(p,)) for p in prompts
            ]
            interval = sys.getswitchinterval()
            sys.setswitchinterval(1e-5)
            try:
                with caplog.at_level(logging.WARNING, logger="urllib3"):
                    for t in threads:
                        t.start()
                    for t in threads:
                        t.join(timeout=60)
            finally:
                sys.setswitchinterval(interval)
            assert not any(t.is_alive() for t in threads)
            assert provider.request_count == len(server.requests) == 16
        # the connection pool holds max_in_flight connections, so none is dropped
        assert not [r for r in caplog.records if "pool is full" in r.getMessage()]


class TestRetryAfter:
    @pytest.mark.parametrize("status, header, slept", [
        (429, "2", 2.0),  # longer than the backoff: honoured
        (503, "0.5", 0.5),
        (429, "0", 0.01),  # shorter than the backoff: the backoff
        (429, "1000", 5.0),  # capped at request_timeout
        (503, "Wed, 21 Oct 2015 07:28:00 GMT", 0.01),  # unparsable: the backoff
        (429, "nan", 0.01),
        (500, "2", 0.01),  # only 429 and 503 carry a meaningful Retry-After
    ])
    def test_sleep_before_retry(self, tmp_path, monkeypatch, status, header, slept):
        sleeps = []
        monkeypatch.setattr(ragmt.provider.time, "sleep", sleeps.append)
        with MockProviderServer() as server:
            server.status_script = [status]
            server.retry_after = header
            provider = Provider(make_config(server, tmp_path))
            assert provider.complete(PROMPT).response_text.startswith("echo:")
        assert sleeps == [slept]

    def test_backoff_doubles_without_header(self, tmp_path, monkeypatch):
        sleeps = []
        monkeypatch.setattr(ragmt.provider.time, "sleep", sleeps.append)
        with MockProviderServer() as server:
            server.status_script = [429, 503, 429]
            provider = Provider(make_config(server, tmp_path))
            provider.complete(PROMPT)
        assert sleeps == [0.01, 0.02, 0.04]


class TestEmbed:
    def test_unit_normalized_and_aligned(self, tmp_path):
        with MockProviderServer() as server:
            provider = Provider(make_config(server, tmp_path))
            batch = provider.embed(["alpha", "beta"])
            assert isinstance(batch, EmbeddingBatch)
            for vec in batch.vectors:
                assert sum(v * v for v in vec) == pytest.approx(1.0)

    def test_duplicate_texts_identical_vectors(self, tmp_path):
        with MockProviderServer() as server:
            provider = Provider(make_config(server, tmp_path))
            batch = provider.embed(["same text", "other", "same text"])
            assert batch.vectors[0] == batch.vectors[2]

    def test_chunking_request_count(self, tmp_path):
        with MockProviderServer() as server:
            provider = Provider(make_config(server, tmp_path, embed_batch_size=32))
            texts = [f"text number {i}" for i in range(100)]
            provider.embed(texts)
            embed_requests = [r for r in server.requests if r["path"].endswith("/embeddings")]
            assert len(embed_requests) == 4  # ceil(100 / 32)

    def test_duplicates_sent_once_and_aligned(self, tmp_path):
        texts = ["b", "a", "b", "c", "a", "a"]
        with MockProviderServer() as server:
            provider = Provider(make_config(server, tmp_path, cache_dir=None,
                                                embed_batch_size=1))
            batch = provider.embed(texts)
            sent = [r["body"]["input"] for r in server.requests]
            alone = {t: provider.embed([t]).vectors[0] for t in set(texts)}
        assert sorted(sent) == [["a"], ["b"], ["c"]]  # one request per distinct text
        assert batch.inputs == texts
        assert batch.vectors == [alone[t] for t in texts]

    def test_chunks_in_flight_together(self, tmp_path):
        texts = [f"text number {i}" for i in range(40)]
        batches = {}
        for in_flight in (1, 4):
            with MockProviderServer(response_delay=0.05) as server:
                provider = Provider(make_config(
                    server, tmp_path / str(in_flight), embed_batch_size=4,
                    max_in_flight=in_flight))
                batches[in_flight] = provider.embed(texts)
            assert server.high_water == in_flight
            assert len(server.requests) == 10
        assert batches[1] == batches[4]
        # every vector reached the cache: a second call sends nothing
        with MockProviderServer() as server:
            provider = Provider(make_config(server, tmp_path / "4"))
            assert provider.embed(texts) == batches[4]
            assert server.requests == []

    def test_embedding_cache_hits(self, tmp_path):
        with MockProviderServer() as server:
            provider = Provider(make_config(server, tmp_path))
            provider.embed(["cached text"])
            n = len(server.requests)
            again = provider.embed(["cached text"])
            assert len(server.requests) == n
            assert len(again.vectors) == 1

    def test_empty_input_rejected(self, tmp_path):
        with MockProviderServer() as server:
            provider = Provider(make_config(server, tmp_path))
            with pytest.raises(ProviderError):
                provider.embed([])


class TestReplay:
    def _record_fixture(self, tmp_path) -> ProviderConfig:
        # a live run's cache directory doubles as the replay fixture dir
        with MockProviderServer() as server:
            live = Provider(make_config(server, tmp_path))
            live.complete(PROMPT)
            live.embed(["alpha"])
        return ProviderConfig(
            model_name="mock-chat",
            embedding_model_name="mock-embed",
            replay_dir=str(tmp_path / "cache"),
        )

    def test_replays_recorded_bytes(self, tmp_path):
        config = self._record_fixture(tmp_path)
        replay = Provider(config)
        exchange = replay.complete(PROMPT)
        assert exchange.response_text == "echo:translate this"
        assert replay.request_count == 0

    def test_replay_is_deterministic(self, tmp_path):
        config = self._record_fixture(tmp_path)
        replay = Provider(config)
        a = replay.embed(["alpha"])
        b = replay.embed(["alpha"])
        assert a.vectors == b.vectors

    def test_missing_fixture_errors(self, tmp_path):
        config = self._record_fixture(tmp_path)
        replay = Provider(config)
        other = RenderedPrompt(system="sys", user="unseen request", mode="direct")
        with pytest.raises(ProviderError, match="no replay fixture"):
            replay.complete(other)

    def test_replay_with_live_base_url_never_sends(self, tmp_path):
        config = self._record_fixture(tmp_path)
        with MockProviderServer() as server:
            replay = Provider(replace(config, base_url=server.base_url))
            assert replay.complete(PROMPT).response_text == "echo:translate this"
            warm = Provider(make_config(server, tmp_path))
            assert replay.embed(["alpha", "alpha"]).vectors == warm.embed(["alpha"]).vectors * 2
            other = RenderedPrompt(system="sys", user="unseen request", mode="direct")
            with pytest.raises(ProviderError, match="no replay fixture"):
                replay.complete(other)
            with pytest.raises(ProviderError, match="no replay fixture"):
                replay.embed(["alpha", "unseen text"])
            assert server.requests == []
        assert replay.request_count == 0

    def test_replay_equals_warm_cache_hit(self, tmp_path):
        with MockProviderServer() as server:
            live = Provider(make_config(server, tmp_path))
            live.complete(PROMPT)
            warm = live.complete(PROMPT)
            assert len(server.requests) == 1
        replayed = replay_of(tmp_path / "cache").complete(PROMPT)
        assert warm.cache_hit and replayed.cache_hit
        assert replayed == warm


def write_json(path, record) -> None:
    path.write_text(json.dumps(record, sort_keys=True), encoding="utf-8")


def replay_of(directory) -> Provider:
    return Provider(ProviderConfig(
        model_name="mock-chat", embedding_model_name="mock-embed", replay_dir=str(directory)))


class TestEmbeddingCache:
    """Embeddings are cached one file per reply chunk, still keyed by text."""

    TEXTS = [f"text number {i}" for i in range(100)]

    def test_one_file_per_reply_and_warm_rerun(self, tmp_path):
        with MockProviderServer() as server:
            cold = Provider(make_config(server, tmp_path, embed_batch_size=32))
            vectors = cold.embed(self.TEXTS)
        files = sorted(p.name for p in (tmp_path / "cache").iterdir())
        assert len(files) == 4  # ceil(100 / 32), not one per text
        assert all(name.startswith("emb-") and name.endswith(".json") for name in files)
        with MockProviderServer() as server:
            warm = Provider(make_config(server, tmp_path, embed_batch_size=32))
            assert warm.embed(self.TEXTS) == vectors
            assert server.requests == []
        assert replay_of(tmp_path / "cache").embed(self.TEXTS) == vectors

    def test_chunks_written_meanwhile_are_picked_up(self, tmp_path):
        with MockProviderServer() as server:
            reader = Provider(make_config(server, tmp_path))
            reader.embed(["alpha"])
            Provider(make_config(server, tmp_path)).embed(["beta", "gamma"])
            server.requests.clear()
            reader.embed(["gamma", "beta", "alpha"])
            assert server.requests == []

    def test_providers_share_directory(self, tmp_path):
        with MockProviderServer() as server:
            plain = Provider(make_config(server, tmp_path, cache_dir=None))
            expected = dict(zip(self.TEXTS, plain.embed(self.TEXTS).vectors))
            # two providers on one cache_dir stand for two processes
            providers = [Provider(make_config(server, tmp_path, embed_batch_size=4,
                                                  max_in_flight=2)) for _ in range(2)]
            subsets = [self.TEXTS[i : i + 40] for i in range(0, 61, 10)]
            errors: list[Exception] = []

            def embed(provider, texts):
                try:
                    got = provider.embed(texts)
                    assert got.vectors == [expected[t] for t in texts]
                except Exception as exc:  # reported by the assertion below
                    errors.append(exc)

            threads = [threading.Thread(target=embed, args=(providers[i % 2], texts))
                       for i, texts in enumerate(subsets)]
            interval = sys.getswitchinterval()
            sys.setswitchinterval(1e-5)
            try:
                for t in threads:
                    t.start()
                for t in threads:
                    t.join(timeout=60)
            finally:
                sys.setswitchinterval(interval)
            assert not any(t.is_alive() for t in threads)
            assert errors == []
            assert list((tmp_path / "cache").glob("*.tmp")) == []
            server.requests.clear()
            third = Provider(make_config(server, tmp_path))
            assert third.embed(self.TEXTS).vectors == [expected[t] for t in self.TEXTS]
            assert server.requests == []

    def test_duplicate_key_first_file_in_sorted_order_wins(self, tmp_path):
        cache = tmp_path / "cache"
        cache.mkdir()
        key = embedding_request_key("mock-embed", "alpha")
        request = {"model": "mock-embed", "text": "alpha"}
        # written in the reverse of their name order
        write_json(cache / "emb-1.json", {key: {"request": request, "vector": [0.0, 1.0]}})
        write_json(cache / "emb-0.json", {key: {"request": request, "vector": [1.0, 0.0]}})
        with MockProviderServer() as server:
            live = Provider(make_config(server, tmp_path))
            assert live.embed(["alpha"]).vectors == [[1.0, 0.0]]
            assert server.requests == []
        assert replay_of(cache).embed(["alpha"]).vectors == [[1.0, 0.0]]

    def test_per_text_records_still_read(self, tmp_path):
        cache = tmp_path / "cache"
        cache.mkdir()
        key = embedding_request_key("mock-embed", "alpha")
        write_json(cache / f"{key}.json", {
            "kind": "embedding", "request": {"model": "mock-embed", "text": "alpha"},
            "vector": [0.6, 0.8],
        })
        with MockProviderServer() as server:
            live = Provider(make_config(server, tmp_path))
            assert live.embed(["alpha", "alpha"]).vectors == [[0.6, 0.8]] * 2
            assert server.requests == []
        assert replay_of(cache).embed(["alpha"]).vectors == [[0.6, 0.8]]
        with pytest.raises(ProviderError, match="no replay fixture"):
            replay_of(cache).embed(["beta"])


    def test_directory_listed_once_per_embed(self, tmp_path, monkeypatch):
        # per-text records for half the texts: the misses are told apart by
        # one listing of the directory, not by a lookup each
        cache = tmp_path / "cache"
        cache.mkdir()
        unit = [1.0] + [0.0] * 7  # the mock's embeddings have 8 dimensions
        for text in self.TEXTS[:50]:
            key = embedding_request_key("mock-embed", text)
            write_json(cache / f"{key}.json", {
                "kind": "embedding", "request": {"model": "mock-embed", "text": text},
                "vector": unit,
            })
        listings, reads = [], []
        listdir, get = ragmt.provider.os.listdir, _JsonStore.get
        monkeypatch.setattr(ragmt.provider.os, "listdir",
                            lambda path: listings.append(path) or listdir(path))
        monkeypatch.setattr(_JsonStore, "get",
                            lambda store, key: reads.append(key) or get(store, key))
        with MockProviderServer() as server:
            provider = Provider(make_config(server, tmp_path, embed_batch_size=32))
            vectors = provider.embed(self.TEXTS).vectors
            assert len(server.requests) == 2  # ceil(50 / 32)
        assert vectors[:50] == [unit] * 50
        assert [str(p) for p in listings] == [str(cache)]
        assert len(reads) == 50


def test_json_store_concurrent_writers_share_directory(tmp_path):
    # two stores on one directory stand for two processes sharing a cache_dir
    stores = [_JsonStore(tmp_path), _JsonStore(tmp_path)]
    records = [{"writer": w, "payload": str(w) * 50_000} for w in range(4)]
    errors: list[Exception] = []

    def write(store, record):
        try:
            for _ in range(30):
                store.put("key", record)
        except Exception as exc:  # reported by the assertion below
            errors.append(exc)

    def read(store):
        try:
            for _ in range(100):
                got = store.get("key")
                assert got is None or got in records
        except Exception as exc:
            errors.append(exc)

    threads = [threading.Thread(target=write, args=(stores[w % 2], r))
               for w, r in enumerate(records)]
    threads += [threading.Thread(target=read, args=(store,)) for store in stores]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert errors == []
    assert json.loads((tmp_path / "key.json").read_text(encoding="utf-8")) in records
    assert sorted(p.name for p in tmp_path.iterdir()) == ["key.json"]


class TestCacheKeys:
    def test_distinct_requests_distinct_keys(self):
        a = chat_request_key("m", 0.0, "sys", "user one")
        b = chat_request_key("m", 0.0, "sys", "user two")
        c = chat_request_key("m", 0.5, "sys", "user one")
        assert len({a, b, c}) == 3

    def test_embedding_key_depends_on_model_and_text(self):
        assert embedding_request_key("m1", "t") != embedding_request_key("m2", "t")
        assert embedding_request_key("m1", "t") == embedding_request_key("m1", "t")


def test_invalid_config_rejected():
    with pytest.raises(ValueError):
        ProviderConfig(max_in_flight=0)
    with pytest.raises(ValueError):
        ProviderConfig(temperature=-1.0)
