from __future__ import annotations

import json
import logging
import math
import sys
import threading
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import ragmt.provider
from conftest import make_pairs
from mock_server import MockProviderServer
from ragmt.prompt import RenderedPrompt
from ragmt.provider import (
    ChatExchange,
    EmbeddingBatch,
    Provider,
    ProviderConfig,
    ProviderError,
    _JsonStore,
    _unit_matrix,
    chat_request_key,
    embedding_request_key,
)
from ragmt.retrieval import EmbeddingIndex

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
            assert batch.vectors[0].tolist() == batch.vectors[2].tolist()

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
            alone = {t: provider.embed([t]).vectors[0].tolist() for t in set(texts)}
        assert sorted(sent) == [["a"], ["b"], ["c"]]  # one request per distinct text
        assert batch.inputs == texts
        assert batch.vectors.tolist() == [alone[t] for t in texts]

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
        assert a.vectors.tolist() == b.vectors.tolist()

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
            assert (replay.embed(["alpha", "alpha"]).vectors.tolist()
                    == warm.embed(["alpha"]).vectors.tolist() * 2)
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
            expected = dict(zip(self.TEXTS, plain.embed(self.TEXTS).vectors.tolist()))
            # two providers on one cache_dir stand for two processes
            providers = [Provider(make_config(server, tmp_path, embed_batch_size=4,
                                                  max_in_flight=2)) for _ in range(2)]
            subsets = [self.TEXTS[i : i + 40] for i in range(0, 61, 10)]
            errors: list[Exception] = []

            def embed(provider, texts):
                try:
                    got = provider.embed(texts)
                    assert got.vectors.tolist() == [expected[t] for t in texts]
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
            assert third.embed(self.TEXTS).vectors.tolist() == [expected[t] for t in self.TEXTS]
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
            assert live.embed(["alpha"]).vectors.tolist() == [[1.0, 0.0]]
            assert server.requests == []
        assert replay_of(cache).embed(["alpha"]).vectors.tolist() == [[1.0, 0.0]]

    def test_chunk_of_unequal_vectors_names_its_file(self, tmp_path):
        cache = tmp_path / "cache"
        cache.mkdir()
        write_json(cache / "emb-0.json", {
            embedding_request_key("mock-embed", text): {
                "request": {"model": "mock-embed", "text": text}, "vector": vector}
            for text, vector in (("alpha", [1.0, 0.0]), ("beta", [1.0]))})
        with pytest.raises(ProviderError, match="emb-0.json: malformed embedding vectors"):
            replay_of(cache).embed(["alpha"])

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
            assert live.embed(["alpha", "alpha"]).vectors.tolist() == [[0.6, 0.8]] * 2
            assert server.requests == []
        assert replay_of(cache).embed(["alpha"]).vectors.tolist() == [[0.6, 0.8]]
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
        assert vectors[:50].tolist() == [unit] * 50
        assert [str(p) for p in listings] == [str(cache)]
        assert len(reads) == 50


def unit_normalize_oracle(vector: list[float]) -> list[float]:
    """The per-value loop that each normalised embedding row must equal bit
    for bit."""
    norm = math.sqrt(sum(v * v for v in vector))
    if norm == 0:
        raise ProviderError("provider returned a zero embedding vector")
    return [v / norm for v in vector]


# every float (subnormals, huge values and -0.0 among them) and ints,
# some beyond 2**53, as JSON numbers decode
_json_numbers = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.integers(-(2 ** 70), 2 ** 70),
    st.sampled_from([-0.0, 5e-324, 2.2250738585072014e-308, 1e-160, 1e154,
                     1.7976931348623157e308]),
)


class TestEmbeddingArrays:
    """Embeddings are float64 arrays from the reply to the index, with every
    value and every cache byte as the per-value loop gives them."""

    TEXTS = ["alpha", "beta", "café ✓", "gamma delta"]

    @given(st.integers(1, 64).flatmap(lambda d: st.lists(
        st.lists(_json_numbers, min_size=d, max_size=d), min_size=1, max_size=4)))
    @example([[0, 0.0, -0.0]])
    @example([[1.0, 2.0], [5e-324, -5e-324]])
    # squares past ~1.3e154 overflow to inf, in the loop as in numpy
    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    def test_normalisation_equals_the_loop(self, rows):
        try:
            want = [unit_normalize_oracle([float(v) for v in row]) for row in rows]
        except ProviderError:
            with pytest.raises(ProviderError, match="zero embedding vector"):
                _unit_matrix(rows)
            return
        got = _unit_matrix(rows)
        assert got.dtype == np.float64 and got.shape == (len(rows), len(rows[0]))
        assert got.tolist() == want
        assert got.tobytes() == np.array(want).tobytes()  # -0.0 kept apart from 0.0

    def test_cold_chunk_bytes(self, tmp_path):
        with MockProviderServer() as server:
            batch = Provider(make_config(server, tmp_path)).embed(self.TEXTS)
            raw = [item["embedding"] for item in
                   server._respond("/embeddings", {"input": self.TEXTS})["data"]]
        assert batch.vectors.flags.c_contiguous and batch.vectors.dtype == np.float64
        assert batch.vectors.tolist() == [unit_normalize_oracle(row) for row in raw]
        records = {embedding_request_key("mock-embed", text):
                   {"request": {"model": "mock-embed", "text": text}, "vector": row.tolist()}
                   for text, row in zip(self.TEXTS, batch.vectors)}
        (chunk,) = (tmp_path / "cache").iterdir()
        assert chunk.read_bytes() == json.dumps(
            records, sort_keys=True, ensure_ascii=False).encode("utf-8")

    def test_warm_and_replay_rows_bit_identical(self, tmp_path):
        cache = tmp_path / "cache"
        with MockProviderServer() as server:
            cold = Provider(make_config(server, tmp_path, embed_batch_size=3)).embed(self.TEXTS)
            warm = Provider(make_config(server, tmp_path)).embed(self.TEXTS)
            assert len(server.requests) == 2
        # the same records in the older per-text layout
        old = tmp_path / "old"
        old.mkdir()
        for chunk in cache.iterdir():
            for key, record in json.loads(chunk.read_text(encoding="utf-8")).items():
                write_json(old / f"{key}.json", {"kind": "embedding", **record})
        for batch in (warm, replay_of(cache).embed(self.TEXTS),
                      replay_of(old).embed(self.TEXTS)):
            assert batch == cold
            assert batch.vectors.tobytes() == cold.vectors.tobytes()

    def test_index_adopts_the_batch_matrix(self, tmp_path):
        pairs = make_pairs(len(self.TEXTS), seed=0)
        with MockProviderServer() as server:
            batch = Provider(make_config(server, tmp_path)).embed(self.TEXTS)
        assert np.shares_memory(EmbeddingIndex(pairs, batch.vectors).vectors, batch.vectors)


class TestMalformedEmbeddings:
    """An embedding reply holding anything but equal-length lists of finite
    JSON numbers is a ``ProviderError``, and nothing of it is cached."""

    @pytest.mark.parametrize("rows, message", [
        ("[[null, 1.0]]", "malformed embedding response"),
        ('[["x", 1.0]]', "malformed embedding response"),
        ('[["0.5", 1.0]]', "malformed embedding response"),
        ("[[true, 1.0]]", "malformed embedding response"),
        ("[[[1.0], 1.0]]", "malformed embedding response"),
        ("[3]", "malformed embedding response"),
        ("[[NaN, 1.0]]", "malformed embedding response"),
        ("[[Infinity, 1.0]]", "malformed embedding response"),
        ("[[1.0, -Infinity]]", "malformed embedding response"),
        ("[[1e999, 1.0]]", "malformed embedding response"),
        ("[[1" + "0" * 400 + ", 1.0]]", "malformed embedding response"),
        ("[[1.0, 0.0], [1.0]]", "inconsistent embedding dimensions"),
        ("[[0.0, 0.0]]", "zero embedding vector"),
        ("[[]]", "zero embedding vector"),
    ], ids=["null", "string", "numeric-string", "bool", "nested-list", "row-not-a-list",
            "nan", "infinity", "minus-infinity", "float-overflow", "int-overflow",
            "ragged", "zero-row", "empty-row"])
    def test_is_provider_error_and_not_cached(self, tmp_path, monkeypatch, rows, message):
        # decoded as a reply is: json.loads accepts NaN and Infinity
        reply = {"data": [{"embedding": row} for row in json.loads(rows)]}
        texts = [f"text {i}" for i in range(len(reply["data"]))]
        provider = Provider(ProviderConfig(base_url="http://127.0.0.1:9", model_name="m",
                                           cache_dir=str(tmp_path / "cache")))
        monkeypatch.setattr(provider, "_post", lambda endpoint, body: reply)
        with pytest.raises(ProviderError, match=message):
            provider.embed(texts)
        assert list((tmp_path / "cache").iterdir()) == []


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
