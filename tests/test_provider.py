from __future__ import annotations

import base64
import io
import json
import math
import os
import socket
import sys
import threading
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import ragmt.provider
from conftest import make_pairs
from mock_server import MockProviderServer
from ragmt.pipeline import ConfigError, provider_config_from_dict
from ragmt.prompt import RenderedPrompt
from ragmt.provider import (
    ChatExchange,
    EmbeddingBatch,
    Provider,
    ProviderConfig,
    ProviderError,
    _JsonStore,
    _embedding_keys,
    _unit_matrix,
    chat_request_key,
    embedding_request_key,
)
from ragmt.retrieval import EmbeddingIndex, Retriever

EMBEDDINGS = Path(__file__).resolve().parent / "data" / "embeddings"
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


    def test_request_count_exact_across_threads(self, tmp_path):
        # more threads than cores and a short switch interval, so an unguarded
        # ``request_count += 1`` would lose updates
        with MockProviderServer(response_delay=0.02, keep_alive=True) as server:
            provider = Provider(make_config(server, tmp_path, max_in_flight=16))
            interval = sys.getswitchinterval()
            sys.setswitchinterval(1e-5)
            try:
                for round_ in range(2):
                    threads = [
                        threading.Thread(target=provider.complete, args=(RenderedPrompt(
                            system="s", user=f"query {round_} {i}", mode="direct"),))
                        for i in range(16)
                    ]
                    for t in threads:
                        t.start()
                    for t in threads:
                        t.join(timeout=60)
                    assert not any(t.is_alive() for t in threads)
            finally:
                sys.setswitchinterval(interval)
            assert provider.request_count == len(server.requests) == 32
            # the pool keeps up to max_in_flight connections, so the second
            # round reuses the first round's and opens none
            assert server.connections <= 16


class TestTransport:
    """The keep-alive ``http.client`` transport under ``Provider``. TLS, to
    a host or through a CONNECT tunnel, needs a certificate a test can
    trust and is not exercised here."""

    @pytest.fixture(autouse=True)
    def no_proxy_variables(self, monkeypatch):
        for name in list(os.environ):
            if name.lower().endswith("_proxy"):
                monkeypatch.delenv(name)

    def test_sequential_requests_share_one_connection(self, tmp_path):
        with MockProviderServer(keep_alive=True) as server:
            provider = Provider(make_config(server, tmp_path))
            for i in range(3):
                provider.complete(RenderedPrompt(system="s", user=f"q{i}", mode="direct"))
            provider.embed(["a", "b"])
            assert len(server.requests) == 4
            assert server.connections == 1

    def test_idle_connection_closed_by_server_is_replaced_without_retry(
            self, tmp_path, monkeypatch):
        with MockProviderServer(keep_alive=True, idle_timeout=0.05) as server:
            provider = Provider(make_config(server, tmp_path, backoff_base=10.0))
            provider.complete(PROMPT)
            deadline = time.monotonic() + 10
            while server.closed < 1 and time.monotonic() < deadline:
                time.sleep(0.01)
            assert server.closed == 1  # the server closed the idle connection
            slept = []
            monkeypatch.setattr(ragmt.provider.time, "sleep", slept.append)
            exchange = provider.complete(RenderedPrompt(system="s", user="again", mode="direct"))
            assert exchange.response_text == "echo:again"
            assert provider.request_count == len(server.requests) == 2
            assert server.connections == 2
            assert slept == []

    # "p%40ss" is the password "p@ss", percent-encoded in the proxy URL
    CREDENTIALS = f"Basic {base64.b64encode(b'user:p@ss').decode()}"

    def test_http_proxy_receives_the_absolute_form(self, tmp_path, monkeypatch):
        with MockProviderServer() as proxy:
            monkeypatch.setenv("HTTP_PROXY", proxy.base_url.replace("//", "//user:p%40ss@"))
            provider = Provider(make_config(proxy, tmp_path,
                                            base_url="http://upstream.invalid/v1"))
            assert provider.complete(PROMPT).response_text == "echo:translate this"
            assert [r["path"] for r in proxy.requests] == [
                "http://upstream.invalid/v1/chat/completions"]
            assert proxy.requests[0]["headers"]["Proxy-Authorization"] == self.CREDENTIALS

    def test_https_goes_through_a_proxy_tunnel(self, tmp_path, monkeypatch):
        # the mock refuses the tunnel: TLS to the host cannot be tested offline
        with MockProviderServer() as proxy:
            monkeypatch.setenv("ALL_PROXY", proxy.base_url.replace("//", "//user:p%40ss@"))
            provider = Provider(make_config(proxy, tmp_path, max_retries=0,
                                            base_url="https://upstream.invalid/v1"))
            with pytest.raises(ProviderError, match="Tunnel connection failed: 502"):
                provider.complete(PROMPT)
            assert [r["path"] for r in proxy.requests] == ["upstream.invalid:443"]
            assert proxy.requests[0]["headers"]["Proxy-Authorization"] == self.CREDENTIALS

    def test_no_proxy_bypasses_a_dead_proxy(self, tmp_path, monkeypatch):
        with socket.socket() as sock:  # a port nothing listens on once closed
            sock.bind(("127.0.0.1", 0))
            port = sock.getsockname()[1]
        monkeypatch.setenv("HTTP_PROXY", f"http://127.0.0.1:{port}")
        monkeypatch.setenv("NO_PROXY", "127.0.0.1")
        with MockProviderServer() as server:
            provider = Provider(make_config(server, tmp_path, max_retries=0))
            assert provider.complete(PROMPT).response_text == "echo:translate this"
            assert [r["path"] for r in server.requests] == ["/chat/completions"]

    def test_gzip_reply_is_decoded(self, tmp_path):
        with MockProviderServer() as server:
            server.gzip = True
            provider = Provider(make_config(server, tmp_path))
            assert provider.complete(PROMPT).response_text == "echo:translate this"
            batch = provider.embed(["ab"])
            assert [r["headers"]["Accept-Encoding"] for r in server.requests] == ["gzip"] * 2
        expected = np.array([1.0, 1, 1, 0, 0, 0, 0, 0])  # 'a' % 8 == 1, 'b' % 8 == 2
        np.testing.assert_array_equal(batch.vectors[0], expected / math.sqrt(3))

    def test_read_timeout_is_a_retried_provider_error(self, tmp_path):
        with MockProviderServer(response_delay=1.0) as server:
            provider = Provider(make_config(server, tmp_path, request_timeout=0.1,
                                            max_retries=1))
            with pytest.raises(ProviderError, match="timed out"):
                provider.complete(PROMPT)
            assert provider.request_count == len(server.requests) == 2

    def test_redirect_is_not_followed(self, tmp_path):
        with MockProviderServer() as server:
            server.status_script = [302]
            provider = Provider(make_config(server, tmp_path))
            with pytest.raises(ProviderError, match="not followed") as err:
                provider.complete(PROMPT)
            assert err.value.status == 302
            assert len(server.requests) == 1

    def test_reply_that_is_not_json_is_not_retried(self, tmp_path):
        with MockProviderServer() as server:
            server.reply_body = b"<html>maintenance</html>"
            provider = Provider(make_config(server, tmp_path))
            with pytest.raises(ProviderError) as err:
                provider.complete(PROMPT)
            assert f"{server.base_url}/chat/completions" in str(err.value)
            assert "<html>maintenance" in str(err.value)
            assert len(server.requests) == 1


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

    def test_default_chunk_is_128_texts(self, tmp_path):
        with MockProviderServer() as server:
            provider = Provider(make_config(server, tmp_path))
            provider.embed([f"text number {i}" for i in range(300)])
            sizes = [len(r["body"]["input"]) for r in server.requests]
        assert sorted(sizes) == [44, 128, 128]  # ceil(300 / 128) requests

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


class TestEmbedWindow:
    """``embed`` keeps ``max_in_flight`` requests on the wire while the calling
    thread handles replies, holding at most 2 × ``max_in_flight`` unhandled."""

    TEXTS = [f"text number {i}" for i in range(32)]  # 8 chunks of 4

    def _embed(self, tmp_path, monkeypatch, delay, stall):
        """Embed TEXTS with ``put_chunk`` stalled for ``stall`` seconds; the
        server's in-flight count sampled during each stall, and the replies
        received but not yet written at each reply."""
        lock = threading.Lock()
        replies = written = 0
        wire, unhandled = [], []
        with MockProviderServer(response_delay=delay) as server:
            provider = Provider(make_config(server, tmp_path, embed_batch_size=4,
                                            max_in_flight=2))
            post, put_chunk = provider._post, provider.store.put_chunk

            def counted_post(endpoint, body):
                nonlocal replies
                data = post(endpoint, body)
                with lock:
                    replies += 1
                    unhandled.append(replies - written)
                return data

            def stalled_put_chunk(requests, rows):
                nonlocal written
                for _ in range(4):
                    time.sleep(stall / 4)
                    wire.append(server.in_flight)
                put_chunk(requests, rows)
                with lock:
                    written += 1

            monkeypatch.setattr(provider, "_post", counted_post)
            monkeypatch.setattr(provider.store, "put_chunk", stalled_put_chunk)
            provider.embed(self.TEXTS)
            assert len(server.requests) == 8
        return wire, unhandled

    def test_wire_full_while_chunks_are_written(self, tmp_path, monkeypatch):
        # a reply takes 0.1 s and writing its chunk 0.02 s: the next requests
        # are on the wire while a chunk is written
        wire, unhandled = self._embed(tmp_path, monkeypatch, delay=0.1, stall=0.02)
        assert max(wire) == 2
        assert max(unhandled) <= 4

    def test_at_most_twice_max_in_flight_unhandled(self, tmp_path, monkeypatch):
        # replies come at once and writing a chunk takes 0.1 s: the window
        # fills to its bound and no further
        wire, unhandled = self._embed(tmp_path, monkeypatch, delay=0.0, stall=0.1)
        assert max(unhandled) == 4
        assert max(wire) <= 2

    def test_failed_reply_cancels_the_queued_chunks(self, tmp_path):
        chunks = [self.TEXTS[i:i + 4] for i in range(0, len(self.TEXTS), 4)]

        class Server(MockProviderServer):
            # chunk 2's reply is malformed; from chunk 3 on replies take
            # 0.3 s, so chunks queued behind them are still unsent when
            # chunk 2 fails
            def _respond(self, path, body):
                chunk = chunks.index(body["input"])
                if chunk == 2:
                    return {"data": [{"embedding": None} for _ in body["input"]]}
                if chunk > 2:
                    time.sleep(0.3)
                return super()._respond(path, body)

        with Server() as server:
            provider = Provider(make_config(server, tmp_path, embed_batch_size=4,
                                            max_in_flight=2))
            with pytest.raises(ProviderError, match="malformed embedding response"):
                provider.embed(self.TEXTS)
            sent = [r["body"]["input"] for r in server.requests]
        # chunks 0-3 are sent before chunk 2 is handled; chunk 4 may have
        # started by then; chunk 5 was queued and is cancelled
        assert all(chunk in sent for chunk in chunks[:4])
        assert all(inputs in chunks[:5] for inputs in sent)
        cached = {key for path in (tmp_path / "cache").glob("emb-*.keys")
                  for key in json.loads(path.read_text(encoding="utf-8"))}
        assert cached == {embedding_request_key("mock-embed", t) for t in self.TEXTS[:8]}
        # a rerun sends only the texts of chunk 2 on
        with MockProviderServer() as server:
            rerun = Provider(make_config(server, tmp_path, embed_batch_size=4))
            batch = rerun.embed(self.TEXTS)
            assert sorted(r["body"]["input"] for r in server.requests) == sorted(chunks[2:])
            cold = Provider(make_config(server, tmp_path, cache_dir=None)).embed(self.TEXTS)
        assert batch.vectors.tobytes() == cold.vectors.tobytes()


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


def write_chunk(directory, name: str, vectors: dict[str, list[float]]) -> None:
    """A binary embedding chunk as ``put_chunk`` lays it out: ``{name}.npy``
    holding the rows, ``{name}.keys`` mapping their keys to their requests,
    both in key order."""
    chunk = sorted((embedding_request_key("mock-embed", text), text, vector)
                   for text, vector in vectors.items())
    np.save(directory / f"{name}.npy", np.array([v for _, _, v in chunk], dtype=np.float64))
    write_json(directory / f"{name}.keys", {
        key: {"model": "mock-embed", "text": text} for key, text, _ in chunk})


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
        chunks = [name[:-len(".keys")] for name in files if name.endswith(".keys")]
        assert len(chunks) == 4  # ceil(100 / 32), not one per text
        assert files == sorted(f"{chunk}{suffix}" for chunk in chunks
                               for suffix in (".keys", ".npy"))
        assert all(chunk.startswith("emb-") for chunk in chunks)
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

    def test_json_and_binary_chunks_first_file_in_sorted_order_wins(self, tmp_path):
        cache = tmp_path / "cache"
        cache.mkdir()
        write_chunk(cache, "emb-0", {"alpha": [1.0, 0.0]})
        write_json(cache / "emb-1.json", {
            embedding_request_key("mock-embed", text): {
                "request": {"model": "mock-embed", "text": text}, "vector": vector}
            for text, vector in (("alpha", [0.0, 1.0]), ("beta", [1.0, 0.0]))})
        write_chunk(cache, "emb-2", {"beta": [0.0, 1.0], "gamma": [0.6, 0.8]})
        want = [[1.0, 0.0], [1.0, 0.0], [0.6, 0.8]]
        with MockProviderServer() as server:
            live = Provider(make_config(server, tmp_path))
            assert live.embed(["alpha", "beta", "gamma"]).vectors.tolist() == want
            assert server.requests == []
        assert replay_of(cache).embed(["alpha", "beta", "gamma"]).vectors.tolist() == want

    def test_rows_without_a_key_file_are_ignored_and_rewritten(self, tmp_path, monkeypatch):
        # a writer killed between its two files leaves the rows alone
        class Killed(BaseException):
            pass

        def killed_at_the_key_file(path, data):
            if path.suffix == ".keys":
                raise Killed
            write_atomic(path, data)

        cache = tmp_path / "cache"
        write_atomic = ragmt.provider._write_atomic
        with MockProviderServer() as server:
            monkeypatch.setattr(ragmt.provider, "_write_atomic", killed_at_the_key_file)
            with pytest.raises(Killed):
                Provider(make_config(server, tmp_path)).embed(["alpha"])
            monkeypatch.undo()
            (rows,) = cache.iterdir()
            assert rows.suffix == ".npy"
            rows.write_bytes(rows.read_bytes()[:-8])  # cut short too: never read
            with pytest.raises(ProviderError, match="no replay fixture"):
                replay_of(cache).embed(["alpha"])
            server.requests.clear()
            batch = Provider(make_config(server, tmp_path)).embed(["alpha"])
            assert [r["body"]["input"] for r in server.requests] == [["alpha"]]
        assert sorted(cache.iterdir()) == [rows.with_suffix(".keys"), rows]
        assert replay_of(cache).embed(["alpha"]).vectors.tobytes() == batch.vectors.tobytes()

    @pytest.mark.parametrize("damage", [
        lambda rows: rows.unlink(),
        lambda rows: rows.write_bytes(rows.read_bytes()[:-8]),
        lambda rows: rows.write_bytes(rows.read_bytes()[:40]),
        lambda rows: rows.write_bytes(b""),
        lambda rows: rows.write_bytes(b"[[1.0, 0.0]]"),
        lambda rows: np.save(rows, np.load(rows).astype(np.float32)),
        lambda rows: np.save(rows, np.load(rows).ravel()),
        lambda rows: np.save(rows, np.load(rows)[:, None, :]),
        lambda rows: np.save(rows, np.load(rows)[:1]),
        lambda rows: np.save(rows, np.concatenate([np.load(rows)] * 2)),
    ], ids=["missing", "truncated-data", "truncated-header", "empty", "not-npy", "float32",
            "one-dimensional", "three-dimensional", "fewer-rows", "more-rows"])
    def test_bad_rows_are_an_error_naming_the_file(self, tmp_path, damage):
        with MockProviderServer() as server:
            Provider(make_config(server, tmp_path)).embed(["alpha", "beta"])
        (key_file,) = (tmp_path / "cache").glob("emb-*.keys")
        rows = key_file.with_suffix(".npy")
        damage(rows)
        with pytest.raises(ProviderError, match=f"{rows.name}: .*embedding rows"):
            replay_of(tmp_path / "cache").embed(["alpha"])

    def test_rows_round_trip_bit_exact(self, tmp_path, monkeypatch):
        # replies of 1536 values across the float range, subnormals and -0.0
        # among them: a warm and a replayed call give back the cold rows' bytes
        rng = np.random.default_rng(0)
        replies = rng.standard_normal((40, 1536)) * 10.0 ** rng.integers(-150, 150, (40, 1))
        replies[0, :3] = [5e-324, -0.0, -5e-324]
        texts = [f"text number {i}" for i in range(40)]
        reply_of = dict(zip(texts, replies.tolist()))
        config = ProviderConfig(base_url="http://127.0.0.1:9", model_name="m",
                                cache_dir=str(tmp_path / "cache"), embed_batch_size=16)
        cold = Provider(config)
        monkeypatch.setattr(cold, "_post", lambda endpoint, body: {
            "data": [{"embedding": reply_of[text]} for text in body["input"]]})
        batch = cold.embed(texts)
        assert len(list((tmp_path / "cache").glob("emb-*.keys"))) == 3
        warm = Provider(config)
        monkeypatch.setattr(warm, "_post", lambda endpoint, body: pytest.fail("sent"))
        replay = Provider(ProviderConfig(model_name="m", replay_dir=str(tmp_path / "cache")))
        for again in (warm.embed(texts[::-1]), replay.embed(texts[::-1])):
            assert again.vectors.tobytes() == batch.vectors[::-1].tobytes()

    def test_committed_chunks_of_both_layouts_replay_alike(self):
        # the same rows as a binary chunk written by numpy 2.x and as a JSON
        # chunk; every numpy this package supports must read both alike
        pool, query = make_pairs(8, seed=3), make_pairs(1, seed=4)[0].source_text
        hits = {}
        for layout, suffixes in (("npy", [".keys", ".npy"]), ("json", [".json"])):
            directory = EMBEDDINGS / layout
            assert sorted(p.suffix for p in directory.iterdir()) == suffixes
            retriever = Retriever("DENSE", pool, provider=replay_of(directory))
            hits[layout] = [(r.pair.id, r.score.hex())
                            for r in retriever.prefixes(query, 3)(3)]
        assert hits["npy"] == hits["json"]
        assert [pair_id for pair_id, _ in hits["npy"]] == ["doc0001", "doc0000", "doc0003"]

    def test_chunk_of_unequal_vectors_names_its_file(self, tmp_path):
        cache = tmp_path / "cache"
        cache.mkdir()
        write_json(cache / "emb-0.json", {
            embedding_request_key("mock-embed", text): {
                "request": {"model": "mock-embed", "text": text}, "vector": vector}
            for text, vector in (("alpha", [1.0, 0.0]), ("beta", [1.0]))})
        with pytest.raises(ProviderError, match="emb-0.json: malformed embedding vectors"):
            replay_of(cache).embed(["alpha"])

    def test_directory_listed_once_per_embed(self, tmp_path, monkeypatch):
        # a chunk file holds half the texts: the misses are told apart by one
        # listing of the directory per embed, and no file is looked up per key
        cache = tmp_path / "cache"
        cache.mkdir()
        unit = [1.0] + [0.0] * 7  # the mock's embeddings have 8 dimensions
        write_json(cache / "emb-0.json", {
            embedding_request_key("mock-embed", text): {
                "request": {"model": "mock-embed", "text": text}, "vector": unit}
            for text in self.TEXTS[:50]})
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
            assert [str(p) for p in listings] == [str(cache)]
            assert provider.embed(self.TEXTS[::-1]).vectors.tolist() == vectors[::-1].tolist()
            assert len(server.requests) == 2
        assert vectors[:50].tolist() == [unit] * 50
        assert [str(p) for p in listings] == [str(cache)] * 2
        assert reads == []


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
    @example([[0.0, 0.0], [1e200, 1.0]])
    def test_normalisation_equals_the_loop(self, rows):
        # squares past ~1.3e154 overflow to inf, in the loop as in numpy
        norms = [math.sqrt(sum(float(v) * float(v) for v in row)) for row in rows]
        if math.inf in norms:
            with pytest.raises(ProviderError, match="norm is not finite"):
                _unit_matrix(rows)
            return
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
        # the key file maps each key to its request, and the rows follow the
        # keys in sorted order
        keys = [embedding_request_key("mock-embed", text) for text in self.TEXTS]
        order = sorted(range(len(keys)), key=keys.__getitem__)
        requests = {key: {"model": "mock-embed", "text": text}
                    for key, text in zip(keys, self.TEXTS)}
        (key_file,) = (tmp_path / "cache").glob("emb-*.keys")
        assert key_file.read_bytes() == json.dumps(
            requests, sort_keys=True, ensure_ascii=False).encode("utf-8")
        rows = io.BytesIO()
        np.save(rows, np.array([unit_normalize_oracle(raw[i]) for i in order]))
        assert key_file.with_suffix(".npy").read_bytes() == rows.getvalue()
        assert sorted(p.name for p in (tmp_path / "cache").iterdir()) == [
            key_file.name, key_file.with_suffix(".npy").name]

    def test_warm_and_replay_rows_bit_identical(self, tmp_path):
        cache = tmp_path / "cache"
        with MockProviderServer() as server:
            cold = Provider(make_config(server, tmp_path, embed_batch_size=3)).embed(self.TEXTS)
            warm = Provider(make_config(server, tmp_path)).embed(self.TEXTS)
            assert len(server.requests) == 2
        for batch in (warm, replay_of(cache).embed(self.TEXTS)):
            assert batch == cold
            assert batch.vectors.tobytes() == cold.vectors.tobytes()

    def test_index_adopts_the_batch_matrix(self, tmp_path):
        pairs = make_pairs(len(self.TEXTS), seed=0)
        with MockProviderServer() as server:
            batch = Provider(make_config(server, tmp_path)).embed(self.TEXTS)
        assert np.shares_memory(EmbeddingIndex(pairs, batch.vectors).vectors, batch.vectors)

    def test_cache_keeps_rows_of_the_batch_matrix(self, tmp_path):
        with MockProviderServer() as server:
            provider = Provider(make_config(server, tmp_path, embed_batch_size=3))
            batch = provider.embed(self.TEXTS + self.TEXTS[:1])
        for text in self.TEXTS:
            cached = provider.store.vector(embedding_request_key("mock-embed", text))
            assert np.shares_memory(cached, batch.vectors)
        assert batch.vectors[-1].tolist() == batch.vectors[0].tolist()

    def test_partly_cached_call_equals_a_cold_one(self, tmp_path):
        with MockProviderServer() as server:
            Provider(make_config(server, tmp_path)).embed(self.TEXTS[1::2])
            server.requests.clear()
            texts = self.TEXTS + self.TEXTS[::-1]
            partly = Provider(make_config(server, tmp_path)).embed(texts)
            assert [r["body"]["input"] for r in server.requests] == [self.TEXTS[::2]]
            cold = Provider(make_config(server, tmp_path, cache_dir=None)).embed(texts)
        assert partly.vectors.tobytes() == cold.vectors.tobytes()


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
        ("[[1e200, 1.0]]", "norm is not finite"),
    ], ids=["null", "string", "numeric-string", "bool", "nested-list", "row-not-a-list",
            "nan", "infinity", "minus-infinity", "float-overflow", "int-overflow",
            "ragged", "zero-row", "empty-row", "norm-overflow"])
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

    def test_reply_of_another_width_is_not_cached(self, tmp_path, monkeypatch):
        widths = {"first": 2, "second": 3}
        config = ProviderConfig(base_url="http://127.0.0.1:9", model_name="m",
                                cache_dir=str(tmp_path / "cache"), embed_batch_size=1)
        provider = Provider(config)
        monkeypatch.setattr(provider, "_post", lambda endpoint, body: {
            "data": [{"embedding": [1.0] * widths[body["input"][0]]}]})
        with pytest.raises(ProviderError, match=r"inconsistent embedding dimensions: \[2, 3\]"):
            provider.embed(["first", "second"])
        assert sorted(p.suffix for p in (tmp_path / "cache").iterdir()) == [".keys", ".npy"]
        (chunk,) = (tmp_path / "cache").glob("emb-*.keys")
        assert list(json.loads(chunk.read_text(encoding="utf-8"))) == [
            embedding_request_key("m", "first")]
        # a rerun reads the first reply and sends the second text again
        rerun = Provider(config)
        sent = []
        monkeypatch.setattr(rerun, "_post", lambda endpoint, body: sent.append(
            body["input"]) or {"data": [{"embedding": [0.0, 2.0]}]})
        assert rerun.embed(["first", "second"]).vectors.tolist() == [
            [1 / math.sqrt(2), 1 / math.sqrt(2)], [0.0, 1.0]]
        assert sent == [["second"]]


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


def test_chunk_writers_of_one_key_set_share_directory(tmp_path):
    # two stores writing the same chunk at once stand for two sweeps over one
    # pool sharing a cache_dir; each hands its keys over in its own order and
    # has rows of its own, and a reader pairs any key file with either
    # writer's rows
    stores = [_JsonStore(tmp_path), _JsonStore(tmp_path)]
    keys = [embedding_request_key("m", f"text {i}") for i in range(64)]
    rows = {key: np.arange(256.0) + 1000 * i for i, key in enumerate(keys)}
    orders = [keys, keys[::-1]]
    errors: list[Exception] = []

    def write(w):
        try:
            for _ in range(30):
                stores[w].put_chunk({key: {"model": "m", "text": key} for key in orders[w]},
                                    [rows[key] * (1 - 2 * w) for key in orders[w]])
        except Exception as exc:  # reported by the assertion below
            errors.append(exc)

    def read():
        try:
            for _ in range(100):
                store = _JsonStore(tmp_path)
                store.read_chunks()
                got = [store.vector(key) for key in keys]
                if got[0] is not None:
                    sign = np.sign(got[0][1])  # whose rows were read
                    assert all(np.array_equal(v, rows[key] * sign) for key, v in zip(keys, got))
        except Exception as exc:
            errors.append(exc)

    threads = [threading.Thread(target=write, args=(w,)) for w in range(2)]
    threads += [threading.Thread(target=read) for _ in range(2)]
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
    assert sorted(p.suffix for p in tmp_path.iterdir()) == [".keys", ".npy"]


class TestCacheKeys:
    def test_distinct_requests_distinct_keys(self):
        a = chat_request_key("m", 0.0, "sys", "user one")
        b = chat_request_key("m", 0.0, "sys", "user two")
        c = chat_request_key("m", 0.5, "sys", "user one")
        assert len({a, b, c}) == 3

    def test_embedding_key_depends_on_model_and_text(self):
        assert embedding_request_key("m1", "t") != embedding_request_key("m2", "t")
        assert embedding_request_key("m1", "t") == embedding_request_key("m1", "t")

    # characters JSON escapes or keeps as they are: quotes, backslashes,
    # control characters, U+2028/9, non-ASCII and astral ones
    _escaped = st.text(alphabet='"\\\x00\x1f\x7f\n\t\u2028\u2029 aé漢\U0001F600', max_size=12)
    _any = st.text(st.characters(blacklist_categories=("Cs",)), max_size=12)

    @given(model=st.text(alphabet='m"\\ é:', max_size=6) | _any,
           text=_escaped | _any)
    @example(model="", text="")
    @example(model='"m"', text='\\"\u2028\U0001F600')
    def test_preformatted_keys_equal_embedding_request_key(self, model, text):
        assert _embedding_keys(model)(text) == embedding_request_key(model, text)

    @pytest.mark.parametrize("model, text", [("m", "\ud800"), ('m"', "a\udfffb"),
                                              ("\udc80m", "t")])
    def test_lone_surrogate_raises_as_before(self, model, text):
        with pytest.raises(UnicodeEncodeError) as expected:
            embedding_request_key(model, text)
        with pytest.raises(UnicodeEncodeError) as got:
            _embedding_keys(model)(text)
        assert str(got.value) == str(expected.value)


def test_invalid_config_rejected():
    with pytest.raises(ValueError):
        ProviderConfig(max_in_flight=0)
    with pytest.raises(ValueError):
        ProviderConfig(temperature=-1.0)


@pytest.mark.parametrize("change", [
    dict(base_url="localhost:8000"), dict(base_url="htp://x"), dict(base_url="http://"),
    dict(temperature=math.nan),
], ids=["no-scheme", "bad-scheme", "no-host", "nan-temperature"])
def test_bad_config_rejected_before_any_request(change):
    with pytest.raises(ValueError, match=next(iter(change))):
        ProviderConfig(model_name="m", **change)
    with pytest.raises(ConfigError, match=next(iter(change))):
        provider_config_from_dict({"model_name": "m", "replay_dir": "fixtures", **change})


@pytest.mark.parametrize("url", ["http://127.0.0.1:8000", "https://api.example.com/v1/",
                                 "http://[::1]:8080/v1"])
def test_base_urls_accepted(url):
    assert ProviderConfig(base_url=url).base_url == url
