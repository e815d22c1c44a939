"""Chat-completion and embedding access over an OpenAI-compatible wire.

Two parts:
  * ``_JsonStore``, the record directory: records keyed by the content hash
    of their request, one JSON file per chat exchange, and one chunk per
    embedding reply: its rows as one ``.npy`` file and its texts' keys and
    requests in a key file written after it;
  * ``Provider``, which answers every ``complete`` and ``embed`` call from
    that directory first: ``replay_dir`` if set, else ``cache_dir``. With
    ``replay_dir`` a miss is an error and nothing is sent, which makes
    whole-pipeline runs replay bit-identically offline; a live run's cache
    directory serves as a replay directory unchanged. Otherwise a miss is
    posted to ``base_url`` with exponential-backoff retries (honouring a
    429 or 503 reply's ``Retry-After``) and written back to ``cache_dir``.

Embeddings travel as float64 arrays. ``embed`` allocates its (n × d)
result once the first vector gives d, and each reply is checked,
normalised and written into its rows; the record directory keeps views
of those rows for the texts it caches, and one matrix per chunk it reads,
and ``retrieval.EmbeddingIndex`` adopts the result without a copy. A
chunk's rows go to disk as they are held, in NumPy's ``.npy`` format,
never as decimal text: for 8000 × 1536 rows on 2 vCPUs, JSON chunks took
14.7 s to write, 5.5 s to read and 274 MB, ``.npy`` rows 0.05 s, 0.06 s
and 98 MB, bit-exact either way.

``embed_batch_size`` defaults to 128 texts per request. A cold embedding
pass is paced by round trips, not by the client: against a mock that
waits 20 ms per request, with 2 in flight on 2 vCPUs, 2030 texts took
0.99 s in 32-text requests and 0.43 s in 128-text ones (medians of 5).
OpenAI-compatible endpoints accept up to 2048 inputs per request. The
cost of a larger request is its reply: 128 vectors of 1536 dimensions
are ~4.4 MB of JSON and ~6.4 MB decoded, against 1.6 MB as rows of the
result, and up to 2 × ``max_in_flight`` replies are held at once.

Misses go over ``transport.Transport``, a keep-alive client on the
standard library's ``http.client``; that module is imported only when a
provider without ``replay_dir`` is built, so replay runs and offline
commands load no HTTP module.

Concurrency: ``ProviderConfig.max_in_flight`` bounds the requests one
provider has on the wire at once, whichever threads send them. ``embed``
posts its ``embed_batch_size`` chunks through a window of 2 ×
``max_in_flight``: that many requests on the wire, and as many replies
waiting while the calling thread handles each one (parse, normalise,
cache) in chunk order, so the next requests are on the wire while a chunk
is written. A failed reply cancels the chunks queued behind it,
unsent. ``complete`` is called from the worker threads of each cell a
pipeline session runs (one for ``run_experiment``, one per value for
``sweep``), that many at once. The session sends the next prompt as soon
as any one is answered, so a slow or retried request holds only its own
worker. The exception is ``replay_dir``: a replayed
``complete`` only reads a file, so the session calls it on its own
thread, one prompt at a time, and ``max_in_flight`` does not apply (on
2 vCPUs this raised the benchmark's ``chrfcw_sweep_replay`` from 198 to
225 sentences/s). Results never depend on the order in which replies
arrive.
"""

from __future__ import annotations

import hashlib
import io
import json
import math
import os
import threading
import time
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from itertools import chain
from json.encoder import encode_basestring
from pathlib import Path
from urllib.parse import urlsplit

import numpy as np

from .prompt import RenderedPrompt

RETRYABLE_STATUSES = {429, 500, 502, 503, 504}
RETRY_AFTER_STATUSES = {429, 503}


class ProviderError(RuntimeError):
    def __init__(self, message: str, status: int | None = None):
        super().__init__(message)
        self.status = status


@dataclass
class ProviderConfig:
    base_url: str = ""
    model_name: str = ""
    embedding_model_name: str = ""
    api_key_env: str = "RAGMT_API_KEY"
    temperature: float = 0.0
    max_retries: int = 3
    request_timeout: float = 60.0
    max_in_flight: int = 4
    embed_batch_size: int = 128
    backoff_base: float = 1.0
    cache_dir: str | None = None
    replay_dir: str | None = None

    def __post_init__(self):
        if self.base_url and not _is_base_url(self.base_url):
            raise ValueError(
                f"base_url must be http(s)://host[:port][/path], got {self.base_url!r}")
        if not (math.isfinite(self.temperature) and self.temperature >= 0):
            raise ValueError("temperature must be a finite number >= 0")
        if self.max_in_flight < 1:
            raise ValueError("max_in_flight must be >= 1")


def _is_base_url(url: str) -> bool:
    """Whether ``url`` is ``http(s)://host[:port][/path]``."""
    parts = urlsplit(url)
    try:
        parts.port  # a port that is not a number in 0-65535 raises
    except ValueError:
        return False
    return (parts.scheme in ("http", "https") and bool(parts.hostname)
            and "@" not in parts.netloc and not (parts.query or parts.fragment)
            and url.isascii() and not any(c.isspace() for c in url))


@dataclass
class ChatExchange:
    request: dict
    response_text: str
    latency: float
    token_usage: dict | None = None
    cache_hit: bool = False


@dataclass(eq=False)
class EmbeddingBatch:
    """The unit vectors of ``inputs``: one C-contiguous (n × d) float64
    array whose row i belongs to input i. Two batches are equal when their
    inputs are and their vectors hold the same values."""

    inputs: list[str]
    vectors: np.ndarray

    def __post_init__(self):
        if self.vectors.ndim != 2 or self.vectors.shape[0] != len(self.inputs):
            raise ProviderError(
                f"vectors of shape {self.vectors.shape} for {len(self.inputs)} inputs"
            )

    def __eq__(self, other):
        if not isinstance(other, EmbeddingBatch):
            return NotImplemented
        return self.inputs == other.inputs and np.array_equal(self.vectors, other.vectors)


def _request_key(payload: dict) -> str:
    return hashlib.sha256(
        json.dumps(payload, sort_keys=True, ensure_ascii=False).encode()
    ).hexdigest()


def chat_request_key(model: str, temperature: float, system: str, user: str) -> str:
    return _request_key(
        {"kind": "chat", "model": model, "temperature": temperature,
         "system": system, "user": user}
    )


def embedding_request_key(model: str, text: str) -> str:
    return _request_key({"kind": "embedding", "model": model, "text": text})


def _embedding_keys(model: str):
    """``embedding_request_key`` for one model, byte for byte: the JSON
    around the text is formatted once, and each text is escaped as
    ``json.dumps(..., ensure_ascii=False)`` escapes it."""
    head = json.dumps({"kind": "embedding", "model": model, "text": ""},
                      sort_keys=True, ensure_ascii=False)[:-3]  # up to '"text": '
    return lambda text: hashlib.sha256(
        f"{head}{encode_basestring(text)}}}".encode()).hexdigest()


def _retry_after(header: str | None, cap: float) -> float:
    """Seconds a ``Retry-After: <seconds>`` header asks for, at most ``cap``;
    0 when absent or unparsable (an HTTP-date is not parsed)."""
    try:
        seconds = float(header)
    except (TypeError, ValueError):
        return 0.0
    return min(seconds, cap) if math.isfinite(seconds) else 0.0


def _unit_matrix(rows: list) -> np.ndarray:
    """One embedding reply's vectors as unit-length float64 rows, (m × d).

    Each norm takes the float operations of a per-value loop: element
    squares, a left-to-right running sum (``np.cumsum``; ``ndarray.sum``,
    ``np.linalg.norm`` and ``einsum`` add pairwise and can differ in the
    last bit), its square root and one division. So a row is bit-identical
    to ``[v / norm for v in row]`` with ``norm = sqrt(sum(v * v ...))``.
    Anything but equal-length lists of finite JSON numbers, a zero row, or a
    row whose squares overflow to an infinite norm (values past ~1.3e154),
    is a ``ProviderError``.
    """
    try:
        numeric = set(map(type, chain.from_iterable(rows))) <= {int, float}
        matrix = np.array(rows, dtype=np.float64) if numeric else None
    except (TypeError, OverflowError):  # a row that is not a list; an int beyond float range
        matrix = None
    except ValueError:  # rows of unequal length
        raise ProviderError(
            f"inconsistent embedding dimensions: {sorted({len(row) for row in rows})}"
        ) from None
    if matrix is None or not np.isfinite(matrix).all():
        raise ProviderError(f"malformed embedding response: {str(rows)[:200]}")
    with np.errstate(over="ignore"):  # an overflow is the error raised below
        norms = np.sqrt(np.cumsum(matrix * matrix, axis=1)[:, -1:])
    if not np.isfinite(norms).all():
        raise ProviderError(f"embedding vector norm is not finite: {str(rows)[:200]}")
    if not (norms.size and norms.all()):
        raise ProviderError("provider returned a zero embedding vector")
    matrix /= norms
    return matrix


def _write_atomic(path: Path, data: str | bytes) -> None:
    """Write ``data`` (text as UTF-8) to ``path`` through a temp file of its
    own in the same directory, so writers sharing it (threads or processes)
    never clobber each other's partial output; ``os.replace`` then swaps in
    the complete file, so a write that fails or is killed leaves the
    previous file whole. The file gets the mode ``open`` would give it:
    0o666 less the umask."""
    if isinstance(data, str):
        data = data.encode("utf-8")
    while True:
        tmp = path.with_name(f"{path.name}.{os.urandom(8).hex()}.tmp")
        try:
            fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
            break
        except FileExistsError:  # another writer drew the same name
            continue
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


# np.load parses a file's header with ast.literal_eval, which CPython 3.11.7
# cannot run in two threads at once ("SystemError: AST constructor recursion
# depth mismatch", seen with two stores reading one directory), so the
# stores of a process load one file at a time
_load_lock = threading.Lock()


def _read_rows(path: Path, count: int) -> np.ndarray:
    """The (count × d) float64 rows of a chunk's ``.npy`` file; a file that
    is missing or unreadable, or holds any other array, is a
    ``ProviderError`` naming it."""
    try:
        with _load_lock:
            rows = np.load(path, allow_pickle=False)
    except (OSError, ValueError, EOFError) as exc:  # missing, truncated, not .npy
        raise ProviderError(f"{path}: unreadable embedding rows ({exc})") from None
    if rows.dtype != np.float64 or rows.ndim != 2 or len(rows) != count:
        raise ProviderError(
            f"{path}: embedding rows of dtype {rows.dtype} and shape {rows.shape} "
            f"for {count} keys")
    return rows


class _JsonStore:
    """Provider records under one directory, keyed by the content hash of
    their request.

    A chat exchange is one JSON file, ``{key}.json``. Embeddings are one
    chunk per reply, named by ``digest``, the sha256 of its sorted keys:
      * ``emb-<digest>.npy``, its unit rows as float64, sorted by key;
      * ``emb-<digest>.keys``, written after the rows: a JSON object that
        maps each key to its request (``{"model", "text"}``), in row order.
    The key file is the chunk's commit marker: rows without one (a writer
    killed between the two files) are never read, and the next miss writes
    them again. Rows sorted by key make two writers of one key set write
    the same key file, which pairs with either writer's rows. Chunks of the
    older layout, ``emb-<digest>.json`` mapping each key to ``{"request",
    "vector"}``, are still read; the key files end in ``.keys`` so that a
    reader of that layout alone skips them.

    ``vector`` looks a key up in the chunks read so far. ``read_chunks``
    lists the directory and adds the key files and JSON chunks not read yet
    in one sorted file-name order, and a key's first record wins, so every
    reader of a directory resolves a key alike and chunks written meanwhile
    by another process are picked up. Each chunk read is held as one
    float64 matrix, and a key's vector is a row of it; a chunk written
    keeps the rows it was handed.
    """

    def __init__(self, directory: str | Path):
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self._lock = threading.Lock()
        self._chunks_read: set[str] = set()
        self._vectors: dict[str, np.ndarray] = {}

    def get(self, key: str) -> dict | None:
        path = self.directory / f"{key}.json"
        if not path.exists():
            return None
        return json.loads(path.read_text(encoding="utf-8"))

    def put(self, key: str, record: dict) -> None:
        self._write(f"{key}.json", record)

    def _write(self, name: str, record: dict) -> None:
        _write_atomic(self.directory / name,
                      json.dumps(record, sort_keys=True, ensure_ascii=False))

    def _add(self, name: str, keys, matrix: np.ndarray) -> None:
        for key, row in zip(keys, matrix):
            self._vectors.setdefault(key, row)
        self._chunks_read.add(name)

    def read_chunks(self) -> None:
        """List the directory once and add the embedding chunks not read
        yet, in sorted name order."""
        with self._lock:
            for name in sorted(n for n in set(os.listdir(self.directory)) - self._chunks_read
                               if n.startswith("emb-") and n.endswith((".json", ".keys"))):
                path = self.directory / name
                records = json.loads(path.read_text(encoding="utf-8"))
                if not isinstance(records, dict):
                    raise ProviderError(f"{path}: not a JSON object of embedding keys")
                if name.endswith(".keys"):
                    matrix = _read_rows(path.with_suffix(".npy"), len(records))
                else:
                    try:
                        matrix = np.array([r["vector"] for r in records.values()],
                                          dtype=np.float64)
                    except (TypeError, ValueError):
                        raise ProviderError(f"{path}: malformed embedding vectors") from None
                self._add(name, records, matrix)

    def put_chunk(self, requests: dict[str, dict], rows: list[np.ndarray]) -> None:
        """Write one embedding reply as one chunk, its rows first and its key
        file last, and keep the rows themselves, not copies, as the keys'
        vectors."""
        chunk = sorted(zip(requests, rows), key=lambda pair: pair[0])
        digest = hashlib.sha256("\n".join(key for key, _ in chunk).encode()).hexdigest()
        buffer = io.BytesIO()
        np.save(buffer, np.stack([row for _, row in chunk]), allow_pickle=False)
        _write_atomic(self.directory / f"emb-{digest}.npy", buffer.getvalue())
        name = f"emb-{digest}.keys"
        self._write(name, requests)  # sort_keys puts the keys in row order
        with self._lock:
            self._add(name, requests, rows)

    def vector(self, key: str) -> np.ndarray | None:
        """The cached vector of an embedding key from the chunks read so far,
        or None."""
        return self._vectors.get(key)


class _Rows:
    """The (n × d) float64 result of one ``embed`` call, allocated when the
    first vector put gives d. A vector of another width is a
    ``ProviderError``, raised before it is written anywhere."""

    def __init__(self, n: int):
        self.n = n
        self.matrix: np.ndarray | None = None

    def put(self, rows, vectors: np.ndarray) -> None:
        """Write ``vectors`` (one row, or one per index of ``rows``)."""
        width = vectors.shape[-1]
        if self.matrix is None:
            self.matrix = np.empty((self.n, width))
        elif width != self.matrix.shape[1]:
            raise ProviderError(
                f"inconsistent embedding dimensions: {sorted({self.matrix.shape[1], width})}")
        self.matrix[rows] = vectors


class Provider:
    """OpenAI-compatible client over a record directory: every call reads
    the directory first, and only a provider without ``replay_dir`` sends
    its misses, with retries and a bounded-concurrency semaphore. Safe to
    call from several threads."""

    def __init__(self, config: ProviderConfig):
        self.config = config
        if config.replay_dir and not os.path.isdir(config.replay_dir):
            # a replay reads the directory and never creates it
            raise NotADirectoryError(f"replay_dir {config.replay_dir!r} is not a directory")
        directory = config.replay_dir or config.cache_dir
        self.store = _JsonStore(directory) if directory else None
        self.request_count = 0  # stays 0 in replay: nothing is ever sent
        if config.replay_dir:
            return
        if not config.base_url:
            raise ProviderError("base_url is required without replay_dir")
        from .transport import Transport

        self._semaphore = threading.BoundedSemaphore(config.max_in_flight)
        self._transport = Transport(config.base_url, config.request_timeout)
        self._count_lock = threading.Lock()

    def close(self) -> None:
        """Close the transport's idle connections; a replay holds none."""
        if not self.config.replay_dir:
            self._transport.close()

    def _headers(self) -> dict:
        key = os.environ.get(self.config.api_key_env, "")
        headers = {"Content-Type": "application/json"}
        if key:
            headers["Authorization"] = f"Bearer {key}"
        return headers

    def _post(self, endpoint: str, body: dict) -> dict:
        url = self.config.base_url.rstrip("/") + endpoint
        data = json.dumps(body, allow_nan=False).encode()
        last_error: ProviderError | None = None
        delay = 0.0
        for attempt in range(self.config.max_retries + 1):
            if attempt:
                time.sleep(delay)
            delay = self.config.backoff_base * 2 ** attempt
            try:
                with self._semaphore:
                    with self._count_lock:
                        self.request_count += 1
                    status, headers, reply = self._transport.post(endpoint, data, self._headers())
            except self._transport.errors as exc:
                last_error = ProviderError(f"request to {url} failed: {exc!r}")
                continue
            if status == 200:
                try:
                    return json.loads(reply)
                except ValueError:  # not JSON, or not UTF-8
                    raise ProviderError(
                        f"HTTP 200 from {url} is not JSON: {reply[:200]!r}") from None
            if status in RETRYABLE_STATUSES:
                last_error = ProviderError(f"transient HTTP {status} from {url}", status)
                if status in RETRY_AFTER_STATUSES:
                    delay = max(delay, _retry_after(headers.get("Retry-After"),
                                                    self.config.request_timeout))
                continue
            if 300 <= status < 400:
                reason = f"redirect to {headers.get('Location')} not followed"
            else:
                reason = reply[:200].decode("utf-8", "replace")
            raise ProviderError(f"HTTP {status} from {url}: {reason}", status)
        raise ProviderError(
            f"exhausted {self.config.max_retries} retries: {last_error}",
            last_error.status if last_error else None,
        )

    def complete(self, prompt: RenderedPrompt) -> ChatExchange:
        cfg = self.config
        key = chat_request_key(cfg.model_name, cfg.temperature, prompt.system, prompt.user)
        record = self.store.get(key) if self.store is not None else None
        if record is not None:
            return ChatExchange(
                request=record["request"],
                response_text=record["response_text"],
                latency=record.get("latency", 0.0),
                token_usage=record.get("token_usage"),
                cache_hit=True,
            )
        if cfg.replay_dir:
            raise ProviderError(
                f"no replay fixture for chat request {key} "
                f"(model={cfg.model_name!r}, user={prompt.user[:60]!r}...)"
            )
        body = {
            "model": cfg.model_name,
            "messages": [
                {"role": "system", "content": prompt.system},
                {"role": "user", "content": prompt.user},
            ],
            "temperature": cfg.temperature,
        }
        start = time.monotonic()
        data = self._post("/chat/completions", body)
        latency = time.monotonic() - start
        try:
            text = data["choices"][0]["message"]["content"]
        except (KeyError, IndexError, TypeError):
            raise ProviderError(f"malformed chat response: {str(data)[:200]}") from None
        if not isinstance(text, str) or not text.strip():
            raise ProviderError("empty response")
        exchange = ChatExchange(
            request={"model": cfg.model_name, "temperature": cfg.temperature,
                     "system": prompt.system, "user": prompt.user},
            response_text=text,
            latency=latency,
            token_usage=data.get("usage"),
        )
        if self.store is not None:
            self.store.put(key, {
                "kind": "chat",
                "request": exchange.request,
                "response_text": text,
                "latency": latency,
                "token_usage": exchange.token_usage,
            })
        return exchange

    def embed(self, texts: list[str]) -> EmbeddingBatch:
        if not texts:
            raise ProviderError("embed() requires at least one text")
        cfg = self.config
        model = cfg.embedding_model_name or cfg.model_name
        if self.store is not None:
            self.store.read_chunks()
        first: dict[str, int] = {}  # distinct text -> the row of its first occurrence
        for i, text in enumerate(texts):
            first.setdefault(text, i)
        result = _Rows(len(texts))
        pending: list[tuple[str, str, int]] = []  # (text, cache key, row)
        key_of = _embedding_keys(model)
        for text, row in first.items():
            key = key_of(text)
            cached = self.store.vector(key) if self.store is not None else None
            if cached is not None:
                result.put(row, cached)
            elif cfg.replay_dir:
                raise ProviderError(f"no replay fixture for embedding of {text[:60]!r}")
            else:
                pending.append((text, key, row))
        # at most 2 × max_in_flight chunks outstanding: max_in_flight on the
        # wire through the workers, and as many replies waiting to be handled
        # here, in chunk order; a failure cancels the chunks still queued
        window: deque = deque()
        executor = ThreadPoolExecutor(max_workers=cfg.max_in_flight)
        try:
            for i in range(0, len(pending), cfg.embed_batch_size):
                if len(window) == 2 * cfg.max_in_flight:
                    self._store_embeddings(model, *window.popleft(), result)
                chunk = pending[i : i + cfg.embed_batch_size]
                window.append((chunk, executor.submit(
                    self._post, "/embeddings",
                    {"model": model, "input": [text for text, _, _ in chunk]})))
            while window:
                self._store_embeddings(model, *window.popleft(), result)
        finally:
            executor.shutdown(cancel_futures=True)
        # a repeated text's rows copy the row of its first occurrence
        matrix = result.matrix
        source = np.fromiter((first[text] for text in texts), dtype=np.intp, count=len(texts))
        repeats = np.flatnonzero(source != np.arange(len(texts)))
        matrix[repeats] = matrix[source[repeats]]
        return EmbeddingBatch(inputs=list(texts), vectors=matrix)

    def _store_embeddings(self, model: str, chunk: list[tuple[str, str, int]], reply,
                          result: _Rows) -> None:
        """Check one embedding reply, write its unit rows into ``result`` and
        hand those rows, as one chunk, to the cache; a malformed reply,
        or one whose width differs from the rows before it, is a
        ``ProviderError`` and caches nothing."""
        data = reply.result()
        try:
            vectors = [item["embedding"] for item in data["data"]]
        except (KeyError, TypeError):
            raise ProviderError(f"malformed embedding response: {str(data)[:200]}") from None
        if len(vectors) != len(chunk):
            raise ProviderError(f"{len(vectors)} embeddings returned for {len(chunk)} inputs")
        rows = [row for _, _, row in chunk]
        result.put(rows, _unit_matrix(vectors))
        if self.store is not None:
            self.store.put_chunk({key: {"model": model, "text": text} for text, key, _ in chunk},
                                 [result.matrix[row] for row in rows])


build_provider = Provider  # the name perfbench/child.py imports
