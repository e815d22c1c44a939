"""Scripted OpenAI-compatible server for provider tests."""

from __future__ import annotations

import gzip
import json
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer


class MockProviderServer:
    """Serves /chat/completions and /embeddings with a scriptable status
    sequence and tracks the in-flight high-water mark and the connections
    opened.

    With ``keep_alive`` it speaks HTTP/1.1 and keeps each connection open
    until the client closes it or it has been idle for ``idle_timeout``
    seconds; otherwise it closes each connection after one reply."""

    def __init__(self, response_delay: float = 0.0, keep_alive: bool = False,
                 idle_timeout: float | None = None):
        self.status_script: list[int] = []  # consumed before each success
        self.retry_after: str | None = None  # Retry-After value sent with each failure
        self.reply_body: bytes | None = None  # sent with a 200 in place of the JSON reply
        self.gzip = False  # gzip each 200 reply when the request accepts it
        self.requests: list[dict] = []
        self.response_delay = response_delay
        self.in_flight = 0
        self.high_water = 0
        self.connections = 0
        self.closed = 0
        self._lock = threading.Lock()
        outer = self

        class Handler(BaseHTTPRequestHandler):
            protocol_version = "HTTP/1.1" if keep_alive else "HTTP/1.0"
            timeout = idle_timeout

            def log_message(self, *args):
                pass

            def do_CONNECT(self):
                """As a proxy that refuses every tunnel."""
                with outer._lock:
                    outer.requests.append({"path": self.path, "body": None,
                                           "headers": dict(self.headers)})
                self.send_response(502)
                self.send_header("Content-Length", "0")
                self.end_headers()

            def do_POST(self):
                with outer._lock:
                    outer.in_flight += 1
                    outer.high_water = max(outer.high_water, outer.in_flight)
                try:
                    length = int(self.headers.get("Content-Length", 0))
                    body = json.loads(self.rfile.read(length))
                    with outer._lock:
                        outer.requests.append({"path": self.path, "body": body,
                                               "headers": dict(self.headers)})
                        status = outer.status_script.pop(0) if outer.status_script else 200
                    if outer.response_delay:
                        time.sleep(outer.response_delay)
                    if status != 200:
                        self.send_response(status)
                        if outer.retry_after is not None:
                            self.send_header("Retry-After", outer.retry_after)
                        self.send_header("Content-Length", "0")
                        self.end_headers()
                        return
                    data = outer.reply_body
                    if data is None:
                        data = json.dumps(outer._respond(self.path, body)).encode()
                    self.send_response(200)
                    if outer.gzip and "gzip" in self.headers.get("Accept-Encoding", ""):
                        data = gzip.compress(data)
                        self.send_header("Content-Encoding", "gzip")
                    self.send_header("Content-Type", "application/json")
                    self.send_header("Content-Length", str(len(data)))
                    self.end_headers()
                    self.wfile.write(data)
                finally:
                    with outer._lock:
                        outer.in_flight -= 1

        class Server(ThreadingHTTPServer):
            # tests open up to 16 connections at once: at socketserver's
            # default backlog of 5 the kernel drops some handshakes, so a
            # client waits out a 1 s SYN resend or has its connection reset
            # and retried (a request counted twice)
            request_queue_size = 64

            def process_request(self, request, client_address):
                with outer._lock:
                    outer.connections += 1
                super().process_request(request, client_address)

            def shutdown_request(self, request):
                super().shutdown_request(request)
                with outer._lock:
                    outer.closed += 1

        self.server = Server(("127.0.0.1", 0), Handler)
        self.thread = threading.Thread(target=self.server.serve_forever, daemon=True)

    def _respond(self, path: str, body: dict) -> dict:
        if path.endswith("/embeddings"):
            inputs = body["input"]
            # deterministic per-text vector: char-code histogram, 8 dims
            data = []
            for i, text in enumerate(inputs):
                vec = [0.0] * 8
                for ch in text:
                    vec[ord(ch) % 8] += 1.0
                vec[0] += 1.0  # never the zero vector
                data.append({"embedding": vec, "index": i})
            return {"data": data, "model": body.get("model", "")}
        user = body["messages"][-1]["content"]
        return {
            "choices": [{"message": {"role": "assistant",
                                     "content": f"echo:{user[-40:]}"}}],
            "usage": {"prompt_tokens": len(user.split()), "completion_tokens": 5},
        }

    @property
    def base_url(self) -> str:
        host, port = self.server.server_address
        return f"http://{host}:{port}"

    def __enter__(self):
        self.thread.start()
        return self

    def __exit__(self, *exc):
        self.server.shutdown()
        self.server.server_close()
