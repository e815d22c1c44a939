"""OpenAI-compatible mock endpoint with fixed delays, run as its own process.

Usage: python3 perfbench/mock_server.py [--chat-delay S] [--embed-delay S]

Prints the port it bound on 127.0.0.1 as its first line, then serves until
terminated:
  POST /chat/completions  a toy post-edit of the prompt's draft (see edit)
                          plus a usage block
  POST /embeddings        deterministic hashed character-trigram vectors
  GET  /stats             requests, distinct request bodies, in-flight peak
  POST /stats/reset       zero the counters

It runs in its own process so that serving requests does not share the
interpreter lock with the program under test.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import threading
import time
import zlib
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

from ragmt.prompt import RenderedPrompt, parse_prompt

EMBED_DIM = 64


def edit(system: str, user: str) -> str:
    """Toy post-editor: the prompt's draft with repeated tokens collapsed."""
    parsed = parse_prompt(RenderedPrompt(system=system, user=user, mode="postedit"))
    tokens: list[str] = []
    for tok in (parsed.draft or parsed.source).split():
        if not tokens or tokens[-1] != tok:
            tokens.append(tok)
    return " ".join(tokens)


def embed(text: str) -> list[float]:
    vec = [0.0] * EMBED_DIM
    vec[0] = 1.0  # never the zero vector
    lowered = text.lower()
    for i in range(len(lowered) - 2):
        vec[zlib.crc32(lowered[i : i + 3].encode()) % EMBED_DIM] += 1.0
    return vec


class Stats:
    def __init__(self):
        self._lock = threading.Lock()
        self.reset()

    def reset(self) -> None:
        with self._lock:
            self.requests = 0
            self.bodies: set[str] = set()
            self.in_flight = 0
            self.in_flight_max = 0

    def enter(self, body: bytes) -> None:
        digest = hashlib.sha256(body).hexdigest()
        with self._lock:
            self.requests += 1
            self.bodies.add(digest)
            self.in_flight += 1
            self.in_flight_max = max(self.in_flight_max, self.in_flight)

    def leave(self) -> None:
        with self._lock:
            self.in_flight -= 1

    def snapshot(self) -> dict:
        with self._lock:
            return {"requests": self.requests, "distinct_requests": len(self.bodies),
                    "in_flight_max": self.in_flight_max}


def make_server(chat_delay: float, embed_delay: float) -> ThreadingHTTPServer:
    stats = Stats()

    class Handler(BaseHTTPRequestHandler):
        protocol_version = "HTTP/1.1"  # keep-alive, as a real endpoint offers
        disable_nagle_algorithm = True  # else each reply's body waits on a delayed ACK

        def log_message(self, *args):
            pass

        def _send(self, payload: dict) -> None:
            data = json.dumps(payload).encode()
            self.send_response(200)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(data)))
            self.end_headers()
            self.wfile.write(data)

        def do_GET(self):
            if self.path == "/stats":
                self._send(stats.snapshot())
            else:
                self.send_error(404)

        def do_POST(self):
            raw = self.rfile.read(int(self.headers.get("Content-Length", 0)))
            if self.path == "/stats/reset":
                stats.reset()
                self._send({})
                return
            stats.enter(raw)
            try:
                body = json.loads(raw)
                if self.path.endswith("/chat/completions"):
                    time.sleep(chat_delay)
                    system, user = (m["content"] for m in body["messages"])
                    text = edit(system, user)
                    self._send({
                        "choices": [{"message": {"role": "assistant", "content": text}}],
                        "usage": {"prompt_tokens": len(user.split()),
                                  "completion_tokens": len(text.split())},
                    })
                elif self.path.endswith("/embeddings"):
                    time.sleep(embed_delay)
                    self._send({"data": [{"embedding": embed(t), "index": i}
                                         for i, t in enumerate(body["input"])],
                                "model": body.get("model", "")})
                else:
                    self.send_error(404)
            finally:
                stats.leave()

    server = ThreadingHTTPServer(("127.0.0.1", 0), Handler)
    server.daemon_threads = True
    return server


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description="OpenAI-compatible mock endpoint")
    parser.add_argument("--chat-delay", type=float, default=0.05)
    parser.add_argument("--embed-delay", type=float, default=0.02)
    args = parser.parse_args(argv)
    server = make_server(args.chat_delay, args.embed_delay)
    print(server.server_address[1], flush=True)
    server.serve_forever()


if __name__ == "__main__":
    main()
