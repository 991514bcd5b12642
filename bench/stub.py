"""Loopback chat-completion stub for the ``record_stub`` workload.

Run as ``python3 bench/stub.py TABLE.json``. It listens on 127.0.0.1 at a
free port and prints the port on its first line of output. TABLE maps a
request key (see ``request_key``) to ``{"answer": text, "flaky": bool}``.
A flaky key answers 503 to its first attempt, then 200 to the retry, so a
fixed share of requests is retried on every pass. The server speaks
HTTP/1.1 with keep-alive. ``GET /stats`` returns its counters: requests,
successful answers, 503s, unknown keys and accepted TCP connections.
"""

from __future__ import annotations

import hashlib
import json
import sys
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer


def request_key(model: str, messages) -> str:
    """Key of one chat request, computed apart from the program's own digest."""
    canonical = json.dumps(
        [model, [dict(m) for m in messages]],
        sort_keys=True, separators=(",", ":"), ensure_ascii=False,
    )
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


class Stub(ThreadingHTTPServer):
    daemon_threads = True

    def __init__(self, table: dict):
        super().__init__(("127.0.0.1", 0), Handler)
        self.table = table
        self.lock = threading.Lock()
        self.attempts: dict[str, int] = {}
        self.stats = {"requests": 0, "ok": 0, "status_503": 0, "unknown": 0, "connections": 0}

    def count(self, name: str) -> None:
        with self.lock:
            self.stats[name] += 1


class Handler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"

    def setup(self):
        super().setup()
        self.server.count("connections")

    def log_message(self, format, *args):  # keep stderr quiet
        pass

    def _send(self, status: int, body: dict) -> None:
        data = json.dumps(body).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(data)))
        self.end_headers()
        self.wfile.write(data)

    def do_GET(self):
        with self.server.lock:
            stats = dict(self.server.stats)
        self._send(200, stats)

    def do_POST(self):
        length = int(self.headers.get("Content-Length", 0))
        request = json.loads(self.rfile.read(length))
        server = self.server
        server.count("requests")
        key = request_key(request.get("model", ""), request.get("messages", ()))
        entry = server.table.get(key)
        if entry is None:
            server.count("unknown")
            self._send(404, {"error": "unknown request"})
            return
        with server.lock:
            attempt = server.attempts.get(key, 0)
            server.attempts[key] = attempt + 1
        if entry["flaky"] and attempt % 2 == 0:
            server.count("status_503")
            self._send(503, {"error": "transient"})
            return
        server.count("ok")
        self._send(
            200,
            {"choices": [{"message": {"role": "assistant", "content": entry["answer"]}}]},
        )


def main(argv: list[str]) -> int:
    with open(argv[0], encoding="utf-8") as fh:
        table = json.load(fh)
    server = Stub(table)
    print(server.server_address[1], flush=True)
    server.serve_forever()
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
