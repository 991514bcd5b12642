import http.server
import json
import threading
from pathlib import Path

import pytest
from hypothesis import HealthCheck, settings

settings.register_profile(
    "default", deadline=None, suppress_health_check=[HealthCheck.too_slow]
)
settings.load_profile("default")

FIXTURES = Path(__file__).parent / "fixtures"


@pytest.fixture(scope="session")
def fixtures_dir() -> Path:
    return FIXTURES


@pytest.fixture(scope="session")
def gazetteer():
    from epix.gazetteer import default_gazetteer

    return default_gazetteer()


class _StubHandler(http.server.BaseHTTPRequestHandler):
    """Answers each POST with the next of ``responses``, repeating the last.

    A response is ``(status, body)``: a dict is sent as JSON, bytes as they
    are, and a status of None hangs up without answering. Every request is
    kept in ``seen`` as ``(path, headers, body)``.
    """

    responses = []
    seen = []

    def do_POST(self):
        length = int(self.headers.get("Content-Length", 0))
        seen = type(self).seen
        seen.append((self.path, self.headers, self.rfile.read(length)))
        status, body = self.responses[min(len(seen) - 1, len(self.responses) - 1)]
        if status is None:
            return
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        if 300 <= status < 400:
            self.send_header("Location", "/elsewhere")
        self.end_headers()
        self.wfile.write(body if isinstance(body, bytes) else json.dumps(body).encode())

    def log_message(self, *args):
        pass


@pytest.fixture()
def stub_server():
    """A local chat-completion server on a free port: its handler class and endpoint."""

    class Handler(_StubHandler):
        responses = []
        seen = []

    server = http.server.ThreadingHTTPServer(("127.0.0.1", 0), Handler)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    yield Handler, f"http://127.0.0.1:{server.server_port}/v1/chat/completions"
    server.shutdown()
    server.server_close()
