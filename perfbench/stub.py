"""In-process stub search engine speaking the protocol of ``HttpBackend``.

GET ``/search`` with ``kind`` (count|pair|snippets|mixed), ``q``, optional
``q2``, ``lang`` and ``limit``; answers ``{"count": N}`` or
``{"snippets": [{"text": ..., "doc_id": ...}]}`` from a local index. Every
answer takes the same fixed latency (the index lookup is padded up to it),
and at most ``max_connections`` requests are served at once, like an engine
with a per-client connection limit.
"""

from __future__ import annotations

import json
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from urllib.parse import parse_qs, urlsplit


class StubSearchServer:
    def __init__(self, index, latency_s: float, max_connections: int):
        from lexiforge.oracle import OracleQuery, QueryKind

        # Bound now, so that a tracer patching the backend class later
        # never counts the engine's own lookups as program work.
        self._execute = index.execute
        self._query = OracleQuery
        self._kinds = {
            "count": QueryKind.PHRASE_COUNT,
            "pair": QueryKind.PAIR_COUNT,
            "snippets": QueryKind.SNIPPETS,
            "mixed": QueryKind.MIXED_SNIPPETS,
        }
        self.latency_s = latency_s
        self._slots = threading.BoundedSemaphore(max_connections)
        self._lock = threading.Lock()
        self.requests = 0
        self.cpu_s = 0.0  # CPU spent answering, to keep out of program CPU
        self._server = ThreadingHTTPServer(("127.0.0.1", 0), _handler_for(self))
        self._server.daemon_threads = False
        self._server.block_on_close = True
        self._thread = threading.Thread(target=self._server.serve_forever, kwargs={"poll_interval": 0.05})

    @property
    def url(self) -> str:
        host, port = self._server.server_address[:2]
        return f"http://{host}:{port}/search"

    def __enter__(self) -> "StubSearchServer":
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._server.shutdown()
        self._server.server_close()  # joins the request threads
        self._thread.join()

    def answer(self, params: dict[str, str]) -> dict:
        kind = self._kinds[params["kind"]]
        phrases = (params["q"], params["q2"]) if "q2" in params else (params["q"],)
        limit = int(params["limit"]) if "limit" in params else None
        value = self._execute(self._query(kind, phrases, params.get("lang"), limit))
        if isinstance(value, int):
            return {"count": value}
        return {"snippets": [{"text": s.text, "doc_id": s.doc_id} for s in value]}

    def serve(self, params: dict[str, str]) -> tuple[int, bytes]:
        with self._slots:
            started = time.perf_counter()
            try:
                status, body = 200, json.dumps(self.answer(params), ensure_ascii=False)
            except (KeyError, ValueError) as exc:
                status, body = 400, json.dumps({"error": str(exc)})
            time.sleep(max(0.0, self.latency_s - (time.perf_counter() - started)))
        return status, body.encode("utf-8")

    def record(self, cpu_s: float) -> None:
        with self._lock:
            self.requests += 1
            self.cpu_s += cpu_s


def _handler_for(stub: StubSearchServer):
    class Handler(BaseHTTPRequestHandler):
        def do_GET(self):
            cpu_started = time.thread_time()
            params = {k: v[0] for k, v in parse_qs(urlsplit(self.path).query).items()}
            status, body = stub.serve(params)
            self.send_response(status)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(body)))
            self.end_headers()
            self.wfile.write(body)
            stub.record(time.thread_time() - cpu_started)

        def log_message(self, format, *args):
            pass

    return Handler
