"""The default HTTP transport of ``HttpBackend`` against real servers on
127.0.0.1: keep-alive reuse, reconnects, retries, proxies and clean
closing, and a whole ``translate`` run over HTTP."""

import base64
import gc
import json
import os
import subprocess
import sys
import textwrap
import threading
import time
import warnings
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path
from urllib.parse import parse_qs, urlsplit

import pytest
from hypothesis import example, given, settings, strategies as st

from lexiforge.backends import HttpBackend, LocalIndexBackend
from lexiforge.cli import main
from lexiforge.oracle import OracleError, OracleQuery, QueryKind, SearchOracle

DATA = Path(__file__).parent / "data"
SRC = Path(__file__).resolve().parent.parent / "src"
COUNT_X = OracleQuery(QueryKind.PHRASE_COUNT, ("x",))


def json_answer(payload):
    return 200, json.dumps(payload, ensure_ascii=False).encode("utf-8"), {}


class Server:
    """A threaded HTTP server on 127.0.0.1. ``answer(handler)`` returns
    (status, body, headers) for each request; the server records every
    request line's target and counts the connections it accepts and the
    ones still open."""

    def __init__(self, answer, protocol="HTTP/1.1"):
        self.answer = answer
        self.targets = []
        self.connections = 0
        self.open_connections = 0
        lock = threading.Lock()
        server = self

        class Handler(BaseHTTPRequestHandler):
            protocol_version = protocol

            def setup(self):
                super().setup()
                with lock:
                    server.connections += 1
                    server.open_connections += 1

            def finish(self):
                try:
                    super().finish()
                finally:
                    with lock:
                        server.open_connections -= 1

            def do_GET(self):
                with lock:
                    server.targets.append(self.path)
                status, body, headers = server.answer(self)
                self.send_response(status)
                for name, value in headers.items():
                    self.send_header(name, value)
                self.send_header("Content-Length", str(len(body)))
                self.end_headers()
                self.wfile.write(body)

            do_CONNECT = do_GET

            def log_message(self, format, *args):
                pass

        self._httpd = ThreadingHTTPServer(("127.0.0.1", 0), Handler)
        # A client that gave up (timeout tests) leaves a broken pipe behind.
        self._httpd.handle_error = lambda request, address: None
        self._thread = threading.Thread(
            target=self._httpd.serve_forever, kwargs={"poll_interval": 0.01}, daemon=True
        )

    @property
    def origin(self):
        host, port = self._httpd.server_address[:2]
        return f"http://{host}:{port}"

    @property
    def url(self):
        return self.origin + "/search"

    def last_params(self):
        query = urlsplit(self.targets[-1]).query
        return {k: v[0] for k, v in parse_qs(query, keep_blank_values=True).items()}

    def wait_until_closed(self, seconds=5.0):
        deadline = time.monotonic() + seconds
        while self.open_connections and time.monotonic() < deadline:
            time.sleep(0.01)
        return self.open_connections == 0

    def __enter__(self):
        self._thread.start()
        return self

    def __exit__(self, *exc):
        self._httpd.shutdown()
        self._httpd.server_close()
        self._thread.join()


def clear_proxies(monkeypatch):
    for name in list(os.environ):
        if name.lower().endswith("_proxy"):
            monkeypatch.delenv(name)
    return monkeypatch


@pytest.fixture
def no_proxy_env(monkeypatch):
    return clear_proxies(monkeypatch)


@pytest.fixture(scope="module")
def echo_server():
    with pytest.MonkeyPatch.context() as monkeypatch, Server(
        lambda handler: json_answer({"count": 1})
    ) as server:
        clear_proxies(monkeypatch)
        yield server


# A query phrase holds no tab or line break: OracleQuery rejects them.
phrases = st.text(st.characters(blacklist_characters="\t\r\n", blacklist_categories=("Cs",)), min_size=1, max_size=40)


@settings(max_examples=60, deadline=None)
@given(phrase_a=phrases, phrase_b=phrases)
@example(phrase_a='"the snare drum" OR "a snare drum"', phrase_b="souris d'agneau")
@example(phrase_a="éclat naturel & co", phrase_b="caisse d’épargne = 100%+?#")
def test_query_parameters_round_trip(echo_server, phrase_a, phrase_b):
    backend = HttpBackend(echo_server.url, api_key="k é", rate_per_sec=0)
    try:
        assert backend.execute(OracleQuery(QueryKind.PAIR_COUNT, (phrase_a, phrase_b))) == 1
        assert echo_server.last_params() == {"kind": "pair", "q": phrase_a, "q2": phrase_b, "key": "k é"}
    finally:
        backend.close()


@pytest.mark.parametrize("protocol, connections", [("HTTP/1.1", 1), ("HTTP/1.0", 3)])
def test_one_keep_alive_connection_per_thread(no_proxy_env, protocol, connections):
    with Server(lambda handler: json_answer({"count": 4}), protocol) as server:
        backend = HttpBackend(server.url, rate_per_sec=0)
        assert [backend.execute(COUNT_X) for _ in range(3)] == [4, 4, 4]
        backend.close()
        assert server.connections == connections
        assert len(server.targets) == 3


def test_idle_connection_dropped_by_the_server_is_reopened(no_proxy_env, monkeypatch):
    def answer_then_hang_up(handler):
        handler.close_connection = True  # without saying so in a header
        return json_answer({"count": 4})

    sleeps = []
    monkeypatch.setattr("time.sleep", sleeps.append)
    with Server(answer_then_hang_up) as server:
        backend = HttpBackend(server.url, rate_per_sec=0)
        assert [backend.execute(COUNT_X) for _ in range(3)] == [4, 4, 4]
        backend.close()
    assert len(server.targets) == 3
    assert sleeps == []  # reconnecting is not a retry


def test_timeout_is_retried_on_a_new_connection(no_proxy_env, monkeypatch):
    release = threading.Event()
    server = Server(None)

    def slow_first(handler):
        if len(server.targets) == 1:
            release.wait(2.0)
        return json_answer({"count": 3})

    server.answer = slow_first
    sleeps = []
    monkeypatch.setattr("time.sleep", sleeps.append)
    with server:
        backend = HttpBackend(server.url, rate_per_sec=0, timeout=0.2)
        try:
            assert backend.execute(COUNT_X) == 3
        finally:
            release.set()
            backend.close()
        assert len(server.targets) == 2
        assert server.connections == 2
    assert sleeps == [0.5]


@pytest.mark.parametrize(
    "response",
    [(404, b'{"error": "no such endpoint"}', {}), (200, b"<html>busy</html>", {"Content-Type": "text/html"})],
)
def test_client_error_and_non_json_body_fail_fast(no_proxy_env, monkeypatch, response):
    sleeps = []
    monkeypatch.setattr("time.sleep", sleeps.append)
    with Server(lambda handler: response) as server:
        backend = HttpBackend(server.url, rate_per_sec=0, max_retries=3)
        with pytest.raises(OracleError):
            backend.execute(COUNT_X)
        backend.close()
        assert len(server.targets) == 1
    assert sleeps == []


@pytest.mark.parametrize(
    "credentials, authorization",
    [("", None), ("user:p%40ss@", "Basic " + base64.b64encode(b"user:p@ss").decode())],
)
def test_http_proxy_gets_the_absolute_url(no_proxy_env, credentials, authorization):
    seen = []

    def proxy_answer(handler):
        seen.append(handler.headers.get("Proxy-Authorization"))
        return json_answer({"count": 7})

    with Server(proxy_answer) as proxy:
        no_proxy_env.setenv("http_proxy", proxy.origin.replace("http://", "http://" + credentials))
        backend = HttpBackend("http://search.invalid:8080/api", rate_per_sec=0)
        assert backend.execute(OracleQuery(QueryKind.PHRASE_COUNT, ("la caisse",))) == 7
        backend.close()
    assert proxy.targets == ["http://search.invalid:8080/api?kind=count&q=la+caisse"]
    assert seen == [authorization]


def test_no_proxy_bypasses_the_proxy(no_proxy_env):
    with Server(lambda handler: json_answer({"count": 7})) as proxy, Server(
        lambda handler: json_answer({"count": 8})
    ) as engine:
        no_proxy_env.setenv("http_proxy", proxy.origin)
        no_proxy_env.setenv("no_proxy", "example.org, 127.0.0.1")
        backend = HttpBackend(engine.url, rate_per_sec=0)
        assert backend.execute(COUNT_X) == 8
        backend.close()
    assert proxy.targets == []
    assert engine.targets == ["/search?kind=count&q=x"]


def test_https_endpoint_is_tunnelled_through_the_proxy(no_proxy_env):
    with Server(lambda handler: (502, b"", {})) as proxy:
        no_proxy_env.setenv("https_proxy", proxy.origin)
        backend = HttpBackend("https://search.invalid/api", rate_per_sec=0, max_retries=1)
        with pytest.raises(OracleError, match="Tunnel connection failed"):
            backend.execute(COUNT_X)
        backend.close()
    assert proxy.targets == ["search.invalid:443"]


def test_close_leaves_no_open_socket(no_proxy_env):
    with Server(lambda handler: json_answer({"count": 2})) as server:
        backend = HttpBackend(server.url, rate_per_sec=0)
        oracle = SearchOracle(backend, max_parallel=2)
        workers = [
            threading.Thread(target=oracle.phrase_count, args=(f"phrase {i}",)) for i in range(2)
        ]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join()
        assert server.connections == 2
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", ResourceWarning)
            oracle.close()
            del oracle, backend, workers
            gc.collect()
        assert server.wait_until_closed()
    assert [w for w in caught if issubclass(w.category, ResourceWarning)] == []


def test_translate_over_http_matches_offline_run_without_requests(tmp_path, capsys):
    index = LocalIndexBackend.from_jsonl(DATA / "docs.jsonl")
    kinds = {"count": QueryKind.PHRASE_COUNT, "pair": QueryKind.PAIR_COUNT,
             "snippets": QueryKind.SNIPPETS, "mixed": QueryKind.MIXED_SNIPPETS}

    def engine_answer(handler):
        params = {k: v[0] for k, v in parse_qs(urlsplit(handler.path).query).items()}
        phrases = (params["q"], params["q2"]) if "q2" in params else (params["q"],)
        limit = int(params["limit"]) if "limit" in params else None
        value = index.execute(OracleQuery(kinds[params["kind"]], phrases, params.get("lang"), limit))
        if isinstance(value, int):
            return json_answer({"count": value})
        return json_answer({"snippets": [{"text": s.text, "doc_id": s.doc_id} for s in value]})

    config = tmp_path / "run.config"
    config.write_text((DATA / "run.config").read_text(encoding="utf-8") + "oracle.rate_per_sec = 0\n",
                      encoding="utf-8")
    cache = tmp_path / "run.cache"
    script = textwrap.dedent(
        """
        import sys
        from lexiforge.cli import main
        code = main(sys.argv[1:])
        print("loaded:", sorted({"requests", "urllib3"} & set(sys.modules)))
        sys.exit(code)
        """
    )
    env = {k: v for k, v in os.environ.items() if not k.lower().endswith("_proxy")}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    with Server(engine_answer) as engine:
        done = subprocess.run(
            [sys.executable, "-X", "dev", "-c", script, "translate",
             "--ulcs", str(DATA / "ulcs.tsv"), "--dictionary", str(DATA / "dictionary.tsv"),
             "--config", str(config), "--backend", "http", "--endpoint", engine.url,
             "--cache", str(cache), "--out-dir", str(tmp_path / "http")],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert engine.wait_until_closed()
    assert done.returncode == 0, done.stderr
    assert "loaded: []" in done.stdout
    assert "ResourceWarning" not in done.stderr
    # one request per recorded answer: no retries, nothing asked twice
    assert len(engine.targets) == len(cache.read_text(encoding="utf-8").splitlines())

    offline = ["translate", "--ulcs", str(DATA / "ulcs.tsv"), "--dictionary", str(DATA / "dictionary.tsv"),
               "--config", str(DATA / "run.config"), "--offline", "--cache", str(DATA / "e2e.cache"),
               "--out-dir", str(tmp_path / "offline")]
    assert main(offline) == 0
    capsys.readouterr()
    for name in ("lexicon.tsv", "summary.tsv"):
        assert (tmp_path / "http" / name).read_bytes() == (tmp_path / "offline" / name).read_bytes()


@pytest.mark.parametrize("endpoint", ["search.example/api", "ftp://search.example/api"])
def test_endpoint_that_is_not_an_http_url_exits_2(tmp_path, capsys, endpoint):
    code = main(["translate", "--ulcs", str(DATA / "ulcs.tsv"), "--dictionary", str(DATA / "dictionary.tsv"),
                 "--backend", "http", "--endpoint", endpoint, "--out-dir", str(tmp_path)])
    assert code == 2
    assert capsys.readouterr().err == f"error: oracle.endpoint must be an http or https URL, got {endpoint!r}\n"
