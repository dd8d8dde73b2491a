"""HTTP/1.1 client for ``backends.HttpBackend``, on the standard library.

One keep-alive connection per worker thread, environment proxies resolved
once, TLS against the system CA store, and the ``Retry-After`` header read
back as seconds.
"""

from __future__ import annotations

import email.utils
import http.client
import json
import ssl
import threading
import time
from base64 import b64encode
from datetime import timezone
from urllib.parse import unquote, urlencode, urlsplit
from urllib.request import getproxies, proxy_bypass

from .config import ConfigError


class HttpResponse:
    """Status, headers and body of one answered GET."""

    __slots__ = ("status_code", "headers", "body")

    def __init__(self, status_code: int, headers, body: bytes):
        self.status_code = status_code
        self.headers = headers
        self.body = body

    def json(self):
        return json.loads(self.body)


class HttpTransport:
    """GETs to one endpoint over one persistent connection per thread.

    The proxy (``http_proxy``/``https_proxy``, unless ``no_proxy`` names the
    host) is resolved once, here: through it a request names its absolute
    URL, and an HTTPS endpoint is tunnelled with CONNECT. TLS checks the
    certificate and host name against the system CA store. A connection is
    closed after any exception and whenever the server says it will close
    it; the next request reconnects.
    """

    def __init__(self, endpoint: str):
        url = urlsplit(endpoint)
        if url.scheme not in ("http", "https") or not url.hostname:
            raise ConfigError(f"oracle.endpoint must be an http or https URL, got {endpoint!r}")
        self.endpoint = endpoint
        https = url.scheme == "https"
        host, port = url.hostname, url.port or (443 if https else 80)
        authority = host if ":" not in host else f"[{host}]"
        if url.port:
            authority += f":{url.port}"
        target = (url.path or "/") + "?" + (url.query + "&" if url.query else "")
        self._headers = {"Accept": "application/json", "User-Agent": "lexiforge"}
        self._context = ssl.create_default_context() if https else None
        self._address = (host, port)
        self._tunnel: tuple[str, int, dict] | None = None
        proxy = getproxies().get(url.scheme)
        if proxy and not proxy_bypass(authority):
            proxy_url = urlsplit(proxy if "://" in proxy else "http://" + proxy)
            self._address = (proxy_url.hostname, proxy_url.port or 80)
            auth = {}
            if proxy_url.username:
                user_pass = f"{unquote(proxy_url.username)}:{unquote(proxy_url.password or '')}"
                auth["Proxy-Authorization"] = "Basic " + b64encode(user_pass.encode()).decode()
            if https:
                self._tunnel = (host, port, auth)
            else:
                target = f"http://{authority}{target}"
                self._headers.update(auth)
        self._target = target
        self._local = threading.local()
        self._lock = threading.Lock()
        self._connections: list[http.client.HTTPConnection] = []

    def _connection(self, timeout: float | None) -> http.client.HTTPConnection:
        conn = getattr(self._local, "conn", None)
        if conn is None:
            if self._context is not None:
                conn = http.client.HTTPSConnection(*self._address, timeout=timeout, context=self._context)
            else:
                conn = http.client.HTTPConnection(*self._address, timeout=timeout)
            if self._tunnel is not None:
                host, port, headers = self._tunnel
                conn.set_tunnel(host, port, headers)
            self._local.conn = conn
            with self._lock:
                self._connections.append(conn)
        elif conn.timeout != timeout:
            conn.close()  # reconnects with the new timeout
            conn.timeout = timeout
        return conn

    def get(self, url: str, params=None, timeout: float | None = None) -> HttpResponse:
        if url != self.endpoint:
            raise ValueError(f"transport for {self.endpoint!r} asked for {url!r}")
        target = self._target + urlencode(params or {})
        conn = self._connection(timeout)
        reused = conn.sock is not None
        try:
            return self._send(conn, target)
        except ConnectionError:
            # A server may drop a keep-alive connection while it sits idle;
            # the request then fails unanswered, so send it once more.
            if not reused:
                raise
            return self._send(conn, target)

    def _send(self, conn: http.client.HTTPConnection, target: str) -> HttpResponse:
        try:
            conn.request("GET", target, headers=self._headers)
            response = conn.getresponse()
            body = response.read()
        except BaseException:
            conn.close()
            raise
        # When the response says the server will close (HTTP/1.0, or
        # "Connection: close"), getresponse has already closed conn.
        return HttpResponse(response.status, response.headers, body)

    def close(self) -> None:
        """Close every connection opened so far; later requests reconnect."""
        with self._lock:
            for conn in self._connections:
                conn.close()


def retry_after_s(response) -> float:
    """Seconds a response's ``Retry-After`` header (delta-seconds or an
    HTTP-date) asks the client to wait; 0 when absent or unreadable."""
    value = (response.headers.get("Retry-After") or "").strip()
    if value.isascii() and value.isdigit():
        return float(value)
    try:
        when = email.utils.parsedate_to_datetime(value)
    except (TypeError, ValueError):
        return 0.0
    if when.tzinfo is None:
        when = when.replace(tzinfo=timezone.utc)
    return max(0.0, when.timestamp() - time.time())
