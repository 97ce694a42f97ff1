"""Minimal HTTP/1.1 layer over stdlib ``http.server``, no frameworks.

:func:`run_server_in_thread` serves a synchronous handler
``(HttpRequest) -> HttpResponse`` from a single-threaded
``HTTPServer`` on a daemon thread, one request per connection
(``Connection: close``).  The routes in :mod:`repro.service.server`
only touch in-memory state under short-lived locks and small files, so
running them one at a time costs nothing.  Every response, errors
included, is one :meth:`HttpResponse.encode` write: no stdlib
``Server``/``Date`` headers, no HTML error page.  Not supported:
chunked transfer, keep-alive, TLS — the service binds loopback by
default and every client we ship speaks this subset.
"""

from __future__ import annotations

import json
import logging
import threading
from http.server import BaseHTTPRequestHandler, HTTPServer
from typing import Callable, Optional
from urllib.parse import parse_qs, unquote, urlsplit

_log = logging.getLogger("repro.service.http")

#: refuse request bodies beyond this (the largest legitimate payload is
#: a completed chunk of pickled results; smoke-scale chunks are ~100 kB)
MAX_BODY_BYTES = 256 * 1024 * 1024

#: how often ``serve_forever`` checks for :meth:`BackgroundServer.stop`
POLL_INTERVAL_S = 0.05


class HttpError(Exception):
    """Raise inside a handler to produce a non-200 JSON response."""

    def __init__(self, status: int, message: str) -> None:
        super().__init__(status, message)
        self.status = status
        self.message = message


class HttpRequest:
    """One parsed request: method, path, query mapping, body bytes."""

    def __init__(
        self, method: str, target: str, headers: dict[str, str], body: bytes
    ) -> None:
        self.method = method
        parts = urlsplit(target)
        self.path = unquote(parts.path)
        self.query: dict[str, str] = {
            k: v[-1] for k, v in parse_qs(parts.query).items()
        }
        self.headers = headers
        self.body = body

    def json(self) -> dict:
        """Decode the body as a JSON object (400 on anything else)."""
        if not self.body:
            return {}
        try:
            payload = json.loads(self.body.decode("utf-8"))
        except (UnicodeDecodeError, ValueError):
            raise HttpError(400, "request body is not valid JSON") from None
        if not isinstance(payload, dict):
            raise HttpError(400, "request body must be a JSON object")
        return payload


class HttpResponse:
    """Status + body; :meth:`json` builds the common case."""

    REASONS = {
        200: "OK", 201: "Created", 204: "No Content", 400: "Bad Request",
        404: "Not Found", 405: "Method Not Allowed", 409: "Conflict",
        413: "Payload Too Large", 414: "URI Too Long",
        431: "Request Header Fields Too Large",
        500: "Internal Server Error", 501: "Not Implemented",
        503: "Service Unavailable", 505: "HTTP Version Not Supported",
    }

    def __init__(
        self, status: int = 200, body: bytes = b"",
        content_type: str = "application/octet-stream",
    ) -> None:
        self.status = status
        self.body = body
        self.content_type = content_type

    @classmethod
    def json(cls, payload: object, status: int = 200) -> "HttpResponse":
        data = (json.dumps(payload, sort_keys=True) + "\n").encode("utf-8")
        return cls(status, data, "application/json")

    def encode(self) -> bytes:
        reason = self.REASONS.get(self.status, "Unknown")
        head = (
            f"HTTP/1.1 {self.status} {reason}\r\n"
            f"Content-Type: {self.content_type}\r\n"
            f"Content-Length: {len(self.body)}\r\n"
            f"Connection: close\r\n"
            f"\r\n"
        )
        return head.encode("ascii") + self.body


Handler = Callable[[HttpRequest], HttpResponse]


class _RequestHandler(BaseHTTPRequestHandler):
    """Adapts one stdlib request to the server's :data:`Handler`."""

    server: "BackgroundServer"
    timeout = 10.0  # seconds a stalled client may hold the serving thread

    def _serve(self) -> None:
        try:
            response = self.server.handler(self._read_request())
        except HttpError as err:
            response = HttpResponse.json(
                {"error": err.message}, status=err.status
            )
        except Exception:  # repro-lint: disable=EXC001 -- connection
            # boundary: one bad request must not take the service
            # down; the traceback is logged and the client gets 500
            _log.exception("handler crashed")
            response = HttpResponse.json(
                {"error": "internal server error"}, status=500
            )
        self.wfile.write(response.encode())

    # the Router answers 404/405, so every common method reaches it
    do_GET = do_POST = do_PUT = do_DELETE = do_PATCH = _serve
    do_HEAD = do_OPTIONS = _serve

    def _read_request(self) -> HttpRequest:
        headers = {
            name.lower(): value.strip() for name, value in self.headers.items()
        }
        length_text = headers.get("content-length", "0")
        try:
            length = int(length_text)
        except ValueError:
            raise HttpError(400, f"bad Content-Length {length_text!r}") from None
        if length < 0 or length > MAX_BODY_BYTES:
            raise HttpError(413, f"body of {length} bytes refused")
        body = self.rfile.read(length) if length else b""
        if len(body) < length:  # the client hung up mid-body
            raise HttpError(400, "request body truncated")
        return HttpRequest(self.command, self.path, headers, body)

    def handle(self) -> None:
        try:
            super().handle()
        except ConnectionError:
            pass  # client went away mid-request; nothing to salvage

    def send_error(
        self, code: int, message: Optional[str] = None,
        explain: Optional[str] = None,
    ) -> None:
        """Protocol errors stdlib detects get the JSON error shape too."""
        if message is None:
            message = self.responses.get(code, ("error",))[0]
        self.wfile.write(
            HttpResponse.json({"error": message}, status=code).encode()
        )

    def log_message(self, format: str, *args: object) -> None:
        pass  # no per-request access log


class BackgroundServer(HTTPServer):
    """A bound single-threaded server answering on a daemon thread."""

    request_queue_size = 100  # listen backlog; socketserver's 5 drops bursts

    def __init__(self, handler: Handler, host: str, port: int) -> None:
        super().__init__((host, port), _RequestHandler)
        self.handler = handler
        self.port = self.server_port
        self.thread = threading.Thread(
            target=self.serve_forever, args=(POLL_INTERVAL_S,),
            name="repro-http", daemon=True,
        )

    def stop(self, timeout: float = 10.0) -> None:
        """Stop serving, free the port and join the thread."""
        self.shutdown()
        self.server_close()
        self.thread.join(timeout=timeout)


def run_server_in_thread(
    handler: Handler, host: str = "127.0.0.1", port: int = 0,
) -> BackgroundServer:
    """Serve ``handler`` on a daemon thread (tests, service).

    Returns once the socket is bound; ``.port`` is the live port and
    ``.stop()`` shuts the server down.
    """
    server = BackgroundServer(handler, host, port)
    server.thread.start()
    _log.info("listening on http://%s:%d", host, server.port)
    return server


RouteHandler = Callable[..., HttpResponse]


class Router:
    """Tiny path router: literal segments plus ``{name}`` captures."""

    def __init__(self) -> None:
        self._routes: list[tuple[str, list[str], RouteHandler]] = []

    def add(self, method: str, pattern: str, handler: RouteHandler) -> None:
        self._routes.append(
            (method.upper(), pattern.strip("/").split("/"), handler)
        )

    def dispatch(self, request: HttpRequest) -> HttpResponse:
        segments = request.path.strip("/").split("/")
        path_matched = False
        for method, pattern, handler in self._routes:
            params = self._match(pattern, segments)
            if params is None:
                continue
            path_matched = True
            if method != request.method:
                continue
            return handler(request, **params)
        if path_matched:
            raise HttpError(405, f"method {request.method} not allowed here")
        raise HttpError(404, f"no route for {request.path}")

    @staticmethod
    def _match(
        pattern: list[str], segments: list[str]
    ) -> Optional[dict[str, str]]:
        if len(pattern) != len(segments):
            return None
        params: dict[str, str] = {}
        for part, segment in zip(pattern, segments):
            if part.startswith("{") and part.endswith("}"):
                if not segment:
                    return None
                params[part[1:-1]] = segment
            elif part != segment:
                return None
        return params
