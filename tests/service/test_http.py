"""Tests for the minimal HTTP layer under the sweep service."""

import http.client
import json
import socket
import threading
import time

import pytest

from repro.service import http as http_layer
from repro.service.http import (
    MAX_BODY_BYTES,
    HttpError,
    HttpRequest,
    HttpResponse,
    Router,
    run_server_in_thread,
)


def request(method="GET", target="/", headers=None, body=b""):
    return HttpRequest(method, target, headers or {}, body)


class TestHttpRequest:
    def test_path_and_query_split(self):
        req = request(target="/v1/jobs?limit=3&limit=5&q=a%20b")
        assert req.path == "/v1/jobs"
        assert req.query == {"limit": "5", "q": "a b"}

    def test_json_happy_path(self):
        req = request(body=b'{"a": 1}')
        assert req.json() == {"a": 1}

    def test_json_empty_body_is_empty_object(self):
        assert request().json() == {}

    @pytest.mark.parametrize("body", [b"not json", b"[1, 2]", b'"str"'])
    def test_json_rejects_non_objects(self, body):
        with pytest.raises(HttpError) as err:
            request(body=body).json()
        assert err.value.status == 400


class TestHttpResponse:
    def test_encode_carries_length_and_close(self):
        wire = HttpResponse.json({"ok": True}).encode()
        head, _, body = wire.partition(b"\r\n\r\n")
        assert b"HTTP/1.1 200 OK" in head
        assert f"Content-Length: {len(body)}".encode() in head
        assert b"Connection: close" in head
        assert json.loads(body) == {"ok": True}


class TestRouter:
    def make(self):
        router = Router()
        router.add("GET", "/v1/jobs", lambda req: HttpResponse.json("list"))
        router.add(
            "GET", "/v1/jobs/{job_id}",
            lambda req, job_id: HttpResponse.json(job_id),
        )
        router.add(
            "POST", "/v1/jobs/{job_id}/cancel",
            lambda req, job_id: HttpResponse.json(f"cancel {job_id}"),
        )
        return router

    def body(self, response):
        return json.loads(response.body)

    def test_literal_and_capture_dispatch(self):
        router = self.make()
        assert self.body(router.dispatch(request(target="/v1/jobs"))) == "list"
        assert self.body(
            router.dispatch(request(target="/v1/jobs/job-0001"))
        ) == "job-0001"
        assert self.body(router.dispatch(
            request("POST", "/v1/jobs/job-7/cancel")
        )) == "cancel job-7"

    def test_wrong_method_is_405(self):
        with pytest.raises(HttpError) as err:
            self.make().dispatch(request("DELETE", "/v1/jobs"))
        assert err.value.status == 405

    def test_unknown_path_is_404(self):
        with pytest.raises(HttpError) as err:
            self.make().dispatch(request(target="/v1/nope"))
        assert err.value.status == 404


class TestThreadedServer:
    """Real sockets: one loopback server per test, stdlib client."""

    def roundtrip(self, handler, method="GET", path="/", body=None):
        server = run_server_in_thread(handler)
        try:
            conn = http.client.HTTPConnection(
                "127.0.0.1", server.port, timeout=10.0
            )
            headers = {"Content-Type": "application/json"} if body else {}
            conn.request(method, path, body=body, headers=headers)
            response = conn.getresponse()
            return response.status, response.read()
        finally:
            server.stop()

    def test_request_response_roundtrip(self):
        def echo(req):
            return HttpResponse.json({
                "method": req.method,
                "path": req.path,
                "body": req.json(),
            })

        status, body = self.roundtrip(
            echo, "POST", "/echo", json.dumps({"x": 1}).encode()
        )
        assert status == 200
        assert json.loads(body) == {
            "method": "POST", "path": "/echo", "body": {"x": 1},
        }

    def test_http_error_becomes_json_error(self):
        def refuse(req):
            raise HttpError(409, "not now")

        status, body = self.roundtrip(refuse)
        assert status == 409
        assert json.loads(body) == {"error": "not now"}

    def test_handler_crash_becomes_500(self):
        def crash(req):
            raise RuntimeError("kaboom")

        status, body = self.roundtrip(crash)
        assert status == 500
        assert "internal" in json.loads(body)["error"]


def exchange(port, data):
    """Send raw bytes, read until the server closes; return the wire."""
    with socket.create_connection(("127.0.0.1", port), timeout=10.0) as sock:
        sock.sendall(data)
        chunks = []
        while True:
            chunk = sock.recv(65536)
            if not chunk:
                break
            chunks.append(chunk)
    return b"".join(chunks)


def split_wire(wire):
    """``(status, head lines, body)`` of one raw response."""
    head, _, body = wire.partition(b"\r\n\r\n")
    lines = head.decode("ascii").split("\r\n")
    return int(lines[0].split(" ")[1]), lines, body


def json_error(wire, status):
    got, lines, body = split_wire(wire)
    assert got == status, wire
    assert "Content-Type: application/json" in lines
    assert f"Content-Length: {len(body)}" in lines
    return json.loads(body)["error"]


class TestWireContract:
    """Raw-socket checks of exactly what a client sees on the wire."""

    @pytest.fixture
    def server(self):
        router = Router()
        router.add("GET", "/v1/jobs", lambda req: HttpResponse.json([]))
        router.add(
            "POST", "/v1/jobs",
            lambda req: HttpResponse.json(req.json(), status=201),
        )
        router.add("GET", "/conflict", self.conflict)
        router.add("GET", "/crash", self.crash)
        server = run_server_in_thread(router.dispatch)
        yield server
        server.stop()

    @staticmethod
    def conflict(req):
        raise HttpError(409, "not now")

    @staticmethod
    def crash(req):
        raise RuntimeError("kaboom")

    def get(self, server, path):
        return exchange(
            server.port, f"GET {path} HTTP/1.1\r\nHost: x\r\n\r\n".encode()
        )

    def assert_still_serving(self, server):
        assert self.get(server, "/v1/jobs") == HttpResponse.json([]).encode()

    def test_head_is_exact(self, server):
        body = b'{"x": [1, 2]}'
        wire = exchange(
            server.port,
            b"POST /v1/jobs HTTP/1.1\r\nHost: x\r\n"
            b"Content-Length: %d\r\n\r\n%s" % (len(body), body),
        )
        status, lines, payload = split_wire(wire)
        assert status == 201
        assert lines == [
            "HTTP/1.1 201 Created",
            "Content-Type: application/json",
            f"Content-Length: {len(payload)}",
            "Connection: close",
        ]
        assert json.loads(payload) == {"x": [1, 2]}

    @pytest.mark.parametrize("path, status, payload", [
        ("/v1/jobs", 200, []),
        ("/conflict", 409, {"error": "not now"}),
        ("/crash", 500, {"error": "internal server error"}),
        ("/v1/nope", 404, {"error": "no route for /v1/nope"}),
    ])
    def test_handler_outcomes_are_byte_exact(
        self, server, path, status, payload
    ):
        expected = HttpResponse.json(payload, status=status).encode()
        assert self.get(server, path) == expected

    def test_wrong_method_is_405_json(self, server):
        wire = exchange(
            server.port, b"DELETE /v1/jobs HTTP/1.1\r\nHost: x\r\n\r\n"
        )
        assert wire == HttpResponse.json(
            {"error": "method DELETE not allowed here"}, status=405
        ).encode()
        self.assert_still_serving(server)

    def test_oversized_content_length_refused_unread(self, server):
        # only the head is sent: the server must answer without waiting
        # for a body it will never accept
        size = MAX_BODY_BYTES + 1
        wire = exchange(
            server.port,
            b"POST /v1/jobs HTTP/1.1\r\nHost: x\r\n"
            b"Content-Length: %d\r\n\r\n" % size,
        )
        assert wire == HttpResponse.json(
            {"error": f"body of {size} bytes refused"}, status=413
        ).encode()
        self.assert_still_serving(server)

    @pytest.mark.parametrize("value, status, error", [
        ("abc", 400, "bad Content-Length 'abc'"),
        ("1.5", 400, "bad Content-Length '1.5'"),
        ("-1", 413, "body of -1 bytes refused"),
    ])
    def test_bad_content_length(self, server, value, status, error):
        wire = exchange(
            server.port,
            f"POST /v1/jobs HTTP/1.1\r\nHost: x\r\n"
            f"Content-Length: {value}\r\n\r\n".encode(),
        )
        assert wire == HttpResponse.json({"error": error}, status).encode()
        self.assert_still_serving(server)

    @pytest.mark.parametrize("line", [b"garbage", b"GET /a b c HTTP/1.1"])
    def test_garbage_request_line_is_400_json(self, server, line):
        wire = exchange(server.port, line + b"\r\nHost: x\r\n\r\n")
        assert json_error(wire, 400)
        assert b"<html" not in wire.lower()
        self.assert_still_serving(server)

    def test_oversized_header_block_is_4xx_json(self, server):
        pad = "".join(f"X-Pad-{i}: {'a' * 600}\r\n" for i in range(120))
        wire = exchange(
            server.port,
            f"GET /v1/jobs HTTP/1.1\r\nHost: x\r\n{pad}\r\n".encode(),
        )
        status, _, _ = split_wire(wire)
        assert 400 <= status < 500
        assert json_error(wire, status)
        self.assert_still_serving(server)

    def test_client_hanging_up_mid_body_never_reaches_the_handler(self):
        calls = []

        def record(req):
            calls.append(req.body)
            return HttpResponse.json("ok")

        server = run_server_in_thread(record)
        try:
            with socket.create_connection(("127.0.0.1", server.port)) as sock:
                sock.sendall(
                    b"POST / HTTP/1.1\r\nContent-Length: 100\r\n\r\n{}"
                )
            assert exchange(server.port, b"GET / HTTP/1.1\r\n\r\n") == (
                HttpResponse.json("ok").encode()
            )
        finally:
            server.stop()
        assert calls == [b""]

    def test_no_access_log_on_stderr(self, server, capfd):
        self.get(server, "/v1/jobs")
        self.get(server, "/v1/nope")
        exchange(server.port, b"garbage\r\n\r\n")
        assert capfd.readouterr().err == ""


class TestServerLifecycle:
    def test_stop_is_prompt_and_frees_the_port(self):
        server = run_server_in_thread(lambda req: HttpResponse.json("ok"))
        port = server.port
        assert exchange(port, b"GET / HTTP/1.1\r\n\r\n") == (
            HttpResponse.json("ok").encode()
        )
        time.sleep(0.1)  # the serving thread is back waiting for work
        start = time.monotonic()
        server.stop()
        assert time.monotonic() - start < 0.25
        assert not server.thread.is_alive()
        with pytest.raises(ConnectionRefusedError):
            socket.create_connection(("127.0.0.1", port), timeout=2.0)
        with socket.socket() as sock:
            sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
            sock.bind(("127.0.0.1", port))
            sock.listen()

    def test_stalled_client_times_out_quietly(self, monkeypatch, capfd):
        # the one serving thread must not wait forever on a client that
        # connects and sends nothing, nor log the timeout to stderr
        monkeypatch.setattr(http_layer._RequestHandler, "timeout", 0.2)
        server = run_server_in_thread(lambda req: HttpResponse.json("ok"))
        try:
            with socket.create_connection(("127.0.0.1", server.port)):
                start = time.monotonic()
                assert exchange(server.port, b"GET / HTTP/1.1\r\n\r\n") == (
                    HttpResponse.json("ok").encode()
                )
                assert time.monotonic() - start < 5.0
        finally:
            server.stop()
        assert capfd.readouterr().err == ""

    def test_listen_backlog_absorbs_a_burst(self):
        # While the one serving thread is parked in a handler, new
        # connections wait in the kernel's accept queue; a backlog of 5
        # (socketserver's default) would drop the SYNs of this burst.
        release = threading.Event()

        def slow(req):
            release.wait(10.0)
            return HttpResponse.json("ok")

        server = run_server_in_thread(slow)
        address = ("127.0.0.1", server.port)
        socks = [socket.create_connection(address, timeout=10.0)]
        try:
            socks[0].sendall(b"GET / HTTP/1.1\r\n\r\n")
            for _ in range(50):
                socks.append(socket.create_connection(address, timeout=1.0))
        finally:
            release.set()
            for sock in socks:
                sock.close()
            server.stop()
