"""`HttpModelClient` against a loopback HTTP server, so the real
`urllib.request` and `http.client` path runs: the body on the wire, the
statuses that are retried or fatal, a reply cut off mid-body, a reply
that is not JSON, and a server that stalls past the request timeout."""

import contextlib
import http.server
import json
import os
import threading
import time

import pytest

from clipcritic import modelclient
from clipcritic.core import FatalError
from clipcritic.fixtures import FrameRef
from clipcritic.modelclient import (
    MAX_ATTEMPTS,
    FatalTransportError,
    FramesPart,
    HttpModelClient,
    ModelRequest,
    ModelTransportError,
    TextPart,
    text_request,
)

ANSWER = b'{"text": "Final Answer: (2)"}'
STALL = None  # a reply that never comes: the request is held until the server stops


@pytest.fixture(autouse=True)
def live_key(monkeypatch):
    monkeypatch.setenv("MODEL_API_KEY", "test-key")
    for name in list(os.environ):  # a proxy would take the request off the loopback
        if name.lower().endswith("_proxy"):
            monkeypatch.delenv(name)


@contextlib.contextmanager
def serve(*replies):
    """Serve one POST per `(status, body[, content_length])` reply, or
    STALL, in order, on 127.0.0.1; yields the endpoint and the list of
    request bodies and headers received. A content length is that of the
    body unless given."""
    received, stopping = [], threading.Event()

    class Handler(http.server.BaseHTTPRequestHandler):
        def do_POST(self):
            received.append((self.rfile.read(int(self.headers["Content-Length"])), self.headers))
            reply = replies[len(received) - 1]
            if reply is STALL:
                stopping.wait(5)
                return
            status, body, *length = reply
            self.send_response(status)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(length[0] if length else len(body)))
            self.end_headers()
            self.wfile.write(body)

        def log_message(self, *args):
            pass

    server = http.server.ThreadingHTTPServer(("127.0.0.1", 0), Handler)
    thread = threading.Thread(target=server.serve_forever, args=(0.01,))  # poll interval, s
    thread.start()
    try:
        yield f"http://127.0.0.1:{server.server_address[1]}/v1", received
    finally:
        stopping.set()
        server.shutdown()
        server.server_close()
        thread.join(timeout=5)
        assert not thread.is_alive()


def client(endpoint):
    return HttpModelClient(endpoint, "m", sleep=lambda s: None)


def test_the_server_receives_the_payload_as_json(tmp_path):
    (tmp_path / "f7.jpg").write_bytes(b"seven")
    req = ModelRequest(
        parts=(
            TextPart("Which frame shows the door? é"),
            FramesPart((FrameRef(7, 7.0, path=str(tmp_path / "f7.jpg")),)),
        ),
        tag="t1/C/retrieval_qa/window/0",
    )
    with serve((200, ANSWER)) as (endpoint, received):
        live = client(endpoint)
        assert live.complete(req) == "Final Answer: (2)"
    [(body, headers)] = received
    assert body == json.dumps(live._payload(req)).encode("utf-8")
    assert headers["Content-Type"] == "application/json"
    assert headers["Authorization"] == "Bearer test-key"


@pytest.mark.parametrize("status", [429, 503])
def test_a_busy_server_is_retried_then_served(status):
    with serve((status, b"{}"), (status, b"{}"), (200, ANSWER)) as (endpoint, received):
        assert client(endpoint).complete(text_request("q", tag="t1/A/0")) == "Final Answer: (2)"
    assert len(received) == 3
    assert len({body for body, _ in received}) == 1  # the same body each time


def test_a_bad_request_status_is_fatal():
    with serve((400, b'{"error": "bad request"}')) as (endpoint, received):
        with pytest.raises(FatalTransportError, match="request 't1/A/0': HTTP Error 400"):
            client(endpoint).complete(text_request("q", tag="t1/A/0"))
    assert len(received) == 1


def test_a_reply_cut_off_mid_body_is_retried():
    with serve((200, ANSWER, len(ANSWER) + 50), (200, ANSWER)) as (endpoint, received):
        assert client(endpoint).complete(text_request("q", tag="t1/A/0")) == "Final Answer: (2)"
    assert len(received) == 2


def test_a_reply_that_is_not_json_fails_its_item_after_one_attempt():
    with serve((200, b"<html>busy</html>"), (200, ANSWER)) as (endpoint, received):
        with pytest.raises(ModelTransportError, match="request 't1/A/0': ") as err:
            client(endpoint).complete(text_request("q", tag="t1/A/0"))
    assert not isinstance(err.value, FatalError)
    assert len(received) == 1


@pytest.fixture
def short_timeout(monkeypatch):
    monkeypatch.setattr(modelclient, "REQUEST_TIMEOUT_S", 0.25)


def test_a_server_that_stalls_once_is_retried_then_served(short_timeout):
    with serve(STALL, (200, ANSWER)) as (endpoint, received):
        started = time.monotonic()
        assert client(endpoint).complete(text_request("q", tag="t1/A/0")) == "Final Answer: (2)"
        assert time.monotonic() - started < 5  # the client gave up, not the stalled server
    assert len(received) == 2


def test_a_server_that_always_stalls_fails_its_item_naming_the_tag(short_timeout):
    with serve(*[STALL] * MAX_ATTEMPTS) as (endpoint, received):
        match = f"request 't1/A/0' failed after {MAX_ATTEMPTS} attempts: "
        with pytest.raises(ModelTransportError, match=match) as err:
            client(endpoint).complete(text_request("q", tag="t1/A/0"))
    assert not isinstance(err.value, FatalError)
    assert isinstance(err.value.__cause__, TimeoutError)
    assert len(received) == MAX_ATTEMPTS
