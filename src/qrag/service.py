"""Minimal HTTP search service over a loaded engine.

Endpoints:
  GET  /v1/health          -> {"status": "ok", "chunks": N}
  POST /v1/search          -> retrieval response JSON
       body: {"query": str, "mode": str?, "k": int?}

Errors are returned as {"error": str} with a 4xx/5xx status; a request body
over ``MAX_BODY_BYTES`` gets a 413 without being read, and a query over
``MAX_QUERY_CHARS`` characters a 400. A connection that sends nothing for
``REQUEST_TIMEOUT_S`` seconds, say a body shorter than its Content-Length,
is closed, so a stalled client cannot hold a handler thread. At most
``MAX_HANDLERS`` connections are handled at once; one more is answered 503
{"error": "server busy"} and closed. The engine is immutable, so one shared
instance serves concurrent requests.
"""

from __future__ import annotations

import json
import logging
import socket
import sys
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

from .engine import RetrievalEngine
from .quantum import FUSION_MODES

logger = logging.getLogger(__name__)

MAX_BODY_BYTES = 1 << 20
# One query's own cap inside the body cap: about eight times the longest
# planted query (about 70 words, under 500 characters).
MAX_QUERY_CHARS = 4096
# Seconds a socket read or write may block before the connection is dropped.
REQUEST_TIMEOUT_S = 10.0
# Connections handled at once, each on its own thread.
MAX_HANDLERS = 64
_BUSY_BODY = json.dumps({"error": "server busy"}).encode("utf-8")
_BUSY_RESPONSE = (
    b"HTTP/1.1 503 Service Unavailable\r\n"
    b"Content-Type: application/json; charset=utf-8\r\n"
    b"Content-Length: %d\r\nConnection: close\r\n\r\n" % len(_BUSY_BODY)
) + _BUSY_BODY


class SearchHandler(BaseHTTPRequestHandler):
    server: "SearchServer"
    timeout = REQUEST_TIMEOUT_S

    def _send_json(self, status: int, payload: dict) -> None:
        body = json.dumps(payload, ensure_ascii=False, sort_keys=True).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json; charset=utf-8")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def log_message(self, fmt: str, *args) -> None:
        # Formatted by logging, and only when DEBUG is on.
        logger.debug("%s - " + fmt, self.address_string(), *args)

    def do_GET(self) -> None:
        if self.path == "/v1/health":
            self._send_json(
                200, {"status": "ok", "chunks": self.server.engine.chunk_count}
            )
        else:
            self._send_json(404, {"error": f"not found: {self.path}"})

    def do_POST(self) -> None:
        if self.path != "/v1/search":
            self._send_json(404, {"error": f"not found: {self.path}"})
            return
        header = self.headers.get("Content-Length", "0")
        if not header.isdecimal():  # refuses a negative length too
            self._send_json(400, {"error": "invalid Content-Length"})
            return
        length = int(header)
        if length > MAX_BODY_BYTES:
            self._send_json(413, {"error": f"body exceeds {MAX_BODY_BYTES} bytes"})
            return
        try:
            payload = json.loads(self.rfile.read(length).decode("utf-8"))
        except (ValueError, UnicodeDecodeError, RecursionError):  # the last: nested too deep
            self._send_json(400, {"error": "invalid JSON body"})
            return
        if not isinstance(payload, dict) or not isinstance(payload.get("query"), str):
            self._send_json(400, {"error": "body must include a string 'query'"})
            return
        if len(payload["query"]) > MAX_QUERY_CHARS:
            self._send_json(
                400, {"error": f"query exceeds {MAX_QUERY_CHARS} characters"}
            )
            return
        mode = payload.get("mode")
        if mode is not None and mode not in FUSION_MODES:
            self._send_json(400, {"error": f"unknown mode: {mode}"})
            return
        k = payload.get("k")
        if k is not None and (type(k) is not int or k < 1):
            self._send_json(400, {"error": "k must be a positive integer"})
            return
        try:
            response = self.server.engine.retrieve(
                payload["query"], mode=mode, k_final=k
            )
        except ValueError as exc:
            self._send_json(400, {"error": str(exc)})
            return
        except Exception as exc:  # defensive: never leak a traceback to clients
            logger.exception("search failed")
            self._send_json(500, {"error": str(exc)})
            return
        self._send_json(200, response.to_dict())


class SearchServer(ThreadingHTTPServer):
    daemon_threads = True

    def __init__(self, address: tuple[str, int], engine: RetrievalEngine) -> None:
        super().__init__(address, SearchHandler)
        self.engine = engine
        self._slots = threading.BoundedSemaphore(MAX_HANDLERS)

    def process_request(self, request, client_address) -> None:
        """Hand the connection to a thread if a slot is free, else refuse it."""
        if not self._slots.acquire(blocking=False):
            self._refuse(request)
            return
        try:
            super().process_request(request, client_address)
        except BaseException:
            self._slots.release()
            raise

    def process_request_thread(self, request, client_address) -> None:
        try:
            super().process_request_thread(request, client_address)
        finally:
            self._slots.release()

    def _refuse(self, request: socket.socket) -> None:
        """Answer 503 without reading the request, then close.

        Whatever the client has already sent is drained first, so that the
        close does not reset the connection before the answer is read.
        """
        try:
            request.setblocking(False)
            request.sendall(_BUSY_RESPONSE)
            request.shutdown(socket.SHUT_WR)
            while request.recv(65536):
                pass
        except OSError:  # nothing more to drain, or the client is gone
            pass
        request.close()

    def handle_error(self, request, client_address) -> None:
        """Log a request's uncaught error instead of printing it to stderr.

        A client that drops its connection before the reply is routine, so
        it is logged at DEBUG without a traceback.
        """
        exc = sys.exc_info()[1]
        if isinstance(exc, (BrokenPipeError, ConnectionResetError)):
            logger.debug("client %s dropped the connection: %r", client_address, exc)
        else:
            logger.exception("error serving %s", client_address)


def make_server(engine: RetrievalEngine, host: str = "127.0.0.1", port: int = 8080) -> SearchServer:
    return SearchServer((host, port), engine)


def serve_forever(engine: RetrievalEngine, host: str, port: int) -> None:
    server = make_server(engine, host, port)
    logger.info("serving on http://%s:%d", *server.server_address)
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.server_close()
