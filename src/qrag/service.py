"""Minimal HTTP search service over a loaded engine.

Endpoints:
  GET  /v1/health          -> {"status": "ok", "chunks": N}
  POST /v1/search          -> retrieval response JSON
       body: {"query": str, "mode": str?, "k": int?}

Errors are returned as {"error": str} with a 4xx/5xx status; a request body
over ``MAX_BODY_BYTES`` gets a 413 without being read. The engine is
immutable, so one shared instance serves concurrent requests.
"""

from __future__ import annotations

import json
import logging
import sys
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

from .engine import RetrievalEngine
from .quantum import FUSION_MODES

logger = logging.getLogger(__name__)

MAX_BODY_BYTES = 1 << 20


class SearchHandler(BaseHTTPRequestHandler):
    server: "SearchServer"

    def _send_json(self, status: int, payload: dict) -> None:
        body = json.dumps(payload, ensure_ascii=False, sort_keys=True).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json; charset=utf-8")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def log_message(self, fmt: str, *args) -> None:
        logger.debug("%s - %s", self.address_string(), fmt % args)

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
        except (ValueError, UnicodeDecodeError):
            self._send_json(400, {"error": "invalid JSON body"})
            return
        if not isinstance(payload, dict) or not isinstance(payload.get("query"), str):
            self._send_json(400, {"error": "body must include a string 'query'"})
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
