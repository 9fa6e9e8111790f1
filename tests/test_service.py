import json
import logging
import socket
import threading
import urllib.error
import urllib.request

import pytest

from qrag.service import MAX_BODY_BYTES, SearchHandler, make_server


@pytest.fixture(scope="module")
def server(small_engine):
    engine, bench, *_ = small_engine
    srv = make_server(engine, host="127.0.0.1", port=0)
    thread = threading.Thread(target=srv.serve_forever, daemon=True)
    thread.start()
    host, port = srv.server_address
    yield f"http://{host}:{port}", bench
    srv.shutdown()
    srv.server_close()


def _get(url):
    with urllib.request.urlopen(url, timeout=10) as resp:
        return resp.status, json.loads(resp.read().decode("utf-8"))


def _raw_post(base, content_length, body=b""):
    """POST with a hand-set Content-Length; return (status, payload)."""
    host, port = base.removeprefix("http://").split(":")
    with socket.create_connection((host, int(port)), timeout=5) as sock:
        sock.sendall(
            b"POST /v1/search HTTP/1.1\r\nHost: x\r\n"
            + f"Content-Length: {content_length}\r\n\r\n".encode("ascii")
            + body
        )
        data = b""
        while chunk := sock.recv(65536):
            data += chunk
    head, _, payload = data.partition(b"\r\n\r\n")
    return int(head.split()[1]), json.loads(payload.decode("utf-8"))


def _post(url, payload, raw=None):
    body = raw if raw is not None else json.dumps(payload).encode("utf-8")
    req = urllib.request.Request(
        url, data=body, headers={"Content-Type": "application/json"}, method="POST"
    )
    try:
        with urllib.request.urlopen(req, timeout=10) as resp:
            return resp.status, json.loads(resp.read().decode("utf-8"))
    except urllib.error.HTTPError as err:
        return err.code, json.loads(err.read().decode("utf-8"))


class TestHealth:
    def test_health_reports_chunk_count(self, server, small_engine):
        base, _ = server
        engine, *_ = small_engine
        status, payload = _get(base + "/v1/health")
        assert status == 200
        assert payload == {"chunks": engine.chunk_count, "status": "ok"}

    def test_unknown_path_is_404(self, server):
        base, _ = server
        try:
            status, payload = _get(base + "/nope")
        except urllib.error.HTTPError as err:
            status, payload = err.code, json.loads(err.read().decode("utf-8"))
        assert status == 404
        assert "error" in payload


class TestSearch:
    def test_search_returns_response_json(self, server):
        base, bench = server
        q = bench.queries[0]
        status, payload = _post(base + "/v1/search", {"query": q["text"]})
        assert status == 200
        assert payload["query"] == q["text"]
        assert payload["hits"][0]["rank"] == 1
        assert "context" in payload and "timings" in payload

    def test_mode_and_k_overrides(self, server):
        base, bench = server
        q = bench.queries[0]
        status, payload = _post(
            base + "/v1/search", {"query": q["text"], "mode": "sparse_only", "k": 3}
        )
        assert status == 200
        assert payload["mode"] == "sparse_only"
        assert len(payload["hits"]) <= 3

    def test_missing_query_is_400(self, server):
        base, _ = server
        status, payload = _post(base + "/v1/search", {"mode": "rrf"})
        assert status == 400
        assert "query" in payload["error"]

    def test_unknown_mode_is_400(self, server):
        base, _ = server
        status, payload = _post(base + "/v1/search", {"query": "x", "mode": "psychic"})
        assert status == 400
        assert "unknown mode" in payload["error"]

    def test_invalid_json_is_400(self, server):
        base, _ = server
        status, payload = _post(base + "/v1/search", None, raw=b"{broken")
        assert status == 400
        assert "error" in payload

    def test_empty_query_after_tokenization_is_400(self, server):
        base, _ = server
        status, payload = _post(base + "/v1/search", {"query": "   "})
        assert status == 400

    def test_bad_k_is_400(self, server):
        base, _ = server
        status, payload = _post(base + "/v1/search", {"query": "x", "k": 0})
        assert status == 400

    def test_boolean_k_is_400(self, server):
        base, bench = server
        status, payload = _post(
            base + "/v1/search", {"query": bench.queries[0]["text"], "k": True}
        )
        assert status == 400
        assert "k must be" in payload["error"]

    def test_negative_content_length_is_400_without_reading(self, server):
        base, _ = server
        status, payload = _raw_post(base, -1)
        assert status == 400
        assert "Content-Length" in payload["error"]

    def test_non_numeric_content_length_is_400(self, server):
        base, _ = server
        status, payload = _raw_post(base, "ten")
        assert status == 400
        assert "Content-Length" in payload["error"]

    def test_body_over_cap_is_413(self, server):
        base, _ = server
        status, payload = _raw_post(base, MAX_BODY_BYTES + 1)
        assert status == 413
        assert str(MAX_BODY_BYTES) in payload["error"]

    def test_body_at_cap_is_read(self, server):
        base, _ = server
        body = json.dumps({"query": "x"}).encode("utf-8")
        body += b" " * (MAX_BODY_BYTES - len(body))
        status, payload = _raw_post(base, MAX_BODY_BYTES, body)
        assert status != 413

    def test_concurrent_requests(self, server):
        base, bench = server
        results = []
        errors = []

        def worker(text):
            try:
                results.append(_post(base + "/v1/search", {"query": text}))
            except Exception as exc:  # noqa: BLE001 - collected for the assert
                errors.append(exc)

        threads = [
            threading.Thread(target=worker, args=(q["text"],))
            for q in bench.queries[:8]
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        assert all(status == 200 for status, _ in results)


class TestHandlerErrors:
    @pytest.fixture
    def failing_server(self, small_engine, monkeypatch):
        """A server whose GET handler raises the exception in ``raised``."""
        engine, *_ = small_engine
        raised = []

        def do_GET(handler):
            raise raised[0]

        monkeypatch.setattr(SearchHandler, "do_GET", do_GET)
        srv = make_server(engine, host="127.0.0.1", port=0)
        thread = threading.Thread(target=srv.serve_forever, daemon=True)
        thread.start()
        yield srv, raised
        srv.shutdown()
        srv.server_close()
        thread.join(timeout=10)
        assert not thread.is_alive()

    @staticmethod
    def _get_until_closed(srv):
        # The server closes the connection only after handle_error returns.
        with socket.create_connection(srv.server_address, timeout=5) as sock:
            sock.sendall(b"GET /v1/health HTTP/1.1\r\nHost: x\r\n\r\n")
            while sock.recv(65536):
                pass

    @pytest.mark.parametrize("exc", [BrokenPipeError(32, "x"), ConnectionResetError()])
    def test_dropped_client_is_logged_at_debug_not_printed(
        self, failing_server, capfd, caplog, exc
    ):
        srv, raised = failing_server
        raised.append(exc)
        with caplog.at_level(logging.DEBUG, logger="qrag.service"):
            self._get_until_closed(srv)
        assert capfd.readouterr().err == ""
        records = [r for r in caplog.records if r.name == "qrag.service"]
        assert [r.levelno for r in records] == [logging.DEBUG]
        assert "dropped the connection" in records[0].getMessage()

    def test_other_errors_are_logged_with_traceback(self, failing_server, capfd, caplog):
        srv, raised = failing_server
        raised.append(RuntimeError("boom"))
        with caplog.at_level(logging.DEBUG, logger="qrag.service"):
            self._get_until_closed(srv)
        assert capfd.readouterr().err == ""
        records = [r for r in caplog.records if r.name == "qrag.service"]
        assert [r.levelno for r in records] == [logging.ERROR]
        assert records[0].exc_info[0] is RuntimeError
