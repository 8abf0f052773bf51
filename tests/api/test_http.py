"""Router/framework tests for the REST layer."""

import http.client
import json
import math
import threading
import time
import urllib.parse
import urllib.request

import pytest

from repro.api import (
    HTTPError,
    Request,
    Response,
    Router,
    TestClient,
    sanitize_json,
    serve,
)


def _strict_loads(raw: bytes):
    """json.loads that rejects the NaN/Infinity JS literals (RFC 8259)."""

    def reject(token):
        raise ValueError(f"non-finite literal {token!r} on the wire")

    return json.loads(raw, parse_constant=reject)


@pytest.fixture
def router():
    router = Router()

    @router.get("/items")
    def list_items(request):
        return {"items": [1, 2, 3]}

    @router.get("/items/{item_id}")
    def get_item(request):
        return {"id": request.path_params["item_id"]}

    @router.post("/items")
    def create_item(request):
        if not request.body or "name" not in request.body:
            raise HTTPError(422, "name required")
        return Response(201, {"created": request.body["name"]})

    @router.get("/boom")
    def boom(request):
        raise ValueError("bad input")

    @router.get("/missing")
    def missing(request):
        raise KeyError("nothing here")

    @router.get("/crash")
    def crash(request):
        raise TypeError("handler bug: 'NoneType' is not subscriptable")

    @router.get("/slow")
    def slow(request):
        time.sleep(0.4)
        return {"slow": True}

    @router.post("/upload")
    def upload(request):
        data = request.stream.read() if request.stream is not None else b""
        return {"bytes": len(data)}

    @router.get("/stats")
    def stats(request):
        # Profile-shaped payload with the non-finite floats degenerate
        # statistics produce (std of one value, correlation of constants).
        return {
            "columns": [
                {
                    "name": "x",
                    "statistics": {
                        "mean": 1.5,
                        "std": float("nan"),
                        "skewness": float("inf"),
                        "coefficient_of_variation": float("-inf"),
                    },
                }
            ]
        }

    return router


class TestRouter:
    def test_simple_get(self, router):
        response = TestClient(router).get("/items")
        assert response.status == 200
        assert response.body == {"items": [1, 2, 3]}

    def test_path_params(self, router):
        response = TestClient(router).get("/items/42")
        assert response.body == {"id": "42"}

    def test_unknown_path_404(self, router):
        assert TestClient(router).get("/nope").status == 404

    def test_wrong_method_405(self, router):
        assert TestClient(router).put("/items").status == 405

    def test_custom_status(self, router):
        response = TestClient(router).post("/items", {"name": "x"})
        assert response.status == 201
        assert response.body == {"created": "x"}

    def test_http_error_maps_status(self, router):
        response = TestClient(router).post("/items", {})
        assert response.status == 422

    def test_value_error_is_400(self, router):
        assert TestClient(router).get("/boom").status == 400

    def test_bare_key_error_is_logged_500(self, router, caplog):
        """Regression: a bare ``KeyError`` from a handler bug used to
        masquerade as 404; it is a logged 500 now (typed not-found
        exceptions get their 404 via ``map_exception``)."""
        import logging

        with caplog.at_level(logging.ERROR, logger="repro.api.http"):
            response = TestClient(router).get("/missing")
        assert response.status == 500
        assert response.body["detail"].startswith("KeyError")
        assert any(
            record.exc_info is not None for record in caplog.records
        )

    def test_trailing_slash_tolerated(self, router):
        assert TestClient(router).get("/items/").status == 200

    def test_unexpected_exception_is_500_json(self, router, caplog):
        """A handler bug maps to a 500 JSON body, not an escaped exception."""
        import logging

        with caplog.at_level(logging.ERROR, logger="repro.api.http"):
            response = TestClient(router).get("/crash")
        assert response.status == 500
        assert response.body == {
            "detail": "TypeError: handler bug: 'NoneType' is not subscriptable"
        }
        # The traceback is logged for the operator.
        assert any(
            record.exc_info is not None and "/crash" in record.getMessage()
            for record in caplog.records
        )

    def test_http_error_still_wins_over_catch_all(self, router):
        assert TestClient(router).post("/items", {}).status == 422


class TestPathDecoding:
    """Path parameters are URL-decoded before reaching handlers."""

    def test_percent_encoded_space(self, router):
        response = TestClient(router).get("/items/hello%20world")
        assert response.status == 200
        assert response.body == {"id": "hello world"}

    def test_non_ascii_name(self, router):
        encoded = urllib.parse.quote("café données")
        response = TestClient(router).get(f"/items/{encoded}")
        assert response.body == {"id": "café données"}

    def test_encoded_slash_does_not_split_segments(self, router):
        # %2F must not change routing (templates match the encoded
        # path), but the handler sees the decoded value.
        response = TestClient(router).get("/items/a%2Fb")
        assert response.status == 200
        assert response.body == {"id": "a/b"}

    def test_socket_roundtrip_decodes(self, router):
        server = serve(router, port=0)
        try:
            port = server.server_address[1]
            encoded = urllib.parse.quote("naïve set")
            with urllib.request.urlopen(
                f"http://127.0.0.1:{port}/items/{encoded}", timeout=5
            ) as response:
                assert json.loads(response.read()) == {"id": "naïve set"}
        finally:
            server.shutdown()


class TestErrorMapping:
    def test_map_exception_gives_typed_status(self):
        router = Router()

        class MissingThing(KeyError):
            pass

        @router.get("/thing")
        def thing(request):
            raise MissingThing("gone")

        router.map_exception(MissingThing, 404)
        response = TestClient(router).get("/thing")
        assert response.status == 404

    def test_registered_mapping_wins_over_default(self):
        router = Router()

        class Conflict(ValueError):
            pass

        @router.get("/c")
        def conflicted(request):
            raise Conflict("already exists")

        router.map_exception(Conflict, 409)
        response = TestClient(router).get("/c")
        assert response.status == 409
        assert response.body == {"detail": "already exists"}

    def test_unmapped_sibling_keeps_default(self):
        router = Router()

        @router.get("/v")
        def plain(request):
            raise ValueError("still 400")

        router.map_exception(FileNotFoundError, 410)
        assert TestClient(router).get("/v").status == 400


class TestSanitizeJson:
    def test_non_finite_floats_become_null(self):
        assert sanitize_json(float("nan")) is None
        assert sanitize_json(float("inf")) is None
        assert sanitize_json(float("-inf")) is None
        assert sanitize_json(1.5) == 1.5
        assert sanitize_json({"a": [float("nan"), (2.0, float("inf"))]}) == {
            "a": [None, [2.0, None]]
        }
        assert sanitize_json("NaN") == "NaN"  # strings pass through

    def test_nan_payload_serializes_to_strict_json(self, router):
        response = TestClient(router).get("/stats")
        assert response.status == 200
        # The in-process client skips serialization; the wire bytes are
        # what the fix is about, so parse them strictly.
        stats = _strict_loads(response.to_bytes())["columns"][0]["statistics"]
        assert stats["mean"] == 1.5
        assert stats["std"] is None
        assert stats["skewness"] is None
        assert stats["coefficient_of_variation"] is None

    def test_to_bytes_emits_rfc8259_parseable_bytes(self):
        raw = Response(
            200, {"std": float("nan"), "values": [math.inf, 2.5]}
        ).to_bytes()
        assert b"NaN" not in raw and b"Infinity" not in raw
        assert _strict_loads(raw) == {"std": None, "values": [None, 2.5]}


class TestRealServer:
    def test_socket_roundtrip(self, router):
        server = serve(router, port=0)
        try:
            port = server.server_address[1]
            with urllib.request.urlopen(
                f"http://127.0.0.1:{port}/items", timeout=5
            ) as response:
                payload = json.loads(response.read())
            assert payload == {"items": [1, 2, 3]}
        finally:
            server.shutdown()

    def test_socket_post(self, router):
        server = serve(router, port=0)
        try:
            port = server.server_address[1]
            request = urllib.request.Request(
                f"http://127.0.0.1:{port}/items",
                data=json.dumps({"name": "thing"}).encode(),
                headers={"Content-Type": "application/json"},
                method="POST",
            )
            with urllib.request.urlopen(request, timeout=5) as response:
                assert response.status == 201
        finally:
            server.shutdown()

    def test_socket_nan_payload_is_strict_json(self, router):
        """Regression: NaN statistics used to reach the socket as the
        ``NaN`` JS literal, which strict clients reject."""
        server = serve(router, port=0)
        try:
            port = server.server_address[1]
            with urllib.request.urlopen(
                f"http://127.0.0.1:{port}/stats", timeout=5
            ) as response:
                raw = response.read()
            assert b"NaN" not in raw and b"Infinity" not in raw
            stats = _strict_loads(raw)["columns"][0]["statistics"]
            assert stats["std"] is None
            assert stats["mean"] == 1.5
        finally:
            server.shutdown()

    def test_keepalive_connection_reuse(self, router):
        """One TCP connection serves several requests (HTTP/1.1)."""
        server = serve(router, port=0)
        try:
            conn = http.client.HTTPConnection(
                "127.0.0.1", server.server_address[1], timeout=5
            )
            for _ in range(3):
                conn.request("GET", "/items")
                response = conn.getresponse()
                assert response.status == 200
                assert json.loads(response.read()) == {"items": [1, 2, 3]}
                assert response.getheader("Connection") == "keep-alive"
            conn.close()
        finally:
            server.shutdown()

    def test_slow_handler_does_not_block_fast_requests(self, router):
        """The event loop keeps taking requests while a handler runs on
        the pool — the old one-thread-per-request server is gone."""
        server = serve(router, port=0, max_workers=4)
        try:
            port = server.server_address[1]
            slow_done = threading.Event()

            def hit_slow():
                urllib.request.urlopen(
                    f"http://127.0.0.1:{port}/slow", timeout=10
                ).read()
                slow_done.set()

            thread = threading.Thread(target=hit_slow)
            thread.start()
            time.sleep(0.05)  # let /slow reach its handler
            start = time.monotonic()
            with urllib.request.urlopen(
                f"http://127.0.0.1:{port}/items", timeout=5
            ) as response:
                assert response.status == 200
            fast_elapsed = time.monotonic() - start
            assert not slow_done.is_set(), "/slow finished before /items ran"
            thread.join(timeout=10)
            assert fast_elapsed < 0.35  # /slow holds its thread for 0.4s

        finally:
            server.shutdown()

    def test_streaming_csv_body_reaches_handler(self, router):
        """A text/csv body arrives via ``request.stream``, crossing the
        backpressure high-water mark (1 MiB) without loss."""
        server = serve(router, port=0)
        try:
            port = server.server_address[1]
            row = b"1234567890,abcdefghij\n"
            body = b"a,b\n" + row * 120_000  # ~2.5 MiB
            request = urllib.request.Request(
                f"http://127.0.0.1:{port}/upload",
                data=body,
                headers={"Content-Type": "text/csv"},
                method="POST",
            )
            with urllib.request.urlopen(request, timeout=30) as response:
                payload = json.loads(response.read())
            assert payload == {"bytes": len(body)}
        finally:
            server.shutdown()

    def test_socket_unexpected_exception_is_500_not_dead_socket(self, router):
        """Regression: an unhandled handler exception used to escape into
        BaseHTTPRequestHandler and kill the connection without a response."""
        server = serve(router, port=0)
        try:
            port = server.server_address[1]
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                urllib.request.urlopen(
                    f"http://127.0.0.1:{port}/crash", timeout=5
                )
            assert excinfo.value.code == 500
            payload = json.loads(excinfo.value.read())
            assert payload["detail"].startswith("TypeError: handler bug")
            # The server must still answer subsequent requests.
            with urllib.request.urlopen(
                f"http://127.0.0.1:{port}/items", timeout=5
            ) as response:
                assert json.loads(response.read()) == {"items": [1, 2, 3]}
        finally:
            server.shutdown()
