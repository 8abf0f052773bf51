"""In-process test client for the REST router (no sockets needed)."""

from __future__ import annotations

import io
from typing import Any

from .http import Request, Response, Router


class TestClient:
    """Drive a router the way an HTTP client would, synchronously.

    ``headers`` (e.g. ``{"X-Tenant": "alice"}``) are lower-cased like
    the socket server does. :meth:`post_csv` mimics a streaming
    ``text/csv`` upload by handing the body to the handler as
    ``request.stream``.
    """

    __test__ = False  # not a pytest test class despite the name

    def __init__(
        self, router: Router, headers: dict[str, str] | None = None
    ) -> None:
        self.router = router
        self.headers = {
            key.lower(): value for key, value in (headers or {}).items()
        }

    def request(
        self,
        method: str,
        path: str,
        body: Any = None,
        query: dict[str, str] | None = None,
        headers: dict[str, str] | None = None,
        stream: Any = None,
    ) -> Response:
        merged = dict(self.headers)
        merged.update(
            (key.lower(), value) for key, value in (headers or {}).items()
        )
        return self.router.dispatch(
            Request(
                method=method,
                path=path,
                query=dict(query or {}),
                body=body,
                headers=merged,
                stream=stream,
            )
        )

    def get(
        self,
        path: str,
        query: dict[str, str] | None = None,
        headers: dict[str, str] | None = None,
    ) -> Response:
        return self.request("GET", path, query=query, headers=headers)

    def post(
        self,
        path: str,
        body: Any = None,
        query: dict[str, str] | None = None,
        headers: dict[str, str] | None = None,
    ) -> Response:
        return self.request(
            "POST", path, body=body, query=query, headers=headers
        )

    def post_csv(
        self,
        path: str,
        csv_text: str,
        query: dict[str, str] | None = None,
        headers: dict[str, str] | None = None,
    ) -> Response:
        """POST a body the way the socket server streams ``text/csv``."""
        merged = {"content-type": "text/csv"}
        merged.update(headers or {})
        return self.request(
            "POST",
            path,
            query=query,
            headers=merged,
            stream=io.BytesIO(csv_text.encode("utf-8")),
        )

    def put(
        self,
        path: str,
        body: Any = None,
        headers: dict[str, str] | None = None,
    ) -> Response:
        return self.request("PUT", path, body=body, headers=headers)
