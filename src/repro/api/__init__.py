"""REST integration layer (FastAPI substitute), served by asyncio."""

from .app import TenantRegistry, create_app
from .client import TestClient
from .http import (
    AsyncHTTPServer,
    HTTPError,
    Request,
    Response,
    Router,
    sanitize_json,
    serve,
)
from .jobs import (
    Job,
    JobNotFoundError,
    JobQueue,
    JobQueueClosedError,
    JobQueueFullError,
    LockRegistry,
    RWLock,
)

__all__ = [
    "AsyncHTTPServer",
    "HTTPError",
    "Job",
    "JobNotFoundError",
    "JobQueue",
    "JobQueueClosedError",
    "JobQueueFullError",
    "LockRegistry",
    "RWLock",
    "Request",
    "Response",
    "Router",
    "TenantRegistry",
    "TestClient",
    "create_app",
    "sanitize_json",
    "serve",
]
