"""Every ``DATALENS_*`` environment variable, parsed in one place.

:class:`Settings` holds one field per variable, and its docstring is the
table of what each one means. :data:`VARIABLES` maps each field to its
variable name, parser and default, and :meth:`Settings.from_env` parses
and validates all of them, so one malformed variable fails the first
read of any setting.

Precedence, everywhere a setting is read: an explicit argument (or a
CLI flag passed as one), then the environment, then the default.
:func:`resolve` applies it, checking explicit values with the same
parser as the environment. Every parse error names its source (the
variable, flag or parameter) and the bad literal. A blank variable
counts as unset.

This module uses only the standard library and imports nothing from
the package, so every layer can read it.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Any, Callable, NamedTuple

_SIZE_SUFFIXES = {"k": 1024, "m": 1024**2, "g": 1024**3}
_FALSEY = frozenset({"0", "false", "off", "no"})


def parse_byte_size(raw: str | int, source: str) -> int:
    """Parse a byte size like ``"1048576"`` / ``"64k"`` / ``"2g"``."""
    if isinstance(raw, int):
        size = raw
    else:
        text = str(raw).strip().lower()
        scale = 1
        if text and text[-1] in _SIZE_SUFFIXES:
            scale = _SIZE_SUFFIXES[text[-1]]
            text = text[:-1]
        try:
            size = int(text) * scale
        except ValueError:
            raise ValueError(
                f"{source} must be a byte size (an integer with an "
                f"optional k/m/g suffix), got {raw!r}"
            ) from None
    if size < 1:
        raise ValueError(f"{source} must be >= 1 byte, got {raw!r}")
    return size


def _integer(minimum: int) -> Callable[[Any, str], int]:
    def parse(raw: Any, source: str) -> int:
        try:
            value = int(raw)
        except (TypeError, ValueError):
            raise ValueError(f"invalid integer for {source}: {raw!r}") from None
        if value < minimum:
            raise ValueError(f"{source} must be >= {minimum}, got {raw!r}")
        return value

    return parse


def _seconds(raw: Any, source: str) -> float:
    try:
        value = float(raw)
    except (TypeError, ValueError):
        raise ValueError(f"invalid number for {source}: {raw!r}") from None
    if value <= 0:
        raise ValueError(f"{source} must be > 0, got {raw!r}")
    return value


def _flag(raw: str, source: str) -> bool:
    return raw.lower() not in _FALSEY


def _text(raw: Any, source: str) -> Any:
    return raw


class Variable(NamedTuple):
    env: str
    parse: Callable[[Any, str], Any]
    default: Any


#: Settings field -> (environment variable, parser, default when unset).
VARIABLES: dict[str, Variable] = {
    "default_chunk_size": Variable("DATALENS_DEFAULT_CHUNK_SIZE", _integer(1), None),
    "spill_budget": Variable("DATALENS_SPILL_BUDGET", parse_byte_size, None),
    "spill_dir": Variable("DATALENS_SPILL_DIR", _text, None),
    "artifact_cache": Variable("DATALENS_ARTIFACT_CACHE", _flag, True),
    "artifact_cache_bytes": Variable(
        "DATALENS_ARTIFACT_CACHE_BYTES", parse_byte_size, None
    ),
    "io_retries": Variable("DATALENS_IO_RETRIES", _integer(0), 4),
    "fault_inject": Variable("DATALENS_FAULT_INJECT", _text, None),
    "server_workers": Variable("DATALENS_SERVER_WORKERS", _integer(1), 4),
    "job_queue_depth": Variable("DATALENS_JOB_QUEUE_DEPTH", _integer(1), 256),
    "job_retries": Variable("DATALENS_JOB_RETRIES", _integer(0), 2),
    "request_timeout": Variable("DATALENS_REQUEST_TIMEOUT", _seconds, None),
}


@dataclass(frozen=True)
class Settings:
    """The process configuration, one field per ``DATALENS_*`` variable.

    =====================  ====================================  =====================
    Field                  Variable and meaning                  Default; read by
    =====================  ====================================  =====================
    default_chunk_size     ``DATALENS_DEFAULT_CHUNK_SIZE``,      monolithic loads,
                           int >= 1: rows per shard. When set,   65,536-row chunks;
                           loads and ``profile()`` run chunked   resolve_chunk_size,
                                                                 DataLoader, profile
    spill_budget           ``DATALENS_SPILL_BUDGET``, bytes      no spilling, a
                           with a ``k``/``m``/``g`` suffix:      store holds 256 MiB;
                           resident bytes of a spill store.      SpillStore,
                           When set, chunked reads spill and a   resolve_spill_store,
                           DataLens builds its one store         DataLens when built
    spill_dir              ``DATALENS_SPILL_DIR``: where spill   system temp dir;
                           directories are created               SpillStore,
                                                                 the orphan sweep
    artifact_cache         ``DATALENS_ARTIFACT_CACHE``: ``0``,   on; ArtifactStore
                           ``false``, ``off`` or ``no`` (any     without enabled=
                           case) makes artifact stores no-ops
    artifact_cache_bytes   ``DATALENS_ARTIFACT_CACHE_BYTES``,    unbounded;
                           a byte size: bound on the estimated   ArtifactStore
                           bytes an artifact store holds         without max_bytes=
    io_retries             ``DATALENS_IO_RETRIES``, int >= 0:    4; SpillStore, when
                           retries of a transient fault per      it is built
                           spill write or read
    fault_inject           ``DATALENS_FAULT_INJECT``: the fault  none; maybe_fire, on
                           plan (grammar in                      every fire through
                           :mod:`repro.core.faults`); a rule     :func:`read`
                           whose ``site=`` matches no site in
                           ``faults.SITES`` is rejected
    server_workers         ``DATALENS_SERVER_WORKERS``, int      4; JobQueue,
                           >= 1: job-pool and HTTP threads       AsyncHTTPServer
    job_queue_depth        ``DATALENS_JOB_QUEUE_DEPTH``, int     256; JobQueue
                           >= 1: active jobs before a 429
    job_retries            ``DATALENS_JOB_RETRIES``, int >= 0:   2; JobQueue
                           extra attempts of a job that fails
                           transiently
    request_timeout        ``DATALENS_REQUEST_TIMEOUT``,         none;
                           seconds > 0: handler deadline,        AsyncHTTPServer
                           then 503 + ``Retry-After``
    =====================  ====================================  =====================

    Values are stripped of surrounding whitespace. The fault plan stays
    text here: :mod:`repro.core.faults` parses it at the next fire and
    again whenever the text changes.
    """

    default_chunk_size: int | None
    spill_budget: int | None
    spill_dir: str | None
    artifact_cache: bool
    artifact_cache_bytes: int | None
    io_retries: int
    fault_inject: str | None
    server_workers: int
    job_queue_depth: int
    job_retries: int
    request_timeout: float | None

    @classmethod
    def from_env(cls) -> "Settings":
        """Parse and validate every variable from ``os.environ``."""
        return cls(**{name: read(name) for name in VARIABLES})


def read(name: str) -> Any:
    """Parse the one variable behind field ``name``.

    Only for paths that must not parse the rest on every call (the fault
    site check); everything else reads :meth:`Settings.from_env`.
    """
    variable = VARIABLES[name]
    raw = os.environ.get(variable.env, "").strip()
    return variable.parse(raw, variable.env) if raw else variable.default


def resolve(
    name: str, value: Any, source: str, settings: Settings | None = None
) -> Any:
    """An explicit ``value``, else field ``name`` of the environment.

    ``value`` is checked by the field's parser, with errors naming
    ``source``. ``None`` falls back to ``settings``, which defaults to
    :meth:`Settings.from_env`.
    """
    if value is not None:
        return VARIABLES[name].parse(value, source)
    return getattr(settings or Settings.from_env(), name)
