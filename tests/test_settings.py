"""The ``DATALENS_*`` settings table: names, grammar, defaults, precedence.

One parametrized case per variable pins what ``repro.settings`` promises:
unset gives the default, every accepted spelling parses, every invalid
literal fails naming the variable and the literal, and an explicit
argument beats the environment (explicit values go through the same
parser). The two behaviour changes of the single config object are
pinned too: a malformed variable fails the first read of *any* setting,
and ``DATALENS_IO_RETRIES`` is read when a store is built. A guard keeps
every environment read inside ``settings.py``.
"""

from __future__ import annotations

import ast
import dataclasses
import os
import re
from pathlib import Path
from typing import Any, Callable, NamedTuple

import numpy as np
import pytest

from repro.api import JobQueue, Router
from repro.api.http import AsyncHTTPServer
from repro.core import ArtifactStore, faults
from repro.core.faults import TransientFaultError, with_transient_retries
from repro.dataframe import SpillStore, resolve_chunk_size
from repro.settings import VARIABLES, Settings

SRC = Path(__file__).resolve().parents[1] / "src" / "repro"


def _job_queue(attr: str, **kwargs: Any) -> Any:
    queue = JobQueue(**kwargs)
    queue.shutdown()
    return getattr(queue, attr)


def _retries_used(retries: int) -> int:
    attempts = []

    def always_transient() -> None:
        attempts.append(1)
        raise TransientFaultError("blip")

    with pytest.raises(TransientFaultError):
        with_transient_retries(always_transient, retries, base_delay=0.0)
    return len(attempts) - 1


class Explicit(NamedTuple):
    """An explicit argument of a consumer: it beats ``env`` and is
    checked by the variable's parser (``bad`` fails naming ``source``)."""

    consumer: Callable[[Any], Any]
    value: Any
    env: str
    bad: Any = None
    source: str = ""


class Case(NamedTuple):
    env: str
    default: Any
    accepted: dict[str, Any]
    #: invalid literal -> fragment its message must hold besides the
    #: variable name and the literal
    rejected: dict[str, str]
    explicit: Explicit | None


CASES: dict[str, Case] = {
    "default_chunk_size": Case(
        "DATALENS_DEFAULT_CHUNK_SIZE",
        None,
        {"41": 41, "257": 257, " 7 ": 7, "1": 1},
        {"banana": "invalid integer", "1.5": "invalid integer",
         "0": ">= 1", "-3": ">= 1"},
        Explicit(resolve_chunk_size, 7, "41", bad=0, source="chunk_size"),
    ),
    "spill_budget": Case(
        "DATALENS_SPILL_BUDGET",
        None,
        {"4096": 4096, "64k": 64 * 1024, "64K": 64 * 1024, "2m": 2 * 1024**2,
         "1g": 1024**3, " 8k ": 8 * 1024},
        {"lots": "byte size", "12q": "byte size", "k": "byte size",
         "1.5m": "byte size", "0": ">= 1 byte", "0k": ">= 1 byte"},
        Explicit(
            lambda value: SpillStore(budget_bytes=value).budget_bytes,
            2048, "64k", bad="huge", source="budget_bytes",
        ),
    ),
    "spill_dir": Case(
        "DATALENS_SPILL_DIR",
        None,
        {"spills": "spills", " nested/spills ": "nested/spills"},
        {},
        Explicit(
            lambda value: SpillStore(directory=value).directory.parent.name,
            "arg-spills", "env-spills",
        ),
    ),
    "artifact_cache": Case(
        "DATALENS_ARTIFACT_CACHE",
        True,
        {"0": False, "false": False, "OFF": False, "No": False,
         "1": True, "on": True, "yes": True},
        {},
        Explicit(lambda value: ArtifactStore(enabled=value).enabled, True, "0"),
    ),
    "artifact_cache_bytes": Case(
        "DATALENS_ARTIFACT_CACHE_BYTES",
        None,
        {"64k": 64 * 1024, "1048576": 1048576, "2M": 2 * 1024**2},
        {"junk": "byte size", "0": ">= 1 byte"},
        Explicit(
            lambda value: ArtifactStore(max_bytes=value).max_bytes,
            128, "64k", bad=0, source="max_bytes",
        ),
    ),
    "io_retries": Case(
        "DATALENS_IO_RETRIES",
        4,
        {"0": 0, "7": 7},
        {"many": "invalid integer", "-1": ">= 0"},
        Explicit(_retries_used, 1, "7"),
    ),
    "fault_inject": Case(
        "DATALENS_FAULT_INJECT",
        None,
        {"site=spill.*,error=transient,prob=0.01,seed=11":
             "site=spill.*,error=transient,prob=0.01,seed=11",
         " site=a,error=fault ": "site=a,error=fault"},
        # Parsed by repro.core.faults at the next fire (see
        # test_fault_plan_errors_name_the_variable).
        {},
        None,
    ),
    "server_workers": Case(
        "DATALENS_SERVER_WORKERS",
        4,
        {"1": 1, "9": 9},
        {"zero": "invalid integer", "0": ">= 1", "-3": ">= 1"},
        Explicit(
            lambda value: _job_queue("workers", workers=value),
            2, "9", bad=0, source="workers",
        ),
    ),
    "job_queue_depth": Case(
        "DATALENS_JOB_QUEUE_DEPTH",
        256,
        {"1": 1, "3": 3},
        {"deep": "invalid integer", "0": ">= 1"},
        Explicit(
            lambda value: _job_queue("max_depth", workers=1, max_depth=value),
            3, "7", bad=0, source="max_depth",
        ),
    ),
    "job_retries": Case(
        "DATALENS_JOB_RETRIES",
        2,
        {"0": 0, "5": 5},
        {"twice": "invalid integer", "-1": ">= 0"},
        Explicit(
            lambda value: _job_queue("retries", workers=1, retries=value),
            0, "5", bad=-1, source="retries",
        ),
    ),
    "request_timeout": Case(
        "DATALENS_REQUEST_TIMEOUT",
        None,
        {"9": 9.0, "0.5": 0.5, "1e1": 10.0},
        {"fast": "invalid number", "0": "> 0", "-2": "> 0"},
        Explicit(
            lambda value: AsyncHTTPServer(
                Router(), request_timeout=value
            ).request_timeout,
            2.5, "9", bad=0, source="request_timeout",
        ),
    ),
}

ACCEPTED = [(name, raw) for name, case in CASES.items() for raw in case.accepted]
REJECTED = [(name, raw) for name, case in CASES.items() for raw in case.rejected]
EXPLICIT = [name for name, case in CASES.items() if case.explicit is not None]
BAD_EXPLICIT = [name for name in EXPLICIT if CASES[name].explicit.source]


@pytest.fixture(autouse=True)
def clean_environment(monkeypatch, tmp_path):
    """No ``DATALENS_*`` variable from the caller (CI legs set several);
    relative spill directories land in ``tmp_path``."""
    for key in list(os.environ):
        if key.startswith("DATALENS_"):
            monkeypatch.delenv(key)
    monkeypatch.chdir(tmp_path)


def test_table_covers_the_eleven_variables():
    assert [field.name for field in dataclasses.fields(Settings)] == list(VARIABLES)
    assert list(VARIABLES) == list(CASES)
    assert [variable.env for variable in VARIABLES.values()] == [
        case.env for case in CASES.values()
    ]
    assert len(set(case.env for case in CASES.values())) == 11


@pytest.mark.parametrize("name", list(CASES))
def test_unset_and_blank_give_the_default(name, monkeypatch):
    case = CASES[name]
    assert getattr(Settings.from_env(), name) == case.default
    monkeypatch.setenv(case.env, "  ")
    assert getattr(Settings.from_env(), name) == case.default


@pytest.mark.parametrize("name,raw", ACCEPTED)
def test_accepted_spelling_parses(name, raw, monkeypatch):
    case = CASES[name]
    monkeypatch.setenv(case.env, raw)
    assert getattr(Settings.from_env(), name) == case.accepted[raw]


@pytest.mark.parametrize("name,raw", REJECTED)
def test_invalid_literal_names_variable_and_literal(name, raw, monkeypatch):
    case = CASES[name]
    monkeypatch.setenv(case.env, raw)
    with pytest.raises(ValueError, match=re.escape(case.rejected[raw])) as excinfo:
        Settings.from_env()
    assert case.env in str(excinfo.value)
    assert repr(raw) in str(excinfo.value)


@pytest.mark.parametrize("name", EXPLICIT)
def test_explicit_argument_beats_the_environment(name, monkeypatch):
    explicit = CASES[name].explicit
    monkeypatch.setenv(CASES[name].env, explicit.env)
    assert explicit.consumer(explicit.value) == explicit.value


@pytest.mark.parametrize("name", BAD_EXPLICIT)
def test_explicit_value_checked_by_the_same_parser(name):
    explicit = CASES[name].explicit
    with pytest.raises(ValueError, match=re.escape(explicit.source)) as excinfo:
        explicit.consumer(explicit.bad)
    assert repr(explicit.bad) in str(excinfo.value)


@pytest.mark.parametrize(
    "spec,literal",
    [
        ("site=x,error=explode", "'explode'"),
        ("site=x,error=fault,frequency=2", "frequency"),
        ("site=x,error=fault,prob=often", "often"),
        ("site=x,error", "'error'"),
        ("error=transient", "'error=transient'"),
    ],
)
def test_fault_plan_errors_name_the_variable(spec, literal, monkeypatch):
    """The fault plan's grammar lives in repro.core.faults: a bad plan
    fails at the next fire, naming the variable and the bad literal."""
    monkeypatch.setenv("DATALENS_FAULT_INJECT", spec)
    with pytest.raises(ValueError, match="DATALENS_FAULT_INJECT") as excinfo:
        faults.maybe_fire("settings.probe")
    assert literal in str(excinfo.value)


# ----------------------------------------------------------------------
# The two behaviour changes of one config object
# ----------------------------------------------------------------------
@pytest.mark.parametrize("name,raw", REJECTED)
def test_malformed_variable_fails_any_settings_read(name, raw, monkeypatch):
    """Every reader parses the whole table, so a bad value surfaces in
    the first consumer that reads any setting, not only its owner."""
    monkeypatch.setenv(CASES[name].env, raw)
    unrelated = ArtifactStore if name == "default_chunk_size" else resolve_chunk_size
    with pytest.raises(ValueError, match=re.escape(CASES[name].env)):
        unrelated()


def test_spill_store_reads_io_retries_when_built(monkeypatch):
    monkeypatch.setenv("DATALENS_IO_RETRIES", "0")
    store = SpillStore(budget_bytes=4096)
    monkeypatch.setenv("DATALENS_IO_RETRIES", "5")
    with faults.inject("site=spill.write,error=transient,count=1"):
        with pytest.raises(TransientFaultError):
            store.spill(*_shard())
    monkeypatch.setenv("DATALENS_IO_RETRIES", "2")
    store = SpillStore(budget_bytes=4096)
    monkeypatch.setenv("DATALENS_IO_RETRIES", "junk")  # never read again
    with faults.inject("site=spill.*,error=transient,count=1"):
        handle = store.spill(*_shard())
        store.load(handle)
    assert store.stats()["transient_retries"] == 1


def _shard():
    return np.arange(8, dtype=np.int64), np.zeros(8, dtype=bool)


# ----------------------------------------------------------------------
# Guard: one module reads the environment
# ----------------------------------------------------------------------
_ENVIRONMENT = ("environ", "environb", "getenv")


def _environment_reads(tree: ast.AST) -> list[int]:
    """Lines touching ``os.environ`` / ``os.getenv`` (any alias of os)."""
    aliases = {"os"}
    lines = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            aliases.update(
                alias.asname for alias in node.names
                if alias.name == "os" and alias.asname
            )
        elif isinstance(node, ast.ImportFrom) and node.module == "os":
            if any(alias.name in _ENVIRONMENT for alias in node.names):
                lines.append(node.lineno)
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Attribute)
            and node.attr in _ENVIRONMENT
            and isinstance(node.value, ast.Name)
            and node.value.id in aliases
        ):
            lines.append(node.lineno)
    return sorted(lines)


def test_only_settings_reads_the_environment():
    offenders = {}
    for path in sorted(SRC.rglob("*.py")):
        if path == SRC / "settings.py":
            continue
        lines = _environment_reads(ast.parse(path.read_text(), str(path)))
        if lines:
            offenders[str(path.relative_to(SRC))] = lines
    assert offenders == {}
    assert _environment_reads(ast.parse((SRC / "settings.py").read_text()))


def test_guard_catches_every_spelling():
    for source in (
        "import os\nos.environ.get('X')",
        "import os\nos.getenv('X')",
        "import os as system\nsystem.environ['X']",
        "from os import environ",
        "from os import getenv as read",
    ):
        assert _environment_reads(ast.parse(source)), source
    assert not _environment_reads(ast.parse("import os\nos.path.join('a')"))
