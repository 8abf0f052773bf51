"""Deterministic fault injection for chaos testing the pipeline.

Production failures — a flaky disk read, a full filesystem, a slow
network peer, an overloaded worker — are inputs the system must handle,
not surprises. This module makes them *first-class test inputs*: named
**injection sites** are wired into the storage and serving layers
(:mod:`repro.dataframe.spill`, :mod:`repro.dataframe.io`,
:mod:`repro.api.jobs`, :mod:`repro.api.http`), and a **fault plan**
decides, deterministically, which site invocations raise an error or
stall.

Injection sites
---------------
A site is a dotted name fired via :func:`maybe_fire` at the exact point
a real fault would surface. :data:`SITES` lists them all:

==================  ====================================================
Site                Fired when
==================  ====================================================
``spill.write``     a shard pair is serialized to the spill directory
``spill.read``      a spilled shard is read back (cache miss)
``ingest.chunk``    the streaming CSV reader packs one chunk of rows
``job.run``         a queued job attempt starts executing
``http.write``      an HTTP response is about to be written
==================  ====================================================

Spec grammar (``DATALENS_FAULT_INJECT``)
----------------------------------------
A plan is one or more rules separated by ``;``; each rule is
``key=value`` fields separated by ``,``::

    site=<fnmatch pattern>   required — e.g. spill.read or spill.*
    error=<name>             exception to raise: transient | fault |
                             oserror | enospc | timeout | connection
    prob=<float 0..1>        fire probability per match (default 1.0,
                             drawn from a per-rule seeded RNG)
    count=<int>              fire at most N times (default: unlimited)
    after=<int>              skip the first N matching invocations
    latency=<seconds>        sleep instead of / in addition to raising
    seed=<int>               RNG seed for ``prob`` draws (default 0)

Example — 5%% transient faults on every spill read, plus one injected
disk-full on the third spill write::

    DATALENS_FAULT_INJECT='site=spill.read,error=transient,prob=0.05,seed=7;site=spill.write,error=enospc,after=2,count=1'

Activation is either the environment variable (re-read on every fire,
so ``monkeypatch.setenv`` works) or the :func:`inject` context manager,
which composes with — and stacks on top of — the environment plan. The
environment plan comes from outside the program, so a rule of it whose
``site=`` pattern matches none of :data:`SITES` fails the next fire
with a ``ValueError``; a plan passed to :func:`inject` is not checked.
``repro serve`` calls :func:`active_plans` before it binds, so a bad
environment plan stops it from starting.

Transient vs. persistent faults
-------------------------------
``error=transient`` raises :class:`TransientFaultError` — the injected
stand-in for faults that succeed on retry (EINTR-ish I/O hiccups,
connection resets, worker blips). :func:`is_transient` classifies them
(plus ``ConnectionError`` / ``TimeoutError`` / anything with a truthy
``transient`` attribute), and the spill store *absorbs* them: its writes
and reads retry transient faults internally
(:func:`with_transient_retries`, bounded by ``DATALENS_IO_RETRIES`` as
read when the store was built), so low-probability transient injection
leaves results bit-identical to a fault-free run. Persistent faults
(``enospc``, checksum corruption) are never retried; they surface as
typed errors (:class:`~repro.dataframe.spill.SpillCapacityError`,
:class:`~repro.dataframe.spill.SpillError`).

Besides the standard library this module imports only
:mod:`repro.settings`, so the low-level dataframe modules can use it
without import cycles. Every ``DATALENS_*`` variable is described in
:class:`repro.settings.Settings`.
"""

from __future__ import annotations

import errno as _errno
import fnmatch
import random
import threading
import time
from contextlib import contextmanager
from typing import Any, Callable, Iterator

from ..settings import VARIABLES, read

#: Environment variable holding the ambient fault plan.
FAULT_INJECT_ENV = VARIABLES["fault_inject"].env

#: Base delay for the exponential backoff between internal retries.
DEFAULT_RETRY_BASE_DELAY = 0.002

#: Every site passed to :func:`maybe_fire`, in the module docstring's order.
SITES = ("spill.write", "spill.read", "ingest.chunk", "job.run", "http.write")


class FaultError(RuntimeError):
    """An injected fault (base class for everything this module raises)."""

    injected = True


class TransientFaultError(FaultError):
    """An injected fault that would succeed on retry."""

    transient = True


def is_transient(error: BaseException) -> bool:
    """Whether a failure is worth retrying.

    Injected :class:`TransientFaultError`, real ``ConnectionError`` /
    ``TimeoutError``, and any exception carrying a truthy ``transient``
    attribute classify as transient; everything else (including
    ``OSError`` subtypes like ENOSPC, and checksum corruption) does not.
    """
    if isinstance(error, (ConnectionError, TimeoutError)):
        return True
    return bool(getattr(error, "transient", False))


def _make_enospc(message: str) -> OSError:
    return OSError(_errno.ENOSPC, f"No space left on device [{message}]")


#: error= name → factory building the exception to raise at the site.
ERROR_FACTORIES: dict[str, Callable[[str], BaseException]] = {
    "fault": FaultError,
    "transient": TransientFaultError,
    "oserror": lambda message: OSError(_errno.EIO, f"I/O error [{message}]"),
    "enospc": _make_enospc,
    "timeout": TimeoutError,
    "connection": ConnectionResetError,
}


class FaultRule:
    """One parsed rule of a fault plan, with its own seeded RNG."""

    __slots__ = (
        "site",
        "error",
        "probability",
        "count",
        "after",
        "latency",
        "seed",
        "matches",
        "fires",
        "_rng",
    )

    def __init__(
        self,
        site: str,
        error: str | None = None,
        probability: float = 1.0,
        count: int | None = None,
        after: int = 0,
        latency: float = 0.0,
        seed: int = 0,
    ) -> None:
        if error is not None and error not in ERROR_FACTORIES:
            known = ", ".join(sorted(ERROR_FACTORIES))
            raise ValueError(
                f"unknown fault error {error!r} (known: {known})"
            )
        if not 0.0 <= probability <= 1.0:
            raise ValueError(
                f"fault probability must be in [0, 1], got {probability}"
            )
        if error is None and latency <= 0.0:
            raise ValueError(
                f"fault rule for site {site!r} needs error= or latency="
            )
        self.site = site
        self.error = error
        self.probability = probability
        self.count = count
        self.after = after
        self.latency = latency
        self.seed = seed
        self.matches = 0
        self.fires = 0
        self._rng = random.Random(seed)

    def describe(self) -> dict[str, Any]:
        return {
            "site": self.site,
            "error": self.error,
            "probability": self.probability,
            "count": self.count,
            "after": self.after,
            "latency": self.latency,
            "seed": self.seed,
            "matches": self.matches,
            "fires": self.fires,
        }


class FaultPlan:
    """A set of rules evaluated at every fired site, thread-safely."""

    def __init__(self, rules: list[FaultRule]) -> None:
        self.rules = rules
        self._lock = threading.Lock()

    # ------------------------------------------------------------------
    @classmethod
    def parse(cls, spec: str) -> "FaultPlan":
        """Parse a ``DATALENS_FAULT_INJECT`` spec string (see module doc)."""
        rules: list[FaultRule] = []
        for chunk in spec.split(";"):
            chunk = chunk.strip()
            if not chunk:
                continue
            fields: dict[str, str] = {}
            for part in chunk.split(","):
                key, sep, value = part.strip().partition("=")
                if not sep or not key:
                    raise ValueError(
                        f"malformed fault rule field {part!r} in "
                        f"{FAULT_INJECT_ENV} (expected key=value)"
                    )
                fields[key.strip()] = value.strip()
            site = fields.pop("site", None)
            if not site:
                raise ValueError(
                    f"fault rule {chunk!r} in {FAULT_INJECT_ENV} is "
                    "missing the required site= field"
                )
            kwargs: dict[str, Any] = {"site": site}
            try:
                if "error" in fields:
                    kwargs["error"] = fields.pop("error").lower()
                if "prob" in fields:
                    kwargs["probability"] = float(fields.pop("prob"))
                if "count" in fields:
                    kwargs["count"] = int(fields.pop("count"))
                if "after" in fields:
                    kwargs["after"] = int(fields.pop("after"))
                if "latency" in fields:
                    kwargs["latency"] = float(fields.pop("latency"))
                if "seed" in fields:
                    kwargs["seed"] = int(fields.pop("seed"))
                if fields:
                    unknown = ", ".join(sorted(fields))
                    raise ValueError(f"unknown fault rule field(s) {unknown}")
                rules.append(FaultRule(**kwargs))
            except ValueError as error:
                raise ValueError(
                    f"malformed fault rule {chunk!r} in "
                    f"{FAULT_INJECT_ENV}: {error}"
                ) from None
        return cls(rules)

    # ------------------------------------------------------------------
    def fire(self, site: str) -> None:
        """Evaluate every rule against one site invocation.

        Latency rules sleep (outside the plan lock); error rules raise.
        The first raising rule wins; latency from earlier rules still
        applies before the raise.
        """
        delay = 0.0
        raising: FaultRule | None = None
        with self._lock:
            for rule in self.rules:
                if not fnmatch.fnmatchcase(site, rule.site):
                    continue
                rule.matches += 1
                if rule.matches <= rule.after:
                    continue
                if rule.count is not None and rule.fires >= rule.count:
                    continue
                if rule.probability < 1.0 and (
                    rule._rng.random() >= rule.probability
                ):
                    continue
                rule.fires += 1
                delay += rule.latency
                if rule.error is not None and raising is None:
                    raising = rule
        if delay > 0.0:
            time.sleep(delay)
        if raising is not None:
            raise ERROR_FACTORIES[raising.error](
                f"injected fault at site {site!r}"
            )

    def stats(self) -> list[dict[str, Any]]:
        with self._lock:
            return [rule.describe() for rule in self.rules]


# ----------------------------------------------------------------------
# Activation: environment plan + context-manager stack
# ----------------------------------------------------------------------
_context_plans: list[FaultPlan] = []
_context_lock = threading.Lock()

#: (env spec, parsed plan) — reparsed whenever the spec text changes,
#: so monkeypatched environments work without explicit invalidation.
_env_plan: tuple[str | None, FaultPlan | None] = (None, None)
_env_lock = threading.Lock()


def _plan_from_env() -> FaultPlan | None:
    global _env_plan
    # One variable per fire: parsing every setting here would cost each
    # spill load and cache access a dozen environment reads.
    spec = read("fault_inject")
    cached_spec, cached_plan = _env_plan
    if spec == cached_spec:
        return cached_plan
    with _env_lock:
        cached_spec, cached_plan = _env_plan
        if spec == cached_spec:
            return cached_plan
        plan = FaultPlan.parse(spec) if spec else None
        for rule in plan.rules if plan is not None else ():
            if not any(fnmatch.fnmatchcase(site, rule.site) for site in SITES):
                raise ValueError(
                    f"fault rule site={rule.site!r} in {FAULT_INJECT_ENV} "
                    f"matches no injection site (sites: {', '.join(SITES)})"
                )
        _env_plan = (spec, plan)
        return plan


def maybe_fire(site: str) -> None:
    """Fire one site invocation against every active plan.

    Near-free when nothing is active: one environ lookup plus a list
    check. With active plans, rules are matched in activation order
    (environment plan first, then inner context managers).
    """
    env_plan = _plan_from_env()
    if env_plan is not None:
        env_plan.fire(site)
    if _context_plans:
        for plan in tuple(_context_plans):
            plan.fire(site)


@contextmanager
def inject(spec: str | FaultPlan) -> Iterator[FaultPlan]:
    """Activate a fault plan for the dynamic extent of the block.

    Yields the plan so callers can inspect per-rule fire counters
    afterwards. Nestable; all active plans fire at every site.
    """
    plan = spec if isinstance(spec, FaultPlan) else FaultPlan.parse(spec)
    with _context_lock:
        _context_plans.append(plan)
    try:
        yield plan
    finally:
        with _context_lock:
            _context_plans.remove(plan)


def active_plans() -> list[FaultPlan]:
    """Currently active plans (environment plan first), for diagnostics.

    Raises ``ValueError`` when the environment plan is malformed or has a
    rule that matches no site.
    """
    plans = []
    env_plan = _plan_from_env()
    if env_plan is not None:
        plans.append(env_plan)
    plans.extend(_context_plans)
    return plans


def fault_stats() -> list[dict[str, Any]]:
    """Per-rule match/fire counters across every active plan."""
    return [rule for plan in active_plans() for rule in plan.stats()]


# ----------------------------------------------------------------------
# Transient-fault absorption
# ----------------------------------------------------------------------
def with_transient_retries(
    operation: Callable[[], Any],
    retries: int,
    base_delay: float = DEFAULT_RETRY_BASE_DELAY,
) -> tuple[Any, int]:
    """Run ``operation``, retrying transient failures with backoff.

    Returns ``(result, retries_used)``. Non-transient failures (ENOSPC,
    corruption, programming errors) propagate immediately; transient
    ones (see :func:`is_transient`) are retried up to ``retries`` times
    (the spill store passes ``DATALENS_IO_RETRIES`` as read when it was
    built) with exponential backoff, after which the last error
    propagates. This is how the spill store absorbs injected/real
    transient I/O faults without changing results.
    """
    attempt = 0
    while True:
        try:
            return operation(), attempt
        except BaseException as error:  # noqa: BLE001 — reclassified below
            if not is_transient(error) or attempt >= retries:
                raise
            time.sleep(base_delay * (2**attempt))
            attempt += 1
