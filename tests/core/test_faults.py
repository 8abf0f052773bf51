"""The fault-injection subsystem itself: grammar, determinism, helpers.

The chaos suites (tests/api/test_chaos.py, the spill/artifact robustness
tests) rely on this module behaving exactly as specified — a fuzzy RNG
or a silently-ignored rule field would invalidate every differential
assertion built on top. So the plan parser, the per-rule counters, the
seeded probability draws, and the transient-retry helpers are pinned
here in isolation.
"""

from __future__ import annotations

import ast
import re
import time
from pathlib import Path

import pytest

from repro.core import faults
from repro.core.faults import (
    FAULT_INJECT_ENV,
    SITES,
    FaultError,
    FaultPlan,
    TransientFaultError,
    fault_stats,
    inject,
    is_transient,
    maybe_fire,
    with_transient_retries,
)

SRC = Path(faults.__file__).resolve().parents[1]


class TestSpecGrammar:
    def test_single_rule_defaults(self):
        plan = FaultPlan.parse("site=spill.read,error=transient")
        (rule,) = plan.rules
        assert rule.site == "spill.read"
        assert rule.error == "transient"
        assert rule.probability == 1.0
        assert rule.count is None
        assert rule.after == 0
        assert rule.latency == 0.0
        assert rule.seed == 0

    def test_multiple_rules_and_whitespace(self):
        plan = FaultPlan.parse(
            " site=spill.* , error=transient , prob=0.5 , seed=7 ; "
            "site=spill.write , error=enospc , count=1 , after=2 ;"
        )
        assert len(plan.rules) == 2
        assert plan.rules[0].probability == 0.5
        assert plan.rules[0].seed == 7
        assert plan.rules[1].count == 1
        assert plan.rules[1].after == 2

    def test_missing_site_rejected(self):
        with pytest.raises(ValueError, match="site="):
            FaultPlan.parse("error=transient")

    def test_unknown_error_name_lists_known(self):
        with pytest.raises(ValueError, match="transient"):
            FaultPlan.parse("site=x,error=explode")

    def test_unknown_field_rejected(self):
        with pytest.raises(ValueError) as excinfo:
            FaultPlan.parse("site=x,error=fault,frequency=2")
        assert "frequency" in str(excinfo.value)
        assert FAULT_INJECT_ENV in str(excinfo.value)

    def test_malformed_field_rejected(self):
        with pytest.raises(ValueError, match="key=value"):
            FaultPlan.parse("site=x,error")

    def test_bad_number_names_env_var(self):
        with pytest.raises(ValueError) as excinfo:
            FaultPlan.parse("site=x,error=fault,prob=often")
        assert FAULT_INJECT_ENV in str(excinfo.value)

    def test_probability_out_of_range(self):
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            FaultPlan.parse("site=x,error=fault,prob=1.5")

    def test_rule_needs_error_or_latency(self):
        with pytest.raises(ValueError, match="error= or latency="):
            FaultPlan.parse("site=x")
        # latency alone is a valid (sleep-only) rule.
        plan = FaultPlan.parse("site=x,latency=0.001")
        assert plan.rules[0].error is None


class TestFiring:
    def test_site_pattern_is_fnmatch(self):
        plan = FaultPlan.parse("site=spill.*,error=fault,count=99")
        with pytest.raises(FaultError):
            plan.fire("spill.read")
        with pytest.raises(FaultError):
            plan.fire("spill.write")
        plan.fire("job.run")  # no match, no raise
        assert plan.rules[0].fires == 2
        assert plan.rules[0].matches == 2

    def test_count_limits_fires(self):
        plan = FaultPlan.parse("site=s,error=fault,count=2")
        for _ in range(2):
            with pytest.raises(FaultError):
                plan.fire("s")
        plan.fire("s")  # exhausted
        assert plan.rules[0].fires == 2
        assert plan.rules[0].matches == 3

    def test_after_skips_first_invocations(self):
        plan = FaultPlan.parse("site=s,error=fault,after=2,count=1")
        plan.fire("s")
        plan.fire("s")
        with pytest.raises(FaultError):
            plan.fire("s")
        plan.fire("s")  # count exhausted after the one fire

    def test_probability_draws_are_seeded_and_deterministic(self):
        def fire_pattern(seed: int) -> list[bool]:
            plan = FaultPlan.parse(
                f"site=s,error=fault,prob=0.3,seed={seed}"
            )
            outcome = []
            for _ in range(50):
                try:
                    plan.fire("s")
                    outcome.append(False)
                except FaultError:
                    outcome.append(True)
            return outcome

        first = fire_pattern(7)
        assert fire_pattern(7) == first  # same seed → same pattern
        assert fire_pattern(8) != first  # different seed → different
        assert 5 <= sum(first) <= 25  # ~30% of 50, loosely

    def test_error_types(self):
        cases = {
            "fault": faults.FaultError,
            "transient": TransientFaultError,
            "oserror": OSError,
            "enospc": OSError,
            "timeout": TimeoutError,
            "connection": ConnectionResetError,
        }
        for name, exc_type in cases.items():
            plan = FaultPlan.parse(f"site=s,error={name},count=1")
            with pytest.raises(exc_type) as excinfo:
                plan.fire("s")
            assert "'s'" in str(excinfo.value) or "s" in str(excinfo.value)
        import errno

        plan = FaultPlan.parse("site=s,error=enospc,count=1")
        with pytest.raises(OSError) as excinfo:
            plan.fire("s")
        assert excinfo.value.errno == errno.ENOSPC

    def test_latency_rule_sleeps_without_raising(self):
        plan = FaultPlan.parse("site=s,latency=0.05,count=1")
        start = time.monotonic()
        plan.fire("s")
        assert time.monotonic() - start >= 0.04
        plan.fire("s")  # count exhausted: no sleep, no raise

    def test_stats_expose_counters(self):
        plan = FaultPlan.parse("site=s,error=fault,count=1")
        with pytest.raises(FaultError):
            plan.fire("s")
        plan.fire("s")
        (described,) = plan.stats()
        assert described["matches"] == 2
        assert described["fires"] == 1
        assert described["site"] == "s"


class TestActivation:
    def test_inject_scopes_to_block(self):
        maybe_fire("anything")  # inert outside
        with inject("site=demo.site,error=fault,count=1") as plan:
            with pytest.raises(FaultError):
                maybe_fire("demo.site")
        maybe_fire("demo.site")  # inert again
        assert plan.rules[0].fires == 1

    def test_inject_nests(self):
        with inject("site=a,error=fault,count=9") as outer:
            with inject("site=b,error=fault,count=9") as inner:
                with pytest.raises(FaultError):
                    maybe_fire("a")
                with pytest.raises(FaultError):
                    maybe_fire("b")
            assert outer.rules[0].fires == 1
            assert inner.rules[0].fires == 1

    def test_env_activation_via_monkeypatch(self, monkeypatch):
        monkeypatch.setenv(
            FAULT_INJECT_ENV, "site=job.run,error=fault,count=1"
        )
        with pytest.raises(FaultError):
            maybe_fire("job.run")
        maybe_fire("job.run")  # count exhausted
        monkeypatch.delenv(FAULT_INJECT_ENV)
        maybe_fire("job.run")  # plan gone with the env var

    def test_env_plan_reparsed_on_value_change(self, monkeypatch):
        monkeypatch.setenv(FAULT_INJECT_ENV, "site=job.run,error=fault,count=1")
        with pytest.raises(FaultError):
            maybe_fire("job.run")
        monkeypatch.setenv(
            FAULT_INJECT_ENV, "site=http.write,error=fault,count=1"
        )
        maybe_fire("job.run")  # old rule replaced
        with pytest.raises(FaultError):
            maybe_fire("http.write")

    def test_fault_stats_covers_env_and_context(self, monkeypatch):
        monkeypatch.setenv(
            FAULT_INJECT_ENV, "site=ingest.chunk,error=fault,count=0"
        )
        with inject("site=c,error=fault,count=0"):
            sites = [entry["site"] for entry in fault_stats()]
        assert sites == ["ingest.chunk", "c"]
        monkeypatch.delenv(FAULT_INJECT_ENV)
        assert fault_stats() == []

    @pytest.mark.parametrize(
        "pattern",
        ["artifact.*", "artifact.get", "artifact.put", "spill.evict", "no.such.site"],
    )
    def test_env_rule_matching_no_site_is_rejected(self, pattern, monkeypatch):
        """The environment plan is outside input: a rule that could never
        fire fails the next fire, naming the pattern and every site."""
        monkeypatch.setenv(FAULT_INJECT_ENV, f"site={pattern},error=fault")
        message = (
            rf"site='{re.escape(pattern)}' in {FAULT_INJECT_ENV} matches no "
            r"injection site \(sites: spill\.write, spill\.read, "
            r"ingest\.chunk, job\.run, http\.write\)"
        )
        with pytest.raises(ValueError, match=message):
            maybe_fire("job.run")

    @pytest.mark.parametrize("pattern", ["spill.*", "*"])
    def test_env_rule_matching_a_site_is_accepted(self, pattern, monkeypatch):
        monkeypatch.setenv(FAULT_INJECT_ENV, f"site={pattern},error=fault,count=1")
        with pytest.raises(FaultError):
            maybe_fire("spill.read")
        maybe_fire("spill.read")  # count exhausted


def test_sites_are_the_fired_literals_and_the_docstring_table():
    """SITES names exactly the literals src/ passes to maybe_fire, in the
    order of the module docstring's site table."""
    fired, computed = set(), []
    for path in sorted(SRC.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            name = func.attr if isinstance(func, ast.Attribute) else getattr(
                func, "id", None
            )
            if name != "maybe_fire":
                continue
            site = node.args[0] if node.args else None
            if isinstance(site, ast.Constant) and isinstance(site.value, str):
                fired.add(site.value)
            else:
                computed.append(f"{path.name}:{node.lineno}")
    table = re.findall(r"^``([a-z]+\.[a-z]+)``\s{2,}", faults.__doc__, re.M)
    assert computed == []
    assert set(SITES) == fired
    assert list(SITES) == table


class TestTransientClassification:
    def test_classification(self):
        assert is_transient(TransientFaultError("x"))
        assert is_transient(ConnectionResetError())
        assert is_transient(TimeoutError())
        assert not is_transient(faults.FaultError("x"))
        assert not is_transient(OSError(28, "No space left on device"))
        assert not is_transient(ValueError("x"))

        class Flaky(RuntimeError):
            transient = True

        assert is_transient(Flaky())


class TestRetryHelpers:
    def test_with_transient_retries_absorbs_then_succeeds(self):
        attempts = []

        def flaky():
            attempts.append(1)
            if len(attempts) < 3:
                raise TransientFaultError("blip")
            return "ok"

        result, used = with_transient_retries(
            flaky, retries=5, base_delay=0.0001
        )
        assert result == "ok"
        assert used == 2

    def test_with_transient_retries_gives_up_at_limit(self):
        def always():
            raise TransientFaultError("blip")

        with pytest.raises(TransientFaultError):
            with_transient_retries(always, retries=2, base_delay=0.0001)

    def test_with_transient_retries_never_retries_persistent(self):
        attempts = []

        def broken():
            attempts.append(1)
            raise OSError(28, "No space left on device")

        with pytest.raises(OSError):
            with_transient_retries(broken, retries=5, base_delay=0.0001)
        assert len(attempts) == 1  # not worth retrying
