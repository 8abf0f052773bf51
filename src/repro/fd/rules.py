"""Rule objects: functional dependencies and user-defined value rules.

These are the artifacts the dashboard's rule-engineering workflow operates
on (§3): automatically discovered FDs that users validate, plus custom
rules with explicit determinant and dependent columns.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from itertools import repeat
from typing import Any, Callable, Iterable

from ..dataframe import Cell, DataFrame

PENDING = "pending"
CONFIRMED = "confirmed"
REJECTED = "rejected"


def _cells(frame: DataFrame, name: str) -> list[Any]:
    """Every cell of one column (None when missing), in one pass.

    ``column[:]`` is a range read: a spilled column loads each of its
    shards once and stays spilled, where a cell-by-cell scan would make
    one store lookup per cell.
    """
    return frame.column(name)[:].values()


@dataclass(frozen=True)
class FunctionalDependency:
    """``determinants -> dependent`` over column names."""

    determinants: tuple[str, ...]
    dependent: str

    def __post_init__(self) -> None:
        if self.dependent in self.determinants:
            raise ValueError("dependent cannot be one of the determinants")
        object.__setattr__(self, "determinants", tuple(sorted(self.determinants)))

    def __str__(self) -> str:
        lhs = ", ".join(self.determinants) if self.determinants else "∅"
        return f"[{lhs}] -> {self.dependent}"

    def attributes(self) -> set[str]:
        return set(self.determinants) | {self.dependent}

    def violating_groups(self, frame: DataFrame) -> list[list[int]]:
        """Row groups that agree on the determinants but not the dependent."""
        groups: dict[tuple, list[int]] = {}
        if self.determinants:
            keys = zip(*(_cells(frame, name) for name in self.determinants))
        else:
            keys = repeat((), frame.num_rows)
        for i, key in enumerate(keys):
            groups.setdefault(key, []).append(i)
        dependent = _cells(frame, self.dependent)
        return [
            rows for rows in groups.values() if len({dependent[i] for i in rows}) > 1
        ]

    def violations(self, frame: DataFrame) -> set[Cell]:
        """Dependent cells of minority rows inside each violating group.

        Within a violating group the most common dependent value is taken
        as the intended one; the other rows' dependent cells are flagged.
        """
        cells: set[Cell] = set()
        dependent = _cells(frame, self.dependent)
        for rows in self.violating_groups(frame):
            values = Counter(dependent[i] for i in rows)
            majority, _ = max(values.items(), key=lambda kv: (kv[1], str(kv[0])))
            for i in rows:
                if dependent[i] != majority:
                    cells.add((i, self.dependent))
        return cells

    def to_dict(self) -> dict[str, Any]:
        return {
            "determinants": list(self.determinants),
            "dependent": self.dependent,
        }

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "FunctionalDependency":
        return cls(tuple(data["determinants"]), data["dependent"])


@dataclass
class ValueRule:
    """A user-defined predicate rule over single rows.

    ``check`` returns True when the row satisfies the rule; offending rows
    contribute the cells of the rule's columns to the violation set.
    """

    name: str
    columns: tuple[str, ...]
    check: Callable[[dict[str, Any]], bool]
    description: str = ""

    def violations(self, frame: DataFrame) -> set[Cell]:
        cells: set[Cell] = set()
        for i, row in enumerate(frame.iter_rows()):
            try:
                satisfied = bool(self.check(row))
            except Exception:
                satisfied = False
            if not satisfied:
                for column in self.columns:
                    cells.add((i, column))
        return cells


@dataclass
class ManagedRule:
    """An FD with review state — what the user-in-the-loop validates."""

    rule: FunctionalDependency
    status: str = PENDING
    source: str = "discovered"
    note: str = ""

    def to_dict(self) -> dict[str, Any]:
        return {
            "rule": self.rule.to_dict(),
            "status": self.status,
            "source": self.source,
            "note": self.note,
        }


@dataclass
class RuleSet:
    """Collection of managed FDs plus user value rules."""

    managed: list[ManagedRule] = field(default_factory=list)
    value_rules: list[ValueRule] = field(default_factory=list)

    def add_discovered(self, rules: Iterable[FunctionalDependency]) -> None:
        known = {managed.rule for managed in self.managed}
        for rule in rules:
            if rule not in known:
                self.managed.append(ManagedRule(rule=rule, source="discovered"))
                known.add(rule)

    def add_custom(self, rule: FunctionalDependency, note: str = "") -> ManagedRule:
        managed = ManagedRule(
            rule=rule, status=CONFIRMED, source="user", note=note
        )
        self.managed.append(managed)
        return managed

    def set_status(self, rule: FunctionalDependency, status: str) -> None:
        if status not in (PENDING, CONFIRMED, REJECTED):
            raise ValueError(f"unknown status {status!r}")
        for managed in self.managed:
            if managed.rule == rule:
                managed.status = status
                return
        raise KeyError(f"rule {rule} not managed")

    def active_rules(self) -> list[FunctionalDependency]:
        """Rules usable for detection: confirmed, or still pending review."""
        return [m.rule for m in self.managed if m.status != REJECTED]

    def confirmed_rules(self) -> list[FunctionalDependency]:
        return [m.rule for m in self.managed if m.status == CONFIRMED]

    def __len__(self) -> int:
        return len(self.managed)
