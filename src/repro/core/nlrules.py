"""Natural-language rule definition (paper future work 1).

Parses plain-English quality rules into the engine's rule objects, so
domain experts can type constraints instead of composing determinant /
dependent pickers:

    "ZipCode determines City"              -> FunctionalDependency
    "City, State -> ZipCode"               -> FunctionalDependency
    "age between 0 and 120"                -> range ValueRule
    "abv is positive"                      -> sign ValueRule
    "state in {AL, FL, GA}"                -> domain ValueRule
    "ibu is not 99999"                     -> forbidden-value ValueRule

Column names are resolved case-insensitively against the target frame and
may be quoted for names containing spaces ("'Chord Length' is positive").
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Any

from ..dataframe import DataFrame
from ..fd import FunctionalDependency, ValueRule


class RuleParseError(ValueError):
    """The sentence could not be interpreted as a rule."""


@dataclass
class ParsedRule:
    """Outcome of parsing one sentence."""

    text: str
    kind: str  # "fd" | "range" | "sign" | "domain" | "forbidden"
    rule: Any  # FunctionalDependency or ValueRule

    def describe(self) -> str:
        return f"{self.kind}: {self.rule}"


_QUOTED = r"'[^']+'|\"[^\"]+\""
_NAME = rf"(?:{_QUOTED}|[A-Za-z_][\w ]*?)"

_FD_PATTERNS = (
    re.compile(
        rf"^(?P<lhs>{_NAME}(?:\s*,\s*{_NAME})*)\s+determines?\s+(?P<rhs>{_NAME})$",
        re.IGNORECASE,
    ),
    re.compile(
        rf"^(?P<lhs>{_NAME}(?:\s*,\s*{_NAME})*)\s*->\s*(?P<rhs>{_NAME})$",
        re.IGNORECASE,
    ),
    re.compile(
        rf"^(?P<rhs>{_NAME})\s+depends\s+on\s+(?P<lhs>{_NAME}(?:\s*,\s*{_NAME})*)$",
        re.IGNORECASE,
    ),
)

_RANGE_PATTERN = re.compile(
    rf"^(?P<col>{_NAME})\s+(?:is\s+)?between\s+(?P<low>-?[\d.]+)\s+and\s+"
    r"(?P<high>-?[\d.]+)$",
    re.IGNORECASE,
)

_SIGN_PATTERN = re.compile(
    rf"^(?P<col>{_NAME})\s+is\s+(?P<sign>positive|negative|non-negative|"
    r"non-positive)$",
    re.IGNORECASE,
)

_DOMAIN_PATTERN = re.compile(
    rf"^(?P<col>{_NAME})\s+(?:is\s+)?in\s+\{{(?P<values>[^}}]+)\}}$",
    re.IGNORECASE,
)

_FORBIDDEN_PATTERN = re.compile(
    rf"^(?P<col>{_NAME})\s+is\s+not\s+(?P<value>.+)$",
    re.IGNORECASE,
)


def _strip_quotes(name: str) -> str:
    name = name.strip()
    if len(name) >= 2 and name[0] == name[-1] and name[0] in "'\"":
        return name[1:-1]
    return name


def _resolve_column(name: str, frame: DataFrame) -> str:
    """Case-insensitive column lookup with a helpful error."""
    wanted = _strip_quotes(name).strip().lower()
    for column in frame.column_names:
        if column.lower() == wanted:
            return column
    raise RuleParseError(
        f"unknown column {name.strip()!r}; available: {frame.column_names}"
    )


def _parse_literal(token: str) -> Any:
    token = _strip_quotes(token.strip())
    try:
        return int(token)
    except ValueError:
        pass
    try:
        return float(token)
    except ValueError:
        return token


def parse_rule(text: str, frame: DataFrame) -> ParsedRule:
    """Parse one sentence into a rule bound to ``frame``'s columns."""
    sentence = text.strip().rstrip(".")
    if not sentence:
        raise RuleParseError("empty rule text")

    for pattern in _FD_PATTERNS:
        match = pattern.match(sentence)
        if match:
            determinants = tuple(
                _resolve_column(part, frame)
                for part in re.split(r"\s*,\s*", match.group("lhs"))
            )
            dependent = _resolve_column(match.group("rhs"), frame)
            return ParsedRule(
                text=text,
                kind="fd",
                rule=FunctionalDependency(determinants, dependent),
            )

    match = _RANGE_PATTERN.match(sentence)
    if match:
        column = _resolve_column(match.group("col"), frame)
        low = float(match.group("low"))
        high = float(match.group("high"))
        if high < low:
            raise RuleParseError("range upper bound below lower bound")
        return ParsedRule(
            text=text,
            kind="range",
            rule=ValueRule(
                name=f"{column}_between_{low}_{high}",
                columns=(column,),
                check=lambda row, c=column, lo=low, hi=high: (
                    row[c] is None or lo <= float(row[c]) <= hi
                ),
                description=f"{column} in [{low}, {high}]",
            ),
        )

    match = _SIGN_PATTERN.match(sentence)
    if match:
        column = _resolve_column(match.group("col"), frame)
        sign = match.group("sign").lower()
        comparators = {
            "positive": lambda v: v > 0,
            "negative": lambda v: v < 0,
            "non-negative": lambda v: v >= 0,
            "non-positive": lambda v: v <= 0,
        }
        compare = comparators[sign]
        return ParsedRule(
            text=text,
            kind="sign",
            rule=ValueRule(
                name=f"{column}_{sign.replace('-', '_')}",
                columns=(column,),
                check=lambda row, c=column, cmp=compare: (
                    row[c] is None or cmp(float(row[c]))
                ),
                description=f"{column} is {sign}",
            ),
        )

    match = _DOMAIN_PATTERN.match(sentence)
    if match:
        column = _resolve_column(match.group("col"), frame)
        values = {
            _parse_literal(part)
            for part in match.group("values").split(",")
            if part.strip()
        }
        if not values:
            raise RuleParseError("empty domain set")
        return ParsedRule(
            text=text,
            kind="domain",
            rule=ValueRule(
                name=f"{column}_domain",
                columns=(column,),
                check=lambda row, c=column, vs=values: (
                    row[c] is None or row[c] in vs
                ),
                description=f"{column} in {sorted(map(str, values))}",
            ),
        )

    match = _FORBIDDEN_PATTERN.match(sentence)
    if match:
        column = _resolve_column(match.group("col"), frame)
        forbidden = _parse_literal(match.group("value"))
        return ParsedRule(
            text=text,
            kind="forbidden",
            rule=ValueRule(
                name=f"{column}_not_{forbidden}",
                columns=(column,),
                check=lambda row, c=column, bad=forbidden: row[c] != bad,
                description=f"{column} must not equal {forbidden!r}",
            ),
        )

    raise RuleParseError(f"could not interpret rule text: {text!r}")
