"""TANE — level-wise discovery of minimal functional dependencies.

Implements the algorithm of Huhtala et al. (1999): a breadth-first walk of
the attribute-set lattice with stripped partitions, rhs-candidate sets
``C+`` for minimality pruning, and key pruning.
"""

from __future__ import annotations

from ..dataframe import DataFrame
from .partition import StrippedPartition, error_from_columns
from .rules import FunctionalDependency

AttrSet = frozenset[str]


class TaneResult:
    """Discovered minimal FDs plus search statistics.

    ``partitions_computed`` counts lattice nodes whose partition *or*
    stripped error was evaluated — the hybrid refinement may satisfy a
    node with an error-only kernel instead of materializing its classes,
    but the node still cost one refinement evaluation.
    """

    def __init__(self) -> None:
        self.dependencies: list[FunctionalDependency] = []
        self.levels_explored = 0
        self.partitions_computed = 0

    def add(self, determinants: AttrSet, dependent: str) -> None:
        self.dependencies.append(
            FunctionalDependency(tuple(sorted(determinants)), dependent)
        )


def discover_fds(
    frame: DataFrame,
    max_lhs_size: int | None = None,
    columns: list[str] | None = None,
    store=None,
) -> list[FunctionalDependency]:
    """Convenience wrapper returning the minimal FDs of a frame."""
    return tane(
        frame, max_lhs_size=max_lhs_size, columns=columns, store=store
    ).dependencies


def tane(
    frame: DataFrame,
    max_lhs_size: int | None = None,
    columns: list[str] | None = None,
    store=None,
) -> TaneResult:
    """Run TANE over ``frame``; optionally cap the LHS size for speed.

    ``store`` (an :class:`~repro.core.artifacts.ArtifactStore`) caches
    the base partitions and lattice error integers by column content, so
    repeated discovery inside a session — including after repairs that
    leave most columns untouched — skips the grouping sorts for every
    unchanged attribute set.
    """
    attributes = list(columns) if columns is not None else frame.column_names
    result = TaneResult()
    if not attributes or frame.num_rows == 0:
        return result
    schema: AttrSet = frozenset(attributes)
    limit = len(attributes) if max_lhs_size is None else max_lhs_size + 1

    partitions: dict[AttrSet, StrippedPartition] = {
        frozenset(): StrippedPartition.from_columns(frame, [], store=store)
    }
    errors: dict[AttrSet, int] = {frozenset(): partitions[frozenset()].error}
    for attribute in attributes:
        partition = StrippedPartition.from_column(frame, attribute, store=store)
        partitions[frozenset([attribute])] = partition
        errors[frozenset([attribute])] = partition.error
        result.partitions_computed += 1

    # C+(X): rhs candidates. C+(∅) = R.
    rhs_candidates: dict[AttrSet, AttrSet] = {frozenset(): schema}
    level: list[AttrSet] = [frozenset([a]) for a in attributes]

    while level and result.levels_explored < limit:
        result.levels_explored += 1
        _compute_candidates(level, rhs_candidates)
        _compute_dependencies(level, rhs_candidates, errors, schema, result)
        level = _prune(level, rhs_candidates, errors, schema, result)
        # Partitions for the generated level are only needed if the loop
        # will explore it — and the deepest explored level only ever
        # reads the error integer, never the classes, so its products
        # run in cheap error-only mode.
        if result.levels_explored >= limit:
            mode = "skip"
        elif result.levels_explored + 1 >= limit:
            mode = "error_only"
        else:
            mode = "full"
        level = _generate_next_level(
            frame, level, partitions, errors, result, mode, store=store
        )
    return result


def _compute_candidates(
    level: list[AttrSet], rhs_candidates: dict[AttrSet, AttrSet]
) -> None:
    for subset in level:
        if subset in rhs_candidates:
            continue
        candidate: AttrSet | None = None
        for attribute in subset:
            parent = subset - {attribute}
            parent_candidates = rhs_candidates.get(parent, frozenset())
            candidate = (
                parent_candidates
                if candidate is None
                else candidate & parent_candidates
            )
        rhs_candidates[subset] = candidate if candidate is not None else frozenset()


def _compute_dependencies(
    level: list[AttrSet],
    rhs_candidates: dict[AttrSet, AttrSet],
    errors: dict[AttrSet, int],
    schema: AttrSet,
    result: TaneResult,
) -> None:
    for subset in level:
        for attribute in sorted(subset & rhs_candidates[subset]):
            lhs = subset - {attribute}
            if errors[lhs] == errors[subset]:
                result.add(lhs, attribute)
                rhs_candidates[subset] = rhs_candidates[subset] - {attribute}
                rhs_candidates[subset] = rhs_candidates[subset] - (schema - subset)


def _prune(
    level: list[AttrSet],
    rhs_candidates: dict[AttrSet, AttrSet],
    errors: dict[AttrSet, int],
    schema: AttrSet,
    result: TaneResult,
) -> list[AttrSet]:
    # Minimality oracle for key pruning: X -> A (with X a superkey) is
    # minimal exactly when no already-output FD has the same dependent and
    # a LHS contained in X — every smaller valid FD was emitted at an
    # earlier level (or this level's compute_dependencies pass).
    found: dict[str, list[frozenset[str]]] = {}
    for fd in result.dependencies:
        found.setdefault(fd.dependent, []).append(frozenset(fd.determinants))

    remaining = []
    for subset in level:
        if not rhs_candidates[subset]:
            continue
        if errors[subset] == 0:
            for attribute in sorted(rhs_candidates[subset] - subset):
                smaller = found.get(attribute, [])
                if not any(lhs <= subset for lhs in smaller):
                    result.add(subset, attribute)
                    found.setdefault(attribute, []).append(subset)
            continue
        remaining.append(subset)
    return remaining


def _generate_next_level(
    frame: DataFrame,
    level: list[AttrSet],
    partitions: dict[AttrSet, StrippedPartition],
    errors: dict[AttrSet, int],
    result: TaneResult,
    mode: str = "full",
    store=None,
) -> list[AttrSet]:
    """Apriori-style candidate generation with partition products.

    ``mode`` controls how much work each generated union costs: ``full``
    materializes the refined partition (needed to build deeper levels),
    ``error_only`` computes just ``e(pi)`` (enough to explore the final
    level), and ``skip`` computes nothing (the level is never explored).
    """
    level_set = set(level)
    next_level: list[AttrSet] = []
    seen: set[AttrSet] = set()
    ordered = [tuple(sorted(subset)) for subset in level]
    ordered.sort()
    for i, left in enumerate(ordered):
        for right in ordered[i + 1 :]:
            if left[:-1] != right[:-1]:
                break
            union = frozenset(left) | frozenset(right)
            if union in seen:
                continue
            if all(
                union - {attribute} in level_set for attribute in union
            ):
                seen.add(union)
                next_level.append(union)
                if mode == "skip" or union in errors:
                    continue
                # Hybrid refinement: when both parents are materialized
                # and their stripped classes are small, the pairwise
                # product is cheapest (and worth materializing for deeper
                # levels). Otherwise grouping the cached column codes
                # directly beats scattering large owner arrays — those
                # unions stay unmaterialized and their supersets fall
                # back to code grouping too.
                left_part = partitions.get(frozenset(left))
                right_part = partitions.get(frozenset(right))
                small = (
                    left_part is not None
                    and right_part is not None
                    and left_part.size + right_part.size <= frame.num_rows
                )
                if small and mode == "full":
                    partitions[union] = left_part.product(right_part)
                    errors[union] = partitions[union].error
                elif small:
                    errors[union] = left_part.product_error(right_part)
                else:
                    errors[union] = error_from_columns(
                        frame, union, store=store
                    )
                result.partitions_computed += 1
    return next_level
