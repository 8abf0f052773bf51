"""HoloClean-style probabilistic error detection.

A laptop-scale rendition of HoloClean's pipeline:

1. *Signal compilation* marks noisy candidate cells (rule violations,
   mild statistical outliers, nulls).
2. *Domain generation* collects candidate values for each noisy cell from
   co-occurrence with the row's other attribute values.
3. *Inference* scores every candidate with a smoothed naive-Bayes model
   over attribute co-occurrence statistics; a cell whose observed value is
   much less probable than the best candidate is declared erroneous.

Numeric columns are discretized into quantile bins for the co-occurrence
statistics, mirroring HoloClean's treatment of continuous attributes.

Codes / token contract (the vectorized proposal engine)
-------------------------------------------------------
Tokenization emits one :class:`TokenColumn` per column — an integer
*code* array plus the distinct observed token values — instead of a
per-value Python list:

* ``tokens`` lists the distinct observed token values in code order
  (``"bin{i}"`` strings for numeric columns, raw cell values otherwise).
  It never contains the missing sentinel.
* ``codes`` is an int64 array with one entry per row; code ``c <
  len(tokens)`` means the row holds ``tokens[c]``, and the single
  reserved code ``len(tokens)`` marks a *missing* token. Missing covers
  null cells **and** cells whose literal value equals the historical
  ``"__missing__"`` sentinel — preserving the legacy collision semantics
  where such values are skipped by the statistics and auto-flagged by
  detection.
* Numeric columns are binned with edges from ``np.quantile`` over the
  observed values and ``np.searchsorted`` per shard (chunk-aware: shards
  are gathered through ``iter_chunks`` so chunked and monolithic frames
  tokenize bit-identically); only bins that actually occur get codes, so
  the domain — and therefore the Laplace smoothing denominator — matches
  the historical per-value tokenizer exactly.

:class:`CooccurrenceModel` is an array program over those codes: ``fit``
builds one sparse contingency table per ordered column pair — sorted
joint codes ``other_code * n_target + target_code`` with row counts via
``np.unique``, plus a per-other-value row-count vector — with no
per-row Python loop. :meth:`CooccurrenceModel.score_matrix` returns the
``(n_cells, n_candidates)`` log-posterior matrix in one shot, and
:meth:`CooccurrenceModel.score_cells` the per-cell observed scores; both
accumulate per-pair ``np.log`` terms in column order, which makes them
bit-identical to the scalar ``log_score`` of the retained pure-Python
reference in ``benchmarks/repair_reference.py``.

Artifact caching: when a content-addressed store is supplied (duck-typed
:class:`~repro.core.artifacts.ArtifactStore`), tokenization publishes
per-column ``repair:tokens`` artifacts keyed by column fingerprint and
the fitted model a ``repair:cooccurrence`` artifact keyed by all column
fingerprints — so a detect → repair cycle over content-identical frames
(repair masks cells that are already null) fits the model once, and
re-tokenizes only columns whose content actually changed. When *some*
columns changed, the refit is still mostly warm: each unordered pair's
contingency table is a ``repair:cooccurrence:pair`` artifact keyed on
the two columns' fingerprints, so only the pairs touching a changed
column recount.
"""

from __future__ import annotations

from typing import Any, Hashable, Sequence

import numpy as np

from ..dataframe import Cell, DataFrame
from .base import DetectionContext, Detector
from .outliers import IQRDetector

_MISSING = "__missing__"


class TokenColumn:
    """Integer-coded tokens for one column (see the module docstring).

    ``tokens`` holds the distinct observed token values in code order;
    ``codes`` maps every row to a token (``len(tokens)`` = missing).
    Instances are treated as immutable once built — cached token
    artifacts are shared across consumers without copying.
    """

    __slots__ = ("tokens", "codes")

    def __init__(self, tokens: Sequence[Hashable], codes: np.ndarray) -> None:
        self.tokens: list[Hashable] = list(tokens)
        self.codes = np.asarray(codes, dtype=np.int64)

    @property
    def missing_code(self) -> int:
        return len(self.tokens)


def _tokenize_numeric(column: Any, n_bins: int) -> TokenColumn:
    """Quantile-bin a numeric column into compact bin codes (chunk-aware)."""
    values_parts: list[np.ndarray] = []
    mask_parts: list[np.ndarray] = []
    for shard in column.iter_chunks():
        values_parts.append(np.asarray(shard.values_array()))
        mask_parts.append(np.asarray(shard.mask()))
    data = values_parts[0] if len(values_parts) == 1 else np.concatenate(values_parts)
    mask = mask_parts[0] if len(mask_parts) == 1 else np.concatenate(mask_parts)
    n = len(data)
    valid = ~mask
    finite = data[valid].astype(float)
    if finite.size == 0:
        return TokenColumn([], np.zeros(n, dtype=np.int64))
    quantiles = np.unique(np.quantile(finite, np.linspace(0, 1, n_bins + 1)))
    edges = quantiles[1:-1]
    bins = np.searchsorted(edges, finite)
    observed = np.unique(bins)
    codes = np.empty(n, dtype=np.int64)
    codes[valid] = np.searchsorted(observed, bins)
    codes[mask] = len(observed)
    return TokenColumn([f"bin{int(b)}" for b in observed], codes)


def _tokenize_categorical(column: Any) -> TokenColumn:
    """Raw-value tokens through ``Column.codes()`` (cross-chunk factorize)."""
    raw_codes, n_groups = column.codes()
    mask = np.asarray(column.mask())
    any_missing = bool(mask.any())
    n_valid_groups = n_groups - 1 if any_missing else n_groups
    if n_valid_groups == 0:
        return TokenColumn([], np.zeros(len(raw_codes), dtype=np.int64))
    valid = ~mask
    payload = np.asarray(column.values_array())[valid]
    valid_codes = raw_codes[valid]
    _, first_index = np.unique(valid_codes, return_index=True)
    tokens: list[Hashable] = payload[first_index].tolist()
    # Legacy collision semantics: a literal "__missing__" cell is
    # indistinguishable from a null in the token stream — fold its code
    # into the missing code and compact the rest.
    if any(token == _MISSING for token in tokens):
        keep = [c for c, token in enumerate(tokens) if token != _MISSING]
        remap = np.full(n_groups, len(keep), dtype=np.int64)
        for new_code, old_code in enumerate(keep):
            remap[old_code] = new_code
        return TokenColumn([tokens[c] for c in keep], remap[raw_codes])
    return TokenColumn(tokens, raw_codes)


def _lookup_counts(
    keys: np.ndarray, counts: np.ndarray, joint: np.ndarray
) -> np.ndarray:
    """Counts for joint codes via searchsorted into the sparse table."""
    if keys.size == 0:
        return np.zeros(joint.shape, dtype=np.int64)
    idx = np.searchsorted(keys, joint)
    idx_c = np.minimum(idx, keys.size - 1)
    found = keys[idx_c] == joint
    return np.where(found, counts[idx_c], 0)


class CooccurrenceModel:
    """Smoothed P(value | other attribute's value) statistics over codes.

    ``pair_cache`` is an optional ``(target, other, compute) -> table``
    hook: when set, each unordered pair's contingency table is routed
    through it, so a content-addressed store can replay tables for
    column pairs whose content did not change (see
    :meth:`HoloCleanDetector.fitted_model`). ``alpha`` only smooths
    scoring, so cached tables are valid across alpha values.
    """

    def __init__(self, alpha: float = 1.0, pair_cache: Any = None) -> None:
        self.alpha = alpha
        self._pair_cache = pair_cache
        self._order: list[str] = []
        self._columns: dict[str, TokenColumn] = {}
        #: (target, other) -> (sorted joint codes, counts, seen-per-other)
        self._pairs: dict[
            tuple[str, str], tuple[np.ndarray, np.ndarray, np.ndarray]
        ] = {}

    def fit(self, tokens: dict[str, TokenColumn]) -> "CooccurrenceModel":
        """Build per-pair contingency tables with array programs only.

        ``tokens`` maps column name to its :class:`TokenColumn`. Each
        unordered column pair is joint-coded once (``other * n_target +
        target`` over rows where both are observed) and counted with
        ``np.unique``; the transposed direction is derived from the same
        sparse table, so the fit contains no per-row Python loop.
        """
        self._order = list(tokens)
        self._columns = dict(tokens)
        self._pairs = {}
        valid_masks = {
            name: tc.codes != tc.missing_code for name, tc in self._columns.items()
        }
        names = self._order
        for i, target in enumerate(names):
            tcol = self._columns[target]
            n_t = len(tcol.tokens)
            for other in names[i + 1 :]:
                ocol = self._columns[other]
                n_o = len(ocol.tokens)
                if n_t == 0 or n_o == 0:
                    empty = np.empty(0, dtype=np.int64)
                    self._pairs[(target, other)] = (
                        empty, empty, np.zeros(n_o, dtype=np.int64)
                    )
                    self._pairs[(other, target)] = (
                        empty, empty, np.zeros(n_t, dtype=np.int64)
                    )
                    continue
                def compute(
                    target: str = target,
                    other: str = other,
                    tcol: TokenColumn = tcol,
                    ocol: TokenColumn = ocol,
                    n_t: int = n_t,
                ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
                    both = valid_masks[target] & valid_masks[other]
                    tc = tcol.codes[both]
                    oc = ocol.codes[both]
                    joint = oc * n_t + tc
                    keys, counts = np.unique(joint, return_counts=True)
                    seen_o = np.bincount(oc, minlength=len(ocol.tokens))
                    seen_t = np.bincount(tc, minlength=n_t)
                    return keys, counts, seen_o, seen_t

                if self._pair_cache is not None:
                    keys, counts, seen_o, seen_t = self._pair_cache(
                        target, other, compute
                    )
                else:
                    keys, counts, seen_o, seen_t = compute()
                self._pairs[(target, other)] = (keys, counts, seen_o)
                # transpose: re-key the same sparse entries as t * n_o + o
                keys_t = (keys % n_t) * n_o + keys // n_t
                order = np.argsort(keys_t)
                self._pairs[(other, target)] = (
                    keys_t[order], counts[order], seen_t
                )
        return self

    # ------------------------------------------------------------------
    def domain(self, column: str) -> set[Hashable]:
        tcol = self._columns.get(column)
        return set(tcol.tokens) if tcol is not None else set()

    # ------------------------------------------------------------------
    def score_matrix(
        self,
        column: str,
        rows: Sequence[int] | np.ndarray,
        candidate_codes: Sequence[int] | np.ndarray | None = None,
    ) -> np.ndarray:
        """Batched log-posteriors: one row per cell, one column per candidate.

        Entry ``(i, j)`` is the smoothed log-posterior of candidate
        ``tokens[cand[j]]`` given row ``rows[i]``'s other tokens: per-pair
        terms ``log((count + alpha) / (seen + alpha * domain_size))``
        accumulate in fit column order, and missing other-values
        contribute an exact ``0.0`` (bit-identical to the reference's
        scalar ``log_score``).
        """
        rows_arr = np.asarray(rows, dtype=np.intp)
        tcol = self._columns[column]
        n_t = len(tcol.tokens)
        if candidate_codes is None:
            cand = np.arange(n_t, dtype=np.int64)
        else:
            cand = np.asarray(candidate_codes, dtype=np.int64)
        result = np.zeros((rows_arr.size, cand.size))
        if rows_arr.size == 0 or cand.size == 0:
            return result
        alpha_d = self.alpha * max(1, n_t)
        for other in self._order:
            if other == column:
                continue
            ocol = self._columns[other]
            oc = ocol.codes[rows_arr]
            valid = oc != ocol.missing_code
            if not valid.any():
                continue
            keys, counts, seen = self._pairs[(column, other)]
            oc_safe = np.where(valid, oc, 0)
            joint = oc_safe[:, None] * n_t + cand[None, :]
            cnt = _lookup_counts(keys, counts, joint)
            term = np.log((cnt + self.alpha) / (seen[oc_safe][:, None] + alpha_d))
            term[~valid] = 0.0
            result += term
        return result

    def score_cells(
        self,
        column: str,
        rows: Sequence[int] | np.ndarray,
        codes: Sequence[int] | np.ndarray,
    ) -> np.ndarray:
        """Per-cell log-posterior of one (possibly different) code per row."""
        rows_arr = np.asarray(rows, dtype=np.intp)
        tcodes = np.asarray(codes, dtype=np.int64)
        tcol = self._columns[column]
        n_t = len(tcol.tokens)
        result = np.zeros(rows_arr.size)
        if rows_arr.size == 0:
            return result
        alpha_d = self.alpha * max(1, n_t)
        for other in self._order:
            if other == column:
                continue
            ocol = self._columns[other]
            oc = ocol.codes[rows_arr]
            valid = oc != ocol.missing_code
            if not valid.any():
                continue
            keys, counts, seen = self._pairs[(column, other)]
            oc_safe = np.where(valid, oc, 0)
            joint = oc_safe * n_t + tcodes
            cnt = _lookup_counts(keys, counts, joint)
            term = np.log((cnt + self.alpha) / (seen[oc_safe] + alpha_d))
            term[~valid] = 0.0
            result += term
        return result


class HoloCleanDetector(Detector):
    """Probabilistic detector over compiled noisy-cell candidates."""

    name = "holoclean"

    def __init__(
        self,
        n_bins: int = 12,
        alpha: float = 1.0,
        posterior_margin: float = 2.0,
        max_domain: int = 24,
    ) -> None:
        super().__init__(
            n_bins=n_bins,
            alpha=alpha,
            posterior_margin=posterior_margin,
            max_domain=max_domain,
        )
        self.n_bins = n_bins
        self.alpha = alpha
        self.posterior_margin = posterior_margin
        self.max_domain = max_domain

    # ------------------------------------------------------------------
    def tokenize(self, frame: DataFrame, store: Any = None) -> dict[str, TokenColumn]:
        """Discretize the frame: quantile bins for numerics, raw otherwise.

        Returns one :class:`TokenColumn` per column. With a content-
        addressed ``store``, each column's tokens are published as a
        ``repair:tokens`` artifact keyed by that column's fingerprint
        (plus ``n_bins`` for numerics), so only columns whose content
        changed since the last tokenization recompute.
        """
        store = store or None
        tokens: dict[str, TokenColumn] = {}
        for name in frame.column_names:
            column = frame.column(name)
            numeric = column.is_numeric()
            if store:
                params = (self.n_bins,) if numeric else ()
                tokens[name] = store.cached(
                    "repair:tokens",
                    (column.fingerprint(),),
                    params,
                    lambda: (
                        _tokenize_numeric(column, self.n_bins)
                        if numeric
                        else _tokenize_categorical(column)
                    ),
                )
            elif numeric:
                tokens[name] = _tokenize_numeric(column, self.n_bins)
            else:
                tokens[name] = _tokenize_categorical(column)
        return tokens

    def fitted_model(
        self,
        frame: DataFrame,
        tokens: dict[str, TokenColumn],
        store: Any = None,
    ) -> CooccurrenceModel:
        """Fit (or fetch) the co-occurrence model for ``frame``'s content.

        With a store, the fitted model is a ``repair:cooccurrence``
        artifact keyed by every column fingerprint plus ``(n_bins,
        alpha)`` — the detect → repair loop over content-identical
        frames fits once and replays the same model.

        A *partial* change is incremental too: when any column's content
        differs, the whole-model entry misses but the refit routes each
        unordered pair's contingency table through a finer-grained
        ``repair:cooccurrence:pair`` artifact keyed on the two columns'
        fingerprints (plus ``n_bins``, which shapes the token domains).
        Repairing one of ``c`` columns recomputes only the ``c - 1``
        pairs that touch it; the other tables replay from cache. Alpha is
        deliberately absent from the pair key — it smooths scoring, not
        the counted tables.
        """
        store = store or None
        if store:
            fingerprints = dict(
                zip(frame.column_names, frame.column_fingerprints())
            )

            def pair_cache(target: str, other: str, compute: Any) -> Any:
                return store.cached(
                    "repair:cooccurrence:pair",
                    (fingerprints[target], fingerprints[other]),
                    (self.n_bins,),
                    compute,
                )

            return store.cached(
                "repair:cooccurrence",
                frame.column_fingerprints(),
                (self.n_bins, self.alpha),
                lambda: CooccurrenceModel(
                    alpha=self.alpha, pair_cache=pair_cache
                ).fit(tokens),
            )
        return CooccurrenceModel(alpha=self.alpha).fit(tokens)

    def compile_signals(
        self, frame: DataFrame, context: DetectionContext
    ) -> set[Cell]:
        """Candidate noisy cells from rules, outliers, and nulls."""
        noisy: set[Cell] = set()
        for rule in context.rules:
            noisy |= rule.violations(frame)
        outliers = IQRDetector(factor=1.5).detect(frame, context)
        noisy |= outliers.cells
        noisy |= frame.missing_cells()
        return noisy

    # ------------------------------------------------------------------
    def _detect(
        self, frame: DataFrame, context: DetectionContext
    ) -> tuple[set[Cell], dict[Cell, float], dict[str, Any]]:
        store = context.artifact_store or None
        tokens = self.tokenize(frame, store=store)
        model = self.fitted_model(frame, tokens, store=store)
        noisy = self.compile_signals(frame, context)
        cells: set[Cell] = set()
        scores: dict[Cell, float] = {}
        by_column: dict[str, list[int]] = {}
        for row, column in noisy:
            by_column.setdefault(column, []).append(row)
        log_margin = np.log(self.posterior_margin)
        for column, rows in by_column.items():
            tcol = tokens[column]
            rows_arr = np.asarray(rows, dtype=np.intp)
            obs_codes = tcol.codes[rows_arr]
            missing = obs_codes == tcol.missing_code
            for row in rows_arr[missing].tolist():
                cells.add((row, column))
                scores[(row, column)] = 1.0
            n_t = len(tcol.tokens)
            if n_t < 2:
                continue
            live_rows = rows_arr[~missing]
            if live_rows.size == 0:
                continue
            live_obs = obs_codes[~missing]
            candidates = self._prune_domain_codes(tcol)
            best = model.score_matrix(column, live_rows, candidates).max(axis=1)
            observed = model.score_cells(column, live_rows, live_obs)
            # The historical candidate list appended the observed token
            # when pruning dropped it; folding its score into the max is
            # the same computation without the per-cell list rebuild.
            margin = np.maximum(best, observed) - observed
            flagged = margin >= log_margin
            for row, gap in zip(
                live_rows[flagged].tolist(), margin[flagged].tolist()
            ):
                cells.add((row, column))
                scores[(row, column)] = float(gap)
        metadata = {"noisy_candidates": len(noisy)}
        return cells, scores, metadata

    def _prune_domain_codes(self, tcol: TokenColumn) -> np.ndarray:
        """Codes of the first ``max_domain`` domain tokens in str order."""
        order = sorted(range(len(tcol.tokens)), key=lambda c: str(tcol.tokens[c]))
        return np.asarray(order[: self.max_domain], dtype=np.int64)
