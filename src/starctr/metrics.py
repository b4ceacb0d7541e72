"""Ranking and calibration metrics: AUC, per-user weighted AUC, PCOC."""

from __future__ import annotations

import json
from dataclasses import dataclass, asdict
from typing import NamedTuple

import numpy as np

from .errors import DataError, MetricError, UndefinedAucError


class PredictionColumns(NamedTuple):
    """Predictions as aligned arrays, one entry per example."""
    user: np.ndarray
    p: np.ndarray
    yhat: np.ndarray
    y: np.ndarray


def auc(scores, labels) -> float:
    """Rank-based (Mann-Whitney) AUC; tied scores contribute midranks.

    Raises UndefinedAucError when the group has a single class.  The value
    is ``_group_aucs`` of one group.
    """
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.float64)
    n = scores.size
    npos = int(labels.sum())
    if npos == 0 or npos == n:
        raise UndefinedAucError(
            f"single-class group ({npos} positives of {n})"
        )
    _, _, values = _group_aucs((np.zeros(n, dtype=np.int8),), scores, labels)
    return values[0]


def auc_or_none(scores, labels) -> float | None:
    try:
        return auc(scores, labels)
    except UndefinedAucError:
        return None


def weighted_auc(predictions: PredictionColumns) -> float:
    """Impression-weighted average of per-user AUCs.

    Users whose impressions are single-class have no AUC and are excluded
    from both sums.
    """
    value, used, _ = weighted_auc_detail(predictions)
    if used == 0:
        raise MetricError("no user has a defined AUC")
    return value


def _group_aucs(keys: tuple[np.ndarray, ...], yhat: np.ndarray, y: np.ndarray
                ) -> tuple[tuple[np.ndarray, ...], np.ndarray, np.ndarray]:
    """AUC of every group of rows with equal keys: the one rank kernel
    behind ``auc``, the per-domain and the per-user AUCs.

    Returns each group's keys, size and AUC (NaN for a single-class group),
    groups in ascending key order, the first key most significant.  Ranks
    are half-integers, so every rank sum is exact whatever its order.
    """
    order = np.lexsort((yhat,) + keys[::-1])
    n = order.size
    sorted_keys = tuple(k[order] for k in keys)
    scores = yhat[order]
    labels = np.asarray(y, dtype=np.float64)[order]
    new_group = np.zeros(n, dtype=bool)
    new_group[:1] = True
    for k in sorted_keys:
        new_group[1:] |= k[1:] != k[:-1]
    new_run = new_group.copy()
    new_run[1:] |= scores[1:] != scores[:-1]
    group_start = np.flatnonzero(new_group)
    run_start = np.flatnonzero(new_run)
    run_end = np.append(run_start[1:], n)
    group_of = np.cumsum(new_group) - 1
    ranks = ((run_start + run_end + 1) / 2.0)[np.cumsum(new_run) - 1]
    ranks -= group_start[group_of]
    sizes = np.diff(np.append(group_start, n))
    npos = np.bincount(group_of, weights=labels, minlength=sizes.size)
    rank_sum = np.bincount(group_of, weights=ranks * labels,
                           minlength=sizes.size)
    nneg = sizes - npos
    defined = (npos > 0) & (nneg > 0)
    values = np.full(sizes.size, np.nan)
    values[defined] = ((rank_sum - npos * (npos + 1) / 2.0)[defined]
                       / (npos * nneg)[defined])
    return tuple(k[group_start] for k in sorted_keys), sizes, values


def _weighted_mean(sizes: np.ndarray, values: np.ndarray
                   ) -> tuple[float, int, int]:
    """(size-weighted mean of the defined values, defined, undefined)."""
    defined = ~np.isnan(values)
    used = int(defined.sum())
    if used == 0:
        return float("nan"), 0, int(sizes.size)
    weights = sizes[defined].astype(np.float64)
    # Accumulated one group at a time, in group order.
    num = np.cumsum(weights * values[defined])[-1]
    return float(num / weights.sum()), used, int(sizes.size) - used


def weighted_auc_detail(predictions: PredictionColumns
                        ) -> tuple[float, int, int]:
    """(weighted AUC, users counted, users excluded)."""
    _, sizes, values = _group_aucs((predictions.user,), predictions.yhat,
                                   predictions.y)
    return _weighted_mean(sizes, values)


def pcoc(yhat, y) -> float:
    """Predicted CTR over observed CTR; 1.0 means calibrated on average.

    Computed as mean(yhat / mean(y)): normalizing before averaging keeps the
    constant-predictor-at-empirical-CTR case exactly 1.0 for any group size.
    """
    yhat = np.asarray(yhat, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    clicks = y.sum()
    if clicks == 0:
        raise MetricError("PCOC undefined: zero clicks")
    return float((yhat / y.mean()).mean())


def pcoc_or_none(yhat, y) -> float | None:
    try:
        return pcoc(yhat, y)
    except MetricError:
        return None


@dataclass
class MetricReport:
    overall_auc: float | None
    weighted_auc: float | None
    weighted_auc_users: int
    weighted_auc_excluded: int
    per_domain_auc: dict[int, float | None]
    per_domain_weighted_auc: dict[int, float | None]
    per_domain_pcoc: dict[int, float | None]
    per_domain_count: dict[int, int]
    pcoc_std: float | None
    n_examples: int

    def to_dict(self) -> dict:
        d = asdict(self)
        # JSON object keys must be strings; keep domain maps sorted.
        for key in ("per_domain_auc", "per_domain_weighted_auc",
                    "per_domain_pcoc", "per_domain_count"):
            d[key] = {str(k): d[key][k] for k in sorted(d[key])}
        return d

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, indent=2) + "\n"

    def to_kv_text(self) -> str:
        lines = [
            f"n_examples={self.n_examples}",
            f"overall_auc={_fmt(self.overall_auc)}",
            f"weighted_auc={_fmt(self.weighted_auc)}",
            f"weighted_auc_users={self.weighted_auc_users}",
            f"weighted_auc_excluded={self.weighted_auc_excluded}",
            f"pcoc_std={_fmt(self.pcoc_std)}",
        ]
        for p in sorted(self.per_domain_auc):
            lines.append(f"domain.{p}.count={self.per_domain_count[p]}")
            lines.append(f"domain.{p}.auc={_fmt(self.per_domain_auc[p])}")
            lines.append(
                f"domain.{p}.weighted_auc="
                f"{_fmt(self.per_domain_weighted_auc[p])}")
            lines.append(f"domain.{p}.pcoc={_fmt(self.per_domain_pcoc[p])}")
        return "\n".join(lines) + "\n"


def _fmt(value) -> str:
    return "undefined" if value is None else repr(float(value))


def build_report(predictions: PredictionColumns) -> MetricReport:
    yhat, y, domains = predictions.yhat, predictions.y, predictions.p
    if not yhat.size:
        raise DataError("no predictions to report on")
    if not ((yhat > 0.0) & (yhat < 1.0)).all():
        bad = yhat[(yhat <= 0.0) | (yhat >= 1.0)][0]
        raise DataError(f"prediction {bad!r} outside (0, 1)")
    overall = auc_or_none(yhat, y)
    wauc, used, excluded = weighted_auc_detail(predictions)
    (domain_of,), domain_sizes, domain_aucs = _group_aucs((domains,), yhat, y)
    # Per-user AUC within each domain: (domain, user) grouping.
    (group_domain, _), group_sizes, group_aucs = _group_aucs(
        (domains, predictions.user), yhat, y)
    per_auc: dict[int, float | None] = {}
    per_wauc: dict[int, float | None] = {}
    per_pcoc: dict[int, float | None] = {}
    per_count: dict[int, int] = {}
    for p, size, p_auc in zip(domain_of.tolist(), domain_sizes.tolist(),
                              domain_aucs):
        mask = domains == p
        per_count[p] = size
        per_auc[p] = None if np.isnan(p_auc) else p_auc
        in_domain = group_domain == p
        value, used_p, _ = _weighted_mean(group_sizes[in_domain],
                                          group_aucs[in_domain])
        per_wauc[p] = value if used_p else None
        per_pcoc[p] = pcoc_or_none(yhat[mask], y[mask])
    defined = [v for v in per_pcoc.values() if v is not None]
    pcoc_std = float(np.std(defined)) if defined else None
    return MetricReport(
        overall_auc=overall,
        weighted_auc=None if used == 0 else wauc,
        weighted_auc_users=used,
        weighted_auc_excluded=excluded,
        per_domain_auc=per_auc,
        per_domain_weighted_auc=per_wauc,
        per_domain_pcoc=per_pcoc,
        per_domain_count=per_count,
        pcoc_std=pcoc_std,
        n_examples=int(yhat.size),
    )


def pcoc_scatter_svg(per_domain_pcoc: dict[int, float | None]) -> str:
    """Standalone SVG scatter of per-domain PCOC around the 1.0 line."""
    width, height = 420, 260
    margin = 40
    points = [(p, v) for p, v in sorted(per_domain_pcoc.items())
              if v is not None]
    values = [v for _, v in points] or [1.0]
    vmax = max(2.0, max(values) * 1.15)
    plot_w = width - 2 * margin
    plot_h = height - 2 * margin

    def sx(i):
        return margin + plot_w * (i + 0.5) / max(1, len(points))

    def sy(v):
        return height - margin - plot_h * min(v, vmax) / vmax

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
        f'height="{height}" viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<text x="{width / 2:.1f}" y="18" text-anchor="middle" '
        f'font-size="13">per-domain PCOC</text>',
        f'<line x1="{margin}" y1="{height - margin}" x2="{width - margin}" '
        f'y2="{height - margin}" stroke="black"/>',
        f'<line x1="{margin}" y1="{margin}" x2="{margin}" '
        f'y2="{height - margin}" stroke="black"/>',
        f'<line x1="{margin}" y1="{sy(1.0):.2f}" x2="{width - margin}" '
        f'y2="{sy(1.0):.2f}" stroke="gray" stroke-dasharray="4 3"/>',
        f'<text x="{margin - 6}" y="{sy(1.0) + 4:.2f}" text-anchor="end" '
        f'font-size="10">1.0</text>',
    ]
    for i, (p, v) in enumerate(points):
        parts.append(
            f'<circle cx="{sx(i):.2f}" cy="{sy(v):.2f}" r="6" fill="none" '
            f'stroke="steelblue" stroke-width="1.5"/>'
        )
        parts.append(
            f'<text x="{sx(i):.2f}" y="{height - margin + 14}" '
            f'text-anchor="middle" font-size="10">{p}</text>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
