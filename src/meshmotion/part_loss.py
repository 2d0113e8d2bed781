"""Part-wise distribution loss over labeled vertex ranges.

Vertex features pool into per-part probability distributions via softmax over
per-vertex scores; prediction/target distributions compare through a KL term
weighted by variance-derived part weights, summed over the parts of one
resolution level (``model.Model.loss`` sums the levels).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import ShapeError, Tensor

PROB_FLOOR = 1e-12


class PartMapError(ValueError):
    """Invalid part label map."""


@dataclass
class PartLabelMap:
    """Ordered vertex index ranges (inclusive) per part, with weights."""

    ranges: list[tuple[int, int]]
    weights: np.ndarray | None = None  # per-part, defaults to ones

    def __post_init__(self):
        if not self.ranges:
            raise PartMapError("empty part map")
        prev_end = -1
        for s, e in self.ranges:
            if s != prev_end + 1 or e < s:
                raise PartMapError(
                    f"ranges must be sorted, disjoint and cover [0, n); got {self.ranges}"
                )
            prev_end = e
        if self.weights is None:
            self.weights = np.ones(len(self.ranges))
        if len(self.weights) != len(self.ranges):
            raise PartMapError("one weight per part required")
        if np.any(np.asarray(self.weights) < 0):
            raise PartMapError("weights must be nonnegative")

    @property
    def m(self) -> int:
        return len(self.ranges)

    @property
    def n_vertices(self) -> int:
        return self.ranges[-1][1] + 1


def part_map_from_ranges(ranges) -> PartLabelMap:
    return PartLabelMap(ranges=[(int(s), int(e)) for s, e in ranges])


def part_kl(y_pred: Tensor | np.ndarray, y_true: Tensor | np.ndarray) -> Tensor:
    """sum(y_true * (log y_true - log y_pred)) with 0*log 0 = 0.

    Predictions are floored at 1e-12 inside the log. Batched rows average.
    """
    y_pred, y_true = ad.as_tensor(y_pred), ad.as_tensor(y_true)
    if y_pred.shape != y_true.shape:
        raise ShapeError(f"support mismatch: {y_pred.shape} vs {y_true.shape}")
    log_pred = ad.log(ad.clip_min(y_pred, PROB_FLOOR))
    # 0*log 0 = 0 on the target side: floor inside the log, zero outside
    log_true = ad.constant(np.log(np.maximum(y_true.data, PROB_FLOOR)))
    per_entry = ad.mul(y_true, ad.sub(log_true, log_pred))
    summed = ad.sum_(per_entry, axis=per_entry.ndim - 1)
    return ad.mean(summed) if summed.ndim > 0 else summed


def _vertex_scores(features: Tensor) -> Tensor:
    """Scalar score per vertex: L2 norm of its feature row."""
    sq = ad.sum_(ad.mul(features, features), axis=features.ndim - 1)
    return ad.sqrt(ad.add(sq, 1e-12))


def softmax_pool(vertex_features, part_map: PartLabelMap) -> list[Tensor]:
    """Per part, softmax over that part's vertex scores.

    ``vertex_features`` is (n, F) or (S, n, F); rows must cover every vertex
    in the map. Returns one (S, k_p) probability tensor per part, rows
    summing to 1.
    """
    feats = ad.as_tensor(vertex_features)
    if feats.ndim == 2:
        feats = ad.reshape(feats, (1, *feats.shape))
    if feats.shape[1] != part_map.n_vertices:
        raise PartMapError(
            f"features cover {feats.shape[1]} vertices, map expects {part_map.n_vertices}"
        )
    scores = _vertex_scores(feats)  # (S, n)
    probs = []
    for s, e in part_map.ranges:
        sl = ad.take_slice(scores, 1, s, e + 1)
        probs.append(ad.softmax(sl, axis=1))
    return probs


def part_weights_from_variance(gtm_features, part_map: PartLabelMap) -> np.ndarray:
    """Per-part feature variance, normalized to mean 1 (sums to m).

    Treated as a constant: no gradient flows into the weights. A zero-variance
    batch falls back to uniform weights.
    """
    feats = ad.as_tensor(gtm_features).data
    if feats.ndim == 2:
        feats = feats[None]
    if feats.shape[1] != part_map.n_vertices:
        raise PartMapError(
            f"features cover {feats.shape[1]} vertices, map expects {part_map.n_vertices}"
        )
    variances = np.array([feats[:, s:e + 1, :].var() for s, e in part_map.ranges])
    total = variances.sum()
    if total <= 1e-30:
        return np.ones(part_map.m)
    return variances * (part_map.m / total)


def hh_loss(pred_features, true_features, part_map: PartLabelMap,
            gtm_features=None) -> Tensor:
    """Weighted sum of per-part KL terms at one resolution level.

    Both feature sets pool with the same softmax pooling; the target side is
    detached. Weights come from ``gtm_features`` variance when given,
    otherwise from the map's stored weights.
    """
    pred = softmax_pool(pred_features, part_map)
    true_feats = ad.constant(ad.as_tensor(true_features).data)
    true = softmax_pool(true_feats, part_map)
    if gtm_features is not None:
        lam = part_weights_from_variance(gtm_features, part_map)
    else:
        lam = np.asarray(part_map.weights, dtype=np.float64)
    total = None
    for p in range(part_map.m):
        term = ad.mul(part_kl(pred[p], true[p]), float(lam[p]))
        total = term if total is None else ad.add(total, term)
    return total
