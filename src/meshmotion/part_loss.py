"""Part-wise distribution loss over labeled vertex ranges.

Vertex features pool into per-part probability distributions via softmax over
per-vertex scores; prediction/target distributions compare through a KL term
weighted by variance-derived part weights, summed over the parts of one
resolution level (``model.Model.loss`` sums the levels). The parts are
contiguous vertex ranges, so one level's pooling and KL terms over all parts
are one segmented ``autodiff.segment_softmax_kl`` tape record; with the
prediction's vertex scores a level adds five records, whatever its part count.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor

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

    @property
    def starts(self) -> np.ndarray:
        return np.array([s for s, _ in self.ranges])

    @property
    def sizes(self) -> np.ndarray:
        return np.array([e - s + 1 for s, e in self.ranges])


def part_map_from_ranges(ranges) -> PartLabelMap:
    return PartLabelMap(ranges=[(int(s), int(e)) for s, e in ranges])


def _vertex_scores(features: Tensor) -> Tensor:
    """Scalar score per vertex: L2 norm of its feature row."""
    sq = ad.sum_(ad.mul(features, features), axis=features.ndim - 1)
    return ad.sqrt(ad.add(sq, 1e-12))


def _check_cover(n_vertices: int, part_map: PartLabelMap) -> None:
    if n_vertices != part_map.n_vertices:
        raise PartMapError(
            f"features cover {n_vertices} vertices, map expects {part_map.n_vertices}"
        )


def part_weights_from_variance(gtm_features, part_map: PartLabelMap) -> np.ndarray:
    """Per-part feature variance, normalized to mean 1 (sums to m).

    Treated as a constant: no gradient flows into the weights. A zero-variance
    batch falls back to uniform weights.
    """
    feats = ad.as_tensor(gtm_features).data
    _check_cover(feats.shape[-2], part_map)
    feats = feats.reshape(-1, *feats.shape[-2:])
    starts = part_map.starts
    seg = np.repeat(np.arange(part_map.m), part_map.sizes)
    counts = part_map.sizes * (feats.shape[0] * feats.shape[2])
    means = np.add.reduceat(feats.sum(axis=(0, 2)), starts) / counts
    centred = feats - means[seg][:, None]
    variances = np.add.reduceat((centred * centred).sum(axis=(0, 2)), starts) / counts
    total = variances.sum()
    if total <= 1e-30:
        return np.ones(part_map.m)
    return variances * (part_map.m / total)


def hh_loss(pred_features, true_features, part_map: PartLabelMap,
            gtm_features=None) -> Tensor:
    """Weighted sum of per-part KL terms at one resolution level.

    ``pred_features`` and ``true_features`` are (n, F) or (S, n, F) and must
    cover every vertex in the map. Each part's vertex scores (feature row L2
    norms) softmax into a distribution per row; the KL of the target's from
    the prediction's, averaged over rows and weighted per part, sums over the
    parts in one :func:`autodiff.segment_softmax_kl` record. The target side
    is detached. Weights come from ``gtm_features`` variance when given,
    otherwise from the map's stored weights.
    """
    feats = ad.as_tensor(pred_features)
    true = ad.as_tensor(true_features).data
    n = part_map.n_vertices
    _check_cover(feats.shape[-2], part_map)
    _check_cover(true.shape[-2], part_map)
    scores = _vertex_scores(feats)
    if scores.ndim == 1:
        scores = ad.reshape(scores, (1, n))
    # the same score as _vertex_scores, off the tape
    true_scores = np.sqrt((true * true).sum(axis=-1) + 1e-12).reshape(-1, n)
    if gtm_features is not None:
        lam = part_weights_from_variance(gtm_features, part_map)
    else:
        lam = np.asarray(part_map.weights, dtype=np.float64)
    return ad.segment_softmax_kl(scores, true_scores, part_map.starts, lam, PROB_FLOOR)
