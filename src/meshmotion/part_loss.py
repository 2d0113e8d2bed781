"""Part-wise distribution loss over contiguous vertex segments.

A resolution level's body parts are contiguous vertex segments, given as their
``starts``: an increasing array that begins at 0. Vertex features pool into
per-part probability distributions via softmax over per-vertex scores;
prediction/target distributions compare through a KL term weighted per part,
summed over the parts of one level (``model.Model.loss`` sums the levels).
One level's pooling and KL terms over all parts are one segmented
``autodiff.segment_softmax_kl`` tape record; with the prediction's vertex
scores a level adds five records, whatever its part count.
"""

from __future__ import annotations

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor

PROB_FLOOR = 1e-12


def _vertex_scores(features: Tensor) -> Tensor:
    """Scalar score per vertex: L2 norm of its feature row."""
    sq = ad.sum_(ad.mul(features, features), axis=features.ndim - 1)
    return ad.sqrt(ad.add(sq, 1e-12))


def part_weights_from_variance(features: np.ndarray, starts) -> np.ndarray:
    """Per-part variance of (S, n, F) features, normalized to mean 1 (sums to m).

    Treated as a constant: no gradient flows into the weights. A zero-variance
    batch falls back to uniform weights.
    """
    feats = np.asarray(features)
    sizes = np.diff(starts, append=feats.shape[1])
    m = sizes.size
    seg = np.repeat(np.arange(m), sizes)
    counts = sizes * (feats.shape[0] * feats.shape[2])
    means = np.add.reduceat(feats.sum(axis=(0, 2)), starts) / counts
    centred = feats - means[seg][:, None]
    variances = np.add.reduceat((centred * centred).sum(axis=(0, 2)), starts) / counts
    total = variances.sum()
    if total <= 1e-30:
        return np.ones(m)
    return variances * (m / total)


def hh_loss(pred_features, true_features, starts, weights) -> Tensor:
    """Weighted sum of per-part KL terms at one resolution level.

    ``pred_features`` and ``true_features`` are (S, n, F); the parts are the
    vertex segments that begin at ``starts``, and ``weights`` holds one weight
    per part. Each part's vertex scores (feature row L2 norms) softmax into a
    distribution per row; the KL of the target's from the prediction's,
    averaged over rows and weighted per part, sums over the parts in one
    :func:`autodiff.segment_softmax_kl` record, five records in all. The
    target side is detached.
    """
    true = ad.as_tensor(true_features).data
    scores = _vertex_scores(ad.as_tensor(pred_features))
    # the same score as _vertex_scores, off the tape
    true_scores = np.sqrt((true * true).sum(axis=-1) + 1e-12)
    return ad.segment_softmax_kl(scores, true_scores, starts, weights, PROB_FLOOR)
