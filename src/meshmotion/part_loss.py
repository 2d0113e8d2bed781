"""Part-wise distribution loss over contiguous vertex segments.

A resolution level's body parts are contiguous vertex segments, given as their
``starts``: an increasing array that begins at 0. Vertex features pool into
per-part probability distributions via softmax over per-vertex scores;
prediction/target distributions compare through a KL term weighted per part,
summed over the parts of one level (``model.Model.loss`` sums the levels).
One level's vertex scores, pooling and KL terms over all parts are one
segmented ``autodiff.segment_softmax_kl`` tape record, whatever its part
count. Like the autodiff kernels, the vertex scores and part weights sum each
short feature row as a GEMV against a ones vector, never as a numpy reduction
over the short axis.
"""

from __future__ import annotations

import numpy as np

from . import autodiff as ad
from .autodiff import ShapeError, Tensor, _segment_tables


def part_weights_from_variance(features: np.ndarray, starts) -> np.ndarray:
    """Per-part variance of (S, n, F) features, normalized to mean 1 (sums to m).

    Treated as a constant: no gradient flows into the weights. A zero-variance
    batch falls back to uniform weights. Each vertex's sum over the rows and
    channels is two GEMVs against ones vectors, not a numpy reduction over
    the short channel axis. ``starts`` that do not split the n vertices raise
    ``ShapeError``, as in :func:`autodiff.segment_softmax_kl`, whose checked
    segment tables it shares.
    """
    feats = np.asarray(features, dtype=np.float64)
    if feats.ndim != 3:
        raise ShapeError(f"part weights need (S, n, F) features, got {feats.shape}")
    rows, n, channels = feats.shape
    starts, sizes, _ = _segment_tables(starts, n)
    m = sizes.size
    counts = sizes * (rows * channels)
    ones_rows, ones_channels = np.ones(rows), np.ones(channels)
    flat = feats.reshape(rows, n * channels)

    def vertex_sums(x: np.ndarray) -> np.ndarray:
        return (ones_rows @ x).reshape(n, channels) @ ones_channels

    means = np.add.reduceat(vertex_sums(flat), starts) / counts
    centred = flat - np.repeat(means, sizes * channels)
    centred *= centred
    variances = np.add.reduceat(vertex_sums(centred), starts) / counts
    total = variances.sum()
    if total <= 1e-30:
        return np.ones(m)
    return variances * (m / total)


def hh_loss(pred_features, true_features, starts, weights) -> Tensor:
    """Weighted sum of per-part KL terms at one resolution level; one record.

    ``pred_features`` is (S, n, F) and ``true_features`` (S, n, F'); the
    parts are the vertex segments that begin at ``starts``, and ``weights``
    holds one weight per part. Each part's vertex scores (feature row L2
    norms) softmax into a distribution per row; the KL of the target's from
    the prediction's, averaged over rows and weighted per part, sums over the
    parts in one :func:`autodiff.segment_softmax_kl` record. The target side
    is detached and scored by the same kernel, so identical features give a
    loss of exactly 0.
    """
    return ad.segment_softmax_kl(pred_features, true_features, starts, weights)
