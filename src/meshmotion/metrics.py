"""Pose evaluation: vertex error, root-aligned joint error, and
Procrustes-aligned joint error, all in millimeters.

Joints regress from mesh vertices through a sparse convex-weight matrix; the
toy regressor places 14 joints on small vertex groups, each inside one rigid
group, so rigid motion keeps the distance between two joints of one group
constant.

``compute_metrics`` scores a list of sequences in one batched pass. Each
sequence gets its input checks, its per-frame vertex error and its two
joint regressions; the vertex arrays are never stacked. The joints of every
frame of every sequence are then concatenated, and the root-aligned and
Procrustes joint errors run over all of them at once. The alignment takes
closed forms vectorized over the frames, each with a per-frame certificate:
a rank bound from the frame's 3x3 Gram matrix (``_rank_certified``) and
Horn's quaternion rotation (``_quaternion_rotations``). Only the frames a
certificate fails go to the LAPACK path the closed forms replace: a
``matrix_rank`` call for the rank, an SVD and a determinant for the
rotation, each batched over just those frames. So a pass makes at most
three LAPACK calls, none on well-conditioned frames, and their count grows
neither with T nor with the number of sequences; ``AlignmentError`` fires
on exactly the frames the rank SVD finds degenerate. Each frame's alignment
depends on that frame alone, and each sequence's result is the mean of its
own frames' slice, so it is the same, bit for bit, as scoring that sequence
in a list of one. Errors are typed:
every failure is a ``MetricsError``; ``AlignmentError``, its subclass, marks
a degenerate frame. Every error names the sequence, and the first failing
frame where there is one ("sequence 3: ", "sequence 3, frame 7: ").
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .body_graph import DEFAULT_PARTS, BodyGraph, is_integer


class MetricsError(ValueError):
    """Invalid metric computation input."""


class AlignmentError(MetricsError):
    """Degenerate input to Procrustes alignment."""


@dataclass
class PoseError:
    """Per-sequence error aggregate (millimeters)."""

    mpvpe: float
    mpjpe: float
    pa_mpjpe: float

    def __post_init__(self):
        values = self.as_tuple()
        if not all(math.isfinite(v) for v in values):
            raise MetricsError(f"errors must be finite, got {values}")
        if min(values) < 0:
            raise MetricsError("errors must be nonnegative")

    def as_tuple(self) -> tuple[float, float, float]:
        return (self.mpvpe, self.mpjpe, self.pa_mpjpe)


@dataclass
class JointRegressor:
    """Sparse convex mapping from mesh vertices to joints."""

    matrix: np.ndarray  # (n_joints, n_vertices), rows nonnegative, sum to 1
    root_joint: int = 0

    def __post_init__(self):
        # a bool root passes the range check as joint 0 or 1, and a float
        # one fails as a slice index inside compute_metrics
        if (self.matrix.ndim != 2 or not is_integer(self.root_joint)
                or not 0 <= self.root_joint < self.matrix.shape[0]):
            raise MetricsError(f"regressor needs a 2-D matrix and a root joint among its rows, "
                               f"got {self.matrix.shape} and {self.root_joint!r}")
        if np.any(self.matrix < 0):
            raise MetricsError("regressor rows must be nonnegative")
        if not np.allclose(self.matrix.sum(axis=1), 1.0, atol=1e-12):
            raise MetricsError("regressor rows must sum to 1")

    def __call__(self, vertices: np.ndarray) -> np.ndarray:
        """(..., n, 3) vertices -> (..., n_joints, 3) joints."""
        return np.matmul(self.matrix, vertices)


_JOINT_SPECS = (
    # name, part, where along the part chain (0 start .. 1 end)
    ("pelvis", "torso", 0.0),
    ("chest", "torso", 1.0),
    ("neck", "head", 0.0),
    ("head_top", "head", 1.0),
    ("left_shoulder", "left_arm", 0.0),
    ("left_elbow", "left_arm", 0.5),
    ("left_wrist", "left_arm", 1.0),
    ("right_shoulder", "right_arm", 0.0),
    ("right_elbow", "right_arm", 0.5),
    ("right_wrist", "right_arm", 1.0),
    ("left_knee", "left_leg", 0.5),
    ("left_ankle", "left_leg", 1.0),
    ("right_knee", "right_leg", 0.5),
    ("right_ankle", "right_leg", 1.0),
)

def build_joint_regressor(graph: BodyGraph) -> JointRegressor:
    """14 joints averaged over small single-part vertex groups."""
    parts = dict(zip(DEFAULT_PARTS, graph.part_vertices()))
    n = graph.n_vertices
    rows = []
    for _, part, frac in _JOINT_SPECS:
        ids = parts[part]
        group = max(1, len(ids) // 4)
        lo = max(0, round(frac * (len(ids) - 1)) - (group - 1) // 2)
        members = ids[lo:lo + group]
        row = np.zeros(n)
        row[members] = 1.0 / len(members)
        rows.append(row)
    root = [name for name, _, _ in _JOINT_SPECS].index("pelvis")
    return JointRegressor(matrix=np.array(rows), root_joint=root)


def _frame_name(i: tuple[int, ...]) -> str:
    """Error prefix for the set at leading index ``i`` ("frame 7: "; empty
    for a single set)."""
    return f"frame {', '.join(str(int(j)) for j in i)}: " if i else ""


def _sequence_frame_name(lengths: list[int]):
    """Error prefix for a frame of the concatenated frames of sequences
    with these lengths ("sequence 3, frame 7: ")."""
    ends = np.cumsum(lengths)

    def name(i: tuple[int, ...]) -> str:
        k = int(np.searchsorted(ends, i[0], side="right"))
        return f"sequence {k}, frame {int(i[0] - (ends[k] - lengths[k]))}: "
    return name


def _first(mask, name) -> tuple[tuple[int, ...], str]:
    """Leading index of the first set where ``mask`` holds, and the error
    prefix ``name`` gives it."""
    i = np.unravel_index(np.argmax(mask), np.shape(mask))
    return i, name(i)


def procrustes_align(p: np.ndarray, q: np.ndarray):
    """Similarity transform (s, R, t) minimizing ||s R p_i + t - q_i||^2.

    Points are rows: one pair of (k, 3) sets, k >= 3, or stacks (..., k, 3)
    aligned set by set in one batched pass, with s, R and t carrying the
    leading axes (a single pair gives a float s). R is a proper rotation
    (det = +1, reflections corrected by flipping the smallest singular
    direction). R and s come from Horn's closed form where its certificate
    holds, within about 1e-15 / g of the exact optimum for a relative
    eigen-gap g, and from the SVD of the cross-covariance elsewhere (see the
    module docstring). ``AlignmentError`` names the first set whose source
    points coincide or are collinear; moments or a transform that overflow
    raise ``MetricsError``.
    """
    return _align(p, q, _frame_name)[:3]


def _align(p, q, name):
    """``procrustes_align``'s (s, R, t), then the centred (sets, k, 3) points
    x = p - mean(p) and y = q - mean(q), with its errors prefixed by
    ``name``."""
    p = np.asarray(p, dtype=np.float64)
    q = np.asarray(q, dtype=np.float64)
    if p.shape != q.shape or p.ndim < 2 or p.shape[-1] != 3:
        raise MetricsError(f"point sets must be matching (..., k, 3) arrays, "
                           f"got {p.shape}, {q.shape}")
    if p.shape[-2] < 3:
        raise MetricsError(f"need at least 3 points, got {p.shape[-2]}")
    lead = p.shape[:-2]
    p = p.reshape(-1, *p.shape[-2:])
    q = q.reshape(p.shape)
    with np.errstate(all="ignore"):
        mu_p = p.mean(axis=-2, keepdims=True)
        mu_q = q.mean(axis=-2, keepdims=True)
        x = p - mu_p
        y = q - mu_q
        sq = x * x
        var_p = sq.sum(axis=(-2, -1))
        xt = np.swapaxes(x, -1, -2)
        h = xt @ y  # (sets, 3, 3)
        finite = np.isfinite(var_p) & np.isfinite(h).all(axis=(-2, -1))
        if not finite.all():
            raise MetricsError(_first(~finite.reshape(lead), name)[1]
                               + "point moments are not finite")
        coincident = var_p < 1e-18
        degenerate = coincident.copy()
        # a copy of x, in sq's memory: numpy takes a slower path for the
        # product of two views of one array
        np.copyto(sq, x)
        uncertain = ~_rank_certified(xt @ sq, var_p, p.shape[1])
        del sq
        if uncertain.any():
            degenerate[uncertain] |= np.linalg.matrix_rank(x[uncertain], tol=1e-12) < 2
        if degenerate.any():
            i, at = _first(degenerate.reshape(lead), name)
            raise AlignmentError(at + ("all source points coincident; alignment undefined"
                                       if coincident.reshape(lead)[i] else
                                       "source points are collinear; rotation not identifiable"))
        rot, scale, certified = _quaternion_rotations(h, var_p)
        if not certified.all():
            rot[~certified], scale[~certified] = _svd_rotations(h[~certified], var_p[~certified])
        t = mu_q[..., 0, :] - ((scale[..., None, None] * rot) @ np.swapaxes(mu_p, -1, -2))[..., 0]
        finite = np.isfinite(scale) & np.isfinite(t).all(axis=-1)
        if not finite.all():
            raise MetricsError(_first(~finite.reshape(lead), name)[1]
                               + "similarity transform is not finite")
    scale, rot, t = scale.reshape(lead), rot.reshape(*lead, 3, 3), t.reshape(*lead, 3)
    return (float(scale) if not lead else scale), rot, t, x, y


def _rank_certified(g: np.ndarray, var_p: np.ndarray, k: int) -> np.ndarray:
    """Sets whose centred points x, k of them, certainly have
    ``np.linalg.matrix_rank(x, tol=1e-12) >= 2``, from their Gram matrices
    g = x^T x (sets, 3, 3) and traces ``var_p``; False leaves a set to
    ``matrix_rank``.

    With T = tr g and e2 the sum of g's principal 2x2 minors, e2 =
    l1 l2 + l1 l3 + l2 l3 <= 3 l1 l2 <= 3 T l2 over g's eigenvalues
    l1 >= l2 >= l3, so sigma_2(x)^2 = l2 >= e2 / (3 T). A set passes when
    e2 > 3 T max(r T, 4e-24) with r = 1e-6 + 2 k eps. Rounding moves l2 by
    at most k eps T in forming g and by under 2 eps T in the minors and
    their sum, so the exact l2 still exceeds 1e-6 T, and 3e-24 for fewer
    than 1e9 points: sigma_2(x) > 1e-3 sqrt(T) and > 1.7e-12. LAPACK's
    sigma_2 is within a modest multiple of eps sigma_1 <= eps sqrt(T) of
    the exact one, far inside both margins, so ``matrix_rank`` counts it
    above 1e-12. T < 1e150 keeps every product finite.
    """
    g00, g01, g02, _, g11, g12, _, _, g22 = g.reshape(-1, 9).T
    e2 = (g00 * g11 - g01 * g01) + (g00 * g22 - g02 * g02) + (g11 * g22 - g12 * g12)
    r = 1e-6 + 2.0 * k * np.finfo(np.float64).eps
    return (e2 > 3.0 * var_p * np.maximum(r * var_p, 4e-24)) & (var_p < 1e150)


# Newton on Horn's characteristic polynomial: at most this many steps; a set
# takes its last step from a root estimate where |P| <= _NEWTON_TOL (in h's
# Frobenius units, a few dozen roundings of its O(1) terms), which leaves it
# at rounding level, the step being quadratic there
_NEWTON_STEPS = 40
_NEWTON_TOL = 1e-14
# a set keeps its quaternion rotation when P'(l_max) >= _MIN_SLOPE in h's
# Frobenius units (see _quaternion_rotations)
_MIN_SLOPE = 2e-3


def _quaternion_rotations(h: np.ndarray, var_p: np.ndarray):
    """Rotations R maximizing tr(R h), scales tr(R h) / ``var_p``, and the
    sets whose result is certified, for (sets, 3, 3) cross-covariances h.

    Horn's closed form (JOSA A 4:629, 1987): R is the rotation of the top
    eigenvector q of a symmetric traceless 4x4 matrix N built from h, and
    tr(R h) is N's top eigenvalue l_max = sigma_1 + sigma_2 + d sigma_3
    over h's singular values with d = sign det h, the sum the SVD path
    forms. As in Theobald's QCP (Acta Cryst A 61:478, 2005), l_max is the
    largest root of N's characteristic polynomial, which in units of
    |h| (Frobenius) reads P(l) = l^4 - 2 l^2 - 8 det(h) l + (1 - 4 e2), with
    e2 the sum of h's squared 2x2 minors (sigma_1^2 sigma_2^2 + ...).
    Newton starts from sqrt(1 + 2 sqrt(3 e2)) >= sigma_1 + sigma_2 +
    sigma_3 >= l_max, in the convex part of P (P'' > 0 wherever
    l >= 1 / sqrt(3), and l_max >= sigma_1 >= 1 / sqrt(3)), so every step
    descends onto the root. q is the column k of adj(l_max I - N) =
    P'(l_max) q q^T with the largest diagonal entry, so |q_k| >= 1/2: turns
    near 180 degrees, whose q_0 vanishes, take another column. The Rayleigh
    quotient of that q carries the root's error squared, and the column
    taken again at it loses only what N's own rounding costs; the quotient
    of that final q is the scale's l_max.

    P'(l_max) is the product of the gaps from l_max to N's other three
    eigenvalues, each at most 2 sqrt(3), so P'(l_max) >= _MIN_SLOPE bounds
    the smallest gap, g = 2 (sigma_2 + d sigma_3), below by _MIN_SLOPE / 12.
    Against a 40-digit SVD, R errs by about 1e-15 / g here, and the SVD
    path's R by about 4e-15 / g. A set with a smaller slope (a near-double
    root: a mirrored set with sigma_2 close to sigma_3, or a nearly
    collinear one), a Newton run that did not settle, a largest diagonal
    entry under P'(l_max) / 8 (it is at least P'(l_max) / 4 in exact
    arithmetic) or anything non-finite is not certified. Every set's steps
    depend on that set alone, so its result does not depend on the others.
    """
    sets = len(h)
    size = np.sqrt((h * h).sum(axis=(-2, -1)))
    sxx, sxy, sxz, syx, syy, syz, szx, szy, szz = (h / size[:, None, None]).reshape(sets, 9).T.copy()
    minors = (syy * szz - syz * szy, syz * szx - syx * szz, syx * szy - syy * szx,
              sxz * szy - sxy * szz, sxx * szz - sxz * szx, sxy * szx - sxx * szy,
              sxy * syz - sxz * syy, sxz * syx - sxx * syz, sxx * syy - sxy * syx)
    e2 = minors[0] * minors[0]
    for m in minors[1:]:
        e2 = e2 + m * m
    c0 = 1.0 - 4.0 * e2
    c1 = -8.0 * (sxx * minors[0] + sxy * minors[1] + sxz * minors[2])
    lam = np.sqrt(1.0 + 2.0 * np.sqrt(3.0 * e2))
    moving = np.arange(sets)  # the sets still stepping
    for _ in range(_NEWTON_STEPS):
        est, b = lam[moving], c1[moving]
        sq = est * est
        residual = (sq - 2.0) * sq + b * est + c0[moving]
        lam[moving] = est - residual / ((4.0 * sq - 4.0) * est + b)
        moving = moving[np.abs(residual) > _NEWTON_TOL]
        if not moving.size:
            break
    settled = np.ones(sets, dtype=bool)
    settled[moving] = False
    slope = (4.0 * lam * lam - 4.0) * lam + c1

    # Horn's N by its upper triangle, row by row, and stacked (4, 4, sets)
    upper = (sxx + syy + szz, syz - szy, szx - sxz, sxy - syx, sxx - syy - szz,
             sxy + syx, szx + sxz, syy - sxx - szz, syz + szy, szz - sxx - syy)
    n = np.stack([upper[i] for i in (0, 1, 2, 3, 1, 4, 5, 6, 2, 5, 7, 8, 3, 6, 8, 9)])
    n = n.reshape(4, 4, sets)
    adj = _shifted_adjugate(upper, lam)
    best = np.argmax(adj[range(4), range(4)], axis=0)
    top = adj[best, best, range(sets)]
    q = _unit_column(adj, best)
    q = _unit_column(_shifted_adjugate(upper, _rayleigh(n, q)), best)
    lam = _rayleigh(n, q)
    w, i, j, k = q
    ww, ii, jj, kk = w * w, i * i, j * j, k * k
    ij, ik, jk = 2.0 * i * j, 2.0 * i * k, 2.0 * j * k
    wi, wj, wk = 2.0 * w * i, 2.0 * w * j, 2.0 * w * k
    rot = np.stack([ww + ii - jj - kk, ij - wk, ik + wj,
                    ij + wk, ww - ii + jj - kk, jk - wi,
                    ik - wj, jk + wi, ww - ii - jj + kk], axis=-1).reshape(sets, 3, 3)
    certified = (settled & (slope >= _MIN_SLOPE) & (top >= slope / 8.0)
                 & np.isfinite(rot).all(axis=(-2, -1)))
    return rot, lam * size / var_p, certified


def _shifted_adjugate(upper: tuple, lam: np.ndarray) -> np.ndarray:
    """adj(lam I - n), (4, 4, sets), for symmetric 4x4 stacks n given by
    their upper triangles row by row: Laplace's expansion over the 2x2
    minors s of rows 0 and 1 and c of rows 2 and 3."""
    n00, n01, n02, n03, n11, n12, n13, n22, n23, n33 = upper
    a00, a11, a22, a33 = lam - n00, lam - n11, lam - n22, lam - n33
    a01, a02, a03, a12, a13, a23 = -n01, -n02, -n03, -n12, -n13, -n23
    s0 = a00 * a11 - a01 * a01
    s1 = a00 * a12 - a01 * a02
    s2 = a00 * a13 - a01 * a03
    s3 = a01 * a12 - a11 * a02
    s4 = a01 * a13 - a11 * a03
    s5 = a02 * a13 - a12 * a03
    c1 = a02 * a23 - a03 * a22
    c2 = a02 * a33 - a03 * a23
    c3 = a12 * a23 - a13 * a22
    c4 = a12 * a33 - a13 * a23
    c5 = a22 * a33 - a23 * a23
    d0 = a11 * c5 - a12 * c4 + a13 * c3
    d1 = a00 * c5 - a02 * c2 + a03 * c1
    d2 = a03 * s4 - a13 * s2 + a33 * s0
    d3 = a02 * s3 - a12 * s1 + a22 * s0
    b01 = a02 * c4 - a01 * c5 - a03 * c3
    b02 = a13 * s5 - a23 * s4 + a33 * s3
    b03 = a22 * s4 - a12 * s5 - a23 * s3
    b12 = a23 * s2 - a03 * s5 - a33 * s1
    b13 = a02 * s5 - a22 * s2 + a23 * s1
    b23 = a12 * s2 - a02 * s4 - a23 * s0
    return np.stack([d0, b01, b02, b03, b01, d1, b12, b13,
                     b02, b12, d2, b23, b03, b13, b23, d3]).reshape(4, 4, -1)


def _unit_column(adj: np.ndarray, k: np.ndarray) -> np.ndarray:
    """Column k (one index per set) of (4, 4, sets) stacks, scaled to unit
    length."""
    col = adj[:, k, range(adj.shape[-1])]
    # a sum over the leading axis would change its order for a single set
    return col / np.sqrt(col[0] * col[0] + col[1] * col[1] + col[2] * col[2] + col[3] * col[3])


def _rayleigh(n: np.ndarray, q: np.ndarray) -> np.ndarray:
    """q^T n q for (4, 4, sets) stacks n and (4, sets) unit vectors q."""
    nq = n[:, 0] * q[0] + n[:, 1] * q[1] + n[:, 2] * q[2] + n[:, 3] * q[3]
    return q[0] * nq[0] + q[1] * nq[1] + q[2] * nq[2] + q[3] * nq[3]


def _svd_rotations(h: np.ndarray, var_p: np.ndarray):
    """The rotations and scales of ``_quaternion_rotations`` from the SVD
    h = U S V^T: R = V D U^T, with D flipping the smallest singular
    direction when det(V U^T) < 0, and scale sum(d S) / ``var_p``."""
    u, s, vt = np.linalg.svd(h)
    v, ut = np.swapaxes(vt, -1, -2), np.swapaxes(u, -1, -2)
    d = np.ones(s.shape)
    d[..., -1] = np.where(np.linalg.det(v @ ut) < 0, -1.0, 1.0)
    return (v * d[..., None, :]) @ ut, (s * d).sum(axis=-1) / var_p


def _lengths(d: np.ndarray) -> np.ndarray:
    """Euclidean lengths of (..., 3) rows: bit for bit
    ``np.linalg.norm(d, axis=-1)``, without numpy's slow reduction over a
    3-wide axis."""
    sq = d * d
    return np.sqrt(sq[..., 0] + sq[..., 1] + sq[..., 2])


def compute_metrics(pred_vertices: list, gt_vertices: list,
                    regressor: JointRegressor) -> list[PoseError]:
    """Frame-averaged vertex/joint errors, one ``PoseError`` per sequence.

    Takes a list of (T, n, 3) predictions and an equally long list of
    ground truths, in mm, one pair per sequence, of any lengths; all frames
    are scored in one batched pass, whose Procrustes alignment takes the
    certified closed forms or, frame by frame where they fail, the LAPACK
    path (see the module docstring). A frame whose
    error is not finite (coordinates so large that their squares overflow),
    a degenerate alignment or a non-finite coordinate raises
    ``MetricsError`` naming the sequence and frame; a malformed pair or a
    regressor built for another vertex count, naming the sequence.
    """
    if not isinstance(pred_vertices, list):
        raise MetricsError(f"expected a list of predictions, got {type(pred_vertices).__name__}")
    if not isinstance(gt_vertices, list) or len(gt_vertices) != len(pred_vertices):
        raise MetricsError("expected a list of ground truths as long as the "
                           f"{len(pred_vertices)} predictions")
    if not pred_vertices:
        return []
    with np.errstate(all="ignore"):
        parts = [_per_sequence(p, g, regressor, k)
                 for k, (p, g) in enumerate(zip(pred_vertices, gt_vertices))]
        lengths = [len(m) for m, _, _ in parts]
        name = _sequence_frame_name(lengths)
        mpvpe, pj, gj = (np.concatenate(a) for a in zip(*parts))
        root = regressor.root_joint
        # the (frames, J, 3) temporaries are formed in place and freed early:
        # each large one alive at once is heap that is returned to the OS and
        # faulted back in on the next call
        rooted = pj - pj[:, root:root + 1]
        rooted -= gj - gj[:, root:root + 1]
        mpjpe = _lengths(rooted).mean(axis=1)
        del rooted
        s, r, _, x, y = _align(pj, gj, name)
        # s R p + t - q = s R x - y, since t = mean(q) - s R mean(p)
        residual = x @ np.swapaxes(s[:, None, None] * r, -1, -2)
        residual -= y
        pa = _lengths(residual).mean(axis=1)
        del residual
        vals = np.stack([mpvpe, mpjpe, pa], axis=1)  # (frames, 3)
        finite = np.isfinite(vals).all(axis=1)
        if not finite.all():
            raise MetricsError(_first(~finite, name)[1] + "pose error is not finite")
        ends = np.cumsum(lengths)
        means = [vals[end - count:end].mean(axis=0).tolist()
                 for count, end in zip(lengths, ends)]
    # each row is the mean of its own frames' slice, so it equals the row of
    # a list of one bit for bit
    return [PoseError(*row) for row in means]


def _per_sequence(pred_vertices, gt_vertices, regressor: JointRegressor, seq: int):
    """Sequence ``seq``'s checked inputs -> its (T,) vertex errors and its
    (T, J, 3) predicted and true joints."""
    at = f"sequence {seq}: "
    pred = np.asarray(pred_vertices, dtype=np.float64)
    gt = np.asarray(gt_vertices, dtype=np.float64)
    if pred.shape != gt.shape:
        raise MetricsError(f"{at}shape mismatch: {pred.shape} vs {gt.shape}")
    if pred.ndim != 3 or pred.shape[0] < 1 or pred.shape[2] != 3:
        raise MetricsError(f"{at}expected (T, n, 3) vertices with T >= 1, got {pred.shape}")
    mpvpe = _lengths(pred - gt).mean(axis=1)
    # a frame with a non-finite coordinate has a non-finite error, so only a
    # sequence with such an error needs the scan
    if not np.isfinite(mpvpe).all():
        bad = ~(np.isfinite(pred) & np.isfinite(gt)).all(axis=(1, 2))
        if bad.any():
            raise MetricsError(f"sequence {seq}, frame {int(np.argmax(bad))}: "
                               "non-finite coordinates")
    if regressor.matrix.shape[1] != pred.shape[1]:
        raise MetricsError(f"{at}regressor expects {regressor.matrix.shape[1]} vertices, "
                           f"got {pred.shape[1]}")
    return mpvpe, regressor(pred), regressor(gt)
