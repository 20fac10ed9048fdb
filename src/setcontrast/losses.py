"""Contrastive losses framed as (relaxations of) structured assignment
prediction, plus the spectral set regularizer ``qare``.

Pairwise losses consume an inter-set matrix S with distance semantics:
smaller means more alike, and the ground-truth column of each row is
the positive. Cosine-similarity callers negate S first (see
``two_view_loss``). All losses return scalar Tensors and differentiate
end-to-end through the tape.

Each pairwise loss is one tape node on S. Its value is computed in
numpy and its VJP in closed form, times the upstream gradient and the
reduction (1, or 1/N for "mean"):

- ``infonce_loss``: (Y - softmax(-S/tau)) / tau, row-wise;
- ``smoothed_batch_hard_loss``: Y - softmax(-S/tau);
- ``batch_hard_lap_loss``: Y minus the one-hot of each row's minimum of
  S + mY;
- ``nt_logistic_loss``: sigmoid(s_pos/tau)/tau on the positives and
  -sigmoid(-s_neg/tau)/tau on each row's hardest negative;
- ``sparseclr_loss``: Y + sparsemax(-S), row-wise;
- ``structured_lap_loss``: Y - Y*, with Y* the optimal assignment.

Y is the ground-truth assignment matrix. Where a row minimum is tied,
the batch-hard and NT-logistic gradients go to the first minimising
column.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

import numpy as np

from . import assignment, simgeom
from . import tensor as T
from .errors import ContractError, ShapeError

Array = np.ndarray

MARGIN_DEFAULT = 0.5
TEMPERATURE_DEFAULT = 0.05
BETA_DEFAULT = 1.0

LOSS_KINDS = ("margin", "smoothed", "infonce", "nt_logistic", "sparseclr")
MINING_MODES = ("one-to-one", "batch-hard")


# ---------------------------------------------------------------------------
# ground truth handling

@dataclass(frozen=True)
class GroundTruthAlignment:
    """Row-to-column alignment; perm[i] is the positive column of row i."""

    perm: Tuple[int, ...]

    @classmethod
    def identity(cls, n: int) -> "GroundTruthAlignment":
        return cls(tuple(range(n)))


def _gt_indices(gt, n_rows: int, n_cols: int, bijection: bool) -> Array:
    if isinstance(gt, GroundTruthAlignment):
        gt = gt.perm
    idx = assignment._as_indices(gt)
    if idx.shape[0] != n_rows:
        raise ContractError(f"alignment length {idx.shape[0]} != rows {n_rows}")
    if (idx < 0).any() or (idx >= n_cols).any():
        raise ContractError("alignment indices outside column range")
    if bijection and not np.array_equal(np.sort(idx), np.arange(n_rows)):
        raise ContractError("alignment must be a bijection for this loss")
    return idx


def _gt_matrix(idx: Array, n_rows: int, n_cols: int) -> Array:
    y = np.zeros((n_rows, n_cols))
    y[np.arange(n_rows), idx] = 1.0
    return y


def _square(s: T.Tensor, name: str) -> int:
    if s.shape[0] != s.shape[1]:
        raise ShapeError(f"{name}: expected square S, got {s.shape}")
    return s.shape[0]


def _reduction_scale(n_rows: int, reduction: str) -> float:
    if reduction == "sum":
        return 1.0
    if reduction == "mean":
        return 1.0 / n_rows
    raise ContractError(f"reduction must be 'sum' or 'mean', got {reduction!r}")


def _loss_node(s: T.Tensor, total, reduction_scale: float, grad) -> T.Tensor:
    """One tape node with value ``total * reduction_scale``; its VJP is
    ``grad(c)`` with c the upstream gradient times the reduction scale."""

    def vjp(g):
        return (grad(float(g.reshape(())) * reduction_scale),)

    return T.custom_op((s,), np.reshape(total * reduction_scale, (1, 1)), vjp)


# ---------------------------------------------------------------------------
# sparsemax (Euclidean projection onto the probability simplex)

def _row_thresholds(z: Array) -> Array:
    """T(z_i) of every row, with sum_j max(z_ij - T_i, 0) = 1: sort each
    row descending, take cumulative sums, and read the last k with
    1 + k z_(k) > sum_{j<=k} z_(j)."""
    k = z.shape[1]
    zs = np.sort(z, axis=1)[:, ::-1]
    css = np.cumsum(zs, axis=1)
    support = 1.0 + np.arange(1, k + 1) * zs > css
    k_star = k - np.argmax(support[:, ::-1], axis=1)
    return (css[np.arange(z.shape[0]), k_star - 1] - 1.0) / k_star


def sparsemax_threshold(z) -> float:
    """Threshold T(z) with sum(max(z - T, 0)) = 1, via the sorted
    cumulative-sum characterization of the simplex projection."""
    v = np.asarray(z, dtype=np.float64).reshape(1, -1)
    if v.size == 0:
        raise ShapeError("sparsemax_threshold: empty input")
    return float(_row_thresholds(v)[0])


def sparsemax(z) -> Array:
    """Projection of z onto the simplex: max(z - T(z), 0)."""
    v = np.asarray(z, dtype=np.float64).reshape(-1)
    return np.maximum(v - sparsemax_threshold(v), 0.0)


# ---------------------------------------------------------------------------
# structured LAP losses and their relaxations

def _margined(s: Array, y: Array, margin: float) -> Array:
    """S_m = S + m Y_gt."""
    if margin < 0.0:
        raise ContractError(f"margin must be >= 0, got {margin}")
    return s if margin == 0.0 else s + margin * y


def structured_lap_loss(s, gt, margin: float = MARGIN_DEFAULT,
                        reduction: str = "sum") -> T.Tensor:
    """Margin-augmented structured loss with exact one-to-one mining:
    tr(S_m Y_gt^T) - min_Y tr(S_m Y^T) over permutations, S_m = S + m Y_gt.

    The minimum is differentiated by the envelope rule, so the VJP is
    Y_gt - Y*, with Y* the solver's (lexicographically first) optimum."""
    s = T.as_tensor(s)
    n = _square(s, "structured_lap_loss")
    idx = _gt_indices(gt, n, n, bijection=True)
    y = _gt_matrix(idx, n, n)
    sm = _margined(s.data, y, margin)
    red = _reduction_scale(n, reduction)
    best = assignment.solve_lap(sm, "min")

    def grad(c):
        return c * y - c * _gt_matrix(np.asarray(best.perm, dtype=np.intp), n, n)

    return _loss_node(s, (sm * y).sum() - best.cost, red, grad)


def batch_hard_lap_loss(s, gt, margin: float = MARGIN_DEFAULT,
                        reduction: str = "sum") -> T.Tensor:
    """Row-independent relaxation of the structured loss:
    tr(S_m Y_gt^T) - sum_i min_j [S_m]_ij. Equals the hinged triplet sum
    max(0, s_pos + m - hardest negative) row by row.

    VJP: Y_gt minus the one-hot of each row's minimum of S_m; a tied
    minimum routes the gradient to its first column."""
    s = T.as_tensor(s)
    n = _square(s, "batch_hard_lap_loss")
    idx = _gt_indices(gt, n, n, bijection=True)
    y = _gt_matrix(idx, n, n)
    sm = _margined(s.data, y, margin)
    red = _reduction_scale(n, reduction)
    hardest = np.argmin(sm, axis=1)

    def grad(c):
        g = c * y
        g[np.arange(n), hardest] -= c
        return g

    total = (sm * y).sum() - np.min(sm, axis=1).reshape(-1, 1).sum()
    return _loss_node(s, total, red, grad)


def _softmax_of_neg(s: Array, temperature: float):
    """Row-wise e = exp(-S/tau - max), its row sums r (N, 1) and the
    max-shifted log-sum-exp log r + max (N, 1); softmax is e / r."""
    if temperature <= 0.0:
        raise ContractError(f"temperature must be > 0, got {temperature}")
    z = s * (-1.0 / temperature)
    m = np.max(z, axis=1).reshape(-1, 1)
    e = np.exp(z - m)
    r = e.sum(axis=1, keepdims=True)
    return e, r, np.log(r) + m


def smoothed_batch_hard_loss(s, gt, temperature: float = TEMPERATURE_DEFAULT,
                             reduction: str = "sum") -> T.Tensor:
    """Log-sum-exp smoothing of the batch-hard row minima:
    tr(S Y_gt^T) + tau * sum_i log sum_j exp(-S_ij / tau).

    VJP: Y_gt - softmax(-S / tau) row-wise."""
    s = T.as_tensor(s)
    n = _square(s, "smoothed_batch_hard_loss")
    idx = _gt_indices(gt, n, n, bijection=True)
    y = _gt_matrix(idx, n, n)
    e, r, lse = _softmax_of_neg(s.data, temperature)
    red = _reduction_scale(n, reduction)

    def grad(c):
        return (c * temperature) / r * e * (-1.0 / temperature) + c * y

    return _loss_node(s, (s.data * y).sum() + lse.sum() * temperature, red, grad)


def infonce_loss(s, gt, temperature: float = TEMPERATURE_DEFAULT,
                 reduction: str = "mean") -> T.Tensor:
    """Distance-form InfoNCE; the positive column stays inside the
    row-wise log-sum-exp. With reduction="sum" this equals the smoothed
    batch-hard loss divided by tau (exact identity).

    VJP: (Y_gt - softmax(-S / tau)) / tau row-wise."""
    s = T.as_tensor(s)
    n = _square(s, "infonce_loss")
    idx = _gt_indices(gt, n, n, bijection=True)
    y = _gt_matrix(idx, n, n)
    e, r, lse = _softmax_of_neg(s.data, temperature)
    red = _reduction_scale(n, reduction)
    pos = (s.data * y).sum(axis=1, keepdims=True)  # (N, 1) gathered positives

    def grad(c):
        return c / r * e * (-1.0 / temperature) + (c * (1.0 / temperature)) * y

    return _loss_node(s, (pos * (1.0 / temperature) + lse).sum(), red, grad)


def _sigmoid(x: Array) -> Array:
    # via tanh, which keeps both tails stable
    return 0.5 * (1.0 + np.tanh(0.5 * x))


def nt_logistic_loss(s, gt, temperature: float = TEMPERATURE_DEFAULT,
                     reduction: str = "mean") -> T.Tensor:
    """Logistic pair loss with the batch-hard negative:
    mean_i [softplus(s_pos/tau) + softplus(-s_neg*/tau)] where s_neg* is
    the row minimum over non-positive columns. S may be rectangular.

    VJP: sigmoid(s_pos/tau)/tau on each positive and -sigmoid(-s_neg*/tau)/tau
    on each row's hardest negative; a tied minimum routes the gradient to
    its first column. softplus is log(1 + exp(x)) without overflow."""
    s = T.as_tensor(s)
    n, k = s.shape
    if k < 2:
        raise ContractError("nt_logistic_loss needs at least one negative column")
    idx = _gt_indices(gt, n, k, bijection=False)
    y = _gt_matrix(idx, n, k)
    red = _reduction_scale(n, reduction)
    pos = (s.data * y).sum(axis=1, keepdims=True) * (1.0 / temperature)
    lifted = s.data + (float(np.ptp(s.data)) + 1.0) * y  # positives out of the minima
    hardest = np.argmin(lifted, axis=1)
    neg = np.min(lifted, axis=1).reshape(-1, 1) * (-1.0 / temperature)

    def grad(c):
        g = c * _sigmoid(pos) * (1.0 / temperature) * y
        g[np.arange(n), hardest] += (c * _sigmoid(neg) * (-1.0 / temperature))[:, 0]
        return g

    total = (np.logaddexp(0.0, pos) + np.logaddexp(0.0, neg)).sum()
    return _loss_node(s, total, red, grad)


def _sparse_support(h: Array):
    """Row-wise sparsemax P of -h, and the support term
    0.5 * sum_i sum_{j in support(P_i)} (h_ij^2 - T_i^2) with T_i = T(-h_i).
    Both sums add in sequence, columns then rows, so the value does not
    depend on how numpy blocks a reduction."""
    t = _row_thresholds(-h)
    p = np.maximum(-h - t[:, None], 0.0)
    rows = np.cumsum(np.where(p > 0.0, h ** 2 - (t * t)[:, None], 0.0), axis=1)[:, -1]
    return p, np.cumsum(0.5 * rows)[-1]


def sparseclr_loss(s, gt, reduction: str = "sum") -> T.Tensor:
    """Sparsemax-smoothed batch-hard loss: the row minima are replaced by
    a simplex projection of the negated row, giving sparse support over
    the hardest columns:

        tr(S Y_gt^T) - 0.5 sum_i sum_{j in Omega(-h_i)} (h_ij^2 - T^2(-h_i)).

    VJP: Y_gt + sparsemax(-h_i) row-wise.
    """
    s = T.as_tensor(s)
    n = _square(s, "sparseclr_loss")
    idx = _gt_indices(gt, n, n, bijection=True)
    y = _gt_matrix(idx, n, n)
    red = _reduction_scale(n, reduction)
    p, support_term = _sparse_support(s.data)

    def grad(c):
        return c * p + c * y

    return _loss_node(s, (s.data * y).sum() - support_term, red, grad)


# ---------------------------------------------------------------------------
# spectral set regularizer and combinations

def qare(s_a, s_b, mode: str = "euclidean") -> T.Tensor:
    """Spectral alignment of the two intra-set matrices.

    Euclidean distances: negated minimal pairing of the two spectra
    (descending against ascending). Cosine similarities: maximal pairing
    of the spectra of the elementwise-shifted matrices 1 + S.
    """
    sa, sb = T.as_tensor(s_a), T.as_tensor(s_b)
    na = _square(sa, "qare: s_a")
    nb = _square(sb, "qare: s_b")
    if na != nb:
        raise ShapeError(f"qare: sizes differ, {na} vs {nb}")
    if mode == "euclidean":
        la = simgeom.eigvals(sa)   # descending
        lb = simgeom.eigvals(sb)
        paired = T.mul(la, T.flip_rows(lb))  # descending * ascending
        return T.scale(T.total_sum(paired), -1.0)
    if mode == "cosine":
        ones = np.ones((na, na))
        la = simgeom.eigvals(T.add(sa, ones))
        lb = simgeom.eigvals(T.add(sb, ones))
        return T.total_sum(T.mul(la, lb))    # descending * descending
    raise ContractError(f"qare: unknown mode {mode!r}")


def combined_loss(pairwise, qare_value, alpha: float = 1.0,
                  beta: float = BETA_DEFAULT, n: int = 1) -> T.Tensor:
    """alpha * pairwise + beta * qare / n^2."""
    if n < 1:
        raise ContractError(f"combined_loss: n must be >= 1, got {n}")
    p = T.as_tensor(pairwise)
    q = T.as_tensor(qare_value)
    return T.add(T.scale(p, float(alpha)), T.scale(q, float(beta) / (n * n)))


def structured_qap_loss_exact(s, s_a, s_b, gt) -> float:
    """Reference-only exact QAP structured loss (enumerates, N <= 8):
    tr(S Y_gt^T) - min_Y [tr(S Y^T) + tr(S_A Y S_B^T Y^T)]."""
    a = np.asarray(s, dtype=np.float64)
    n = a.shape[0]
    idx = _gt_indices(gt, n, n, bijection=True)
    opt = assignment.brute_force_qap(s, s_a, s_b, "min")
    return assignment.lap_cost(a, idx) - opt.cost


# ---------------------------------------------------------------------------
# configuration and dispatch

@dataclass(frozen=True)
class LossConfig:
    """One trainable loss variant. ``beta`` weighs the qare term into the
    combined objective; ``mode`` selects distance vs cosine geometry."""

    name: str = "infonce"
    kind: str = "infonce"
    mining: str = "batch-hard"
    margin: float = MARGIN_DEFAULT
    temperature: float = TEMPERATURE_DEFAULT
    alpha: float = 1.0
    beta: float = 0.0
    mode: str = "euclidean"
    reduction: str = "mean"

    def __post_init__(self):
        if self.kind not in LOSS_KINDS:
            raise ContractError(f"unknown loss kind {self.kind!r}")
        if self.mining not in MINING_MODES:
            raise ContractError(f"unknown mining mode {self.mining!r}")
        if self.mining == "one-to-one" and self.kind != "margin":
            raise ContractError("one-to-one mining is only defined for kind='margin'")
        if self.margin < 0.0:
            raise ContractError("margin must be >= 0")
        if self.temperature <= 0.0:
            raise ContractError("temperature must be > 0")
        if self.alpha < 0.0 or self.beta < 0.0:
            raise ContractError("alpha and beta must be >= 0")
        if self.alpha + self.beta == 0.0:
            raise ContractError("alpha + beta must be positive")
        if self.mode not in ("euclidean", "cosine"):
            raise ContractError(f"unknown similarity mode {self.mode!r}")
        if self.reduction not in ("sum", "mean"):
            raise ContractError(f"unknown reduction {self.reduction!r}")


def pairwise_loss(s, gt, cfg: LossConfig) -> T.Tensor:
    """Dispatch the configured pairwise loss on a distance-semantics S."""
    if cfg.kind == "margin":
        fn = structured_lap_loss if cfg.mining == "one-to-one" else batch_hard_lap_loss
        return fn(s, gt, margin=cfg.margin, reduction=cfg.reduction)
    if cfg.kind == "smoothed":
        return smoothed_batch_hard_loss(
            s, gt, temperature=cfg.temperature, reduction=cfg.reduction
        )
    if cfg.kind == "infonce":
        return infonce_loss(s, gt, temperature=cfg.temperature, reduction=cfg.reduction)
    if cfg.kind == "nt_logistic":
        return nt_logistic_loss(
            s, gt, temperature=cfg.temperature, reduction=cfg.reduction
        )
    if cfg.kind == "sparseclr":
        return sparseclr_loss(s, gt, reduction=cfg.reduction)
    raise ContractError(f"unknown loss kind {cfg.kind!r}")


def two_view_loss(z_a, z_b, gt, cfg: LossConfig) -> Tuple[T.Tensor, Dict[str, float]]:
    """Full training objective from two embedding batches.

    Cosine mode feeds the pairwise loss the negated similarity matrix so
    distance semantics hold on one code path; qare always sees the raw
    intra-set matrices of its mode. With beta == 0 neither S_A, S_B nor
    the qare branch is built; S comes from the same operations, keeping
    the base-loss trajectory bit-identical.
    """
    za, zb = T.as_tensor(z_a), T.as_tensor(z_b)
    if za.shape[0] != zb.shape[0]:
        raise ShapeError("two_view_loss: batch sizes differ")
    n = za.shape[0]
    # at beta == 0 nothing reads S_A and S_B, so only S is built
    triple = None if cfg.beta == 0.0 else simgeom.pairwise_distances(za, zb, cfg.mode)
    s = simgeom.cross_distances(za, zb, cfg.mode) if triple is None else triple.s
    s_pair = s if cfg.mode == "euclidean" else T.scale(s, -1.0)
    pw = pairwise_loss(s_pair, gt, cfg)
    if triple is None:
        total = pw if cfg.alpha == 1.0 else T.scale(pw, cfg.alpha)
        return total, {
            "pairwise": pw.item(),
            "qare": 0.0,
            "total": total.item(),
        }
    q = qare(triple.s_a, triple.s_b, cfg.mode)
    total = combined_loss(pw, q, alpha=cfg.alpha, beta=cfg.beta, n=n)
    return total, {"pairwise": pw.item(), "qare": q.item(), "total": total.item()}
