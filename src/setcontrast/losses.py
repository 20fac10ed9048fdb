"""Contrastive losses framed as (relaxations of) structured assignment
prediction, plus the spectral set regularizer ``qare``.

Pairwise losses consume an inter-set matrix S with distance semantics:
smaller means more alike, and the ground-truth column of each row is
the positive. Cosine-similarity callers negate S first (see
``two_view_loss``). All losses return scalar Tensors and differentiate
end-to-end through the tape.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, Tuple, Union

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
    idx = np.asarray(gt, dtype=np.intp).reshape(-1)
    if idx.shape[0] != n_rows:
        raise ContractError(f"alignment length {idx.shape[0]} != rows {n_rows}")
    if np.any(idx < 0) or np.any(idx >= n_cols):
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


def _reduce(total: T.Tensor, n_rows: int, reduction: str) -> T.Tensor:
    if reduction == "sum":
        return total
    if reduction == "mean":
        return T.scale(total, 1.0 / n_rows)
    raise ContractError(f"reduction must be 'sum' or 'mean', got {reduction!r}")


# ---------------------------------------------------------------------------
# sparsemax (Euclidean projection onto the probability simplex)

def sparsemax_threshold(z) -> float:
    """Threshold T(z) with sum(max(z - T, 0)) = 1, via the sorted
    cumulative-sum characterization of the simplex projection."""
    v = np.asarray(z, dtype=np.float64).reshape(-1)
    if v.size == 0:
        raise ShapeError("sparsemax_threshold: empty input")
    zs = np.sort(v)[::-1]
    css = np.cumsum(zs)
    ks = np.arange(1, v.size + 1)
    support = 1.0 + ks * zs > css
    k_star = int(ks[support][-1])
    return float((css[k_star - 1] - 1.0) / k_star)


def sparsemax(z) -> Array:
    """Projection of z onto the simplex: max(z - T(z), 0)."""
    v = np.asarray(z, dtype=np.float64).reshape(-1)
    return np.maximum(v - sparsemax_threshold(v), 0.0)


# ---------------------------------------------------------------------------
# structured LAP losses and their relaxations

def _const(a: Array) -> T.Tensor:
    return T.Tensor(a)


def _margin_matrix(s: T.Tensor, y: Array, margin: float) -> T.Tensor:
    if margin < 0.0:
        raise ContractError(f"margin must be >= 0, got {margin}")
    if margin == 0.0:
        return s
    return T.add(s, _const(margin * y))


def _masked_total(s: T.Tensor, y: Array) -> T.Tensor:
    # tr(S Y^T): one surviving entry per row, summed in row order
    return T.total_sum(T.mul(s, _const(y)))


def _lap_min_term(sm: T.Tensor) -> T.Tensor:
    """min over permutations of tr(S Y^T), differentiable by the envelope
    rule: the gradient is the optimal permutation matrix."""
    res = assignment.solve_lap(sm.data, "min")
    n = sm.shape[0]
    y_star = _gt_matrix(np.asarray(res.perm, dtype=np.intp), n, n)

    def vjp(g):
        return (float(g.reshape(())) * y_star,)

    return T.custom_op((sm,), np.array(res.cost).reshape(1, 1), vjp)


def structured_lap_loss(s, gt, margin: float = MARGIN_DEFAULT,
                        reduction: str = "sum") -> T.Tensor:
    """Margin-augmented structured loss with exact one-to-one mining:
    tr(S_m Y_gt^T) - min_Y tr(S_m Y^T) over permutations, S_m = S + m Y_gt."""
    s = T.as_tensor(s)
    n = _square(s, "structured_lap_loss")
    idx = _gt_indices(gt, n, n, bijection=True)
    y = _gt_matrix(idx, n, n)
    sm = _margin_matrix(s, y, margin)
    loss = T.sub(_masked_total(sm, y), _lap_min_term(sm))
    return _reduce(loss, n, reduction)


def batch_hard_lap_loss(s, gt, margin: float = MARGIN_DEFAULT,
                        reduction: str = "sum") -> T.Tensor:
    """Row-independent relaxation of the structured loss:
    tr(S_m Y_gt^T) - sum_i min_j [S_m]_ij. Equals the hinged triplet sum
    max(0, s_pos + m - hardest negative) row by row."""
    s = T.as_tensor(s)
    n = _square(s, "batch_hard_lap_loss")
    idx = _gt_indices(gt, n, n, bijection=True)
    y = _gt_matrix(idx, n, n)
    sm = _margin_matrix(s, y, margin)
    loss = T.sub(_masked_total(sm, y), T.total_sum(T.row_min(sm)))
    return _reduce(loss, n, reduction)


def _row_lse_of_neg(s: T.Tensor, temperature: float) -> T.Tensor:
    """Per-row log sum_j exp(-S_ij / tau), (N, 1), max-shifted for
    overflow safety."""
    if temperature <= 0.0:
        raise ContractError(f"temperature must be > 0, got {temperature}")
    z = T.scale(s, -1.0 / temperature)
    m = T.row_max(z)
    return T.add(T.log(T.row_sum(T.exp(T.sub(z, m)))), m)


def smoothed_batch_hard_loss(s, gt, temperature: float = TEMPERATURE_DEFAULT,
                             reduction: str = "sum") -> T.Tensor:
    """Log-sum-exp smoothing of the batch-hard row minima:
    tr(S Y_gt^T) + tau * sum_i log sum_j exp(-S_ij / tau)."""
    s = T.as_tensor(s)
    n = _square(s, "smoothed_batch_hard_loss")
    idx = _gt_indices(gt, n, n, bijection=True)
    y = _gt_matrix(idx, n, n)
    lse = _row_lse_of_neg(s, temperature)
    loss = T.add(_masked_total(s, y), T.scale(T.total_sum(lse), temperature))
    return _reduce(loss, n, reduction)


def infonce_loss(s, gt, temperature: float = TEMPERATURE_DEFAULT,
                 reduction: str = "mean") -> T.Tensor:
    """Distance-form InfoNCE; the positive column stays inside the
    row-wise log-sum-exp. With reduction="sum" this equals the smoothed
    batch-hard loss divided by tau (exact identity)."""
    s = T.as_tensor(s)
    n = _square(s, "infonce_loss")
    idx = _gt_indices(gt, n, n, bijection=True)
    y = _gt_matrix(idx, n, n)
    pos = T.row_sum(T.mul(s, _const(y)))  # (N, 1) gathered positives
    rows = T.add(T.scale(pos, 1.0 / temperature), _row_lse_of_neg(s, temperature))
    return _reduce(T.total_sum(rows), n, reduction)


def nt_logistic_loss(s, gt, temperature: float = TEMPERATURE_DEFAULT,
                     reduction: str = "mean") -> T.Tensor:
    """Logistic pair loss with the batch-hard negative:
    mean_i [softplus(s_pos/tau) + softplus(-s_neg*/tau)] where s_neg* is
    the row minimum over non-positive columns. S may be rectangular."""
    s = T.as_tensor(s)
    n, k = s.shape
    if k < 2:
        raise ContractError("nt_logistic_loss needs at least one negative column")
    idx = _gt_indices(gt, n, k, bijection=False)
    y = _gt_matrix(idx, n, k)
    pos = T.row_sum(T.mul(s, _const(y)))
    big = float(np.ptp(s.data)) + 1.0  # lift positives out of the row minima
    neg = T.row_min(T.add(s, _const(big * y)))
    rows = T.add(
        T.softplus(T.scale(pos, 1.0 / temperature)),
        T.softplus(T.scale(neg, -1.0 / temperature)),
    )
    return _reduce(T.total_sum(rows), n, reduction)


def _sparse_support_term(s: T.Tensor) -> T.Tensor:
    """0.5 * sum_i sum_{j in support(sparsemax(-h_i))} (h_ij^2 - T_i^2)
    with T_i = T(-h_i); gradient is -sparsemax(-h_i) rowwise."""
    h = s.data
    n = h.shape[0]
    p = np.zeros_like(h)
    total = 0.0
    for i in range(n):
        ti = sparsemax_threshold(-h[i])
        pi = np.maximum(-h[i] - ti, 0.0)
        support = pi > 0.0
        total += 0.5 * float((h[i, support] ** 2 - ti * ti).sum())
        p[i] = pi

    def vjp(g):
        return (float(g.reshape(())) * (-p),)

    return T.custom_op((s,), np.array(total).reshape(1, 1), vjp)


def sparseclr_loss(s, gt, reduction: str = "sum") -> T.Tensor:
    """Sparsemax-smoothed batch-hard loss: the row minima are replaced by
    a simplex projection of the negated row, giving sparse support over
    the hardest columns:

        tr(S Y_gt^T) - 0.5 sum_i sum_{j in Omega(-h_i)} (h_ij^2 - T^2(-h_i)).
    """
    s = T.as_tensor(s)
    n = _square(s, "sparseclr_loss")
    idx = _gt_indices(gt, n, n, bijection=True)
    y = _gt_matrix(idx, n, n)
    loss = T.sub(_masked_total(s, y), _sparse_support_term(s))
    return _reduce(loss, n, reduction)


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
        la = simgeom.eigvals(T.add(sa, _const(ones)))
        lb = simgeom.eigvals(T.add(sb, _const(ones)))
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
