"""Contrastive losses framed as (relaxations of) structured assignment
prediction, plus the spectral set regularizer ``qare``.

Pairwise losses consume a square inter-set matrix S with distance
semantics: smaller means more alike, and the ground-truth column of each
row, given by a permutation, is the positive. Cosine-similarity callers
negate S first (see ``two_view_loss``). All losses return scalar Tensors
and differentiate end-to-end through the tape.

Each pairwise loss is the batch mean over the N rows of S: a sum over
rows divided by N, as training uses it. It is one tape node on S. Its
value is computed in numpy and its VJP in closed form, times the
upstream gradient over N:

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

``qare(z_a, z_b, mode)`` reads the two embedding sets: in euclidean
mode it is one node over their distance matrices, in cosine mode one
node over the row-normalized sets, whose spectra it takes from the
(E+1)-column factor P = [1, X] of 1 + S. Either VJP pulls the partner
spectrum back through ``simgeom.eigenvalue_gradient``.
``combined_loss`` is one node with VJP (g, g * beta / N^2).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, Tuple

import numpy as np

from . import assignment, simgeom
from . import tensor as T
from .errors import ContractError, EvaluationError, ShapeError

Array = np.ndarray

MARGIN_DEFAULT = 0.5
TEMPERATURE_DEFAULT = 0.05
BETA_DEFAULT = 1.0
# below this gap neighbouring eigenvalues count as one degenerate
# cluster, inside which the solver's eigenvector basis is arbitrary
DEGENERATE_EIGENGAP = 1e-8
# partner values inside one degenerate eigenvalue cluster that spread by
# more than this, relative to max(1, max |partner|), flag qare's step
DEGENERATE_UPSTREAM_SPREAD = 1e-8

LOSS_KINDS = ("margin", "smoothed", "infonce", "nt_logistic", "sparseclr")
MINING_MODES = ("one-to-one", "batch-hard")


# ---------------------------------------------------------------------------
# ground truth handling

@dataclass(frozen=True)
class GroundTruthAlignment:
    """Row-to-column alignment; perm[i] is the positive column of row i.

    The entries are checked once, on construction: a boolean, fractional,
    NaN or Inf entry raises ContractError, and so does any ``perm`` that
    is not a permutation of 0..n-1, with n its length. ``perm`` is stored
    as a tuple of ints, whatever sequence it was given as, so alignments
    built from a list, a tuple or an array compare, hash and print alike.
    ``indices`` keeps the entries as a read-only intp array; it takes no
    part in equality or hashing."""

    perm: Tuple[int, ...]
    indices: Array = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        # a copy, so freezing it leaves an array passed as perm writable
        idx = np.array(assignment._as_indices(self.perm))
        perm = tuple(idx.tolist())
        # _check_perm's test on the int tuple: at n = 6 it costs about a
        # tenth of a _check_perm call, which converts to arrays again
        if sorted(perm) != list(range(len(perm))):
            raise ContractError(
                f"expected a permutation of 0..{len(perm) - 1}, got {self.perm!r}")
        idx.setflags(write=False)
        object.__setattr__(self, "perm", perm)
        object.__setattr__(self, "indices", idx)

    @classmethod
    def identity(cls, n: int) -> "GroundTruthAlignment":
        return cls(tuple(range(n)))


def _operands(s, gt, name: str):
    """A pairwise loss's operands: S as a Tensor and the dense
    ground-truth Y of the alignment checked against S. A raw tuple or
    array is wrapped in a GroundTruthAlignment first. S must be square,
    with rows, and the alignment as long as S."""
    s = T.as_tensor(s)
    n, k = s.shape
    if n == 0:
        raise ShapeError(f"{name}: S has no rows")
    if n != k:
        raise ShapeError(f"{name}: expected square S, got {s.shape}")
    if not isinstance(gt, GroundTruthAlignment):
        gt = GroundTruthAlignment(gt)
    idx = gt.indices
    if idx.shape[0] != n:
        raise ContractError(f"alignment length {idx.shape[0]} != rows {n}")
    y = np.zeros(s.shape)
    y[np.arange(n), idx] = 1.0
    return s, y


def _loss_node(s: T.Tensor, total, grad) -> T.Tensor:
    """One tape node with the batch mean ``total / N`` as value, N the
    rows of S; its VJP is ``grad(c)`` with c the upstream gradient over N."""
    scale = 1.0 / s.shape[0]

    def vjp(g):
        return (grad(g.item() * scale),)

    return T.custom_op((s,), total * scale, vjp)


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
    cumulative-sum characterization of the simplex projection. NaN or
    Inf entries raise EvaluationError."""
    v = np.asarray(z, dtype=np.float64).reshape(1, -1)
    if v.size == 0:
        raise ShapeError("sparsemax_threshold: empty input")
    if not np.all(np.isfinite(v)):
        raise EvaluationError("sparsemax: input contains NaN or Inf")
    return float(_row_thresholds(v)[0])


def sparsemax(z) -> Array:
    """Projection of z onto the simplex: max(z - T(z), 0). NaN or Inf
    entries raise EvaluationError."""
    v = np.asarray(z, dtype=np.float64).reshape(-1)
    return np.maximum(v - sparsemax_threshold(v), 0.0)


# ---------------------------------------------------------------------------
# structured LAP losses and their relaxations

def _margined(s: Array, y: Array, margin: float) -> Array:
    """S_m = S + m Y_gt, for a finite margin m >= 0: an infinite one
    would make every off-positive entry inf * 0 = NaN."""
    if not margin >= 0.0:
        raise ContractError(f"margin must be >= 0, got {margin}")
    if not math.isfinite(margin):
        raise ContractError(f"margin must be finite, got {margin}")
    return s if margin == 0.0 else s + margin * y


def structured_lap_loss(s, gt, margin: float = MARGIN_DEFAULT) -> T.Tensor:
    """Margin-augmented structured loss with exact one-to-one mining:
    [tr(S_m Y_gt^T) - min_Y tr(S_m Y^T)] / N over permutations,
    S_m = S + m Y_gt.

    The minimum is differentiated by the envelope rule, so the VJP is
    (Y_gt - Y*) / N, with Y* the solver's (lexicographically first)
    optimum.

    The loss is never negative. The two traces are summed in different
    orders, so where the ground truth is itself optimal their difference
    can round to just below 0; such a value reads 0."""
    s, y = _operands(s, gt, "structured_lap_loss")
    sm = _margined(s.data, y, margin)
    best = assignment.solve_lap(sm, "min")

    def grad(c):
        return c * y - c * np.eye(len(y))[list(best.perm)]

    return _loss_node(s, max(0.0, (sm * y).sum() - best.cost), grad)


def batch_hard_lap_loss(s, gt, margin: float = MARGIN_DEFAULT) -> T.Tensor:
    """Row-independent relaxation of the structured loss:
    [tr(S_m Y_gt^T) - sum_i min_j [S_m]_ij] / N. Equals the hinged
    triplet sum max(0, s_pos + m - hardest negative) over the rows,
    divided by N.

    VJP: Y_gt minus the one-hot of each row's minimum of S_m, over N; a
    tied minimum routes the gradient to its first column.

    The loss is never negative. Where every row's positive is its
    minimum the two sums add the same terms in different orders, so
    their difference can round to just below 0; such a value reads 0."""
    s, y = _operands(s, gt, "batch_hard_lap_loss")
    sm = _margined(s.data, y, margin)
    hardest = np.argmin(sm, axis=1)

    def grad(c):
        g = c * y
        g[np.arange(len(hardest)), hardest] -= c
        return g

    total = max(0.0, (sm * y).sum() - sm.min(axis=1).sum())
    return _loss_node(s, total, grad)


def _check_temperature(temperature: float) -> None:
    if not temperature > 0.0:
        raise ContractError(f"temperature must be > 0, got {temperature}")
    if not math.isfinite(temperature):
        raise ContractError(f"temperature must be finite, got {temperature}")


def _softmax_of_neg(s: Array, temperature: float):
    """Row-wise e = exp(-S/tau - max), its row sums r (N, 1) and the
    max-shifted log-sum-exp log r + max (N, 1); softmax is e / r."""
    _check_temperature(temperature)
    z = s * (-1.0 / temperature)
    m = np.maximum.reduce(z, axis=1, keepdims=True)
    e = np.exp(z - m)
    r = np.add.reduce(e, axis=1, keepdims=True)
    return e, r, np.log(r) + m


def smoothed_batch_hard_loss(s, gt,
                             temperature: float = TEMPERATURE_DEFAULT) -> T.Tensor:
    """Log-sum-exp smoothing of the batch-hard row minima:
    [tr(S Y_gt^T) + tau * sum_i log sum_j exp(-S_ij / tau)] / N.

    VJP: (Y_gt - softmax(-S / tau)) / N row-wise."""
    s, y = _operands(s, gt, "smoothed_batch_hard_loss")
    e, r, lse = _softmax_of_neg(s.data, temperature)

    def grad(c):
        return (c * temperature) / r * e * (-1.0 / temperature) + c * y

    return _loss_node(s, (s.data * y).sum() + lse.sum() * temperature, grad)


def infonce_loss(s, gt, temperature: float = TEMPERATURE_DEFAULT) -> T.Tensor:
    """Distance-form InfoNCE; the positive column stays inside the
    row-wise log-sum-exp: sum_i [s_pos_i / tau + log sum_j exp(-S_ij / tau)]
    / N. This equals the smoothed batch-hard loss divided by tau (exact
    identity).

    VJP: (Y_gt - softmax(-S / tau)) / (tau N) row-wise."""
    s, y = _operands(s, gt, "infonce_loss")
    e, r, lse = _softmax_of_neg(s.data, temperature)
    pos = np.add.reduce(s.data * y, axis=1, keepdims=True)  # (N, 1) gathered positives

    def grad(c):
        return c / r * e * (-1.0 / temperature) + (c * (1.0 / temperature)) * y

    return _loss_node(s, (pos * (1.0 / temperature) + lse).sum(), grad)


def _sigmoid(x: Array) -> Array:
    # via tanh, which keeps both tails stable
    return 0.5 * (1.0 + np.tanh(0.5 * x))


def nt_logistic_loss(s, gt, temperature: float = TEMPERATURE_DEFAULT) -> T.Tensor:
    """Logistic pair loss with the batch-hard negative:
    sum_i [softplus(s_pos/tau) + softplus(-s_neg*/tau)] / N where s_neg*
    is the row minimum over non-positive columns.

    VJP, over N: sigmoid(s_pos/tau)/tau on each positive and
    -sigmoid(-s_neg*/tau)/tau on each row's hardest negative; a tied
    minimum routes the gradient to its first column. softplus is
    log(1 + exp(x)) without overflow."""
    s, y = _operands(s, gt, "nt_logistic_loss")
    n = s.shape[0]
    if n < 2:
        raise ContractError("nt_logistic_loss needs at least one negative column")
    _check_temperature(temperature)
    pos = (s.data * y).sum(axis=1, keepdims=True) * (1.0 / temperature)
    lifted = s.data + (float(np.ptp(s.data)) + 1.0) * y  # positives out of the minima
    hardest = np.argmin(lifted, axis=1)
    neg = lifted.min(axis=1, keepdims=True) * (-1.0 / temperature)

    def grad(c):
        g = c * _sigmoid(pos) * (1.0 / temperature) * y
        g[np.arange(n), hardest] += (c * _sigmoid(neg) * (-1.0 / temperature))[:, 0]
        return g

    total = (np.logaddexp(0.0, pos) + np.logaddexp(0.0, neg)).sum()
    return _loss_node(s, total, grad)


def _sparse_support(h: Array):
    """Row-wise sparsemax P of -h, and the support term
    0.5 * sum_i sum_{j in support(P_i)} (h_ij^2 - T_i^2) with T_i = T(-h_i).
    Both sums add in sequence, columns then rows, so the value does not
    depend on how numpy blocks a reduction."""
    t = _row_thresholds(-h)
    p = np.maximum(-h - t[:, None], 0.0)
    rows = np.cumsum(np.where(p > 0.0, h ** 2 - (t * t)[:, None], 0.0), axis=1)[:, -1]
    return p, np.cumsum(0.5 * rows)[-1]


def sparseclr_loss(s, gt) -> T.Tensor:
    """Sparsemax-smoothed batch-hard loss: the row minima are replaced by
    a simplex projection of the negated row, giving sparse support over
    the hardest columns:

        [tr(S Y_gt^T) - 0.5 sum_i sum_{j in Omega(-h_i)} (h_ij^2 - T^2(-h_i))] / N.

    VJP: (Y_gt + sparsemax(-h_i)) / N row-wise.
    """
    s, y = _operands(s, gt, "sparseclr_loss")
    p, support_term = _sparse_support(s.data)

    def grad(c):
        return c * p + c * y

    return _loss_node(s, (s.data * y).sum() - support_term, grad)


# ---------------------------------------------------------------------------
# spectral set regularizer and combinations

def _basis_dependent(values: Array, upstream: Array) -> bool:
    """Whether ``simgeom.eigenvalue_gradient`` of ``upstream`` depends on
    the eigenvector basis the solver picked: some cluster of sorted
    ``values`` whose neighbours lie closer than DEGENERATE_EIGENGAP gets
    upstream values that spread by more than
    DEGENERATE_UPSTREAM_SPREAD * max(1, max |upstream|)."""
    gaps = np.abs(np.diff(values)) >= DEGENERATE_EIGENGAP
    starts = np.flatnonzero(np.r_[True, gaps])
    spread = np.maximum.reduceat(upstream, starts) - np.minimum.reduceat(upstream, starts)
    return bool((spread > DEGENERATE_UPSTREAM_SPREAD
                 * max(1.0, float(np.abs(upstream).max()))).any())


def qare(z_a, z_b, mode: str = "euclidean") -> T.Tensor:
    """Spectral alignment of two embedding sets of one shape (n, E).

    Euclidean distances: negated minimal pairing (descending against
    ascending) of the spectra of the sets' distance matrices
    ``simgeom.self_distances``; one node over the two matrices, whose
    VJPs are ``simgeom.eigenvalue_gradient`` of -g times the partner
    values. Cosine similarities: maximal pairing (descending against
    descending) of the spectra of 1 + S = P P^T, where P = [1, X] and X
    is the row-normalized set. Those are the min(n, E+1) leading
    eigenvalues of the (E+1) x (E+1) matrix G = P^T P; the rest of
    either spectrum is exactly 0 and pairs with zeros, so S is never
    built. One node over the two X; as d lambda_i / dP = 2 P v_i v_i^T,
    each VJP is 2 P M without M's first column, M the
    ``eigenvalue_gradient`` of g times the partner values. Both matrices
    of a pair go to one ``simgeom.sym_eigen_pair`` call. The active tape
    is flagged "degenerate-eigenvalues" only where a gradient depends on
    the eigenvector basis (``_basis_dependent`` on the spectra read).
    """
    za, zb = T.as_tensor(z_a), T.as_tensor(z_b)
    if za.shape != zb.shape:
        raise ShapeError(f"qare: shapes differ, {za.shape} vs {zb.shape}")
    factors = None
    if mode == "euclidean":
        ins = simgeom.self_distances(za), simgeom.self_distances(zb)
        dec_a, dec_b = simgeom.sym_eigen_pair(ins[0].data, ins[1].data)
        sign, partner_a, partner_b = -1.0, dec_b.values[::-1], dec_a.values[::-1]
    elif mode == "cosine":
        ins = T.row_l2_normalize(za), T.row_l2_normalize(zb)
        factors = [np.hstack((np.ones((x.shape[0], 1)), x.data)) for x in ins]
        k = min(factors[0].shape)
        dec_a, dec_b = (simgeom.EigenDecomposition(d.values[:k], d.vectors[:, :k])
                        for d in simgeom.sym_eigen_pair(*(p.T @ p for p in factors)))
        sign, partner_a, partner_b = 1.0, dec_b.values, dec_a.values
    else:
        raise ContractError(f"qare: unknown mode {mode!r}")
    tape = T.active_tape(*ins)
    if tape is not None and (_basis_dependent(dec_a.values, partner_a)
                             or _basis_dependent(dec_b.values, partner_b)):
        tape.flags.add("degenerate-eigenvalues")

    def vjp(g):
        c = g.item() * sign
        grads = (simgeom.eigenvalue_gradient(dec_a, c * partner_a),
                 simgeom.eigenvalue_gradient(dec_b, c * partner_b))
        if factors is None:
            return grads
        return tuple(2.0 * p @ m[:, 1:] for p, m in zip(factors, grads))

    return T.custom_op(ins, (dec_a.values * partner_a).sum() * sign, vjp)


def combined_loss(pairwise, qare_value, *, beta: float = BETA_DEFAULT,
                  n: int = 1) -> T.Tensor:
    """pairwise + beta * qare / n^2 as one tape node, the pairwise term
    unscaled: Adam ignores a constant gradient scale (but for eps), so
    beta is the one weight. ``beta`` and ``n`` are keyword-only."""
    if n < 1:
        raise ContractError(f"combined_loss: n must be >= 1, got {n}")
    if not beta >= 0.0:
        raise ContractError(f"beta must be >= 0, got {beta}")
    if not math.isfinite(beta):
        raise ContractError(f"beta must be finite, got {beta}")
    p = T.as_tensor(pairwise)
    q = T.as_tensor(qare_value)
    w = float(beta) / (n * n)

    def vjp(g):
        return g, g * w

    return T.custom_op((p, q), p.data + q.data * w, vjp)


def structured_qap_loss_exact(s, s_a, s_b, gt) -> float:
    """Reference-only exact QAP structured loss (enumerates, N <= 8), in
    sum form, not divided by N as the pairwise losses are:
    tr(S Y_gt^T) - min_Y [tr(S Y^T) + tr(S_A Y S_B^T Y^T)]."""
    a = np.asarray(s, dtype=np.float64)
    perm = gt.perm if isinstance(gt, GroundTruthAlignment) else gt
    idx = assignment._check_perm(perm, a.shape[0])
    opt = assignment.brute_force_qap(s, s_a, s_b, "min")
    return assignment.lap_cost(a, idx) - opt.cost


# ---------------------------------------------------------------------------
# configuration and dispatch

@dataclass(frozen=True)
class LossConfig:
    """One trainable loss variant: the batch-mean pairwise loss of
    ``kind`` (with ``mining``, ``margin`` and ``temperature`` where they
    apply), plus ``beta`` times qare / N^2; ``mode`` selects distance vs
    cosine geometry. ``margin``, ``temperature`` and ``beta`` must be
    finite."""

    name: str = "infonce"
    kind: str = "infonce"
    mining: str = "batch-hard"
    margin: float = MARGIN_DEFAULT
    temperature: float = TEMPERATURE_DEFAULT
    beta: float = 0.0
    mode: str = "euclidean"

    def __post_init__(self):
        if self.kind not in LOSS_KINDS:
            raise ContractError(f"unknown loss kind {self.kind!r}")
        if self.mining not in MINING_MODES:
            raise ContractError(f"unknown mining mode {self.mining!r}")
        if self.mining == "one-to-one" and self.kind != "margin":
            raise ContractError("one-to-one mining is only defined for kind='margin'")
        if not self.margin >= 0.0:
            raise ContractError("margin must be >= 0")
        if not math.isfinite(self.margin):
            raise ContractError("margin must be finite")
        if not self.temperature > 0.0:
            raise ContractError("temperature must be > 0")
        if not math.isfinite(self.temperature):
            raise ContractError("temperature must be finite")
        if not self.beta >= 0.0:
            raise ContractError("beta must be >= 0")
        if not math.isfinite(self.beta):
            raise ContractError("beta must be finite")
        if self.mode not in ("euclidean", "cosine"):
            raise ContractError(f"unknown similarity mode {self.mode!r}")


def pairwise_loss(s, gt, cfg: LossConfig) -> T.Tensor:
    """The configured batch-mean pairwise loss on a distance-semantics S."""
    if cfg.kind == "margin":
        fn = structured_lap_loss if cfg.mining == "one-to-one" else batch_hard_lap_loss
        return fn(s, gt, margin=cfg.margin)
    if cfg.kind == "smoothed":
        return smoothed_batch_hard_loss(s, gt, temperature=cfg.temperature)
    if cfg.kind == "infonce":
        return infonce_loss(s, gt, temperature=cfg.temperature)
    if cfg.kind == "nt_logistic":
        return nt_logistic_loss(s, gt, temperature=cfg.temperature)
    # the last of LOSS_KINDS: LossConfig rejects any other kind on construction
    return sparseclr_loss(s, gt)


def two_view_loss(z_a, z_b, gt, cfg: LossConfig) -> Tuple[T.Tensor, Dict[str, float]]:
    """Full training objective from two embedding batches: the batch-mean
    pairwise loss plus beta * qare / N^2 (``combined_loss``).

    S comes from ``simgeom.cross_distances`` at every beta. Cosine mode
    feeds the pairwise loss the negated similarity matrix, so distance
    semantics hold on one code path; qare reads the two embedding sets
    themselves. With beta == 0 the objective is the pairwise node itself,
    and nothing of qare is built.
    """
    za, zb = T.as_tensor(z_a), T.as_tensor(z_b)
    if za.shape[0] != zb.shape[0]:
        raise ShapeError("two_view_loss: batch sizes differ")
    s = simgeom.cross_distances(za, zb, cfg.mode)
    pw = pairwise_loss(s if cfg.mode == "euclidean" else T.scale(s, -1.0), gt, cfg)
    pw_value = pw.item()
    if cfg.beta == 0.0:
        return pw, {"pairwise": pw_value, "qare": 0.0, "total": pw_value}
    q = qare(za, zb, cfg.mode)
    total = combined_loss(pw, q, beta=cfg.beta, n=za.shape[0])
    return total, {"pairwise": pw_value, "qare": q.item(), "total": total.item()}
