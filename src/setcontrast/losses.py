"""Contrastive losses framed as (relaxations of) structured assignment
prediction, plus the spectral set regularizer ``qare``.

Every differentiable function here takes arrays and returns its value,
a float, and its pullback: for a scalar c, the gradients of c times the
value on its array inputs. The inputs are read by ``simgeom._matrix``:
a C-ordered float64 array as it is, anything else converted once; NaN
or Inf raises EvaluationError and more than two dimensions ShapeError.
A pullback may read its inputs again, so call it before changing them.

Pairwise losses consume a square inter-set matrix S with distance
semantics: smaller means more alike, and the ground-truth column of each
row, given by a permutation, is the positive. Cosine-similarity callers
negate S first (see ``two_view_loss``).

Each pairwise loss is the batch mean over the N rows of S: a sum over
rows divided by N, as training uses it. Its value is computed in numpy
and its pullback in closed form, c times the gradient over N:

- ``infonce_loss``: (Y - softmax(-S/tau)) / tau, row-wise;
- ``smoothed_batch_hard_loss``: Y - softmax(-S/tau);
- ``batch_hard_lap_loss``: Y minus the one-hot of each row's minimum of
  S + mY;
- ``nt_logistic_loss``: sigmoid(s_pos/tau)/tau on the positives and
  -sigmoid(-s_neg/tau)/tau on each row's hardest negative;
- ``sparseclr_loss``: Y - sparsemax(-S), row-wise;
- ``structured_lap_loss``: Y - Y*, with Y* the optimal assignment.

Y is the ground-truth assignment matrix. Where a row minimum is tied,
the batch-hard and NT-logistic gradients go to the first minimising
column.

``qare(z_a, z_b)`` reads the two embedding sets in one form, whatever
the mode of S: the rows as given, whose spectra it takes from the
(E+1)-column factor P = [1, Z] of 1 + Z Z^T, which is 1 + S_A on the
encoder's unit rows. Its pullback takes the partner spectrum back
through ``simgeom.eigenvalue_gradient``, which at a cluster of equal
eigenvalues gives one valid subgradient (Lewis 1996; see ``simgeom``).

``two_view_loss(z_a, z_b, gt, cfg)`` is the training objective on two
embedding arrays: S, the configured pairwise loss and beta * qare / N^2,
each through its public function. ``harness.train`` chains its pullback
with the encoder's.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Tuple

import numpy as np

from . import assignment, simgeom
from .errors import ContractError, EvaluationError, ShapeError

Array = np.ndarray
# a value and its pullback, as every differentiable function returns them
ValueAndPullback = Tuple[float, Callable]

MARGIN_DEFAULT = 0.5
TEMPERATURE_DEFAULT = 0.05

LOSS_KINDS = ("margin", "smoothed", "infonce", "nt_logistic", "sparseclr")
MINING_MODES = ("one-to-one", "batch-hard")


# ---------------------------------------------------------------------------
# ground truth handling

@dataclass(frozen=True)
class GroundTruthAlignment:
    """Row-to-column alignment; perm[i] is the positive column of row i.

    ``perm`` is a permutation of the integers 0..n-1, with n its length,
    given as a one-dimensional sequence of ints or integer array. It is
    checked once, on construction: any other shape, a float entry,
    integral or not, or a boolean raises ContractError, and so does any
    ``perm`` that is not a permutation.
    ``perm`` is stored as a tuple of ints, whatever sequence it was given
    as, so alignments built from a list, a tuple or an array compare,
    hash and print alike. ``indices`` keeps the entries as a read-only
    intp array; it takes no part in equality or hashing."""

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


def _alignment_indices(gt, n: int) -> Array:
    """The read-only indices of the alignment ``gt`` of n rows. A raw
    tuple or array is wrapped in a GroundTruthAlignment first; an
    alignment of any other length raises ContractError."""
    if not isinstance(gt, GroundTruthAlignment):
        gt = GroundTruthAlignment(gt)
    idx = gt.indices
    if idx.shape[0] != n:
        raise ContractError(f"alignment length {idx.shape[0]} != rows {n}")
    return idx


def _dense_truth(s: Array, gt, name: str) -> Array:
    """The dense ground-truth Y of the alignment ``gt``, checked against
    the S array of the pairwise loss ``name``. S must be square, with
    rows, and the alignment as long as S (``_alignment_indices``)."""
    n, k = s.shape
    if n == 0:
        raise ShapeError(f"{name}: S has no rows")
    if n != k:
        raise ShapeError(f"{name}: expected square S, got {s.shape}")
    idx = _alignment_indices(gt, n)
    y = np.zeros(s.shape)
    y[np.arange(n), idx] = 1.0
    return y


def _batch_mean(s, gt, name: str, parts, args: tuple) -> ValueAndPullback:
    """The pairwise loss ``name`` of S: with
    ``parts(s, y, *args) -> (total, grad)``, the batch mean total / N, N
    the rows of S, and its pullback c -> grad(c / N), the gradient on S
    of c times the mean. S is read by ``simgeom._matrix``."""
    s = simgeom._matrix(s, name)
    y = _dense_truth(s, gt, name)
    total, grad = parts(s, y, *args)
    scale = 1.0 / s.shape[0]

    def pullback(c):
        return grad(c * scale)

    return float(total * scale), pullback


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


def structured_lap_loss(s, gt, margin: float = MARGIN_DEFAULT) -> ValueAndPullback:
    """Margin-augmented structured loss with exact one-to-one mining:
    [tr(S_m Y_gt^T) - min_Y tr(S_m Y^T)] / N over permutations,
    S_m = S + m Y_gt.

    The minimum is differentiated by the envelope rule, so the gradient
    is (Y_gt - Y*) / N, with Y* the solver's (lexicographically first)
    optimum.

    The loss is never negative. The two traces are summed in different
    orders, so where the ground truth is itself optimal their difference
    can round to just below 0; such a value reads 0."""
    return _batch_mean(s, gt, "structured_lap_loss", _structured_lap, (margin,))


def _structured_lap(s: Array, y: Array, margin: float):
    sm = _margined(s, y, margin)
    best = assignment.solve_lap(sm, "min")

    def grad(c):
        return c * y - c * np.eye(len(y))[list(best.perm)]

    return max(0.0, (sm * y).sum() - best.cost), grad


def batch_hard_lap_loss(s, gt, margin: float = MARGIN_DEFAULT) -> ValueAndPullback:
    """Row-independent relaxation of the structured loss:
    [tr(S_m Y_gt^T) - sum_i min_j [S_m]_ij] / N. Equals the hinged
    triplet sum max(0, s_pos + m - hardest negative) over the rows,
    divided by N.

    Gradient: Y_gt minus the one-hot of each row's minimum of S_m, over N; a
    tied minimum routes the gradient to its first column.

    The loss is never negative. Where every row's positive is its
    minimum the two sums add the same terms in different orders, so
    their difference can round to just below 0; such a value reads 0."""
    return _batch_mean(s, gt, "batch_hard_lap_loss", _batch_hard_lap, (margin,))


def _batch_hard_lap(s: Array, y: Array, margin: float):
    sm = _margined(s, y, margin)
    hardest = np.argmin(sm, axis=1)

    def grad(c):
        g = c * y
        g[np.arange(len(hardest)), hardest] -= c
        return g

    return max(0.0, (sm * y).sum() - sm.min(axis=1).sum()), grad


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


def smoothed_batch_hard_loss(s, gt, temperature: float = TEMPERATURE_DEFAULT
                             ) -> ValueAndPullback:
    """Log-sum-exp smoothing of the batch-hard row minima:
    [tr(S Y_gt^T) + tau * sum_i log sum_j exp(-S_ij / tau)] / N.

    Gradient: (Y_gt - softmax(-S / tau)) / N row-wise."""
    return _batch_mean(s, gt, "smoothed_batch_hard_loss", _smoothed, (temperature,))


def _smoothed(s: Array, y: Array, temperature: float):
    e, r, lse = _softmax_of_neg(s, temperature)

    def grad(c):
        return (c * temperature) / r * e * (-1.0 / temperature) + c * y

    return (s * y).sum() + lse.sum() * temperature, grad


def infonce_loss(s, gt, temperature: float = TEMPERATURE_DEFAULT) -> ValueAndPullback:
    """Distance-form InfoNCE; the positive column stays inside the
    row-wise log-sum-exp: sum_i [s_pos_i / tau + log sum_j exp(-S_ij / tau)]
    / N. This equals the smoothed batch-hard loss divided by tau (exact
    identity).

    Gradient: (Y_gt - softmax(-S / tau)) / (tau N) row-wise."""
    return _batch_mean(s, gt, "infonce_loss", _infonce, (temperature,))


def _infonce(s: Array, y: Array, temperature: float):
    e, r, lse = _softmax_of_neg(s, temperature)
    pos = np.add.reduce(s * y, axis=1, keepdims=True)  # (N, 1) gathered positives

    def grad(c):
        return c / r * e * (-1.0 / temperature) + (c * (1.0 / temperature)) * y

    return (pos * (1.0 / temperature) + lse).sum(), grad


def _sigmoid(x: Array) -> Array:
    # via tanh, which keeps both tails stable
    return 0.5 * (1.0 + np.tanh(0.5 * x))


def nt_logistic_loss(s, gt, temperature: float = TEMPERATURE_DEFAULT
                     ) -> ValueAndPullback:
    """Logistic pair loss with the batch-hard negative:
    sum_i [softplus(s_pos/tau) + softplus(-s_neg*/tau)] / N where s_neg*
    is the row minimum over non-positive columns.

    Gradient, over N: sigmoid(s_pos/tau)/tau on each positive and
    -sigmoid(-s_neg*/tau)/tau on each row's hardest negative; a tied
    minimum routes the gradient to its first column. softplus is
    log(1 + exp(x)) without overflow."""
    return _batch_mean(s, gt, "nt_logistic_loss", _nt_logistic, (temperature,))


def _nt_logistic(s: Array, y: Array, temperature: float):
    n = s.shape[0]
    if n < 2:
        raise ContractError("nt_logistic_loss needs at least one negative column")
    _check_temperature(temperature)
    pos = (s * y).sum(axis=1, keepdims=True) * (1.0 / temperature)
    lifted = s + (float(np.ptp(s)) + 1.0) * y  # positives out of the minima
    hardest = np.argmin(lifted, axis=1)
    neg = lifted.min(axis=1, keepdims=True) * (-1.0 / temperature)

    def grad(c):
        g = c * _sigmoid(pos) * (1.0 / temperature) * y
        g[np.arange(n), hardest] += (c * _sigmoid(neg) * (-1.0 / temperature))[:, 0]
        return g

    return (np.logaddexp(0.0, pos) + np.logaddexp(0.0, neg)).sum(), grad


def _sparse_support(h: Array):
    """Row-wise sparsemax P of -h, and the support term
    0.5 * sum_i sum_{j in support(P_i)} (h_ij^2 - T_i^2) with T_i = T(-h_i).
    Both sums add in sequence, columns then rows, so the value does not
    depend on how numpy blocks a reduction."""
    t = _row_thresholds(-h)
    p = np.maximum(-h - t[:, None], 0.0)
    rows = np.cumsum(np.where(p > 0.0, h ** 2 - (t * t)[:, None], 0.0), axis=1)[:, -1]
    return p, np.cumsum(0.5 * rows)[-1]


def sparseclr_loss(s, gt) -> ValueAndPullback:
    """Sparsemax-smoothed batch-hard loss at margin 0: each row's
    -min_j h_ij is replaced by the sparsemax smoothed max of -h_i,
    max_{p in simplex} <p, -h_i> - 0.5 |p|^2 (Martins & Astudillo 2016),
    which puts sparse support on the hardest columns:

        [tr(S Y_gt^T) + 0.5 sum_i sum_{j in Omega(-h_i)} (h_ij^2 - T^2(-h_i))] / N.

    The smoothed max of k entries lies in [max - 1/2, max - 1/(2k)], so N
    times the loss lies in [N BH_0 - N/2, N BH_0 - 1/2], BH_0 the
    batch-hard loss at margin 0. The value does not carry the +1/2 of
    Martins' sparsemax loss; it would move no gradient.

    Gradient: (Y_gt - sparsemax(-h_i)) / N row-wise.
    """
    return _batch_mean(s, gt, "sparseclr_loss", _sparseclr, ())


def _sparseclr(s: Array, y: Array):
    p, support_term = _sparse_support(s)

    def grad(c):
        return c * y - c * p

    return (s * y).sum() + support_term, grad


# ---------------------------------------------------------------------------
# spectral set regularizer and combinations

def qare(z_a, z_b) -> ValueAndPullback:
    """Spectral alignment of two embedding sets of one shape (n, E): the
    maximal pairing (descending against descending) of the spectra of
    1 + Z_A Z_A^T = P_A P_A^T and 1 + Z_B Z_B^T, with P = [1, Z] built
    from the rows as given. On unit rows, such as ``MLPEncoder.forward``
    returns, Z_A Z_A^T is the cosine similarity matrix S_A, so these are
    the spectra of 1 + S_A and 1 + S_B; qare normalizes nothing itself.

    Those spectra are the min(n, E+1) leading eigenvalues of the
    (E+1) x (E+1) matrices G = P^T P; the rest of either spectrum is
    exactly 0 and pairs with zeros, so S_A is never built. As
    d lambda_i / dP = 2 P v_i v_i^T, the pullback of c gives each Z
    2 P M without M's first column, M the ``eigenvalue_gradient`` of c
    times the partner values. Both G go to one ``simgeom.sym_eigen_pair``
    call. Where either spectrum has a cluster of equal eigenvalues this
    gradient is one valid subgradient of the value (see ``simgeom``).

    The value bounds the quadratic term of the similarity-form QAP
    max_Y [tr(S Y^T) + tr((1+S_A) Y (1+S_B) Y^T)] over permutations Y
    (Finke, Burkard & Rendl 1987), so that QAP's excess over the
    ground truth is at most N * ``structured_lap_loss(-S, gt, margin=0)``
    plus qare; the bound holds for any rows. It is not invariant to the
    scale of the rows. On unit rows 1 + S_A has trace 2n, so lowering
    qare flattens the spectra, which spreads each set's points.
    """
    za, zb = simgeom._matrix(z_a, "qare"), simgeom._matrix(z_b, "qare")
    if za.shape != zb.shape:
        raise ShapeError(f"qare: shapes differ, {za.shape} vs {zb.shape}")
    factors = [np.hstack((np.ones((z.shape[0], 1)), z)) for z in (za, zb)]
    k = min(factors[0].shape)
    dec_a, dec_b = (simgeom.EigenDecomposition(d.values[:k], d.vectors[:, :k])
                    for d in simgeom.sym_eigen_pair(*(p.T @ p for p in factors)))

    def pullback(c):
        return tuple(2.0 * p @ simgeom.eigenvalue_gradient(d, c * partner)[:, 1:]
                     for p, d, partner in zip(factors, (dec_a, dec_b),
                                              (dec_b.values, dec_a.values)))

    return float((dec_a.values * dec_b.values).sum()), pullback


def structured_qap_loss_exact(s, s_a, s_b, gt) -> float:
    """Reference-only exact QAP structured loss (enumerates, N <= 8), in
    sum form, not divided by N as the pairwise losses are:
    tr(S Y_gt^T) - min_Y [tr(S Y^T) + tr(S_A Y S_B^T Y^T)]. The
    alignment ``gt`` must be as long as S has rows
    (``_alignment_indices``)."""
    a = np.asarray(s, dtype=np.float64)
    idx = _alignment_indices(gt, a.shape[0])
    opt = assignment.brute_force_qap(s, s_a, s_b, "min")
    return assignment.lap_cost(a, idx) - opt.cost


# ---------------------------------------------------------------------------
# configuration and dispatch

@dataclass(frozen=True)
class LossConfig:
    """One trainable loss variant: the batch-mean pairwise loss of
    ``kind`` (with ``mining``, ``margin`` and ``temperature`` where they
    apply), plus ``beta`` times qare / N^2. ``mode`` selects S alone:
    distances ("euclidean") or negated inner products ("cosine"), which
    are cosine similarities on the encoder's unit rows; qare has one
    form in both. ``margin``, ``temperature`` and ``beta`` must be
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


def _pairwise_loss(s: Array, gt, cfg: LossConfig) -> ValueAndPullback:
    """The configured pairwise loss of S, through its public function."""
    if cfg.kind == "margin":
        if cfg.mining == "one-to-one":
            return structured_lap_loss(s, gt, cfg.margin)
        return batch_hard_lap_loss(s, gt, cfg.margin)
    if cfg.kind == "smoothed":
        return smoothed_batch_hard_loss(s, gt, cfg.temperature)
    if cfg.kind == "infonce":
        return infonce_loss(s, gt, cfg.temperature)
    if cfg.kind == "nt_logistic":
        return nt_logistic_loss(s, gt, cfg.temperature)
    # the last of LOSS_KINDS: LossConfig rejects any other kind on construction
    return sparseclr_loss(s, gt)


def two_view_loss(z_a, z_b, gt, cfg: LossConfig) -> ValueAndPullback:
    """The training objective on two embedding batches of one batch size:
    the batch-mean pairwise loss plus beta * qare / N^2. Returns the
    total and its pullback c -> (g_a, g_b), the gradients on the two
    batches of c times the total.

    S is the matrix of ``cfg.mode`` that ``simgeom._similarity`` builds.
    Cosine mode feeds the pairwise loss the negated inner products, so
    distance semantics hold on one code path; qare reads the two sets
    themselves, in one form for both modes. Neither normalizes the rows:
    both read the encoder's unit rows as given. The pairwise term is
    unscaled, as Adam ignores a constant gradient scale (but for eps), so
    beta is the one weight. At beta 0 nothing of qare is built.

    The pairwise loss and qare are called through their public names,
    and no adjoint sums more than two terms, so a tape that composes the
    parts as nodes gives this total and these gradients, bit for bit.
    ``harness.train`` calls it once a step.
    """
    za = simgeom._matrix(z_a, "two_view_loss")
    zb = simgeom._matrix(z_b, "two_view_loss")
    if za.shape[0] != zb.shape[0]:
        raise ShapeError("two_view_loss: batch sizes differ")
    s, pull_s = simgeom._similarity(za, zb, cfg.mode, "two_view_loss")
    cosine = cfg.mode == "cosine"
    pairwise, pull_pairwise = _pairwise_loss(s * -1.0 if cosine else s, gt, cfg)

    def pull_pair(c):
        g = pull_pairwise(c)
        return pull_s(g * -1.0 if cosine else g)

    if cfg.beta == 0.0:
        return pairwise, pull_pair
    q, pull_q = qare(za, zb)
    w = float(cfg.beta) / (za.shape[0] * za.shape[0])

    def pullback(c):
        (ga, gb), (qa, qb) = pull_pair(c), pull_q(c * w)
        return qa + ga, qb + gb

    return pairwise + q * w, pullback
