"""Desk-scale experiment harness: synthetic two-view data, a small MLP
encoder, Adam, the training loop, and the evaluation protocol
(cross-view matching accuracy and a linear probe).

Everything is deterministic given the config seeds; reruns produce
bit-identical parameters and metrics.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from . import assignment, simgeom
from .errors import (
    ConfigError,
    ContractError,
    DegenerateInputError,
    EvaluationError,
    NumericError,
    ShapeError,
)
from .losses import GroundTruthAlignment, LossConfig, two_view_loss

Array = np.ndarray

# spread of class centers / within-class scatter for the synthetic latents
_CENTER_SIGMA = 4.0
_WITHIN_SIGMA = 1.0


@dataclass(frozen=True)
class SyntheticSpec:
    """Synthetic two-view dataset: latent class blobs pushed through one
    random orthogonal map + bias per view, plus isotropic view noise.
    Class centers must stay at least 4 * noise_sigma apart, and
    noise_sigma must be finite."""

    num_classes: int = 8
    samples_per_class: int = 16
    ambient_dim: int = 32
    noise_sigma: float = 0.25
    seed: int = 7

    def __post_init__(self):
        if self.num_classes < 2:
            raise ConfigError("num_classes must be >= 2")
        if self.samples_per_class < 1:
            raise ConfigError("samples_per_class must be >= 1")
        if self.ambient_dim < 2:
            raise ConfigError("ambient_dim must be >= 2")
        if not self.noise_sigma >= 0.0:
            raise ConfigError("noise_sigma must be >= 0")
        if not math.isfinite(self.noise_sigma):
            raise ConfigError("noise_sigma must be finite")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")

    @property
    def num_items(self) -> int:
        return self.num_classes * self.samples_per_class


@dataclass(frozen=True)
class TwoViewDataset:
    """Two views of the same items: row i of ``view_a`` and row i of
    ``view_b`` are one item, of class ``labels[i]``, so the alignment
    between the views is their row order."""

    view_a: Array
    view_b: Array
    labels: Array
    # the generating affine maps, kept for diagnostics and tests
    q_a: Array
    q_b: Array
    bias_a: Array
    bias_b: Array


def _random_orthogonal(rng: np.random.Generator, n: int) -> Array:
    q, r = np.linalg.qr(rng.normal(size=(n, n)))
    return q * np.sign(np.diag(r))  # canonical sign, deterministic


def gen_two_view_dataset(spec: SyntheticSpec) -> TwoViewDataset:
    """Sample latents per item around class centers, then emit the two
    views v = x Q^T + b + noise. Row i of each view is item i.

    The separability check reads the center gaps from ``simgeom``'s
    euclidean distances, in Gram form above 1024 elements (8 classes in
    32 dimensions is 2048), so a config whose smallest gap lies within
    rounding of 4 * noise_sigma may fall on the other side of it than
    under the explicit form. The centers go in as two copies, so the
    product is the general one, not numpy's symmetric product of an
    array with itself, whose last bits differ."""
    rng = np.random.default_rng(spec.seed)
    centers = rng.normal(scale=_CENTER_SIGMA, size=(spec.num_classes, spec.ambient_dim))
    gaps, _ = simgeom._similarity(centers, centers.copy(), "euclidean",
                                  "gen_two_view_dataset")
    min_gap = float(gaps[~np.eye(spec.num_classes, dtype=bool)].min())
    if min_gap < 4.0 * spec.noise_sigma:
        raise ConfigError(
            f"classes are not separable: min center gap {min_gap:.3f} < "
            f"4 * noise_sigma = {4.0 * spec.noise_sigma:.3f}"
        )
    labels = np.repeat(np.arange(spec.num_classes), spec.samples_per_class)
    n = spec.num_items
    x = centers[labels] + rng.normal(scale=_WITHIN_SIGMA, size=(n, spec.ambient_dim))
    q_a = _random_orthogonal(rng, spec.ambient_dim)
    q_b = _random_orthogonal(rng, spec.ambient_dim)
    bias_a = rng.normal(size=spec.ambient_dim)
    bias_b = rng.normal(size=spec.ambient_dim)
    view_a = x @ q_a.T + bias_a + rng.normal(scale=spec.noise_sigma, size=x.shape)
    view_b = x @ q_b.T + bias_b + rng.normal(scale=spec.noise_sigma, size=x.shape)
    return TwoViewDataset(
        view_a=view_a,
        view_b=view_b,
        labels=labels,
        q_a=q_a,
        q_b=q_b,
        bias_a=bias_a,
        bias_b=bias_b,
    )


# ---------------------------------------------------------------------------
# encoder

class MLPEncoder:
    """Two-layer MLP with relu and a row-l2-normalized output.

    The encoder is the one place in the program that normalizes rows.
    Cosine S (``losses.two_view_loss``) and ``losses.qare`` take the
    rows they are given, so their cosine similarities and spectra of
    1 + S_A rely on the unit rows that the encoder returns.

    ``forward`` maps an input batch, or a stack of batches, to the
    output and its pullback, which training chains with the objective's;
    ``embed`` is its output alone. Training embeds both views of a batch
    with one call on their (2, B, D) stack, which gives each view the
    bits of a call of its own.

    The encoder owns its parameter layout. ``flat`` is one float64
    buffer holding w1, b1, w2 and b2 back to back in that order, and
    ``params`` maps each name to a reshaped view of it, so an update of
    ``flat`` in place shows through those arrays.

    ``b2`` starts at zero, so an input whose hidden relu units are all
    inactive embeds to the zero row, which has no direction: the forward
    pass raises DegenerateInputError and training exits 3. Narrow widths
    make that likely at the first step: 2 classes, ``ambient_dim`` 4,
    ``hidden_dim`` 4, ``embed_dim`` 2, data seed 0 and run seed 0 (the
    rest at defaults) abort at epoch 0 step 0. The init is kept as it is,
    so every other run keeps its exact outputs.
    """

    def __init__(self, input_dim: int, hidden_dim: int, embed_dim: int,
                 rng: Optional[np.random.Generator] = None):
        if min(input_dim, hidden_dim, embed_dim) < 1:
            raise ConfigError("encoder widths must be positive")
        rng = rng if rng is not None else np.random.default_rng(0)
        self.input_dim = input_dim
        self.hidden_dim = hidden_dim
        self.embed_dim = embed_dim
        shapes = {"w1": (input_dim, hidden_dim), "b1": (1, hidden_dim),
                  "w2": (hidden_dim, embed_dim), "b2": (1, embed_dim)}
        # the layout as plain ints, built once: (name, slice, shape) per
        # parameter, and the offsets that ``name_at`` bisects
        self._bounds = [0]
        for r, c in shapes.values():
            self._bounds.append(self._bounds[-1] + r * c)
        self._layout = tuple((name, slice(lo, hi), shape) for (name, shape), lo, hi
                             in zip(shapes.items(), self._bounds[:-1], self._bounds[1:]))
        self.flat = np.zeros(self._bounds[-1])
        self.params: Dict[str, Array] = self.views(self.flat)
        w1, w2 = self.params["w1"], self.params["w2"]
        w1[...] = rng.normal(size=w1.shape) * np.sqrt(2.0 / input_dim)
        w2[...] = rng.normal(size=w2.shape) * np.sqrt(1.0 / hidden_dim)

    def views(self, buf: Array) -> Dict[str, Array]:
        """Each parameter's slice of a flat buffer in this layout, in its
        own shape."""
        return {name: buf[sl].reshape(shape) for name, sl, shape in self._layout}

    def name_at(self, index: int) -> str:
        """The parameter that holds flat position ``index``."""
        return self._layout[bisect.bisect_right(self._bounds, index) - 1][0]

    def forward(self, x, flat: Optional[Array] = None):
        """normalize(relu(x w1 + b1) w2 + b2) of ``x`` under ``flat``, a
        parameter vector in this layout (``self.flat`` when None), and its
        pullback: g, the gradient on the output, to the flat gradient, in
        layout order. ``x`` is a row (1-D), a batch (B, D) or a stack
        (K, B, D) of batches, whose output is (K, B, E) and whose pullback
        takes g of that shape and sums the stack's flat gradients in stack
        order. Each slice of a stack gets the bits of a call of its own:
        numpy's ``matmul`` runs one GEMM per slice, the other operations
        act per element or per row, and a sum of two terms is the same in
        either order, so one call on a stack of two views gives the bits
        of a call per view, and of pull_b(g_b) + pull_a(g_a). The pullback
        writes each slice's four gradient blocks straight into one flat
        row, with the products and sums of the concatenating form, so a
        batch's bits are that form's, and then sums the rows of a stack.

        ``x`` and ``flat`` are read with no copy when they are C-ordered
        float64 already (EvaluationError on NaN or Inf; ShapeError when
        ``x`` is above 3-D or ``flat`` above 2-D), and the pullback reads
        them again: call it before they change. ShapeError when the width
        of ``x`` is not the input width or ``flat`` is not of the layout's
        size; a zero output row raises DegenerateInputError."""
        x = np.ascontiguousarray(x, dtype=np.float64)
        if x.ndim > 3:
            raise ShapeError("encoder: expected a 1-D, 2-D or 3-D array, "
                             f"got ndim={x.ndim}")
        if x.ndim < 3:
            x = simgeom._matrix(x, "encoder")
        elif not np.logical_and.reduce(np.isfinite(x), axis=None):
            raise EvaluationError("encoder: input contains NaN or Inf")
        flat = simgeom._matrix(self.flat if flat is None else flat,
                               "encoder").reshape(-1)
        if flat.size != self._bounds[-1]:
            raise ShapeError(f"encoder: {flat.size} parameters != {self._bounds[-1]}")
        (_, s_w1, sh_w1), (_, s_b1, _), (_, s_w2, sh_w2), (_, s_b2, _) = self._layout
        w1, b1 = flat[s_w1].reshape(sh_w1), flat[s_b1]
        w2, b2 = flat[s_w2].reshape(sh_w2), flat[s_b2]
        if x.shape[-1] != sh_w1[0]:
            raise ShapeError(f"encoder: input width {x.shape[-1]} != {sh_w1[0]}")
        h = x @ w1
        h += b1
        np.maximum(h, 0.0, out=h)  # h > 0 exactly where the pre-activation is
        out = h @ w2
        out += b2
        norms = np.sqrt(np.add.reduce(out * out, axis=-1, keepdims=True))
        if not norms.all():
            raise DegenerateInputError("encoder: zero output row has no direction")
        z = out
        z /= norms
        stack = x.shape[:-2]  # the stack axes, none for a batch

        def pullback(g):
            g_out = g - np.add.reduce(g * z, axis=-1, keepdims=True) * z
            g_out /= norms
            g_pre = g_out @ w2.T
            g_pre *= h > 0.0  # zero subgradient at the kink
            # one flat row per slice, then their sum over the stack
            rows = np.empty(stack + flat.shape)
            np.matmul(x.swapaxes(-1, -2), g_pre,
                      out=rows[..., s_w1].reshape(stack + sh_w1))
            np.add.reduce(g_pre, axis=-2, out=rows[..., s_b1])
            np.matmul(h.swapaxes(-1, -2), g_out,
                      out=rows[..., s_w2].reshape(stack + sh_w2))
            np.add.reduce(g_out, axis=-2, out=rows[..., s_b2])
            if not stack:  # a batch's one row is its gradient
                return rows
            return np.add.reduce(rows, axis=tuple(range(len(stack))))

        return z, pullback

    def embed(self, x) -> Array:
        return self.forward(x)[0]


# ---------------------------------------------------------------------------
# optimizer

# fixed Adam hyperparameters, the defaults of Kingma & Ba (2015)
_ADAM_BETA1 = 0.9
_ADAM_BETA2 = 0.999
_ADAM_EPS = 1e-8


class AdamState:
    """Adam over one flat float64 parameter buffer: ``flat`` is the
    caller's buffer, updated in place, and ``m`` and ``v`` are the
    moments at the same offsets."""

    def __init__(self, flat: Array):
        self.flat = flat
        self.m = np.zeros_like(flat)
        self.v = np.zeros_like(flat)
        self.t = 0


def adam_step(state: AdamState, grad: Array, lr: float) -> None:
    """One bias-corrected Adam update of ``state`` in place, from the flat
    gradient ``grad``, at step size ``lr`` with the fixed betas 0.9 and
    0.999 and eps 1e-8; elementwise, so per parameter it gives the same
    bits as updating each array on its own."""
    if grad.shape != state.flat.shape:
        raise ShapeError(f"adam_step: flat grad shape {grad.shape} != {state.flat.shape}")
    state.t += 1
    state.m *= _ADAM_BETA1
    state.m += (1.0 - _ADAM_BETA1) * grad
    state.v *= _ADAM_BETA2
    state.v += (1.0 - _ADAM_BETA2) * (grad * grad)
    m_hat = state.m / (1.0 - _ADAM_BETA1 ** state.t)
    v_hat = state.v / (1.0 - _ADAM_BETA2 ** state.t)
    state.flat -= lr * m_hat / (np.sqrt(v_hat) + _ADAM_EPS)


# ---------------------------------------------------------------------------
# training

@dataclass(frozen=True)
class TrainConfig:
    """One training run. The CLI's ``train`` section sets every field but
    ``loss`` and ``seed``, which each run sets; of Adam's hyperparameters
    only ``learning_rate`` is settable (see ``adam_step``), and it must
    be finite."""

    epochs: int = 60
    batch_size: int = 32
    learning_rate: float = 5e-3
    hidden_dim: int = 64
    embed_dim: int = 16
    loss: LossConfig = field(default_factory=LossConfig)
    seed: int = 0

    def __post_init__(self):
        if self.epochs < 1:
            raise ConfigError("epochs must be >= 1")
        if self.batch_size < 2:
            raise ConfigError("batch_size must be >= 2")
        if not self.learning_rate >= 0.0:
            raise ConfigError("learning_rate must be >= 0")
        if not math.isfinite(self.learning_rate):
            raise ConfigError("learning_rate must be finite")
        if self.hidden_dim < 1 or self.embed_dim < 1:
            raise ConfigError("encoder widths must be positive")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")


@dataclass
class RunReport:
    epoch_losses: List[float]
    matching_accuracy: float
    probe_accuracy: float


def make_encoder(spec: SyntheticSpec, config: TrainConfig) -> MLPEncoder:
    """Encoder with parameters drawn from the run seed's init stream."""
    init_rng = np.random.default_rng(np.random.SeedSequence([config.seed, 0]))
    return MLPEncoder(spec.ambient_dim, config.hidden_dim, config.embed_dim, init_rng)


def train(dataset: TwoViewDataset, encoder: MLPEncoder,
          config: TrainConfig) -> Tuple[MLPEncoder, RunReport]:
    """Minibatch training of the encoder under the configured loss.

    Batches are index sets applied to both views, so the in-batch ground
    truth stays the identity; the partial last batch is dropped, so every
    batch has ``batch_size`` rows. The two views are stacked once, as
    one (2, N, D) array, and each step is a chain of two closed-form
    pullbacks: one ``encoder.forward`` call on the batch's (2, B, D)
    stack, whose two slices go to ``losses.two_view_loss``, and whose
    pullback takes that loss's two gradients as one stack and returns
    pull_b(g_b) + pull_a(g_a) bit for bit (see ``MLPEncoder.forward``);
    Adam updates the encoder's ``flat`` buffer in place. Aborts with
    NumericError on a non-finite loss or gradient (naming the
    parameter), on a non-finite embedding, or on a degenerate (zero)
    embedding. ``evaluate_matching`` and ``linear_probe`` run once, after
    training, on one ``forward`` call on the whole stack.

    A batch pairs row i of both views, so the two views must have the
    same shape, the labels one dimension and as many rows; otherwise
    ShapeError names their shapes before the first step. Each view and
    the encoder's parameters are checked for finite values once, before
    the first step (a NaN or Inf anywhere in a view raises NumericError,
    in a dropped row too, and one in a parameter names it); each batch's
    stack, a fresh copy from fancy indexing, then goes to ``forward``
    uncopied. After the first step only Adam writes the parameters, from
    a gradient checked finite.
    """
    n = dataset.view_a.shape[0]
    if config.batch_size > n:
        raise ConfigError(f"batch_size {config.batch_size} exceeds dataset size {n}")
    views = []
    for name in ("view_a", "view_b"):
        view = np.ascontiguousarray(getattr(dataset, name), dtype=np.float64)
        if view.ndim != 2:
            raise ShapeError(f"train: {name} must be 2-D, got ndim={view.ndim}")
        if not np.isfinite(view).all():
            raise NumericError(
                f"non-finite value in {name} before training "
                f"(loss={config.loss.name!r}, seed={config.seed}): NaN or Inf"
            )
        views.append(view)
    labels = np.asarray(dataset.labels)
    if views[1].shape != views[0].shape or labels.shape != (n,):
        raise ShapeError("train: the views and labels disagree: "
                         f"view_a {views[0].shape}, view_b {views[1].shape}, "
                         f"labels {labels.shape}")
    both = np.stack(views)
    flat = encoder.flat
    finite = np.isfinite(flat)
    if not finite.all():
        raise NumericError(f"non-finite value in parameter "
                           f"{encoder.name_at(int(np.argmin(finite)))!r} before "
                           f"training (loss={config.loss.name!r}, seed={config.seed})")
    shuffle_rng = np.random.default_rng(np.random.SeedSequence([config.seed, 1]))
    state = AdamState(flat)
    gt = GroundTruthAlignment.identity(config.batch_size)
    epoch_losses: List[float] = []
    steps_per_epoch = n // config.batch_size
    for epoch in range(config.epochs):
        order = shuffle_rng.permutation(n)
        batch_losses = []
        for step in range(steps_per_epoch):
            idx = order[step * config.batch_size:(step + 1) * config.batch_size]
            try:
                z, pull_z = encoder.forward(both[:, idx])
                value, pull = two_view_loss(z[0], z[1], gt, config.loss)
            except (EvaluationError, DegenerateInputError) as e:
                kind = ("degenerate embedding" if isinstance(e, DegenerateInputError)
                        else "non-finite value")
                raise NumericError(
                    f"{kind} at epoch {epoch} step {step} "
                    f"(loss={config.loss.name!r}, seed={config.seed}): {e}"
                )
            if not math.isfinite(value):
                raise NumericError(
                    f"non-finite loss {value} at epoch {epoch} step {step} "
                    f"(loss={config.loss.name!r}, seed={config.seed})"
                )
            grad = pull_z(np.stack(pull(1.0)))
            finite = np.isfinite(grad)
            if not finite.all():
                raise NumericError(
                    f"non-finite gradient for parameter "
                    f"{encoder.name_at(int(np.argmin(finite)))!r} at epoch "
                    f"{epoch} step {step} (loss={config.loss.name!r}, "
                    f"seed={config.seed})"
                )
            adam_step(state, grad, lr=config.learning_rate)
            batch_losses.append(value)
        epoch_losses.append(float(np.mean(batch_losses)))
    z = encoder.forward(both)[0]
    report = RunReport(
        epoch_losses=epoch_losses,
        matching_accuracy=evaluate_matching(z[0], z[1]),
        probe_accuracy=linear_probe(
            z.reshape(-1, z.shape[-1]),
            np.concatenate([dataset.labels, dataset.labels]),
            seed=config.seed,
        ),
    )
    return encoder, report


def evaluate_matching(za: Array, zb: Array) -> float:
    """LAP matching accuracy between two embedded views under Euclidean
    distances: the fraction of rows i whose optimal partner is row i of
    the other view, as the views' rows are one item each. Each view is
    read by ``simgeom._matrix``, which checks it for NaN or Inf
    (EvaluationError)."""
    s, _ = simgeom._similarity(simgeom._matrix(za, "evaluate_matching"),
                               simgeom._matrix(zb, "evaluate_matching"),
                               "euclidean", "evaluate_matching")
    return assignment.matching_accuracy(s, np.arange(s.shape[0]))


_PROBE_EPOCHS = 100
_PROBE_LR = 1e-3
_PROBE_BATCH = 128


def linear_probe(embeddings, labels, seed: int = 0) -> float:
    """Multinomial logistic regression on frozen embeddings with a
    stratified 80/20 split drawn from ``seed``, trained by Adam for a
    fixed 100 epochs of minibatches of 128 at step size 1e-3; returns
    held-out accuracy. NaN or Inf embeddings raise EvaluationError, and
    a negative seed ContractError.

    A step adds the bias and takes ``exp`` in place and writes its
    gradient into one buffer reused across steps; each in-place form
    does the operations of the expression it replaces, so the bits are
    the same."""
    if seed < 0:
        raise ContractError(f"linear_probe: seed must be >= 0, got {seed}")
    x = np.asarray(embeddings, dtype=np.float64)
    y = np.asarray(labels)
    if x.ndim != 2 or x.shape[0] != y.shape[0]:
        raise ShapeError("linear_probe: embeddings and labels disagree")
    if not np.isfinite(x).all():
        raise EvaluationError("linear_probe: embeddings contain NaN or Inf")
    classes, codes = np.unique(y, return_inverse=True)
    if classes.size < 2:
        raise ContractError("linear_probe needs at least two classes")
    rng = np.random.default_rng(seed)
    train_idx, test_idx = [], []
    for c in classes:
        members = np.flatnonzero(y == c)
        members = members[rng.permutation(members.size)]
        cut = max(1, int(round(members.size * 0.8)))
        cut = min(cut, members.size - 1) if members.size > 1 else cut
        train_idx.append(members[:cut])
        test_idx.append(members[cut:])
    train_idx = np.concatenate(train_idx)
    test_idx = np.concatenate(test_idx)
    if test_idx.size == 0:
        raise ContractError("linear_probe: split left no held-out samples")

    yt = codes[train_idx]
    xt = x[train_idx]
    k = x.shape[1] * classes.size
    state = AdamState(np.zeros(k + classes.size))
    w, b = state.flat[:k].reshape(x.shape[1], classes.size), state.flat[k:]
    grad = np.empty_like(state.flat)
    grad_w, grad_b = grad[:k].reshape(w.shape), grad[k:]
    rows = np.arange(min(xt.shape[0], _PROBE_BATCH))
    for _ in range(_PROBE_EPOCHS):
        order = rng.permutation(xt.shape[0])
        for start in range(0, xt.shape[0], _PROBE_BATCH):
            sel = order[start:start + _PROBE_BATCH]
            xb, yb, r = xt[sel], yt[sel], rows[:sel.size]
            logits = xb @ w
            logits += b
            # the max by argmax and a gather: the same bits, in a third of
            # the time of a reduction along the short class axis
            logits -= logits[r, logits.argmax(axis=1)][:, None]
            p = np.exp(logits, out=logits)
            p /= np.add.reduce(p, axis=1, keepdims=True)
            p[r, yb] -= 1.0
            p /= sel.size
            np.matmul(xb.T, p, out=grad_w)
            np.add.reduce(p, axis=0, out=grad_b)
            adam_step(state, grad, lr=_PROBE_LR)
    logits = x[test_idx] @ w + b
    pred = np.argmax(logits, axis=1)
    return float(np.mean(pred == codes[test_idx]))


# ---------------------------------------------------------------------------
# the two-triple contrast instance

def fig1b_points() -> Tuple[Array, Array, Array]:
    """The point sets of ``fig1b_instance``: view A (a unit square), and
    view B near (the square shifted, so of view A's shape) and far (a
    line, of another internal geometry). All three are shifted off the
    origin by (0.5, 0.5); the offset is part of the instance, since these
    points pin the LAP, QAP and qare gaps that ``verify``'s fig1b suite
    prints."""
    off = np.array([0.5, 0.5])
    square = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]]) + off
    line = np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0], [3.0, 0.0]]) + off
    return square, square + np.array([0.25, 0.1]), line


def fig1b_instance() -> Tuple[tuple, tuple]:
    """Two (S, S_A, S_B) tuples of arrays of ``fig1b_points`` sharing the
    inter-set matrix of view A and near view B (hence identical LAP
    optima), the first with near view B's intra-set matrix and the second
    with far view B's: the exact QAP optima and the qare values both
    separate them. This is the counterexample showing pairwise terms
    alone cannot see intra-set structure."""
    view_a, near, far = fig1b_points()
    s, s_a, s_b = simgeom.pairwise_distances(view_a, near)
    return (s, s_a, s_b), (s, s_a, simgeom.pairwise_distances(view_a, far)[2])
