"""Dense float64 tensors with a reverse-mode differentiation tape.

Everything is 2-D: scalars are stored as (1, 1), vectors as (1, n) or
(n, 1). A Tape records primitive applications in execution order;
``Tape.backward`` replays them in reverse and accumulates a gradient for
every registered leaf. Tapes are rebuilt for each forward pass and are
not thread-safe; Tensors themselves are immutable values and can be
shared freely.

Ownership runs one way. A tracked Tensor holds its tape; the tape holds
one (parents, vjp) record per node, and a VJP holds arrays and scalars,
never a tracked Tensor. So no tape is part of a reference cycle, and a
step's whole graph (its activations and the arrays its VJPs keep) is
freed by reference counting when its last Tensor goes.

The primitives are ``scale`` and ``pairwise_dist``. Anything with a
closed-form gradient of its own (each pairwise loss, each encoder view,
which is the one place rows are normalized, each cosine similarity
matrix, the set term ``qare`` and the whole two-view objective) is one
``custom_op`` node over an array-level function that returns the value
and its pullback, and documents its subgradient conventions where it is
defined. Training builds no tape: ``harness.train`` chains those
pullbacks directly (the two encoder views and the objective). The tape
composes them for library callers and ``gradcheck``, and is the tests'
reference for that chain.
``pairwise_dist`` sums explicit squared differences for small sets and
uses the Gram form |a|^2 + |b|^2 - 2ab^T above 1024 elements, so the
last bits of a distance depend on the size class and, through the
matmul, on the BLAS build, as every matmul's bits already do.
"""

from __future__ import annotations

import math
import weakref
from typing import Callable, Iterable, Optional, Sequence

import numpy as np

from .errors import ContractError, EvaluationError, ShapeError

Array = np.ndarray


def _as_2d(arr: Array) -> Array:
    """arr as 2-D: a scalar as (1, 1), a vector as (1, n)."""
    if arr.ndim == 0:
        arr = arr.reshape(1, 1)
    elif arr.ndim == 1:
        arr = arr.reshape(1, -1)
    elif arr.ndim != 2:
        raise ShapeError(f"tensors are 1-D or 2-D, got ndim={arr.ndim}")
    return arr


class _Node:
    """A tracked Tensor's handle: its tape and the index of its record."""

    __slots__ = ("tape", "idx")

    def __init__(self, tape: "Tape", idx: int):
        self.tape = tape
        self.idx = idx


class Tensor:
    """Immutable 2-D float64 array, optionally recorded on a tape. The
    data is a C-ordered copy whatever the input's layout, since BLAS
    rounds differently with another layout."""

    __slots__ = ("data", "node")

    def __init__(self, data):
        arr = _as_2d(np.array(data, dtype=np.float64, order="C"))
        if not np.logical_and.reduce(np.isfinite(arr), axis=None):
            raise EvaluationError("tensor data contains NaN or Inf")
        arr.flags.writeable = False
        self.data = arr
        self.node = None

    @classmethod
    def _raw(cls, arr: Array, node: Optional[_Node]) -> "Tensor":
        """A Tensor over ``arr``, a 2-D C-contiguous float64 array, frozen."""
        arr.flags.writeable = False
        t = object.__new__(cls)
        t.data = arr
        t.node = node
        return t

    @property
    def shape(self) -> tuple:
        return self.data.shape

    @property
    def tracked(self) -> bool:
        return self.node is not None

    def item(self) -> float:
        if self.data.size != 1:
            raise ShapeError(f"item() needs a scalar tensor, shape={self.shape}")
        return self.data.item()

    def __repr__(self) -> str:
        tag = "tracked" if self.tracked else "const"
        return f"Tensor(shape={self.shape}, {tag})\n{self.data!r}"


def as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


class Gradients:
    """Result of Tape.backward: gradients keyed by the tape's leaves, as
    Tensors or as record indices.

    Holds the tape only weakly, so a step's graph is still freed when its
    last Tensor goes. An untracked tensor, a tensor of another tape and a
    tracked non-leaf raise ContractError."""

    def __init__(self, by_id: dict, tape: "Tape"):
        self._by_id = by_id
        self._tape = weakref.ref(tape)

    def __getitem__(self, key) -> Tensor:
        if isinstance(key, Tensor):
            if key.node is None:
                raise ContractError("tensor is not tracked on any tape")
            # a tracked key keeps its tape alive, so a dead ref is another tape
            if key.node.tape is not self._tape():
                raise ContractError("tensor was recorded on another tape")
            key = key.node.idx
        if key not in self._by_id:
            raise ContractError(f"record {key} is not a leaf of this tape")
        return self._by_id[key]


class Tape:
    """Records primitive applications for one forward pass."""

    def __init__(self):
        # one (parents, vjp) per node: record indices (None for a constant
        # operand) and the VJP, None for a leaf; nothing here holds a node
        self._records: list = []
        self._leaf_shapes: dict = {}
        self.flags: set = set()  # e.g. "degenerate-eigenvalues"

    def __len__(self) -> int:
        return len(self._records)

    def _record(self, parents, vjp) -> _Node:
        self._records.append((parents, vjp))
        return _Node(self, len(self._records) - 1)

    def leaf(self, data) -> Tensor:
        """Register data as a differentiable leaf."""
        t = Tensor(data)  # validates finiteness, copies
        t.node = self._record((), None)
        self._leaf_shapes[t.node.idx] = t.data.shape
        return t

    def backward(self, loss: Tensor) -> Gradients:
        """Reverse sweep from a scalar loss; returns gradients for every
        leaf (zeros for leaves the loss does not depend on)."""
        if loss.node is None or loss.node.tape is not self:
            raise ContractError("loss is not recorded on this tape")
        if loss.shape != (1, 1):
            raise ShapeError(f"backward needs a scalar loss, shape={loss.shape}")
        adjoint: list = [None] * len(self._records)
        adjoint[loss.node.idx] = np.ones((1, 1))
        for idx in range(loss.node.idx, -1, -1):
            parents, vjp = self._records[idx]
            g = adjoint[idx]
            if g is None or vjp is None:
                continue
            for pid, pg in zip(parents, vjp(g)):
                if pid is None or pg is None:
                    continue
                if adjoint[pid] is None:
                    adjoint[pid] = pg
                else:
                    adjoint[pid] = adjoint[pid] + pg
        out = {}
        for idx, shape in self._leaf_shapes.items():
            g = adjoint[idx]
            if g is None:
                g = np.zeros(shape)
            out[idx] = Tensor._raw(np.array(g, dtype=np.float64, order="C"), None)
        return Gradients(out, self)


def _common_tape(operands: Sequence[Tensor]) -> Optional[Tape]:
    tape = None
    for t in operands:
        if t.node is None:
            continue
        if tape is None:
            tape = t.node.tape
        elif tape is not t.node.tape:
            raise ContractError("operands were recorded on different tapes")
    return tape


def _emit(operands: Sequence[Tensor], value: Array, vjp) -> Tensor:
    """Wrap a primitive result, a 2-D C-contiguous float64 array; records
    a node when any operand is tracked."""
    tape = _common_tape(operands)
    if tape is None:
        return Tensor._raw(value, None)
    parents = tuple(t.node.idx if t.node is not None else None for t in operands)
    return Tensor._raw(value, tape._record(parents, vjp))


def custom_op(operands: Iterable, value: Array, vjp: Callable) -> Tensor:
    """Register a domain primitive: ``vjp(grad_out)`` must return one
    gradient array (or None) per operand, each matching its shape. The
    value is stored 2-D as ``Tensor`` stores data: a scalar as (1, 1), a
    vector as (1, n); more dimensions raise ShapeError.

    ``vjp`` may capture arrays and scalars (an operand's ``.data``, its
    shape), never a tracked Tensor: the tape keeps ``vjp`` in its
    records, and a Tensor there would hold the tape in a reference cycle
    that only the cycle collector frees, with every array of the graph."""
    ops = tuple(as_tensor(t) for t in operands)
    return _emit(ops, _as_2d(np.ascontiguousarray(value, dtype=np.float64)), vjp)


def active_tape(*tensors) -> Optional[Tape]:
    """Tape shared by the given tensors, or None if all are constants."""
    return _common_tape([t for t in tensors if isinstance(t, Tensor)])


# ---------------------------------------------------------------------------
# primitives

def scale(a, s: float) -> Tensor:
    a = as_tensor(a)
    s = float(s)

    def vjp(g):
        return (g * s,)

    return _emit((a,), a.data * s, vjp)


_EXPLICIT_MAX_ELEMENTS = 1024
_EPS = float(np.finfo(np.float64).eps)


def pairwise_dist(a, b) -> Tensor:
    """Euclidean distance matrix D[i, j] = ||a_i - b_j|| of an (N, E) and
    an (M, E) set, in one of two forms chosen by size.

    Up to N*M*E = 1024 it sums the squares of the explicit (N, M, E)
    difference tensor. Above that it uses the Gram form
    sqrt(|a_i|^2 + |b_j|^2 - 2 a_i.b_j), which builds only (N, M) arrays
    and one matmul. The bound is near where the two cost the same: the
    Gram form's ten or so numpy calls outweigh the explicit form's four
    on tiny sets. On a 2-core Xeon with BLAS on one thread (best of
    7 x 2000 calls, explicit against Gram), 4x4x3 took 3.7 against
    9.8 us, 16x16x4 11.8 against 12.1 us, 16x16x8 12.7 against 11.9 us
    and 32x32x16 63 against 18.5 us. So the thousands of 4x4 calls of
    ``verify`` stay explicit, while a 32x32x16 training batch and a
    128x128x16 evaluation sit far above the bound.

    In the Gram form a squared distance at or below
    4(E + 2) eps (|a_i|^2 + |b_j|^2) becomes exactly 0. The rounding
    argument: with u = eps/2 and gamma_E = E u / (1 - E u), each squared
    norm carries an error of at most gamma_E times itself, the inner
    product at most gamma_E sum_k |a_ik b_jk| <= gamma_E (|a_i|^2 +
    |b_j|^2) / 2 in any summation order, and the sum and the difference
    add u each on values of at most 2(|a_i|^2 + |b_j|^2). So the computed
    value lies within (2 gamma_E + 3u)(|a_i|^2 + |b_j|^2), about
    (E + 1.5) eps (|a_i|^2 + |b_j|^2), of the exact one, a quarter of the
    bound; an entry at or below the bound cannot be told apart from 0.
    So equal rows, and the diagonal of a self-distance matrix, give
    exactly 0, as the explicit form does. Near-coincident rows lose what
    the explicit form keeps: a pair whose exact squared distance is at
    most 5(E + 2) eps (|a_i|^2 + |b_j|^2) may read 0 (a distance of
    2.0e-7 for unit rows at E = 16), and a small distance above that
    carries the squared error as an absolute one, where the explicit
    form's error is relative. A self-distance matrix is symmetric bit
    for bit when one tensor is on both sides: numpy computes an array
    times its own transpose as one symmetric product.

    Zero-distance pairs get zero gradient: the norm has no direction
    there.
    """
    a, b = as_tensor(a), as_tensor(b)
    return _emit((a, b), *_pairwise_dist(a.data, b.data))


def _pairwise_dist(da: Array, db: Array):
    """``pairwise_dist`` of two 2-D float64 arrays, as the distance array
    and its pullback g -> (g_a, g_b); the one implementation that the
    node wraps and that training calls directly."""
    if da.shape[1] != db.shape[1]:
        raise ShapeError(f"pairwise_dist: feature dims differ, {da.shape} vs {db.shape}")
    if da.shape[0] * db.shape[0] * da.shape[1] <= _EXPLICIT_MAX_ELEMENTS:
        diff = da[:, None, :] - db[None, :, :]  # (N, M, E)
        dist = np.sqrt(np.add.reduce(diff * diff, axis=2))
    else:
        norms = (np.add.reduce(da * da, axis=1)[:, None]
                 + np.add.reduce(db * db, axis=1)[None, :])
        sq = norms - 2.0 * (da @ db.T)
        bound = (4.0 * (da.shape[1] + 2) * _EPS) * norms
        dist = np.sqrt(np.where(sq > bound, sq, 0.0))

    def pullback(g):
        w = np.divide(g, dist, out=np.zeros(dist.shape), where=dist > 0.0)
        ga = np.add.reduce(w, axis=1, keepdims=True) * da - w @ db
        gb = np.add.reduce(w, axis=0)[:, None] * db - w.T @ da
        return ga, gb

    return dist, pullback


# ---------------------------------------------------------------------------
# finite-difference gradient checking

def _scalar_eval(f, x: Array) -> float:
    """f at a frozen copy of ``x``, a finite 2-D C-ordered float64 array,
    as a float; EvaluationError if the value is not finite."""
    y = f(Tensor._raw(x.copy(), None))
    val = y.item() if isinstance(y, Tensor) else float(y)
    if not math.isfinite(val):
        raise EvaluationError("gradcheck: function value is not finite")
    return val


_GRADCHECK_STEP = 1e-6


def gradcheck(f, x) -> float:
    """Max over coordinates of |analytic - central difference| scaled by
    max(1, |analytic|), with a fixed difference step of 1e-6. ``f`` maps
    one Tensor to a scalar."""
    base = as_tensor(x).data
    tape = Tape()
    xt = tape.leaf(base)
    y = f(xt)
    if not isinstance(y, Tensor) or y.shape != (1, 1):
        raise ContractError("gradcheck: f must return a scalar Tensor")
    if not math.isfinite(y.item()):
        raise EvaluationError("gradcheck: function value is not finite")
    analytic = tape.backward(y)[xt].data.tolist()
    worst = 0.0
    # base is finite (the leaf checked it), and so is a finite double
    # moved by the step, so each point is wrapped without another check.
    # The loop reads Python floats, whose arithmetic is float64's.
    pert = np.array(base)
    for i, (row, grad_row) in enumerate(zip(base.tolist(), analytic)):
        for j, (orig, grad) in enumerate(zip(row, grad_row)):
            pert[i, j] = orig + _GRADCHECK_STEP
            fp = _scalar_eval(f, pert)
            pert[i, j] = orig - _GRADCHECK_STEP
            fm = _scalar_eval(f, pert)
            pert[i, j] = orig
            num = (fp - fm) / (2.0 * _GRADCHECK_STEP)
            err = abs(grad - num) / max(1.0, abs(grad))
            worst = max(worst, err)
    return worst
