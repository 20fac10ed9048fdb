"""Dense float64 tensors with a reverse-mode differentiation tape, and
``gradcheck``.

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

No function of the package builds a tape. Every differentiable function
takes arrays and returns its value and its pullback, in the module that
owns its math: the pairwise losses, ``qare`` and ``two_view_loss`` in
``losses``, ``eigvals`` in ``simgeom`` and ``MLPEncoder.forward`` in
``harness``; ``harness.train`` chains those pullbacks directly. A
``custom_op`` node over such a function puts it on a tape, which
composes them for library callers.

``gradcheck`` checks the pullback of such a function, f: array ->
(value, pullback), against central differences along two random unit
directions, drawn from a generator seeded by the bytes of the point, so
its result depends on the function and the point alone.
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


def _finite_copy(data) -> Array:
    """A C-ordered float64 copy of data, of its own shape; ShapeError
    above 2-D, EvaluationError on NaN or Inf."""
    arr = np.array(data, dtype=np.float64, order="C")
    if arr.ndim > 2:
        raise ShapeError(f"tensors are 1-D or 2-D, got ndim={arr.ndim}")
    if not np.logical_and.reduce(np.isfinite(arr), axis=None):
        raise EvaluationError("tensor data contains NaN or Inf")
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
        arr = _as_2d(_finite_copy(data))
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

    flags = frozenset()  # read by perfbench's backward probe; goes with the tape

    def __init__(self):
        # one (parents, vjp) per node: record indices (None for a constant
        # operand) and the VJP, None for a leaf; nothing here holds a node
        self._records: list = []
        self._leaf_shapes: dict = {}

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


def custom_op(operands: Iterable, value: Array, vjp: Callable) -> Tensor:
    """Register a domain primitive: ``vjp(grad_out)`` must return one
    gradient array (or None) per operand, each matching its shape. The
    value is stored 2-D as ``Tensor`` stores data: a scalar as (1, 1), a
    vector as (1, n); more dimensions raise ShapeError. A node is
    recorded only when some operand is tracked.

    ``vjp`` may capture arrays and scalars (an operand's ``.data``, its
    shape), never a tracked Tensor: the tape keeps ``vjp`` in its
    records, and a Tensor there would hold the tape in a reference cycle
    that only the cycle collector frees, with every array of the graph."""
    ops = tuple(as_tensor(t) for t in operands)
    value = _as_2d(np.ascontiguousarray(value, dtype=np.float64))
    tape = _common_tape(ops)
    if tape is None:
        return Tensor._raw(value, None)
    parents = tuple(t.node.idx if t.node is not None else None for t in ops)
    return Tensor._raw(value, tape._record(parents, vjp))


# ---------------------------------------------------------------------------
# finite-difference gradient checking

def _evaluate(f, x: Array):
    """f at ``x``, a fresh finite C-ordered float64 array that no one else
    holds, frozen here: its value as a float and its pullback.
    ContractError unless f returns a scalar and a pullback;
    EvaluationError if the value is not finite."""
    x.flags.writeable = False
    out = f(x)
    if not (isinstance(out, tuple) and len(out) == 2 and np.ndim(out[0]) == 0):
        raise ContractError("gradcheck: f must return a scalar value and its pullback")
    value = float(out[0])
    if not math.isfinite(value):
        raise EvaluationError("gradcheck: function value is not finite")
    return value, out[1]


_GRADCHECK_STEP = 1e-6
_GRADCHECK_DIRECTIONS = 2


def _directions(base: Array) -> Array:
    """``_GRADCHECK_DIRECTIONS`` unit-norm Gaussian directions of the shape
    of ``base``, a C-ordered float64 array, stacked on a leading axis.
    The generator is seeded by the bytes of ``base`` read as uint32
    words, so a point always gets the same directions and two points
    almost surely get different ones."""
    seed = np.random.SeedSequence(base.reshape(-1).view(np.uint32))
    v = np.random.default_rng(seed).standard_normal((_GRADCHECK_DIRECTIONS, base.size))
    v /= np.linalg.norm(v, axis=1, keepdims=True)
    return v.reshape((_GRADCHECK_DIRECTIONS,) + base.shape)


def gradcheck(f, x) -> float:
    """Worst error of the analytic gradient g of ``f`` at ``x`` along
    ``_GRADCHECK_DIRECTIONS`` (2) random unit directions v: |<g, v> -
    (f(x + hv) - f(x - hv)) / 2h| / max(1, |<g, v>|), with a fixed step
    h = 1e-6. The directions are drawn from a generator seeded by the
    bytes of x (``_directions``), so the result depends on f and x alone.
    A wrong pullback shows along almost every v, since any error e in g
    enters as <e, v>.

    ``f`` maps one array to its value, a scalar, and its pullback; g is
    the pullback of 1.0, an array of the point's shape (ContractError
    otherwise). ``x`` is read as a float64 copy of its own shape
    (ShapeError above 2-D, EvaluationError on NaN or Inf), and each point
    f sees is a fresh frozen C-ordered array. A value or an analytic
    gradient that is not finite raises EvaluationError."""
    base = _finite_copy(x)
    _, pullback = _evaluate(f, base)
    analytic = np.ascontiguousarray(pullback(1.0), dtype=np.float64)
    if analytic.shape != base.shape:
        raise ContractError(f"gradcheck: gradient shape {analytic.shape} "
                            f"!= point shape {base.shape}")
    if not np.isfinite(analytic).all():
        raise EvaluationError("gradcheck: gradient is not finite")
    worst = 0.0
    # base is finite, and so is a finite double moved by the step, so
    # each point goes to f without another check
    for v in _directions(base):
        slope = float(np.vdot(analytic, v))
        step = _GRADCHECK_STEP * v
        num = (_evaluate(f, base + step)[0]
               - _evaluate(f, base - step)[0]) / (2.0 * _GRADCHECK_STEP)
        worst = max(worst, abs(slope - num) / max(1.0, abs(slope)))
    return worst
