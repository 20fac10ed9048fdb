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

This module is the tape alone and builds no matrix. Every node is a
``custom_op`` over an array-level function that returns the value and
its pullback. That function lives in the module that owns its math, and
documents its subgradient conventions there: the pairwise losses,
``qare`` and the two-view objective in ``losses``, the similarity
matrices and ``eigvals`` in ``simgeom``, and the encoder, the one place
rows are normalized, in ``harness``. Training builds no tape:
``harness.train`` chains those pullbacks directly (the two encoder
views and the objective). The tape composes them for library callers
and ``gradcheck``, and is the tests' reference for that chain.

``gradcheck`` checks a tape gradient against central differences along
two random unit directions, drawn from a generator seeded by the bytes
of the point, so its result depends on the function and the point alone.
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

def _scalar_eval(f, x: Array) -> float:
    """f at ``x``, a fresh finite 2-D C-ordered float64 array that no one
    else holds, frozen here, as a float; EvaluationError if the value is
    not finite."""
    y = f(Tensor._raw(x, None))
    val = y.item() if isinstance(y, Tensor) else float(y)
    if not math.isfinite(val):
        raise EvaluationError("gradcheck: function value is not finite")
    return val


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
    A wrong VJP shows along almost every v, since any error e in g enters
    as <e, v>. ``f`` maps one Tensor to a scalar; each point it sees is a
    fresh frozen C-ordered array. A value or an analytic gradient that is
    not finite raises EvaluationError."""
    base = as_tensor(x).data
    tape = Tape()
    xt = tape.leaf(base)
    y = f(xt)
    if not isinstance(y, Tensor) or y.shape != (1, 1):
        raise ContractError("gradcheck: f must return a scalar Tensor")
    if not math.isfinite(y.item()):
        raise EvaluationError("gradcheck: function value is not finite")
    analytic = tape.backward(y)[xt].data
    if not np.isfinite(analytic).all():
        raise EvaluationError("gradcheck: gradient is not finite")
    worst = 0.0
    # base is finite (the leaf checked it), and so is a finite double
    # moved by the step, so each point is wrapped without another check
    for v in _directions(base):
        slope = float(np.vdot(analytic, v))
        step = _GRADCHECK_STEP * v
        num = (_scalar_eval(f, base + step)
               - _scalar_eval(f, base - step)) / (2.0 * _GRADCHECK_STEP)
        worst = max(worst, abs(slope - num) / max(1.0, abs(slope)))
    return worst
