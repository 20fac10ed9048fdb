import contextlib
import gc

import numpy as np

from setcontrast import tensor as T


def weighted_sum(x, w=1.0) -> T.Tensor:
    """sum(x * w) as one tape node over x and w, with w a Tensor of x's
    shape or anything that broadcasts to it. Tests compose tape
    expressions with it; the library needs no such primitive. Like every
    VJP, its VJP holds arrays, not the Tensors."""
    x = T.as_tensor(x)
    w = w if isinstance(w, T.Tensor) else T.Tensor(np.broadcast_to(w, x.shape))
    xd, wd = x.data, w.data

    def vjp(g):
        c = float(g.reshape(()))
        return c * wd, c * xd

    return T.custom_op((x, w), np.reshape((xd * wd).sum(), (1, 1)), vjp)


def scaled(x, s: float) -> T.Tensor:
    """x * s as one tape node over x, for tests that need a node between
    a leaf and a loss; its VJP holds the float s only."""
    x = T.as_tensor(x)
    return T.custom_op((x,), x.data * s, lambda g: (g * s,))


@contextlib.contextmanager
def gc_disabled():
    """No cycle collection inside the block, so only reference counting
    frees what the block drops."""
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if was_enabled:
            gc.enable()
