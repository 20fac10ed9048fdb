import numpy as np

from setcontrast import tensor as T


def weighted_sum(x, w=1.0) -> T.Tensor:
    """sum(x * w) as one tape node over x and w, with w a Tensor of x's
    shape or anything that broadcasts to it. Tests compose tape
    expressions with it; the library needs no such primitive."""
    x = T.as_tensor(x)
    w = w if isinstance(w, T.Tensor) else T.Tensor(np.broadcast_to(w, x.shape))

    def vjp(g):
        c = float(g.reshape(()))
        return c * w.data, c * x.data

    return T.custom_op((x, w), np.reshape((x.data * w.data).sum(), (1, 1)), vjp)
