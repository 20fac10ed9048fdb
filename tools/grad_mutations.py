"""Check that ``verify``'s gradient suite catches wrong pullbacks with its
directional ``gradcheck`` exactly where a per-coordinate check does.

    python tools/grad_mutations.py [--checkout ROOT]

Each row of the table wraps one array-level function of the package so
that every value stays as it is and one pullback goes wrong; the first
row wraps nothing. Under each row ``verify.suite_gradients`` runs twice:
with ``tensor.gradcheck`` swapped for ``per_coordinate_gradcheck``, the
reference oracle below, and with the package's own ``gradcheck``. The
script prints each row's verdict against the suite's 1e-4 bound, its
worst error and its time under both, and exits 1 if the two verdicts
differ on any row or either differs from the row's expected verdict.

The package is imported from ``ROOT/src`` (default: this checkout), so
the same table can be run against another checkout. It needs numpy and
the package only, and takes about 10 s.
"""

from __future__ import annotations

import argparse
import contextlib
import sys
import time
from pathlib import Path
from unittest import mock

import numpy as np

STEP = 1e-6  # the package's difference step


def per_coordinate_gradcheck(errors, f, x) -> float:
    """The reference: max over coordinates of |analytic - central
    difference| / max(1, |analytic|), moving one coordinate at a time by
    STEP. ``f`` maps an array to its value and its pullback, as for
    ``gradcheck``, and the analytic gradient is the pullback of 1.0.
    ``errors`` is the package's ``errors`` module: an analytic gradient or
    a function value that is not finite raises its EvaluationError, as
    ``gradcheck`` does, since either would read as error 0."""
    base = np.array(x, dtype=np.float64)
    _, pullback = f(base)
    analytic = np.asarray(pullback(1.0), dtype=np.float64).reshape(-1)
    if not np.isfinite(analytic).all():
        raise errors.EvaluationError("gradcheck: gradient is not finite")
    worst = 0.0
    for i, grad in enumerate(analytic):
        values = []
        for step in (STEP, -STEP):
            point = np.array(base)
            point.flat[i] += step
            values.append(float(f(point)[0]))
        if not np.isfinite(values).all():
            raise errors.EvaluationError("gradcheck: function value is not finite")
        num = (values[0] - values[1]) / (2.0 * STEP)
        worst = max(worst, abs(grad - num) / max(1.0, abs(grad)))
    return worst


def _transposed(real):
    """A similarity map whose pullback reads g^T for g."""
    def wrapped(da, db):
        value, pullback = real(da, db)
        return value, lambda g: pullback(g.T)
    return wrapped


def _distance_weights_transposed(real):
    """The distance map whose pullback reads w^T for its weights
    w = g / D: it is handed D * (g / D)^T in place of g."""
    def wrapped(da, db):
        dist, pullback = real(da, db)
        return dist, lambda g: pullback(dist * (g / dist).T)
    return wrapped


def _qare_scaled(real, factor):
    def wrapped(za, zb):
        value, pullback = real(za, zb)
        return value, lambda c: tuple(factor * g for g in pullback(c))
    return wrapped


def _pairing_reversed(real):
    """Eigenvalue gradients that pair each eigenvalue with the reversed
    upstream vector, as a pullback that pairs the spectra wrongly would."""
    return lambda decomp, upstream: real(decomp, np.asarray(upstream)[::-1])


def _truth_transposed(real):
    """The infonce parts whose gradient is built with Y^T for Y."""
    def wrapped(s, y, temperature):
        total, _ = real(s, y, temperature)
        return total, real(s, y.T, temperature)[1]
    return wrapped


def _batch_mean_scaled(real, factor):
    def wrapped(*args):
        value, pullback = real(*args)
        return value, lambda c: factor * pullback(c)
    return wrapped


def mutations(simgeom, losses):
    """(label, module, attribute, wrapper or None, expected pass) rows."""
    return [
        ("none", None, None, None, True),
        ("cosine S pullback reads g^T", simgeom, "_inner_products",
         _transposed, False),
        ("distance pullback reads g^T", simgeom, "_distances", _transposed, False),
        ("distance pullback reads w^T", simgeom, "_distances",
         _distance_weights_transposed, False),
        ("qare pullback x 0.5", losses, "qare",
         lambda real: _qare_scaled(real, 0.5), False),
        ("eigenvalue pairing reversed", simgeom, "eigenvalue_gradient",
         _pairing_reversed, False),
        ("infonce pullback reads Y^T", losses, "_infonce", _truth_transposed, False),
        ("batch-mean pullback x 1.001", losses, "_batch_mean",
         lambda real: _batch_mean_scaled(real, 1.001), False),
        ("batch-mean pullback x 1.00001", losses, "_batch_mean",
         lambda real: _batch_mean_scaled(real, 1.00001), True),
    ]


def timed_suite(verify):
    started = time.perf_counter()
    result = verify.suite_gradients()
    return result, time.perf_counter() - started


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--checkout", type=Path,
                        default=Path(__file__).resolve().parent.parent,
                        help="source checkout whose src/ is imported")
    args = parser.parse_args(argv)
    sys.path.insert(0, str(args.checkout / "src"))
    from setcontrast import errors, losses, simgeom, tensor as T, verify

    def reference(f, x):
        return per_coordinate_gradcheck(errors, f, x)

    print("| mutation | expected | per coordinate | directional | agree |")
    print("|---|---|---|---|---|")
    failed = 0
    for label, module, name, wrap, expected in mutations(simgeom, losses):
        mutation = (contextlib.nullcontext() if module is None else
                    mock.patch.object(module, name, wrap(getattr(module, name))))
        with mutation:
            with mock.patch.object(T, "gradcheck", reference):
                ref, ref_s = timed_suite(verify)
            got, got_s = timed_suite(verify)
        ok = ref.passed == got.passed == expected
        failed += not ok
        cells = [f"{'pass' if r.passed else 'FAIL'} {r.max_err:.1e}, {s:.2f} s"
                 for r, s in ((ref, ref_s), (got, got_s))]
        print(f"| {label} | {'pass' if expected else 'FAIL'} | {cells[0]} | "
              f"{cells[1]} | {'yes' if ok else 'NO'} |")
    print(f"{failed} row(s) disagree")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
