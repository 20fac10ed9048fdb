"""Self-check suites comparing the library against independent oracles.

Each suite re-derives its expected answer from scratch (permutation
enumeration, support enumeration, directional finite differences)
rather than reusing the code under test, so a regression in one module
cannot silently re-validate itself. `run` executes a selection of
suites and returns one result per suite; the CLI prints them as
PASS/FAIL lines.

The enumeration oracles are array programs that stay exhaustive. The
sparsemax oracle takes a stack of same-size vectors and scores every
nonempty support of each at once from a cached boolean mask table: each
support's affine projection, its feasibility and its distance to the
vector. It never sorts or takes a cumulative-sum threshold, so it stays
independent of the closed form in ``losses``. The ``hinge_identity``,
``smoothing_identity`` and ``sparsemax`` suites draw and call the
library one instance at a time, and score their own references on
chunks of at most 32 same-size instances, each chunk as soon as it
fills; the oracle's chunks stop where its temporaries would pass 4,096
floats. Each reference reduces along the same axis of the same length
as for one instance, so every error has the bits it would have alone.
Every suite keeps its worst error with ``_worst``, which keeps a NaN
that Python's ``max`` would drop, so a NaN error fails its suite.
The brute-force LAP and QAP oracles in ``assignment`` score every
permutation. The LAP oracle ranks all of them by ``lap_cost`` up to
n = 5; from n = 6 on it scores each as the sum of a running sum over the
first half of the rows, shared by every permutation with that prefix,
and one over the other half, shared by every permutation that leaves the
same columns to it, re-ranked by ``lap_cost`` near the optimum. The QAP
oracle scores each block of a cached table with one gather of S_B at
every permutation's pairs and one matrix-vector product. The simplex
grid that checks the sparsemax oracle reads each coordinate from a table
of the running sums of 1/steps, indexed by the coordinate's count. The
``gradients``, ``fig1b`` and ``upper_bound`` suites call ``qare`` on
point sets as drawn, not on unit rows: ``qare`` reads the rows it is
given. Every pairwise loss is a batch mean, so the identity suites
compare N times it with their sum-form references.
``tensor.gradcheck`` seeds its directions from the point it checks, so
the ``gradients`` line is the same on every run;
``tools/grad_mutations.py`` checks that those directions catch each
wrong pullback a per-coordinate check catches.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import (Callable, Dict, Iterable, Iterator, List, Optional,
                    Sequence, Tuple)

import numpy as np

from . import assignment
from . import harness
from . import losses
from . import simgeom
from . import tensor as T
from .errors import ConfigError

Array = np.ndarray


@dataclass(frozen=True)
class SuiteResult:
    name: str
    passed: bool
    max_err: float
    detail: str


def _worst(*errs: float) -> float:
    """The largest of errs, or NaN if any of them is NaN: Python's ``max``
    keeps its running value against a NaN, so a suite would pass one."""
    return math.nan if any(e != e for e in errs) else float(max(errs))


# instances of one size scored as one stack, and the stack elements the
# sparsemax oracle's (rows, 2^k - 1, k) temporaries may hold (32 KiB)
_CHUNK = 32
_ORACLE_ELEMENTS = 4096


def _chunks(draws: Iterable[Tuple[int, tuple]],
            cap: Callable[[int], int] = lambda size: _CHUNK,
            ) -> Iterator[Tuple[int, Tuple[Array, ...]]]:
    """Group a stream of (size, record) pairs into chunks of at most
    cap(size) records of one size, each field stacked into one array. A
    chunk is yielded as soon as it fills, so at most one partial chunk
    per size is held; the partial ones follow once the stream ends."""
    pending: Dict[int, list] = {}
    for size, record in draws:
        group = pending.setdefault(size, [])
        group.append(record)
        if len(group) == cap(size):
            yield size, tuple(map(np.array, zip(*pending.pop(size))))
    for size, group in pending.items():
        yield size, tuple(map(np.array, zip(*group)))


def _random_symmetric(rng, n: int) -> Array:
    m = rng.normal(size=(n, n))
    return (m + m.T) / 2.0


def suite_sandwich() -> SuiteResult:
    """Rearrangement bound: every permutation's quadratic trace
    tr(S_A X S_B^T X^T) sits between the min- and max-sense eigenvalue
    dot products. All permutations of a pair are scored in one call."""
    rng = np.random.default_rng(101)
    worst = 0.0
    pairs = 0
    for n in (2, 3, 4, 5, 6):
        perms = np.array(list(itertools.permutations(range(n))))
        for _ in range(40):
            s_a = _random_symmetric(rng, n)
            s_b = _random_symmetric(rng, n)
            la, lb = (d.values for d in simgeom.sym_eigen_pair(s_a, s_b))
            lo = simgeom.eig_dot(la, lb, "min")
            hi = simgeom.eig_dot(la, lb, "max")
            vals = np.einsum("ij,pij->p", s_a,
                             s_b[perms[:, :, None], perms[:, None, :]])
            worst = _worst(worst, float(np.max(lo - vals)),
                           float(np.max(vals - hi)))
            pairs += 1
    return SuiteResult("sandwich", worst <= 1e-9, worst,
                       f"{pairs} pairs, all permutations")


def _positives(s: Array, perm: Array) -> Array:
    """Entry (c, i, perm[c, i]) of a stack of matrices, shape (chunk, n)."""
    return np.take_along_axis(s, perm[..., None], axis=2)[..., 0]


def suite_hinge_identity() -> SuiteResult:
    """N times the batch-mean batch-hard structured loss equals the
    classic per-row hinge sum max(0, s_pos + m - hardest_negative). The
    reference reads each row's hardest negative as a minimum over the
    row with its positive masked to +inf, on a chunk of same-size
    instances at once."""
    rng = np.random.default_rng(102)
    margins = (0.0, 0.3, 0.5)

    def draws():
        for k in range(1000):
            n = int(rng.integers(2, 9))
            m = margins[k % 3]
            s = rng.normal(size=(n, n))
            perm = rng.permutation(n)
            gt = losses.GroundTruthAlignment(perm)
            got = n * losses.batch_hard_lap_loss(s, gt, margin=m)[0]
            yield n, (s, perm, m, got)

    worst = 0.0
    for n, (s, perm, m, got) in _chunks(draws()):
        pos = _positives(s, perm) + m[:, None]
        neg = np.where(np.arange(n) == perm[..., None], np.inf, s).min(axis=2)
        ref = np.maximum(0.0, pos - neg).sum(axis=1)
        worst = _worst(worst, float(np.max(np.abs(got - ref))))
    return SuiteResult("hinge_identity", worst <= 1e-12, worst,
                       f"1000 instances, margins {margins}")


def suite_smoothing_identity() -> SuiteResult:
    """N times the batch-mean log-sum-exp smoothing of the batch-hard
    loss equals the temperature times the sum-form of the softmax
    contrastive loss.

    On every fourth instance, N times the sparsemax smoothing lies in
    [N BH_0 - N/2, N BH_0 - 1/2], BH_0 the batch-hard loss at margin 0:
    the sparsemax smoothed max of k entries lies in [max - 1/2,
    max - 1/(2k)]. Both ends are checked within the suite's 1e-10, a
    rounding slack: where a row's support is one column the lower end
    holds with equality, and the sums round a few ulps below it. Both
    references are scored on a chunk of same-size instances at once."""
    rng = np.random.default_rng(103)
    temps = (0.05, 0.5, 1.0)

    def draws():
        for k in range(1000):
            n = int(rng.integers(2, 9))
            tau = temps[k % 3]
            s = rng.normal(size=(n, n))
            perm = rng.permutation(n)
            gt = losses.GroundTruthAlignment(perm)
            got = n * losses.smoothed_batch_hard_loss(s, gt, temperature=tau)[0]
            bracketed = k % 4 == 0
            sparse = n * losses.sparseclr_loss(s, gt)[0] if bracketed else 0.0
            yield n, (s, perm, tau, got, bracketed, sparse)

    worst = 0.0
    outside = 0.0
    for n, (s, perm, tau, got, bracketed, sparse) in _chunks(draws()):
        lse = np.logaddexp.reduce(-s / tau[:, None, None], axis=2)
        pos = _positives(s, perm)
        ref = (pos / tau[:, None] + lse).sum(axis=1) * tau
        worst = _worst(worst, float(np.max(np.abs(got - ref))))
        if bracketed.any():
            hard = (pos.sum(axis=1) - s.min(axis=2).sum(axis=1))[bracketed]
            sparse = sparse[bracketed]
            outside = _worst(outside, float(np.max(hard - n / 2 - sparse)),
                             float(np.max(sparse - (hard - 0.5))))
    err = _worst(worst, outside)
    return SuiteResult("smoothing_identity", err <= 1e-10, err,
                       f"1000 instances, temperatures {temps}, "
                       f"250 sparseclr brackets, excess {outside:.3e}")


def suite_upper_bound() -> SuiteResult:
    """Exact quadratic structured loss never exceeds the linear
    structured loss (N times its batch mean) minus the min-sense
    eigenvalue dot product.

    On point sets, the same bound for ``qare``: with S = Z_A Z_B^T,
    S_A = Z_A Z_A^T and S_B = Z_B Z_B^T built from the same raw rows that
    ``qare`` reads, the exact similarity-form QAP excess max_Y
    [tr(S Y^T) + tr((1+S_A) Y (1+S_B) Y^T)] - tr(S Y_gt^T) never exceeds
    N times the linear loss on -S plus ``qare`` of the two sets. The
    eigenvalue bound holds for any symmetric pair, so the rows need not
    be unit."""
    rng = np.random.default_rng(104)
    worst = -np.inf
    for _ in range(200):
        n = int(rng.integers(2, 7))
        s = rng.normal(size=(n, n))
        s_a = _random_symmetric(rng, n)
        s_b = _random_symmetric(rng, n)
        gt = losses.GroundTruthAlignment(rng.permutation(n))
        lhs = losses.structured_qap_loss_exact(s, s_a, s_b, gt)
        lap = n * losses.structured_lap_loss(s, gt, margin=0.0)[0]
        la, lb = (d.values for d in simgeom.sym_eigen_pair(s_a, s_b))
        worst = _worst(worst, lhs - (lap - simgeom.eig_dot(la, lb, "min")))
    for _ in range(60):
        n, e = int(rng.integers(2, 7)), int(rng.integers(1, 5))
        za, zb = rng.normal(size=(n, e)), rng.normal(size=(n, e))
        s = za @ zb.T
        gt = losses.GroundTruthAlignment(rng.permutation(n))
        qap = assignment.brute_force_qap(s, 1.0 + za @ za.T, 1.0 + zb @ zb.T, "max")
        lhs = qap.cost - assignment.lap_cost(s, gt.indices)
        lap = n * losses.structured_lap_loss(-s, gt, margin=0.0)[0]
        worst = _worst(worst, lhs - (lap + losses.qare(za, zb)[0]))
    return SuiteResult("upper_bound", worst <= 1e-9, _worst(worst, 0.0),
                       "200 triples, 60 set pairs, "
                       f"worst slack violation {worst:.3e}")


# the scales of the lap_exact and sparsemax draws, read by a drawn index:
# the values and generator state of rng.choice over them, at a fifth of
# its cost
_SCALES = (0.1, 1.0, 10.0)


def suite_lap_exact() -> SuiteResult:
    """Assignment solver cost equals exhaustive enumeration, both senses."""
    rng = np.random.default_rng(105)
    worst = 0.0
    count = 0
    for _ in range(500):
        n = int(rng.integers(1, 9))
        s = rng.normal(size=(n, n)) * _SCALES[int(rng.integers(0, 3))]
        for sense in ("min", "max"):
            fast = assignment.solve_lap(s, sense)
            slow = assignment.brute_force_lap(s, sense)
            worst = _worst(worst, abs(fast.cost - slow.cost))
        count += 1
    return SuiteResult("lap_exact", worst == 0.0, worst,
                       f"{count} matrices, both senses, exact cost match")


@functools.lru_cache(maxsize=None)
def _support_masks(k: int) -> Array:
    """Every nonempty support of k coordinates as a boolean row: row r
    holds the bits of mask r + 1, coordinate j being in when bit j is set.
    Read-only and cached per k, shape (2^k - 1, k)."""
    masks = (np.arange(1, 2 ** k)[:, None] >> np.arange(k) & 1).astype(bool)
    masks.setflags(write=False)
    return masks


def _projection_oracle(z: Array) -> Array:
    """Simplex projection of each row of a stack z (m, k) by support
    enumeration: project the row affinely onto every nonempty support at
    once, drop the infeasible candidates (a negative coordinate on the
    support) and keep the one nearest the row. Returns (m, k).

    Ties go to the first support in mask order, as a loop over masks
    keeping only strict improvements would choose. Each support's sum
    runs over its coordinates in index order, and every reduction runs
    along one row's k coordinates, so a row's projection has the same
    bits in any stack. Nothing here sorts z or reads a threshold off
    sorted cumulative sums, so the oracle shares no step with
    ``losses.sparsemax``. The temporaries hold m (2^k - 1) k floats."""
    masks = _support_masks(z.shape[1])
    z = z[:, None, :]
    total = np.cumsum(np.where(masks, z, 0.0), axis=2)[..., -1]
    tau = (total - 1.0) / masks.sum(axis=1)
    cand = z - tau[..., None]
    feasible = np.where(masks, cand, np.inf).min(axis=2) >= 0.0
    p = np.where(masks, cand, 0.0)
    d = ((z - p) ** 2).sum(axis=2)
    d[~feasible] = np.inf
    return p[np.arange(len(p)), np.argmin(d, axis=1)]


def _oracle_rows(k: int) -> int:
    """Rows of a stack of k-vectors the oracle scores at once: at most
    a chunk, and within ``_ORACLE_ELEMENTS`` per temporary."""
    return max(1, min(_CHUNK, _ORACLE_ELEMENTS // ((2 ** k - 1) * k)))


def _simplex_grid(k: int, steps: int) -> Array:
    """All points of the simplex with coordinates in units of 1/steps, one
    per multiset of ``steps`` coordinates, in the lexicographic order of
    their counts over the first k - 1 coordinates. Each coordinate is
    read by its count from a table of the running sums of 1/steps, so it
    is the sum of 1/steps added once per unit of its count."""
    sums = [0.0]
    for _ in range(steps):
        sums.append(sums[-1] + 1.0 / steps)
    shape = (steps + 1,) * (k - 1)
    lead = np.indices(shape).reshape(k - 1, math.prod(shape)).T
    lead = lead[lead.sum(axis=1) <= steps]
    counts = np.hstack((lead, steps - lead.sum(axis=1, keepdims=True)))
    return np.array(sums)[counts]


def suite_sparsemax() -> SuiteResult:
    """Sparsemax against a support-enumeration projection oracle, the
    oracle itself against a simplex grid search, and the threshold
    identity p_j = max(0, z_j - T(z)). The oracle and the identity score
    chunks of same-size vectors at once."""
    rng = np.random.default_rng(106)
    # grid search validates the oracle on small dimensions
    for k, steps in ((2, 100), (3, 60)):
        grid = _simplex_grid(k, steps)
        zs = np.array([rng.normal(size=k) for _ in range(10)])
        for z, p in zip(zs, _projection_oracle(zs)):
            if not (abs(p.sum() - 1.0) <= 1e-12 and p.min() >= -1e-12):
                return SuiteResult("sparsemax", False, 1.0,
                                   "oracle left the simplex")
            d_oracle = float(((z - p) ** 2).sum())
            d_grid = float(((z[None, :] - grid) ** 2).sum(axis=1).min())
            if not d_oracle <= d_grid + 1e-12:
                return SuiteResult("sparsemax", False, d_oracle - d_grid,
                                   "oracle beaten by grid search")

    def draws():
        for _ in range(1000):
            k = int(rng.integers(1, 9))
            z = rng.normal(size=k) * _SCALES[int(rng.integers(0, 3))]
            yield k, (z, losses.sparsemax(z), losses.sparsemax_threshold(z))

    worst = 0.0
    worst_thresh = 0.0
    for _, (z, p, t) in _chunks(draws(), _oracle_rows):
        worst = _worst(worst, float(np.max(np.abs(p - _projection_oracle(z)))))
        ident = np.maximum(z - t[:, None], 0.0)
        worst_thresh = _worst(worst_thresh, float(np.max(np.abs(p - ident))))
    passed = worst <= 1e-10 and worst_thresh <= 1e-12
    return SuiteResult("sparsemax", passed, _worst(worst, worst_thresh),
                       f"1000 vectors, threshold identity err {worst_thresh:.3e}")


def _top2_gap(costs: Sequence[float]) -> float:
    srt = sorted(costs)
    return srt[1] - srt[0] if len(srt) > 1 else np.inf


def _generic_point(rng, kind: str, mode: str) -> Tuple[Array, Array, "losses.GroundTruthAlignment"]:
    """Embedding pair away from every kink of the given loss: no zero
    distances, unique row minima, unique assignment optima, sparsemax
    support boundaries and eigenvalue gaps all separated by >= 1e-3."""
    n = 4
    d = 3
    positives = np.arange(n) == np.arange(n)[:, None]
    for _ in range(500):
        za = rng.normal(size=(n, d))
        zb = rng.normal(size=(n, d))
        perm = rng.permutation(n)
        s, _ = simgeom._similarity(za, zb, mode, "_generic_point")
        s_pair = s if mode == "euclidean" else -s
        if mode == "euclidean" and s.min() < 5e-2:
            continue
        pos = positives[perm]
        sm = s_pair + losses.MARGIN_DEFAULT * pos
        ok = True
        if kind in ("batch-hard", "smoothed"):
            row = np.sort(sm, axis=1)
            ok = bool(np.all(row[:, 1] - row[:, 0] >= 1e-3))
        elif kind == "structured-lap":
            costs = [sum(sm[i, p[i]] for i in range(n))
                     for p in itertools.permutations(range(n))]
            ok = _top2_gap(costs) >= 1e-3
        elif kind == "nt-logistic":
            neg = np.sort(np.where(pos, np.inf, s_pair), axis=1)
            ok = bool(np.all(neg[:, 1] - neg[:, 0] >= 1e-3))
        elif kind == "sparseclr":
            # sparseclr takes no margin: its kinks are those of sparsemax(-S)
            ok = all(np.abs(z - losses.sparsemax_threshold(z)).min() >= 1e-3
                     for z in -s_pair)
        elif kind in ("qare", "combined"):
            # qare reads the spectra of 1 + Z Z^T of the rows as given
            shifted = (1.0 + z @ z.T for z in (za, zb))
            ok = min(simgeom.min_eigengap(d.values)
                     for d in simgeom.sym_eigen_pair(*shifted)) >= 1e-3
        if ok:
            return za, zb, losses.GroundTruthAlignment(perm)
    raise ConfigError(f"could not sample a generic point for {kind}/{mode}")


_PAIRWISE_GRAD_CASES: Tuple[Tuple[str, dict], ...] = (
    ("structured-lap", dict(kind="margin", mining="one-to-one")),
    ("batch-hard", dict(kind="margin", mining="batch-hard")),
    ("smoothed", dict(kind="smoothed")),
    ("infonce", dict(kind="infonce")),
    ("nt-logistic", dict(kind="nt_logistic")),
    ("sparseclr", dict(kind="sparseclr")),
)

# each pairwise loss at beta 0 in both modes, qare alone, and infonce plus
# qare in both modes: the cosine cases are the only ones whose S is the
# inner-product map
_GRAD_CASES: Tuple[Tuple[str, "losses.LossConfig"], ...] = tuple(
    (label, losses.LossConfig(name="g", beta=0.0, mode=mode, **fields))
    for mode in ("euclidean", "cosine")
    for label, fields in _PAIRWISE_GRAD_CASES
) + (
    ("qare", losses.LossConfig(name="g", kind="infonce", mode="cosine")),
    ("combined", losses.LossConfig(name="g", kind="infonce", beta=1.125)),
    ("combined", losses.LossConfig(name="g", kind="infonce", beta=1.125,
                                   mode="cosine")),
)


def _partial(loss, side: int, other: Array):
    """``loss(a, b)``, a value and its pullback c -> (g_a, g_b), as a
    function of one side: x -> its value and c -> the gradient on that
    side, the other side held at ``other``."""
    def f(x):
        value, pullback = loss(*((x, other) if side == 0 else (other, x)))
        return value, lambda c: pullback(c)[side]

    return f


def suite_gradients() -> SuiteResult:
    """Directional finite-difference check (``tensor.gradcheck``) of every
    loss on each of its two inputs at 20 generic random points per case:
    the six pairwise losses in euclidean and cosine mode, ``qare``, and
    infonce plus qare in both modes."""
    rng = np.random.default_rng(107)
    worst = 0.0
    checks = 0
    for label, cfg in _GRAD_CASES:
        for _ in range(20):
            za, zb, gt = _generic_point(rng, label, cfg.mode)
            if label == "qare":
                loss = losses.qare
            else:
                def loss(a, b):
                    return losses.two_view_loss(a, b, gt, cfg)
            worst = _worst(worst, T.gradcheck(_partial(loss, 0, zb), za),
                           T.gradcheck(_partial(loss, 1, za), zb))
            checks += 2
    return SuiteResult("gradients", worst <= 1e-4, worst,
                       f"{checks} checks over {len(_GRAD_CASES)} losses")


def suite_fig1b() -> SuiteResult:
    """Shared inter-set matrix gives identical assignment optima while
    the quadratic costs and the spectral surrogate both separate the
    two intra-set geometries."""
    near, far = harness.fig1b_instance()
    lap_near = assignment.solve_lap(near[0], "min").cost
    lap_far = assignment.solve_lap(far[0], "min").cost
    lap_gap = abs(lap_near - lap_far)
    qap_near = assignment.brute_force_qap(*near, "min").cost
    qap_far = assignment.brute_force_qap(*far, "min").cost
    qap_gap = abs(qap_near - qap_far)
    view_a, near_b, far_b = harness.fig1b_points()
    q_near = losses.qare(view_a, near_b)[0]
    q_far = losses.qare(view_a, far_b)[0]
    q_gap = abs(q_near - q_far)
    passed = lap_gap <= 1e-12 and qap_gap > 0.1 and q_gap > 1e-6
    return SuiteResult("fig1b", passed, lap_gap,
                       f"lap gap {lap_gap:.1e}, qap gap {qap_gap:.3f}, "
                       f"qare gap {q_gap:.3f}")


SUITES: Dict[str, Callable[[], SuiteResult]] = {
    "sandwich": suite_sandwich,
    "hinge_identity": suite_hinge_identity,
    "smoothing_identity": suite_smoothing_identity,
    "upper_bound": suite_upper_bound,
    "lap_exact": suite_lap_exact,
    "sparsemax": suite_sparsemax,
    "gradients": suite_gradients,
    "fig1b": suite_fig1b,
}


def run(names: Optional[Sequence[str]] = None) -> List[SuiteResult]:
    if names is None:
        names = list(SUITES)
    unknown = [n for n in names if n not in SUITES]
    if unknown:
        raise ConfigError(
            f"unknown suite {unknown[0]!r}; available: {', '.join(SUITES)}")
    return [SUITES[n]() for n in names]


def format_result(r: SuiteResult) -> str:
    status = "PASS" if r.passed else "FAIL"
    return f"{status} {r.name:<18} max_err={r.max_err:.3e}  {r.detail}"
