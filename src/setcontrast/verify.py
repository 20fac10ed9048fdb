"""Self-check suites comparing the library against independent oracles.

Each suite re-derives its expected answer from scratch (permutation
enumeration, support enumeration, finite differences) rather than
reusing the code under test, so a regression in one module cannot
silently re-validate itself. `run` executes a selection of suites and
returns one result per suite; the CLI prints them as PASS/FAIL lines.

The enumeration oracles are array programs that stay exhaustive. The
sparsemax oracle scores every nonempty support at once from a cached
boolean mask table: each row's affine projection, its feasibility and
its distance to z. It never sorts z or takes a cumulative-sum
threshold, so it stays independent of the closed form in ``losses``.
The brute-force LAP and QAP oracles in ``assignment`` score every
permutation: the LAP oracle by prefix sums shared along the
lexicographic order, re-ranked by ``lap_cost`` near the optimum, and
the QAP oracle in blocks read from a cached table.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

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
            la = simgeom.sym_eigen(s_a).values
            lb = simgeom.sym_eigen(s_b).values
            lo = simgeom.eig_dot(la, lb, "min")
            hi = simgeom.eig_dot(la, lb, "max")
            vals = np.einsum("ij,pij->p", s_a,
                             s_b[perms[:, :, None], perms[:, None, :]])
            worst = max(worst, float(np.max(lo - vals)),
                        float(np.max(vals - hi)))
            pairs += 1
    return SuiteResult("sandwich", worst <= 1e-9, worst,
                       f"{pairs} pairs, all permutations")


def suite_hinge_identity() -> SuiteResult:
    """Batch-hard structured loss equals the classic per-row hinge
    sum max(0, s_pos + m - hardest_negative), row by row."""
    rng = np.random.default_rng(102)
    worst = 0.0
    count = 0
    margins = (0.0, 0.3, 0.5)
    for k in range(1000):
        n = int(rng.integers(2, 9))
        m = margins[k % 3]
        s = rng.normal(size=(n, n))
        perm = rng.permutation(n)
        gt = losses.GroundTruthAlignment(tuple(int(j) for j in perm))
        got = losses.batch_hard_lap_loss(s, gt, margin=m, reduction="sum").item()
        ref = 0.0
        for i in range(n):
            pos = s[i, perm[i]] + m
            neg = np.delete(s[i], perm[i]).min()
            ref += max(0.0, pos - neg)
        worst = max(worst, abs(got - ref))
        count += 1
    return SuiteResult("hinge_identity", worst <= 1e-12, worst,
                       f"{count} instances, margins {margins}")


def suite_smoothing_identity() -> SuiteResult:
    """Log-sum-exp smoothing of the batch-hard loss equals the
    temperature times the sum-form of the softmax contrastive loss."""
    rng = np.random.default_rng(103)
    worst = 0.0
    count = 0
    temps = (0.05, 0.5, 1.0)
    for k in range(1000):
        n = int(rng.integers(2, 9))
        tau = temps[k % 3]
        s = rng.normal(size=(n, n))
        perm = rng.permutation(n)
        gt = losses.GroundTruthAlignment(tuple(int(j) for j in perm))
        got = losses.smoothed_batch_hard_loss(
            s, gt, temperature=tau, reduction="sum").item()
        ref = 0.0
        for i in range(n):
            lse = np.logaddexp.reduce(-s[i] / tau)
            ref += s[i, perm[i]] / tau + lse
        ref *= tau
        worst = max(worst, abs(got - ref))
        count += 1
    return SuiteResult("smoothing_identity", worst <= 1e-10, worst,
                       f"{count} instances, temperatures {temps}")


def suite_upper_bound() -> SuiteResult:
    """Exact quadratic structured loss never exceeds the linear
    structured loss minus the min-sense eigenvalue dot product."""
    rng = np.random.default_rng(104)
    worst = -np.inf
    count = 0
    for _ in range(200):
        n = int(rng.integers(2, 7))
        s = rng.normal(size=(n, n))
        s_a = _random_symmetric(rng, n)
        s_b = _random_symmetric(rng, n)
        perm = rng.permutation(n)
        gt = losses.GroundTruthAlignment(tuple(int(j) for j in perm))
        lhs = losses.structured_qap_loss_exact(s, s_a, s_b, gt)
        lap = losses.structured_lap_loss(s, gt, margin=0.0, reduction="sum").item()
        la = simgeom.sym_eigen(s_a).values
        lb = simgeom.sym_eigen(s_b).values
        rhs = lap - simgeom.eig_dot(la, lb, "min")
        worst = max(worst, lhs - rhs)
        count += 1
    return SuiteResult("upper_bound", worst <= 1e-9, max(worst, 0.0),
                       f"{count} triples, worst slack violation {worst:.3e}")


def suite_lap_exact() -> SuiteResult:
    """Assignment solver cost equals exhaustive enumeration, both senses."""
    rng = np.random.default_rng(105)
    worst = 0.0
    count = 0
    for _ in range(500):
        n = int(rng.integers(1, 9))
        s = rng.normal(size=(n, n)) * float(rng.choice([0.1, 1.0, 10.0]))
        for sense in ("min", "max"):
            fast = assignment.solve_lap(s, sense)
            slow = assignment.brute_force_lap(s, sense)
            worst = max(worst, abs(fast.cost - slow.cost))
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
    """Simplex projection by support enumeration: project z affinely onto
    every nonempty support at once, drop the infeasible candidates (a
    negative coordinate on the support) and keep the one nearest z.

    Ties go to the first support in mask order, as a loop over masks
    keeping only strict improvements would choose. Each support's sum
    runs over its coordinates in index order. Nothing here sorts z or
    reads a threshold off sorted cumulative sums, so the oracle shares no
    step with ``losses.sparsemax``."""
    masks = _support_masks(z.size)
    total = np.cumsum(np.where(masks, z, 0.0), axis=1)[:, -1]
    tau = (total - 1.0) / masks.sum(axis=1)
    cand = z - tau[:, None]
    feasible = np.where(masks, cand, np.inf).min(axis=1) >= 0.0
    p = np.where(masks, cand, 0.0)
    d = ((z - p) ** 2).sum(axis=1)
    d[~feasible] = np.inf
    return p[np.argmin(d)]


def _simplex_grid(k: int, steps: int) -> Array:
    """All points of the simplex with coordinates in units of 1/steps."""
    pts = []
    for comp in itertools.combinations_with_replacement(range(k), steps):
        p = np.zeros(k)
        for j in comp:
            p[j] += 1.0 / steps
        pts.append(p)
    return np.array(pts)


def suite_sparsemax() -> SuiteResult:
    """Sparsemax against a support-enumeration projection oracle, the
    oracle itself against a simplex grid search, and the threshold
    identity p_j = max(0, z_j - T(z))."""
    rng = np.random.default_rng(106)
    worst = 0.0
    # grid search validates the oracle on small dimensions
    for k, steps in ((2, 100), (3, 60)):
        grid = _simplex_grid(k, steps)
        for _ in range(10):
            z = rng.normal(size=k)
            p = _projection_oracle(z)
            if abs(p.sum() - 1.0) > 1e-12 or p.min() < -1e-12:
                return SuiteResult("sparsemax", False, 1.0,
                                   "oracle left the simplex")
            d_oracle = float(((z - p) ** 2).sum())
            d_grid = float(((z[None, :] - grid) ** 2).sum(axis=1).min())
            if d_oracle > d_grid + 1e-12:
                return SuiteResult("sparsemax", False, d_oracle - d_grid,
                                   "oracle beaten by grid search")
    worst_thresh = 0.0
    for _ in range(1000):
        k = int(rng.integers(1, 9))
        z = rng.normal(size=k) * float(rng.choice([0.1, 1.0, 10.0]))
        p = losses.sparsemax(z)
        q = _projection_oracle(z)
        worst = max(worst, float(np.max(np.abs(p - q))))
        t = losses.sparsemax_threshold(z)
        ident = np.maximum(z - t, 0.0)
        worst_thresh = max(worst_thresh, float(np.max(np.abs(p - ident))))
    passed = worst <= 1e-10 and worst_thresh <= 1e-12
    return SuiteResult("sparsemax", passed, max(worst, worst_thresh),
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
    margin = losses.MARGIN_DEFAULT
    for _ in range(500):
        za = rng.normal(size=(n, d))
        zb = rng.normal(size=(n, d))
        perm = rng.permutation(n)
        triple = simgeom.pairwise_distances(za, zb, mode)
        s = triple.s.data
        s_pair = s if mode == "euclidean" else -s
        if mode == "euclidean" and s.min() < 5e-2:
            continue
        sm = s_pair.copy()
        for i in range(n):
            sm[i, perm[i]] += margin
        ok = True
        if kind in ("batch-hard", "smoothed"):
            for i in range(n):
                row = np.sort(sm[i])
                if row[1] - row[0] < 1e-3:
                    ok = False
                    break
        elif kind == "structured-lap":
            costs = [sum(sm[i, p[i]] for i in range(n))
                     for p in itertools.permutations(range(n))]
            if _top2_gap(costs) < 1e-3:
                ok = False
        elif kind == "nt-logistic":
            for i in range(n):
                neg = np.sort(np.delete(s_pair[i], perm[i]))
                if neg[1] - neg[0] < 1e-3:
                    ok = False
                    break
        elif kind == "sparseclr":
            for i in range(n):
                z = -sm[i]
                t = losses.sparsemax_threshold(z)
                if np.min(np.abs(z - t)) < 1e-3:
                    ok = False
                    break
        if kind in ("qare", "combined"):
            sa = triple.s_a.data
            sb = triple.s_b.data
            if mode == "cosine":
                sa = sa + 1.0
                sb = sb + 1.0
            ga = simgeom.min_eigengap(simgeom.sym_eigen(sa).values)
            gb = simgeom.min_eigengap(simgeom.sym_eigen(sb).values)
            if min(ga, gb) < 1e-3:
                ok = False
        if ok:
            gt = losses.GroundTruthAlignment(tuple(int(j) for j in perm))
            return za, zb, gt
    raise ConfigError(f"could not sample a generic point for {kind}/{mode}")


_GRAD_CASES: Tuple[Tuple[str, "losses.LossConfig"], ...] = (
    ("structured-lap", losses.LossConfig(
        name="g", kind="margin", mining="one-to-one", beta=0.0)),
    ("batch-hard", losses.LossConfig(
        name="g", kind="margin", mining="batch-hard", beta=0.0)),
    ("smoothed", losses.LossConfig(name="g", kind="smoothed", beta=0.0)),
    ("infonce", losses.LossConfig(name="g", kind="infonce", beta=0.0)),
    ("nt-logistic", losses.LossConfig(name="g", kind="nt_logistic", beta=0.0)),
    ("sparseclr", losses.LossConfig(name="g", kind="sparseclr", beta=0.0)),
    ("qare", losses.LossConfig(name="g", kind="infonce", mode="euclidean")),
    ("qare", losses.LossConfig(name="g", kind="infonce", mode="cosine")),
    ("combined", losses.LossConfig(name="g", kind="infonce", beta=1.125)),
)


def suite_gradients() -> SuiteResult:
    """Finite-difference check of every loss at generic random points."""
    rng = np.random.default_rng(107)
    worst = 0.0
    checks = 0
    for label, cfg in _GRAD_CASES:
        for _ in range(20):
            za, zb, gt = _generic_point(rng, label, cfg.mode)

            if label == "qare":
                def f_a(x):
                    triple = simgeom.pairwise_distances(x, zb, cfg.mode)
                    return losses.qare(triple.s_a, triple.s_b, cfg.mode)

                def f_b(x):
                    triple = simgeom.pairwise_distances(za, x, cfg.mode)
                    return losses.qare(triple.s_a, triple.s_b, cfg.mode)
            else:
                def f_a(x):
                    return losses.two_view_loss(x, zb, gt, cfg)[0]

                def f_b(x):
                    return losses.two_view_loss(za, x, gt, cfg)[0]

            worst = max(worst, T.gradcheck(f_a, za), T.gradcheck(f_b, zb))
            checks += 2
    return SuiteResult("gradients", worst <= 1e-4, worst,
                       f"{checks} checks over {len(_GRAD_CASES)} losses")


def suite_fig1b() -> SuiteResult:
    """Shared inter-set matrix gives identical assignment optima while
    the quadratic costs and the spectral surrogate both separate the
    two intra-set geometries."""
    near, far = harness.fig1b_instance()
    lap_near = assignment.solve_lap(near.s.data, "min").cost
    lap_far = assignment.solve_lap(far.s.data, "min").cost
    lap_gap = abs(lap_near - lap_far)
    qap_near = assignment.brute_force_qap(
        near.s.data, near.s_a.data, near.s_b.data, "min").cost
    qap_far = assignment.brute_force_qap(
        far.s.data, far.s_a.data, far.s_b.data, "min").cost
    qap_gap = abs(qap_near - qap_far)
    q_near = losses.qare(near.s_a, near.s_b, near.mode).item()
    q_far = losses.qare(far.s_a, far.s_b, far.mode).item()
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
