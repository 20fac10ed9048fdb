"""Linear and quadratic assignment: an O(N^3) shortest-augmenting-path
LAP solver (Jonker-Volgenant column-reduction warm start, Dijkstra paths
with lazy dual updates as in Crouse 2016), exhaustive oracles with size
guards, and matching accuracy.

Tie-break contract: among equally optimal assignments both the solver
and the oracles return the lexicographically smallest permutation, so
equality tests between them can be exact. The solver's duals certify
every optimal assignment; when their tight graph has no alternating
cycle the optimum is unique, otherwise one iterative pass of
alternating-cycle rotations refines the matching. The LAP oracle ranks
permutations by their ``lap_cost`` bits. It scores all of them by
prefix sums shared along the lexicographic order, one row per level,
and re-ranks by ``lap_cost`` the few whose running sum lies within a
rounding bound of the smallest (see ``brute_force_lap``). The QAP
oracle scores permutations in lexicographic order, in blocks of at most
7! rows. The tables of all permutations are cached as read-only uint8
arrays up to n = 8 (8! rows, 322 KB), and the LAP oracle's prefix levels
as read-only intp arrays read off them; both are built on first use.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import Tuple

import numpy as np

from .errors import ContractError, EvaluationError, ShapeError, SizeGuardError

Array = np.ndarray

BRUTE_FORCE_LAP_MAX = 10
BRUTE_FORCE_QAP_MAX = 8
# largest enumeration read straight from a cached permutation table
_TABLE_MAX = 8
# blocks of at most 7! = 5040 rows keep the (M, n, n) gather of
# brute_force_qap near 2.6 MB at n = 8
_BLOCK_ROWS = math.factorial(7)


@dataclass(frozen=True)
class Assignment:
    perm: Tuple[int, ...]  # perm[i] = column assigned to row i
    cost: float


def _check_square(s, name: str) -> Array:
    a = np.asarray(s, dtype=np.float64)
    if a.ndim != 2 or a.shape[0] != a.shape[1] or a.shape[0] == 0:
        raise ShapeError(f"{name}: expected a nonempty square matrix, got {a.shape}")
    if not np.all(np.isfinite(a)):
        raise EvaluationError(f"{name}: matrix contains NaN or Inf")
    return a


def _check_sense(sense: str) -> str:
    if sense not in ("min", "max"):
        raise ContractError(f"sense must be 'min' or 'max', got {sense!r}")
    return sense


def _as_indices(values) -> Array:
    """``values`` flattened to intp; ContractError on an entry that is not
    an integer: a fraction, NaN or Inf, which a cast would truncate, or a
    boolean, which a cast would read as 0 or 1. A sequence that mixes
    booleans with integers converts to an integer array, so the entries
    are checked for booleans as objects, whatever the input type."""
    if any(isinstance(v, (bool, np.bool_))
           for v in np.asarray(values, dtype=object).reshape(-1)):
        raise ContractError(f"indices must be integers, got {values!r}")
    raw = np.asarray(values).reshape(-1)
    if raw.dtype.kind in "iu":
        return raw.astype(np.intp, copy=False)
    with np.errstate(invalid="ignore"):  # NaN and Inf fail the equality below
        idx = raw.astype(np.intp)
    if not np.array_equal(idx, raw):
        raise ContractError(f"indices must be integers, got {values!r}")
    return idx


def _check_perm(perm, n: int) -> Array:
    p = _as_indices(perm)
    if p.shape[0] != n or not np.array_equal(np.sort(p), np.arange(n)):
        raise ContractError(f"expected a permutation of 0..{n - 1}, got {perm!r}")
    return p


def lap_cost(s: Array, perm: Array) -> float:
    """Linear assignment cost: numpy's sum of the assigned entries taken
    in row order, pairwise from n = 8 on. Shared by the solver and the
    oracle so agreed permutations give bitwise-equal costs."""
    n = s.shape[0]
    return float(s[np.arange(n), perm].sum())


def _hungarian(a: Array):
    """Shortest augmenting paths with a column-reduction warm start
    (Jonker & Volgenant 1987; Crouse 2016, "On implementing 2D rectangular
    assignment algorithms"), minimization. Returns (perm, row_duals,
    col_duals) with a - u - v >= 0 everywhere and = 0 on matched edges.

    The warm start sets v to the column minima with u = 0 and gives each
    column its first argmin row while that row is free. Each row left
    free then grows one Dijkstra tree over reduced costs to the nearest
    free column; the duals are updated lazily, once per path, from the
    final distances of the scanned columns.
    """
    n = a.shape[0]
    u = np.zeros(n)
    v = a.min(axis=0)
    col4row = np.full(n, -1, dtype=np.intp)
    row4col = np.full(n, -1, dtype=np.intp)
    first_rows, cols = np.unique(a.argmin(axis=0), return_index=True)
    col4row[first_rows] = cols
    row4col[cols] = first_rows
    free = row4col < 0
    for cur in np.flatnonzero(col4row < 0):
        free_cols = np.flatnonzero(free)
        key = np.full(n, np.inf)  # tentative distance of unscanned columns
        shortest = np.empty(n)    # final distance of scanned columns
        path = np.empty(n, dtype=np.intp)
        w = v.copy()              # -inf on scanned columns: r reads +inf
        scanned = []
        i, minval = cur, 0.0
        while True:
            r = a[i] - w
            r += minval - u[i]
            better = r < key
            np.minimum(key, r, out=key)
            path[better] = i
            j = int(key.argmin())
            minval = key[j]
            # among equal distances prefer a free column: the path ends
            k = free_cols[key[free_cols].argmin()]
            if key[k] <= minval:
                j = int(k)
            shortest[j] = minval
            key[j] = np.inf
            w[j] = -np.inf
            if free[j]:
                break
            scanned.append(j)
            i = row4col[j]
        # lazy dual update over the scanned matched columns and their rows
        seen = np.array(scanned, dtype=np.intp)
        delta = minval - shortest[seen]
        u[cur] += minval
        u[row4col[seen]] += delta
        v[seen] -= delta
        free[j] = False
        while True:
            i = path[j]
            row4col[j] = i
            col4row[i], j = j, col4row[i]
            if i == cur:
                break
    return col4row, u, v


def _lex_refine(a: Array, perm: Array, u: Array, v: Array) -> Array:
    """Among optimal assignments pick the lexicographically smallest.

    Works on the tight graph (zero reduced cost edges, plus the solver's
    matching), where the perfect matchings are the optimal assignments.
    One iterative pass fixes rows in order. A tight edge is in some
    perfect matching exactly when it is matched or on an alternating
    cycle, so row i takes the smallest tight column whose owner reaches
    i along alternating edges through unfixed rows, and the matching is
    rotated along that cycle.
    """
    n = a.shape[0]
    tol = 1e-9 * max(1.0, float(np.abs(a).max()))
    tight = (a - u[:, None] - v[None, :]) <= tol
    rows = np.arange(n)
    tight[rows, perm] = True
    # row i -> row k when i can take k's column: the alternating cycles
    # are the cycles of this digraph. A row without an out-edge or an
    # in-edge among the live rows is on none, so peel it; if every row
    # peels, the optimum is unique.
    g = tight[:, perm]
    g[rows, rows] = False
    while g.size:
        live = g.any(axis=1) & g.any(axis=0)
        if live.all():
            break
        g = g[np.ix_(live, live)]
    else:
        return perm
    col, owner, succ = perm.copy(), np.empty_like(perm), np.empty_like(perm)
    owner[col] = rows
    for i in range(n):
        cand = np.flatnonzero(tight[i, :col[i]])
        cand = cand[owner[cand] > i]
        if cand.size == 0:
            continue
        # reverse BFS over r -> owner[c], tight (r, c); succ: next row to i
        reached = rows <= i
        frontier = rows[i:i + 1]
        while frontier.size:
            todo = np.flatnonzero(~reached)
            hit = tight[np.ix_(todo, col[frontier])]
            found = hit.any(axis=1)
            succ[todo[found]] = frontier[hit[found].argmax(axis=1)]
            frontier = todo[found]
            reached[frontier] = True
        cand = cand[reached[owner[cand]]]
        if cand.size == 0:
            continue
        path = [owner[cand[0]]]
        while path[-1] != i:
            path.append(succ[path[-1]])
        # each row on the cycle takes the column of the next; i takes cand[0]
        col[path] = np.append(col[path[1:]], cand[0])
        owner[col[path]] = path
    # guard against tolerance admitting a strictly worse matching
    if lap_cost(a, col) <= lap_cost(a, perm):
        return col
    return perm


def solve_lap(s, sense: str = "min") -> Assignment:
    """Optimal linear assignment of a square cost/score matrix."""
    a = _check_square(s, "solve_lap")
    _check_sense(sense)
    work = a if sense == "min" else -a
    perm, u, v = _hungarian(work)
    perm = _lex_refine(work, perm, u, v)
    return Assignment(perm=tuple(perm.tolist()), cost=lap_cost(a, perm))


@functools.lru_cache(maxsize=None)
def _lex_table(m: int) -> Array:
    """All permutations of range(m) in lexicographic order, one per row,
    as uint8 (read-only, shared by every caller). Rows starting with f
    are f followed by the table of size m - 1 shifted past f."""
    if m == 0:
        table = np.zeros((1, 0), dtype=np.uint8)
    else:
        t = _lex_table(m - 1)
        table = np.concatenate([
            np.column_stack((np.full(len(t), f, dtype=np.uint8), t + (t >= f)))
            for f in range(m)])
    table.setflags(write=False)
    return table


def _perm_blocks(n: int):
    """All permutations of range(n), n <= 8, in lexicographic order, as
    read-only views of at most 7! consecutive rows of the cached uint8
    table."""
    table = _lex_table(n)
    for start in range(0, len(table), _BLOCK_ROWS):
        yield table[start:start + _BLOCK_ROWS]


@functools.lru_cache(maxsize=None)
def _lex_levels(m: int) -> Tuple[Array, ...]:
    """The prefix levels of ``_lex_table(m)``: level k holds the column
    that row k takes in each length-(k + 1) prefix, in lexicographic
    order, as read-only intp. Each such prefix spans (m - k - 1)!
    consecutive rows of the table, so level k is every (m - k - 1)!-th
    entry of column k."""
    table = _lex_table(m)
    levels = []
    for k in range(m):
        level = table[::math.factorial(m - k - 1), k].astype(np.intp)
        level.setflags(write=False)
        levels.append(level)
    return tuple(levels)


def brute_force_lap(s, sense: str = "min") -> Assignment:
    """Exhaustive LAP oracle (N <= 10), ranked by ``lap_cost`` with the
    same tie-break as solve_lap: the lexicographically first optimum.

    Permutations are scored by shared prefix sums, a head of n - m rows
    at a time, m = min(n, 8). Each head is fixed in lexicographic order;
    its remaining rows take the free columns, in ascending order,
    permuted by ``_lex_table(m)``. The costs of all m! completions build
    up one row per level, ``costs = (costs[:, None] + row[level]).ravel()``,
    since the completions of one prefix form a contiguous run.

    These running sums add the entries one row at a time, while
    ``lap_cost`` uses numpy's pairwise sum, so the two can differ in the
    last bits. Any summation order of the n terms x_i of one permutation
    lies within gamma_{n-1} * sum_i |x_i| of the exact sum, where
    gamma_k = k u / (1 - k u) and u is the unit roundoff, so two orders
    differ by at most D = 2 gamma_{n-1} R with R = sum_i max_j |a_ij|.
    Within one head, if q has the smallest running sum c and p is any
    ``lap_cost`` optimum, then run(p) <= lap(p) + D <= lap(q) + D <= c + 2 D.
    So every permutation whose running sum lies within 2 D of c is
    re-ranked by its ``lap_cost`` bits, and the first exact optimum in
    lexicographic order is kept; the window uses gamma_n, whose spare
    4 u R covers the rounding of R and of c + 2 D. A later head replaces
    the incumbent only on a strict improvement, so memory stays bounded
    by 8! sums whatever n is. The max sense minimizes the negated
    matrix, whose sums are the exact negations of the original ones.

    The bound assumes no sum overflows. When R or a running sum does, as
    for entries near the largest double, the window is infinite and every
    permutation of the head is re-ranked, which is exhaustive ranking by
    ``lap_cost`` outright."""
    a = _check_square(s, "brute_force_lap")
    _check_sense(sense)
    n = a.shape[0]
    if n > BRUTE_FORCE_LAP_MAX:
        raise SizeGuardError(f"brute_force_lap: N={n} exceeds {BRUTE_FORCE_LAP_MAX}")
    work = a if sense == "min" else -a
    m = min(n, _TABLE_MAX)
    table = _lex_table(m)
    levels = _lex_levels(m)
    rows = np.arange(n)
    u = np.finfo(np.float64).eps / 2
    gamma = n * u / (1 - n * u)
    # R and the running sums can overflow where no lap_cost does; an
    # infinite window or running sum re-ranks every permutation of the head
    with np.errstate(over="ignore"):
        window = 4 * gamma * float(np.abs(a).max(axis=1).sum())
    best_cost = None
    best_perm = None
    for head in itertools.permutations(range(n), n - m):
        cols = np.delete(rows, head)
        tail = work[n - m:, cols]
        with np.errstate(over="ignore"):
            # the head's entries, summed in any order the bound allows; 0 for n <= 8
            costs = work[rows[:n - m], list(head)].sum(keepdims=True)
            for row, level in zip(tail, levels):
                costs = (costs[:, None] + row[level].reshape(costs.size, -1)).ravel()
            limit = costs.min() + window if np.isfinite(costs).all() else np.inf
        found = np.flatnonzero(costs <= limit)
        perms = np.empty((found.size, n), dtype=np.intp)
        perms[:, :n - m] = head
        perms[:, n - m:] = cols[table[found]]
        # row sums along the last axis are lap_cost's sums, bit for bit
        exact = work[rows, perms].sum(axis=1)
        k = int(np.argmin(exact))
        if best_cost is None or exact[k] < best_cost:
            best_cost = exact[k]
            best_perm = perms[k]
    return Assignment(perm=tuple(best_perm.tolist()), cost=lap_cost(a, best_perm))


def qap_objective(s, s_a, s_b, perm) -> float:
    """tr(S Y^T) + tr(S_A Y S_B^T Y^T) for the permutation matrix Y of perm,
    i.e. sum_i S[i, p(i)] + sum_ij S_A[i, j] * S_B[p(i), p(j)]."""
    a = _check_square(s, "qap_objective")
    fa = _check_square(s_a, "qap_objective: s_a")
    fb = _check_square(s_b, "qap_objective: s_b")
    n = a.shape[0]
    if fa.shape[0] != n or fb.shape[0] != n:
        raise ShapeError("qap_objective: S, S_A, S_B must share the same size")
    p = _check_perm(perm, n)
    quad = float(np.einsum("ij,ij->", fa, fb[np.ix_(p, p)]))
    return lap_cost(a, p) + quad


def brute_force_qap(s, s_a, s_b, sense: str = "min") -> Assignment:
    """Exhaustive QAP oracle (N <= 8), lexicographic tie-break."""
    a = _check_square(s, "brute_force_qap")
    fa = _check_square(s_a, "brute_force_qap: s_a")
    fb = _check_square(s_b, "brute_force_qap: s_b")
    _check_sense(sense)
    n = a.shape[0]
    if fa.shape[0] != n or fb.shape[0] != n:
        raise ShapeError("brute_force_qap: S, S_A, S_B must share the same size")
    if n > BRUTE_FORCE_QAP_MAX:
        raise SizeGuardError(f"brute_force_qap: N={n} exceeds {BRUTE_FORCE_QAP_MAX}")
    rows = np.arange(n)
    best_cost = None
    best_perm = None
    for block in _perm_blocks(n):
        linear = a[rows[None, :], block].sum(axis=1)
        gathered = fb[block[:, :, None], block[:, None, :]]  # (M, n, n)
        quad = np.tensordot(gathered, fa, axes=([1, 2], [0, 1]))
        costs = linear + quad
        k = int(np.argmin(costs)) if sense == "min" else int(np.argmax(costs))
        c = costs[k]
        if best_cost is None or (c < best_cost if sense == "min" else c > best_cost):
            best_cost = c
            best_perm = block[k].copy()
    return Assignment(
        perm=tuple(int(j) for j in best_perm),
        cost=qap_objective(a, fa, fb, best_perm),
    )


def matching_accuracy(s, gt_perm) -> float:
    """Fraction of rows whose LAP-optimal column (min sense) agrees with
    the ground-truth alignment."""
    a = _check_square(s, "matching_accuracy")
    gt = _check_perm(gt_perm, a.shape[0])
    found = np.asarray(solve_lap(a, "min").perm, dtype=np.intp)
    return float(np.mean(found == gt))
