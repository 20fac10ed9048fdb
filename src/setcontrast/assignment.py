"""Linear and quadratic assignment: an O(N^3) shortest-augmenting-path
LAP solver (Jonker-Volgenant column-reduction warm start, Dijkstra paths
with lazy dual updates as in Crouse 2016), exhaustive oracles with size
guards, and matching accuracy.

Tie-break contract: among equally optimal assignments both the solver
and the oracles return the lexicographically smallest permutation, so
equality tests between them can be exact. The solver's duals certify
every optimal assignment; when their tight graph has no alternating
cycle the optimum is unique, otherwise one iterative pass of
alternating-cycle rotations refines the matching. The oracles score
permutations in lexicographic order, in blocks of at most 7! rows. The
tables of all permutations are cached as read-only uint8 arrays up to
n = 8 (8! rows, 322 KB), and for n <= 8 each block is a view of one;
n = 9 and 10 fix a prefix per block and permute the rest by the 7! table.
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
_BLOCK_M = 7
_BLOCK_ROWS = math.factorial(_BLOCK_M)


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
    boolean, which a cast would read as 0 or 1."""
    raw = np.asarray(values).reshape(-1)
    if raw.dtype.kind in "iu":
        return raw.astype(np.intp, copy=False)
    with np.errstate(invalid="ignore"):  # NaN and Inf fail the equality below
        idx = raw.astype(np.intp)
    if raw.dtype.kind == "b" or not np.array_equal(idx, raw):
        raise ContractError(f"indices must be integers, got {values!r}")
    return idx


def _check_perm(perm, n: int) -> Array:
    p = _as_indices(perm)
    if p.shape[0] != n or not np.array_equal(np.sort(p), np.arange(n)):
        raise ContractError(f"expected a permutation of 0..{n - 1}, got {perm!r}")
    return p


def lap_cost(s: Array, perm: Array) -> float:
    """Linear assignment cost, summed in row order. Shared by the solver
    and the oracle so agreed permutations give bitwise-equal costs."""
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
    """All permutations of range(n) in lexicographic order, in blocks of
    at most 7! rows. For n <= 8 the blocks are read-only views of
    consecutive rows of the cached uint8 table. For n = 9 and 10 each
    block is built: it fixes one prefix of length n - 7 and permutes the
    remaining values, taken in ascending order, by the 7! table."""
    if n <= _TABLE_MAX:
        table = _lex_table(n)
        for start in range(0, len(table), _BLOCK_ROWS):
            yield table[start:start + _BLOCK_ROWS]
        return
    table = _lex_table(_BLOCK_M)
    for head in itertools.permutations(range(n), n - _BLOCK_M):
        block = np.empty((len(table), n), dtype=np.intp)
        block[:, :n - _BLOCK_M] = head
        block[:, n - _BLOCK_M:] = np.delete(np.arange(n), head)[table]
        yield block


def brute_force_lap(s, sense: str = "min") -> Assignment:
    """Exhaustive LAP oracle (N <= 10). Same tie-break as solve_lap:
    permutations are scored in lexicographic order, in blocks of at most
    7! rows from a cached table; the first optimum of a block is kept and
    only strict improvements replace the incumbent. Each block's costs
    are gathered from the flattened matrix and summed along the row."""
    a = _check_square(s, "brute_force_lap")
    _check_sense(sense)
    n = a.shape[0]
    if n > BRUTE_FORCE_LAP_MAX:
        raise SizeGuardError(f"brute_force_lap: N={n} exceeds {BRUTE_FORCE_LAP_MAX}")
    flat = a.ravel()
    row_offsets = np.arange(n) * n
    best_cost = None
    best_perm = None
    for block in _perm_blocks(n):
        costs = np.take(flat, block + row_offsets).sum(axis=1)
        k = int(np.argmin(costs)) if sense == "min" else int(np.argmax(costs))
        c = costs[k]
        if best_cost is None or (c < best_cost if sense == "min" else c > best_cost):
            best_cost = c
            best_perm = block[k].copy()
    return Assignment(
        perm=tuple(int(j) for j in best_perm), cost=lap_cost(a, best_perm)
    )


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
