"""Linear and quadratic assignment: an O(N^3) shortest-augmenting-path
LAP solver, exhaustive oracles with size guards, and matching accuracy.

The solver runs in three phases (Jonker & Volgenant 1987). Column
reduction sets each column's dual to its minimum and matches it to its
first argmin row. One augmenting row reduction pass then matches most
of the rows left free: each takes its cheapest reduced column, lowering
that column's dual by its gap to the second cheapest, and may displace
the column's owner back into the queue. Ties can pass a column round
forever, so the pass stops after a fixed ``4 n`` steps. Each row still
free then grows a Dijkstra tree to the nearest free column, with lazy
dual updates as in Crouse 2016. On the n = 32 solves of training with
the one-to-one margin loss, column reduction leaves about 11 of the 32
rows free, and the reduction pass about 0.6 on average. Both warm start
phases keep the matching in Python int lists while they run and write it
to arrays once: at these sizes numpy scalar indexing, not arithmetic, is
what a step would otherwise cost.

Tie-break contract: among equally optimal assignments both the solver
and the oracles return the lexicographically smallest permutation, so
equality tests between them can be exact. The solver's duals certify
every optimal assignment. When their tight graph has no alternating
cycle the optimum is unique, which a topological sort of the tight
edges off the matching decides; otherwise one iterative pass of
alternating-cycle rotations refines the matching.

Both oracles enumerate all n! permutations and take n <= 8. The LAP
oracle ranks permutations by their ``lap_cost`` bits. It scores all of
them by prefix sums shared along the lexicographic order, one row per
level, and re-ranks by ``lap_cost`` the few whose running sum lies
within a rounding bound of the smallest (see ``brute_force_lap``). The
QAP oracle scores permutations in lexicographic order, in blocks of at
most 7! rows. The table of all permutations of n is cached as a
read-only uint8 array (8! rows, 322 KB at n = 8), and the LAP oracle's
prefix levels as read-only intp arrays read off it; both are built on
first use.
"""

from __future__ import annotations

import collections
import functools
import math
from dataclasses import dataclass
from typing import Tuple

import numpy as np

from .errors import ContractError, EvaluationError, ShapeError, SizeGuardError

Array = np.ndarray

BRUTE_FORCE_LAP_MAX = 8
BRUTE_FORCE_QAP_MAX = 8
# augmenting row reduction steps per row before the Dijkstra phase takes over
_ARR_STEPS_PER_ROW = 4
# blocks of at most 7! = 5040 rows keep the (M, n, n) gather of
# brute_force_qap near 2.6 MB at n = 8
_BLOCK_ROWS = math.factorial(7)
_INTP = np.iinfo(np.intp)


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
    boolean, which a cast would read as 0 or 1, and on an integer outside
    the intp range. A sequence that mixes booleans with integers converts
    to an integer array, so the entries are checked for booleans as
    objects, whatever the input type."""
    if any(isinstance(v, (bool, np.bool_))
           for v in np.asarray(values, dtype=object).reshape(-1)):
        raise ContractError(f"indices must be integers, got {values!r}")
    raw = np.asarray(values).reshape(-1)
    if raw.dtype.kind in "iu":
        # a cast would wrap a uint64 above the intp maximum to a negative
        if not np.can_cast(raw.dtype, np.intp) and raw.size and (
                int(raw.max()) > _INTP.max or int(raw.min()) < _INTP.min):
            raise ContractError(
                f"indices must be integers in the intp range, got {values!r}")
        return raw.astype(np.intp, copy=False)
    try:
        with np.errstate(invalid="ignore"):  # NaN and Inf fail the equality below
            idx = raw.astype(np.intp)
    except OverflowError:  # a Python int outside intp, held as an object
        raise ContractError(
            f"indices must be integers in the intp range, got {values!r}") from None
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


def _column_reduction(a: Array):
    """The first warm start phase: (v, col4row, row4col) with v the
    column minima and each column matched to its first argmin row while
    that row is free; -1 marks an unmatched row or column.

    The columns are visited in ascending order, so a row that is the
    first argmin of several columns takes the first of them. The matching
    is built in Python int lists and written to arrays once."""
    n = a.shape[0]
    v = a.min(axis=0)
    col4row = [-1] * n
    row4col = [-1] * n
    for j, i in enumerate(a.argmin(axis=0).tolist()):
        if col4row[i] < 0:
            col4row[i] = j
            row4col[j] = i
    return v, np.array(col4row, dtype=np.intp), np.array(row4col, dtype=np.intp)


def _augmenting_row_reduction(a: Array, v: Array, col4row: Array,
                              row4col: Array) -> int:
    """One augmenting row reduction pass (Jonker & Volgenant 1987) over
    the free rows, in place on ``v`` and the matching. Returns the number
    of steps taken.

    Each step takes the row at the front of a queue of free rows, in
    ascending order at first, and finds its smallest and second smallest
    reduced costs ``a[i] - v``, at columns j1 and j2 (first indices on
    ties). On a strict gap the row lowers v[j1] by the gap and takes j1;
    the row it displaces goes to the front of the queue, since it lost
    its column by a margin. On a tie the row takes j1 if it is free and
    j2 otherwise; the row it displaces goes to the back. Either way the
    row's smallest reduced cost is at its new column, and v only falls,
    which raises the reduced costs of every other row, so each matched
    row keeps u[i] = a[i, col] - v[col] as a feasible dual. Ties can
    pass a column round forever (a constant matrix does), so the pass
    stops after ``_ARR_STEPS_PER_ROW * n`` steps with the queue's rows
    still free.

    The matching is read into Python int lists at the start and written
    back to ``col4row`` and ``row4col`` once at the end, and the two
    reduced costs are read as Python floats with ``item``: a step's
    bookkeeping is plain Python, and its numpy work is the row, two
    argmins and the dual update.
    """
    n = a.shape[0]
    c4r = col4row.tolist()
    r4c = row4col.tolist()
    queue = collections.deque(i for i, j in enumerate(c4r) if j < 0)
    limit = _ARR_STEPS_PER_ROW * n
    steps = 0
    while queue and steps < limit:
        steps += 1
        i = queue.popleft()
        r = a[i] - v
        j1 = int(r.argmin())
        umin = r.item(j1)
        r[j1] = np.inf
        j2 = int(r.argmin())
        usubmin = r.item(j2)
        gap = umin < usubmin
        if gap:
            v[j1] -= usubmin - umin
            j = j1
        else:
            j = j1 if r4c[j1] < 0 else j2
        displaced = r4c[j]
        c4r[i] = j
        r4c[j] = i
        if displaced >= 0:
            c4r[displaced] = -1
            if gap:
                queue.appendleft(displaced)
            else:
                queue.append(displaced)
    col4row[:] = c4r
    row4col[:] = r4c
    return steps


def _hungarian(a: Array):
    """Shortest augmenting paths with a column-reduction and augmenting
    row reduction warm start (Jonker & Volgenant 1987; Crouse 2016, "On
    implementing 2D rectangular assignment algorithms"), minimization.
    Returns (perm, row_duals, col_duals) with a - u - v >= 0 everywhere
    and = 0 on matched edges.

    Three phases. Column reduction sets v to the column minima and gives
    each column its first argmin row while that row is free. One
    augmenting row reduction pass (``_augmenting_row_reduction``, at
    most ``_ARR_STEPS_PER_ROW * n`` steps) then matches most of the rows
    left free, lowering v; each matched row takes u[i] = a[i, col] -
    v[col] and each free row u[i] = 0. Each row still free then grows
    one Dijkstra tree over reduced costs to the nearest free column; the
    duals are updated lazily, once per path, from the final distances of
    the scanned columns.
    """
    n = a.shape[0]
    v, col4row, row4col = _column_reduction(a)
    _augmenting_row_reduction(a, v, col4row, row4col)
    u = np.zeros(n)
    matched = np.flatnonzero(col4row >= 0)
    u[matched] = a[matched, col4row[matched]] - v[col4row[matched]]
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


def _is_acyclic(n: int, src, dst) -> bool:
    """Whether the digraph on nodes 0..n-1 with edges src[e] -> dst[e]
    has no cycle: Kahn's topological sort removes every node."""
    succ = [[] for _ in range(n)]
    indeg = [0] * n
    for i, k in zip(src, dst):
        succ[i].append(k)
        indeg[k] += 1
    ready = [k for k in range(n) if indeg[k] == 0]
    removed = 0
    while ready:
        i = ready.pop()
        removed += 1
        for k in succ[i]:
            indeg[k] -= 1
            if indeg[k] == 0:
                ready.append(k)
    return removed == n


def _lex_refine(a: Array, perm: Array, u: Array, v: Array) -> Array:
    """Among optimal assignments pick the lexicographically smallest.

    Works on the tight graph (zero reduced cost edges, plus the solver's
    matching), where the perfect matchings are the optimal assignments.
    One iterative pass fixes rows in order. A tight edge is in some
    perfect matching exactly when it is matched or on an alternating
    cycle, so row i takes the smallest tight column whose owner reaches
    i along alternating edges through unfixed rows, and the matching is
    rotated along that cycle.

    Most optima are unique, so the pass is skipped when the tight graph
    has no alternating cycle. These are the cycles of the digraph with
    an edge row i -> row k when i can take k's column off the matching,
    so the test is Kahn's topological sort of that digraph, read from
    the tight entries of ``a[:, perm]``. The full tight matrix is built
    only when a cycle exists and the pass runs.
    """
    n = a.shape[0]
    tol = 1e-9 * max(1.0, float(np.abs(a).max()))
    # g[i, k]: row i can take row k's column, the same bits as the
    # tight matrix's column perm[k]; the matching itself is no edge
    g = (a[:, perm] - u[:, None] - v[perm]) <= tol
    rows = np.arange(n)
    g[rows, rows] = False
    src, dst = np.nonzero(g)
    if _is_acyclic(n, src.tolist(), dst.tolist()):
        return perm
    tight = (a - u[:, None] - v[None, :]) <= tol
    tight[rows, perm] = True
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
    """All permutations of range(n) for the QAP oracle, n <= 8, in
    lexicographic order, as read-only views of at most 7! consecutive
    rows of the cached uint8 table."""
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


def _running_sums(costs: Array, tail: Array, levels: Tuple[Array, ...]) -> Array:
    """The running sums of every completion of a prefix whose cost is
    ``costs``, shape (1,): row k of ``tail`` adds its entry at each
    completion's column of level k, in lexicographic order, one level at
    a time. Each level adds the running sums into its fresh gather of
    the row, in place; the sum of two doubles does not depend on the
    order of its operands, so this gives the bits of
    ``(costs[:, None] + row[level]).ravel()``."""
    for row, level in zip(tail, levels):
        step = row[level].reshape(costs.size, -1)
        step += costs[:, None]
        costs = step.ravel()
    return costs


def brute_force_lap(s, sense: str = "min") -> Assignment:
    """Exhaustive LAP oracle (N <= 8), ranked by ``lap_cost`` with the
    same tie-break as solve_lap: the lexicographically first optimum.

    Permutations are scored by shared prefix sums in lexicographic
    order. The costs of all n! permutations build up one row per level,
    ``costs = (costs[:, None] + row[level]).ravel()`` added in place in
    the gather (``_running_sums``), since the completions of one prefix
    form a contiguous run.

    These running sums add the entries one row at a time, while
    ``lap_cost`` uses numpy's pairwise sum, so the two can differ in the
    last bits. Any summation order of the n terms x_i of one permutation
    lies within gamma_{n-1} * sum_i |x_i| of the exact sum, where
    gamma_k = k u / (1 - k u) and u is the unit roundoff, so two orders
    differ by at most D = 2 gamma_{n-1} R with R = sum_i max_j |a_ij|.
    If q has the smallest running sum c and p is any ``lap_cost``
    optimum, then run(p) <= lap(p) + D <= lap(q) + D <= c + 2 D. So
    every permutation whose running sum lies within 2 D of c is
    re-ranked by its ``lap_cost`` bits, and the first exact optimum in
    lexicographic order is kept; the window uses gamma_n, whose spare
    4 u R covers the rounding of R and of c + 2 D. The max sense
    minimizes the negated matrix, whose sums are the exact negations of
    the original ones.

    The bound assumes no sum overflows. When R or a running sum does, as
    for entries near the largest double, the window is infinite and every
    permutation is re-ranked, which is exhaustive ranking by ``lap_cost``
    outright."""
    a = _check_square(s, "brute_force_lap")
    _check_sense(sense)
    n = a.shape[0]
    if n > BRUTE_FORCE_LAP_MAX:
        raise SizeGuardError(f"brute_force_lap: N={n} exceeds {BRUTE_FORCE_LAP_MAX}")
    work = a if sense == "min" else -a
    u = np.finfo(np.float64).eps / 2
    gamma = n * u / (1 - n * u)
    # R and the running sums can overflow where no lap_cost does; an
    # infinite window or running sum re-ranks every permutation
    with np.errstate(over="ignore"):
        window = 4 * gamma * float(np.abs(a).max(axis=1).sum())
        costs = _running_sums(np.zeros(1), work, _lex_levels(n))
        limit = costs.min() + window if np.isfinite(costs).all() else np.inf
    perms = _lex_table(n)[np.flatnonzero(costs <= limit)]
    # row sums along the last axis are lap_cost's sums, bit for bit
    exact = work[np.arange(n), perms].sum(axis=1)
    best = perms[int(np.argmin(exact))]
    return Assignment(perm=tuple(best.tolist()), cost=lap_cost(a, best))


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
