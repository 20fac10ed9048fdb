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
dual updates as in Crouse 2016. In the benchmark's ``lap`` workload at
seed 1 (720 training solves at n = 32, one-to-one margin loss), column
reduction leaves 11.3 of the 32 rows free on average; the reduction pass
takes 63.2 steps and leaves 0.35, and 128 of the 720 solves stop at the
4 n cap. In its ``qare`` workload at seed 1, both n = 128 evaluation
solves stop at the 512-step cap and leave 30 and 27 rows to the Dijkstra
phase. The matching is kept in one form, Python int lists, from the
column reduction to the returned permutation, which becomes an intp
array once: at these sizes numpy scalar indexing, not arithmetic, is
what a step would otherwise cost. A warm start that leaves no row free
returns at once, without the Dijkstra phase's set-up: that holds in
82 % of the ``lap`` workload's solves and in nearly all Gaussian solves
at n <= 8.

Tie-break contract: among equally optimal assignments both the solver
and the oracles return the lexicographically smallest permutation, so
equality tests between them can be exact. The solver's duals certify
every optimal assignment. When their tight graph has no alternating
cycle the optimum is unique, which a topological sort of the tight
edges off the matching decides; otherwise one iterative pass of
alternating-cycle rotations refines the matching.

Both oracles enumerate all n! permutations and take n <= 8. The LAP
oracle ranks permutations by their ``lap_cost`` bits. Up to n = 5, 120
permutations, it ranks every one outright. From n = 6 on it splits the
rows in two halves at h = n // 2 and scores every permutation as the
sum of two running sums: of rows 0..h-1 along its length-h prefix, and
of the other rows along its arrangement of the columns that the prefix
leaves. Rounded addition is monotone, so the smallest score is the
smallest over prefixes of the prefix's sum plus its best completion,
found without forming the n! scores. The completions of every prefix
within a rounding bound of it are then re-ranked by ``lap_cost``; one
scalar test on the row maxima first rules out overflow, and where it
fails every permutation is ranked by ``lap_cost`` (see
``brute_force_lap``). The QAP oracle scores permutations in
lexicographic order, in blocks of at most 7! rows, each block as one
gather of S_B's flat entries at every permutation's pairs and one
matrix-vector product with S_A's. The table of all permutations of n is
cached as a read-only uint8 array (8! rows, 322 KB at n = 8), the QAP
oracle's pair index as a read-only intp array up to n = 7 (1.98 MB at
n = 7), and the LAP oracle's half tables as read-only intp arrays (64 KB
at n = 8); all are built on first use.
"""

from __future__ import annotations

import collections
import functools
import itertools
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
# blocks of at most 7! = 5040 rows keep brute_force_qap's (M, n^2) pair
# index and gather near 2.6 MB each at n = 8
_BLOCK_ROWS = math.factorial(7)
# brute_force_lap meets in the middle from n = 6 on; up to 5! = 120
# permutations, ranking each by its lap_cost outright costs less than the
# split tables and the rounding window
_SPLIT_MIN_N = 6
_FLOAT_MAX = np.finfo(np.float64).max
_INTP = np.iinfo(np.intp)
_UNIT_ROUNDOFF = np.finfo(np.float64).eps / 2


@dataclass(frozen=True)
class Assignment:
    perm: Tuple[int, ...]  # perm[i] = column assigned to row i
    cost: float


def _check_square(s, name: str) -> Array:
    a = np.asarray(s, dtype=np.float64)
    if a.ndim != 2 or a.shape[0] != a.shape[1] or a.shape[0] == 0:
        raise ShapeError(f"{name}: expected a nonempty square matrix, got {a.shape}")
    if not np.isfinite(a).all():
        raise EvaluationError(f"{name}: matrix contains NaN or Inf")
    return a


def _check_sense(sense: str) -> str:
    if sense not in ("min", "max"):
        raise ContractError(f"sense must be 'min' or 'max', got {sense!r}")
    return sense


def _as_indices(values) -> Array:
    """``values``, a one-dimensional integer array or sequence of ints,
    as intp. ContractError on any other shape, a scalar or a ragged
    sequence included; on input that numpy does not read as integers
    (floats, integral or not, and Python ints beyond int64, which it
    reads as floats or objects), on a boolean, which a cast would read
    as 0 or 1, and on a uint64 above the intp maximum, which a cast
    would wrap to a negative. A sequence that mixes booleans with
    integers converts to an integer array, so the entries of anything
    but an ndarray of a non-object dtype are checked for booleans as
    objects; such an ndarray holds no Python bool, and the dtype test
    rejects a boolean one. An empty sequence, which numpy reads as
    float64, has no entry to reject."""
    if (not isinstance(values, np.ndarray) or values.dtype == object) and any(
            isinstance(v, (bool, np.bool_))
            for v in np.asarray(values, dtype=object).reshape(-1)):
        raise ContractError(f"indices must be integers, got {values!r}")
    try:
        raw = np.asarray(values)
    except ValueError:  # a ragged sequence
        raw = None
    if raw is None or raw.ndim != 1:
        raise ContractError(f"indices must be one-dimensional, got {values!r}")
    if raw.dtype.kind not in "iu" and raw.size:
        raise ContractError(f"indices must be integers, got {values!r}")
    if not np.can_cast(raw.dtype, np.intp) and raw.size and (
            int(raw.max()) > _INTP.max or int(raw.min()) < _INTP.min):
        raise ContractError(
            f"indices must be integers in the intp range, got {values!r}")
    return raw.astype(np.intp, copy=False)


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


def _warm_start(a: Array):
    """The warm start of Jonker & Volgenant (1987): (v, col4row,
    row4col), the column duals and the matching as Python int lists, -1
    marking an unmatched row or column.

    Column reduction sets v to the column minima and matches each column,
    in ascending order, to its first argmin row while that row is free,
    so a row that is the first argmin of several columns takes the first
    of them. One augmenting row reduction pass then takes the free rows
    from a queue, in ascending order at first. Each step finds the row's
    smallest and second smallest reduced costs ``a[i] - v``, at columns
    j1 and j2 (first indices on ties). On a strict gap the row lowers
    v[j1] by the gap and takes j1; the row it displaces goes to the front
    of the queue, since it lost its column by a margin. On a tie the row
    takes j1 if it is free and j2 otherwise; the row it displaces goes to
    the back. Either way the row's smallest reduced cost is at its new
    column, and v only falls, which raises the reduced costs of every
    other row, so each matched row keeps u[i] = a[i, col] - v[col] as a
    feasible dual. Ties can pass a column round forever (a constant
    matrix does), so the pass stops after ``_ARR_STEPS_PER_ROW * n``
    steps with the queue's rows still free.

    The two reduced costs are read as Python floats with ``item``: a
    step's bookkeeping is plain Python, and its numpy work is the row,
    two argmins and the dual update.
    """
    n = a.shape[0]
    v = a.min(axis=0)
    col4row = [-1] * n
    row4col = [-1] * n
    for j, i in enumerate(a.argmin(axis=0).tolist()):
        if col4row[i] < 0:
            col4row[i] = j
            row4col[j] = i
    queue = collections.deque(i for i, j in enumerate(col4row) if j < 0)
    for _ in range(_ARR_STEPS_PER_ROW * n):
        if not queue:
            break
        i = queue.popleft()
        r = a[i] - v
        j1 = int(r.argmin())
        umin = r.item(j1)
        r[j1] = np.inf
        j2 = int(r.argmin())
        usubmin = r.item(j2)
        gap = umin < usubmin
        j = j1 if gap or row4col[j1] < 0 else j2
        if gap:
            v[j1] -= usubmin - umin
        displaced = row4col[j]
        col4row[i] = j
        row4col[j] = i
        if displaced >= 0:
            col4row[displaced] = -1
            if gap:
                queue.appendleft(displaced)
            else:
                queue.append(displaced)
    return v, col4row, row4col


def _hungarian(a: Array):
    """Shortest augmenting paths with the column-reduction and augmenting
    row reduction warm start (Jonker & Volgenant 1987; Crouse 2016, "On
    implementing 2D rectangular assignment algorithms"), minimization.
    Returns (perm, row_duals, col_duals) with a - u - v >= 0 everywhere
    and = 0 on matched edges.

    ``_warm_start`` gives v and a partial matching; each matched row
    takes u[i] = a[i, col] - v[col] and each free row u[i] = 0. Each row
    still free then grows one Dijkstra tree over reduced costs to the
    nearest free column, a column j with row4col[j] < 0; the duals are
    updated lazily, once per path, from the final distances of the
    scanned columns. The matching stays in the warm start's int lists
    throughout, the duals, distances and predecessors are read as Python
    scalars with ``item``, and the permutation becomes an intp array
    once, on return. The numpy work of a scan is the row's reduced
    costs, the distance update and two argmins; of a path, the dual
    update over its scanned columns. When the warm start leaves no row
    free there is no path to grow, and the warm start's matching and
    duals are returned before the Dijkstra phase builds its arrays.
    """
    n = a.shape[0]
    v, col4row, row4col = _warm_start(a)
    warm = np.array(col4row, dtype=np.intp)
    if -1 not in col4row:  # no row left free: no path to grow
        return warm, a[np.arange(n), warm] - v[warm], v
    rows = np.flatnonzero(warm >= 0)
    u = np.zeros(n)
    u[rows] = a[rows, warm[rows]] - v[warm[rows]]
    # each path ends at one of these
    free_cols = np.array([j for j, i in enumerate(row4col) if i < 0], dtype=np.intp)
    # final distance and predecessor row of each column, shared by every
    # path: a path reads only the entries it has written itself
    shortest = np.empty(n)
    path = np.empty(n, dtype=np.intp)
    for cur in [i for i, j in enumerate(col4row) if j < 0]:
        key = np.full(n, np.inf)  # tentative distance of unscanned columns
        w = v.copy()              # -inf on scanned columns: r reads +inf
        scanned = []
        i, minval = cur, 0.0
        while True:
            r = a[i] - w
            r += minval - u.item(i)
            better = r < key
            np.minimum(key, r, out=key)
            path[better] = i
            j = int(key.argmin())
            minval = key.item(j)
            # among equal distances prefer a free column: the path ends
            k = int(free_cols[key[free_cols].argmin()])
            if key.item(k) <= minval:
                j = k
            shortest[j] = minval
            key[j] = np.inf
            w[j] = -np.inf
            if row4col[j] < 0:
                break
            scanned.append(j)
            i = row4col[j]
        # lazy dual update over the scanned matched columns and their rows
        seen = np.array(scanned, dtype=np.intp)
        owners = np.array([row4col[j] for j in scanned], dtype=np.intp)
        delta = minval - shortest[seen]
        u[cur] += minval
        u[owners] += delta
        v[seen] -= delta
        free_cols = free_cols[free_cols != j]
        # flip the path back to cur, whose old column -1 ends the walk
        while j >= 0:
            i = path.item(j)
            row4col[j] = i
            col4row[i], j = j, col4row[i]
    return np.array(col4row, dtype=np.intp), u, v


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


def _lex_refine(a: Array, perm: Array, u: Array, v: Array,
                scale: float) -> Array:
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
    only when a cycle exists and the pass runs. A reduced cost counts as
    tight up to a tolerance relative to ``scale``, the largest |a|.
    """
    n = a.shape[0]
    tol = 1e-9 * max(1.0, scale)
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
    """Optimal linear assignment of a square cost/score matrix.

    EvaluationError, before any arithmetic, when 8 n max|a| overflows.
    With M = max|a|, every value the solver forms lies within 8M and
    every ``lap_cost`` within nM. v starts at the column minima and only
    falls, and a column's v falls only while or as the column is
    matched, so a free column keeps v >= -M. While a row is free a column
    is too, and each matched row's dual, its smallest reduced cost
    a[i, col] - v[col], is at most 2M there; so u lies in [-2M, 2M], v
    in [-3M, M] and the reduced costs a - v in [0, 4M]. A reduction step
    lowers v by at most 4M; when it matches the last free row it leaves
    u <= 4M and v >= -5M. An augmenting path is no longer than its row's
    reduced cost at a free column, 2M, so each tentative distance
    (a[i] - v) + (minval - u[i]) lies in [-2M, 8M], and the refinement's
    reduced costs (a - u) - v in [-6M, 8M]. Past the bound a reduced
    cost can overflow, and the matching is then wrong or the solve
    fails."""
    a = _check_square(s, "solve_lap")
    _check_sense(sense)
    scale = float(np.abs(a).max())
    if scale > _FLOAT_MAX / (8 * len(a)):
        raise EvaluationError(f"solve_lap: entries up to {scale:.6g} in magnitude "
                              "overflow the duals; 8 n max|a| must be finite")
    work = a if sense == "min" else -a
    perm, u, v = _hungarian(work)
    perm = _lex_refine(work, perm, u, v, scale)
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


def _pair_index(block: Array, n: int) -> Array:
    """The flat index p_i n + p_j of each pair (i, j) of each permutation
    p, a row of ``block``, in an n x n matrix: an (M, n^2) intp array."""
    b = block.astype(np.intp)
    return (b[:, :, None] * n + b[:, None, :]).reshape(len(b), n * n)


@functools.lru_cache(maxsize=None)
def _pair_table(n: int) -> Array:
    """``_pair_index`` of the whole table of range(n), n <= 7, where it is
    one block: read-only, 207 KB at n = 6 and 1.98 MB at n = 7."""
    pairs = _pair_index(_lex_table(n), n)
    pairs.setflags(write=False)
    return pairs


def _perm_blocks(n: int):
    """All permutations of range(n) for the QAP oracle, n <= 8, in
    lexicographic order, as (block, pairs): read-only views of at most 7!
    consecutive rows of the cached uint8 table and their pair index. A
    table of one block takes its cached pair index; the eight blocks of
    n = 8 build theirs as they go, since a cached one would hold 20.6 MB.
    An index built on every call would cost more than the gather it
    feeds: at n = 6 a call would then take about 2.5 times as long."""
    table = _lex_table(n)
    for start in range(0, len(table), _BLOCK_ROWS):
        block = table[start:start + _BLOCK_ROWS]
        if len(block) == len(table):
            yield block, _pair_table(n)
        else:
            yield block, _pair_index(block, n)


def _lex_levels(m: int, depth: int) -> Tuple[Array, ...]:
    """The first ``depth`` prefix levels of ``_lex_table(m)``: level k
    holds the column that row k takes in each length-(k + 1) prefix, in
    lexicographic order, as intp. Each such prefix spans (m - k - 1)!
    consecutive rows of the table, so level k is every (m - k - 1)!-th
    entry of column k."""
    table = _lex_table(m)
    return tuple(table[::math.factorial(m - k - 1), k].astype(np.intp)
                 for k in range(depth))


@functools.lru_cache(maxsize=None)
def _split_tables(n: int) -> Tuple[Tuple[Array, ...], Tuple[Array, ...], Array]:
    """``brute_force_lap``'s tables for the rows of an n x n matrix split
    at h = n // 2, read-only intp arrays built on first use:

    - the prefix levels: the first h levels of ``_lex_table(n)``, whose
      last has one entry per length-h prefix p, n! / m! of them, where
      m = n - h;
    - the suffix levels: row s of level k holds the column that row h + k
      takes in each length-(k + 1) prefix of the arrangements of the s-th
      m-subset of range(n), subsets in ``itertools.combinations`` order and
      arrangements in lexicographic order; it is the subset read at level
      k of ``_lex_table(m)``, since reading through a sorted subset keeps
      lexicographic order;
    - comp: comp[p], the index of the subset of columns that prefix p
      leaves free.

    The rows of ``_lex_table(n)`` that share a length-h prefix are
    consecutive and ordered by their suffixes, so row p m! + c is prefix
    p completed by arrangement c of subset comp[p]. At n = 8 the tables
    hold 1680 prefixes and 70 subsets of 24 arrangements, about 64 KB."""
    h, m = n // 2, n - n // 2
    prefix = _lex_levels(n, h)
    subsets = np.array(list(itertools.combinations(range(n), m)), dtype=np.intp)
    suffix = tuple(subsets[:, level] for level in _lex_levels(m, m))
    # a set of columns as a bit mask; a prefix frees the columns it skips
    index = np.empty(1 << n, dtype=np.intp)
    index[(1 << subsets).sum(axis=1)] = np.arange(len(subsets))
    used = _lex_table(n)[::math.factorial(m), :h].astype(np.intp)
    comp = index[(1 << n) - 1 - (1 << used).sum(axis=1)]
    for level in (*prefix, *suffix, comp):
        level.setflags(write=False)
    return prefix, suffix, comp


def _running_sums(costs: Array, tail: Array, levels: Tuple[Array, ...]) -> Array:
    """The running sums of every completion of each prefix whose cost is
    in ``costs``, along its last axis: row k of ``tail`` adds its entry
    at each completion's column of level k, in lexicographic order, one
    level at a time. Level k has the shape of ``costs`` after k levels,
    times the completions of each running sum on the last axis. Each
    level adds the running sums into its fresh gather of the row, in
    place; the sum of two doubles does not depend on the order of its
    operands, so this gives the bits of ``(costs[..., None] +
    row[level].reshape(*costs.shape, -1)).reshape(*costs.shape[:-1],
    -1)``."""
    for row, level in zip(tail, levels):
        step = row[level].reshape(*costs.shape, -1)
        step += costs[..., None]
        costs = step.reshape(*costs.shape[:-1], -1)
    return costs


def brute_force_lap(s, sense: str = "min") -> Assignment:
    """Exhaustive LAP oracle (N <= 8), ranked by ``lap_cost`` with the
    same tie-break as solve_lap: the lexicographically first optimum.

    Below n = 6 (``_SPLIT_MIN_N``), at most 5! = 120 permutations, every
    permutation of the table is ranked by ``lap_cost`` outright: that
    costs less than the split tables and the rounding window. From n = 6
    on, permutations are scored by meeting in the middle (Horowitz &
    Sahni 1974), with the rows split at h = n // 2 and m = n - h.
    heads[p] is the running sum of rows 0..h-1 along the p-th length-h
    prefix in lexicographic order, and tails[s, c] that of rows h..n-1
    along the c-th arrangement of the s-th m-subset of columns
    (``_split_tables``, ``_running_sums``). Permutation p m! + c of
    ``_lex_table(n)`` is prefix p completed by arrangement c of its
    free columns comp[p], and its split sum is
    fl(heads[p] + tails[comp[p], c]). Rounded addition
    is monotone, so the smallest split sum among the completions of p is
    lows[p] = fl(heads[p] + min_c tails[comp[p], c]), and the smallest of
    all, c*, is the least of the lows: no n!-long array is formed.

    A split sum adds the entries of a permutation along a binary tree,
    while ``lap_cost`` uses numpy's pairwise sum, so the two can differ
    in the last bits. Any summation order of the n terms x_i of one
    permutation lies within gamma_{n-1} * sum_i |x_i| of the exact sum,
    where gamma_k = k u / (1 - k u) and u is the unit roundoff, so two
    orders differ by at most D = 2 gamma_{n-1} R with R = sum_i max_j
    |a_ij|. If q has the smallest split sum c* and p is any ``lap_cost``
    optimum, then split(p) <= lap(p) + D <= lap(q) + D <= c* + 2 D, and
    the lows of p's prefix is at most split(p). So every completion of
    every prefix whose lows lies within 2 D of c* is re-ranked by its
    ``lap_cost`` bits, in lexicographic order, and the first exact
    optimum is kept; the window uses gamma_n, whose spare 4 u R covers
    the rounding of R and of c* + 2 D. The max sense minimizes the
    negated matrix, whose sums are the exact negations of the original
    ones.

    The bound assumes that no sum overflows, which one scalar test
    settles before any sum is formed. Let R' be R summed in floats: its
    terms are non-negative, so R <= R' / (1 - u)^(n-1). While no addition
    has overflowed, a computed sum of k terms of one permutation, in any
    order, is at most (1 + u)^(k-1) times the sum of their magnitudes, by
    induction over the additions; so every exact sum that an addition
    rounds is at most (1 + u)^(n-2) R < (1 + 2 n u) R' in magnitude. If
    fl(R' (1 + 4 gamma_n)) is finite, then R' (1 + 4 gamma_n) lies below
    the overflow threshold, and so does (1 + 2 n u) R', which the
    rounding of the factor and of the product cannot lift above it. So
    no addition overflows, and no split sum, ``lap_cost`` or re-ranked
    sum is infinite or NaN; a limit c* + window that still rounds to
    +inf admits every prefix. Otherwise, as for entries near the
    largest double, every permutation is re-ranked by ``lap_cost``
    outright, with numpy's overflow warnings off, and EvaluationError is
    raised when one of those sums is not finite, since the ranking is
    then meaningless. R is summed as Python floats, which overflow to
    inf without a numpy warning."""
    a = _check_square(s, "brute_force_lap")
    _check_sense(sense)
    n = a.shape[0]
    if n > BRUTE_FORCE_LAP_MAX:
        raise SizeGuardError(f"brute_force_lap: N={n} exceeds {BRUTE_FORCE_LAP_MAX}")
    work = a if sense == "min" else -a
    gamma = n * _UNIT_ROUNDOFF / (1 - n * _UNIT_ROUNDOFF)
    r = sum(np.abs(a).max(axis=1).tolist())
    rows = np.arange(n)
    perms = _lex_table(n)
    bounded = math.isfinite(r * (1 + 4 * gamma))
    if bounded and n >= _SPLIT_MIN_N:
        prefix, suffix, comp = _split_tables(n)
        h = n // 2
        heads = _running_sums(np.zeros(1), work[:h], prefix)
        tails = _running_sums(work[h][suffix[0]], work[h + 1:], suffix[1:])
        lows = heads + tails.min(axis=1)[comp]
        limit = lows.min().item() + 4 * gamma * r
        perms = perms.reshape(len(comp), -1, n)[lows <= limit].reshape(-1, n)
    if bounded:
        # row sums along the last axis are lap_cost's sums, bit for bit
        exact = work[rows, perms].sum(axis=1)
    else:
        with np.errstate(over="ignore", invalid="ignore"):
            exact = work[rows, perms].sum(axis=1)
        if not np.isfinite(exact).all():
            raise EvaluationError("brute_force_lap: lap_cost overflows, so the "
                                  "permutations cannot be ranked")
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
    return _qap_cost(a, fa, fb, _check_perm(perm, n))


def _qap_cost(a: Array, fa: Array, fb: Array, p: Array) -> float:
    """``qap_objective`` of checked matrices and a checked permutation."""
    return lap_cost(a, p) + float(np.einsum("ij,ij->", fa, fb[np.ix_(p, p)]))


def brute_force_qap(s, s_a, s_b, sense: str = "min") -> Assignment:
    """Exhaustive QAP oracle (N <= 8), lexicographic tie-break.

    Each block of ``_perm_blocks`` scores its permutations p as the
    linear term, each row's sum of S[i, p(i)], plus S_B's flat entries
    gathered at the pair index p(i) n + p(j), an (M, n^2) array, times
    S_A's flat entries: one matrix-vector product, the reshape and dot
    that ``np.tensordot`` of the (M, n, n) gather with S_A would form, so
    the costs keep those bits. The first best cost of a block, and the
    first best block, win. The returned cost is ``qap_objective``'s
    arithmetic on the permutation, which the table makes valid, so it is
    not checked again."""
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
    flat_a, flat_b = fa.reshape(-1), fb.reshape(-1)
    best_cost = None
    best_perm = None
    for block, pairs in _perm_blocks(n):
        linear = a[rows[None, :], block].sum(axis=1)
        costs = linear + flat_b[pairs] @ flat_a
        k = int(np.argmin(costs)) if sense == "min" else int(np.argmax(costs))
        c = costs[k]
        if best_cost is None or (c < best_cost if sense == "min" else c > best_cost):
            best_cost = c
            best_perm = block[k].copy()
    return Assignment(perm=tuple(best_perm.tolist()),
                      cost=_qap_cost(a, fa, fb, best_perm))


def matching_accuracy(s, gt_perm) -> float:
    """Fraction of rows whose LAP-optimal column (min sense) agrees with
    the ground-truth alignment."""
    a = _check_square(s, "matching_accuracy")
    gt = _check_perm(gt_perm, a.shape[0])
    found = np.asarray(solve_lap(a, "min").perm, dtype=np.intp)
    return float(np.mean(found == gt))
