import collections
import inspect
import itertools
import math
import sys
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from setcontrast import assignment
from setcontrast.errors import (
    ContractError, EvaluationError, ShapeError, SizeGuardError)

random_costs = st.tuples(
    st.integers(1, 7), st.integers(0, 2 ** 31 - 1)
).map(lambda t: np.random.default_rng(t[1]).normal(size=(t[0], t[0])))


def enumerate_best(s, sense):
    """Reference optimum: scan all permutations, prefer lexicographically
    smaller on exact cost ties."""
    n = s.shape[0]
    best_perm, best_cost = None, None
    for perm in itertools.permutations(range(n)):
        c = float(s[np.arange(n), perm].sum())
        c = -c if sense == "max" else c
        if best_cost is None or c < best_cost:
            best_perm, best_cost = perm, c
    return best_perm


def mixed_magnitude(rng, n):
    """Entries from {0, +-2^53, 2^52} plus {0, 1, 2}: a permutation's
    entries summed in row order and in numpy's pairwise order often round
    to different costs, so ranking by either picks different optima."""
    big = rng.choice([0.0, 2.0 ** 53, -(2.0 ** 53), 2.0 ** 52], size=(n, n))
    return big + rng.integers(0, 3, size=(n, n))


def lap_cost_optima(s):
    """Reference for both senses: every permutation ranked by lap_cost,
    the first strict optimum in itertools.permutations order wins."""
    perms = list(itertools.permutations(range(s.shape[0])))
    costs = np.array([assignment.lap_cost(s, np.array(p)) for p in perms])
    return {sense: (perms[k], costs[k])
            for sense, k in (("min", np.argmin(costs)),
                             ("max", np.argmax(costs)))}


class TestSolveLap:
    @settings(max_examples=60, deadline=None)
    @given(random_costs)
    def test_agrees_with_enumeration(self, s):
        for sense in ("min", "max"):
            fast = assignment.solve_lap(s, sense)
            slow = assignment.brute_force_lap(s, sense)
            assert fast.cost == slow.cost
            assert fast.perm == slow.perm

    @settings(max_examples=60, deadline=None)
    @given(random_costs)
    def test_returns_valid_permutation_and_consistent_cost(self, s):
        res = assignment.solve_lap(s, "min")
        assert sorted(res.perm) == list(range(s.shape[0]))
        assert res.cost == assignment.lap_cost(s, np.array(res.perm))

    def test_constant_matrix_breaks_ties_to_identity(self):
        s = np.full((5, 5), 3.0)
        for sense in ("min", "max"):
            assert assignment.solve_lap(s, sense).perm == (0, 1, 2, 3, 4)
            assert assignment.brute_force_lap(s, sense).perm == (0, 1, 2, 3, 4)

    def test_tied_block_prefers_lexicographic_perm(self):
        # columns 1 and 2 are duplicates, so two optima exist
        s = np.array([
            [0.0, 5.0, 5.0],
            [9.0, 1.0, 1.0],
            [9.0, 1.0, 1.0],
        ])
        assert assignment.solve_lap(s, "min").perm == (0, 1, 2)

    def test_known_instance(self):
        s = np.array([[4.0, 1.0, 3.0], [2.0, 0.0, 5.0], [3.0, 2.0, 2.0]])
        res = assignment.solve_lap(s, "min")
        assert res.perm == (1, 0, 2)
        assert res.cost == pytest.approx(5.0)

    def test_max_sense_negates(self):
        rng = np.random.default_rng(11)
        s = rng.normal(size=(6, 6))
        hi = assignment.solve_lap(s, "max")
        lo = assignment.solve_lap(-s, "min")
        assert hi.perm == lo.perm
        assert hi.cost == pytest.approx(-lo.cost)

    def test_nonsquare_rejected(self):
        with pytest.raises(ShapeError):
            assignment.solve_lap(np.ones((2, 3)), "min")

    def test_integer_costs_with_many_ties(self):
        # {0,1} and {0,1,2} costs up to n=8 leave many optima, so the
        # tie-break needs rotations along alternating cycles of several hops
        rng = np.random.default_rng(12)
        for _ in range(50):
            n = int(rng.integers(2, 9))
            s = rng.integers(0, int(rng.integers(2, 4)), size=(n, n)).astype(float)
            for sense in ("min", "max"):
                fast = assignment.solve_lap(s, sense)
                slow = assignment.brute_force_lap(s, sense)
                assert fast.cost == slow.cost
                assert fast.perm == slow.perm

    def test_large_tied_instance_needs_no_deep_stack(self):
        # the tie-break must not recurse along augmenting paths: a 128x128
        # {0,1} instance solves with only 40 frames of headroom
        rng = np.random.default_rng(17)
        s = rng.integers(0, 2, size=(128, 128)).astype(float)
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(len(inspect.stack()) + 40)
        try:
            res = assignment.solve_lap(s, "min")
        finally:
            sys.setrecursionlimit(limit)
        assert sorted(res.perm) == list(range(128))
        assert res.cost == assignment.lap_cost(s, np.array(res.perm))


def certificate_families(rng, n):
    """Cost families for the dual certificate, including ties and the
    warm start's worst case (every column minimum in row 0)."""
    one_row = rng.normal(size=(n, n))
    one_row[0] = one_row.min() - 1.0 - rng.random(n)
    return {
        "gaussian": rng.normal(size=(n, n)),
        "{0,1}": rng.integers(0, 2, size=(n, n)).astype(float),
        "{0,1,2}": rng.integers(0, 3, size=(n, n)).astype(float),
        "constant": np.full((n, n), 2.5),
        "rank-1": np.outer(rng.normal(size=n), rng.normal(size=n)),
        "one-row minima": one_row,
        "scaled 1e9": rng.normal(size=(n, n)) * 1e9,
    }


class TestHungarianCertificate:
    @pytest.mark.parametrize("n", [1, 2, 3, 8, 32, 64])
    def test_duals_certify_the_matching(self, n):
        # a - u - v >= 0 everywhere and = 0 on matched edges proves the
        # matching optimal (complementary slackness)
        rng = np.random.default_rng(100 + n)
        for name, a in certificate_families(rng, n).items():
            perm, u, v = assignment._hungarian(a)
            tol = 1e-9 * max(1.0, float(np.abs(a).max()))
            reduced = a - u[:, None] - v[None, :]
            assert sorted(perm.tolist()) == list(range(n)), name
            assert reduced.min() >= -tol, name
            assert np.abs(reduced[np.arange(n), perm]).max() <= tol, name


def assert_certificate(a, perm, u, v):
    """a - u - v >= -tol everywhere and |a - u - v| <= tol on matched edges."""
    n = a.shape[0]
    tol = 1e-9 * max(1.0, float(np.abs(a).max()))
    reduced = a - u[:, None] - v[None, :]
    assert sorted(perm.tolist()) == list(range(n))
    assert reduced.min() >= -tol
    assert np.abs(reduced[np.arange(n), perm]).max() <= tol


def warm_start(a):
    """The solver's two warm start phases on a: (rows free after the
    column reduction, reduction steps, the matching after it, v)."""
    v, col4row, row4col = assignment._column_reduction(a)
    free_before = int((col4row < 0).sum())
    steps = assignment._augmenting_row_reduction(a, v, col4row, row4col)
    return free_before, steps, col4row, v


def assert_agrees_with_oracle(a):
    for sense, x in (("min", a), ("max", -a)):
        fast = assignment.solve_lap(x, sense)
        slow = assignment.brute_force_lap(x, sense)
        assert fast.perm == slow.perm
        assert fast.cost == slow.cost


def tie_families(rng, n):
    """Inputs whose rows tie on their cheapest columns, so the reduction
    can pass one column round its rows without end."""
    return {
        "constant": np.full((n, n), 2.5),
        # integer entries: every permutation's float sum is exact, so
        # the oracle and solver see the same ties
        "identical rows": np.tile(rng.integers(0, 5, size=n), (n, 1)).astype(float),
        "identical columns": np.tile(rng.normal(size=(n, 1)), (1, n)),
        "{0,1}": rng.integers(0, 2, size=(n, n)).astype(float),
        "{0,1,2}": rng.integers(0, 3, size=(n, n)).astype(float),
        "integer rank-1": np.outer(rng.integers(1, 3, size=n),
                                   rng.integers(1, 3, size=n)).astype(float),
    }


class TestAugmentingRowReduction:
    def test_reduction_matches_every_free_row(self):
        # every column minimum sits in row 0, so the column reduction
        # matches one row; the reduction matches the other n - 1 and the
        # Dijkstra phase has no row left to grow a tree from
        rng = np.random.default_rng(31)
        for _ in range(40):
            n = int(rng.integers(3, 9))
            a = rng.normal(size=(n, n))
            a[0] = a.min() - 1.0 - rng.random(n)
            free_before, steps, col4row, _ = warm_start(a)
            assert free_before == n - 1
            assert steps < assignment._ARR_STEPS_PER_ROW * n
            assert (col4row >= 0).all()
            perm, u, v = assignment._hungarian(a)
            assert np.array_equal(perm, col4row)
            assert_certificate(a, perm, u, v)
            assert_agrees_with_oracle(a)

    @pytest.mark.parametrize("family, n", [
        ("constant", 8), ("identical rows", 8), ("{0,1}", 128)])
    def test_step_bound_leaves_rows_to_dijkstra(self, family, n):
        a = tie_families(np.random.default_rng(32), n)[family]
        free_before, steps, col4row, _ = warm_start(a)
        assert steps == assignment._ARR_STEPS_PER_ROW * n
        assert 0 < (col4row < 0).sum() <= free_before
        perm, u, v = assignment._hungarian(a)
        assert_certificate(a, perm, u, v)
        if n <= 8:
            assert_agrees_with_oracle(a)

    @pytest.mark.parametrize("n", [2, 3, 5, 8, 17, 64])
    def test_tie_families_stop_within_the_bound(self, n):
        # the pass ends after at most 4 n steps, and every row it leaves
        # matched has its smallest reduced cost on its own column, so the
        # Dijkstra phase starts from feasible duals
        rng = np.random.default_rng(33 + n)
        for name, a in tie_families(rng, n).items():
            _, steps, col4row, v = warm_start(a)
            assert steps <= assignment._ARR_STEPS_PER_ROW * n, name
            rows = np.flatnonzero(col4row >= 0)
            reduced = a[rows] - v[None, :]
            own = reduced[np.arange(rows.size), col4row[rows]]
            assert (reduced.min(axis=1) == own).all(), name
            perm, u, v = assignment._hungarian(a)
            assert_certificate(a, perm, u, v)
            if n <= 8:
                assert_agrees_with_oracle(a)


def reference_column_reduction(a):
    """The column reduction written with np.unique: each row that is the
    argmin of some columns takes the first of them (return_index)."""
    n = a.shape[0]
    v = a.min(axis=0)
    col4row = np.full(n, -1, dtype=np.intp)
    row4col = np.full(n, -1, dtype=np.intp)
    first_rows, cols = np.unique(a.argmin(axis=0), return_index=True)
    col4row[first_rows] = cols
    row4col[cols] = first_rows
    return v, col4row, row4col


def reference_row_reduction(a, v, col4row, row4col):
    """The augmenting row reduction over numpy arrays, element by element."""
    n = a.shape[0]
    queue = collections.deque(np.flatnonzero(col4row < 0).tolist())
    steps = 0
    while queue and steps < assignment._ARR_STEPS_PER_ROW * n:
        steps += 1
        i = queue.popleft()
        r = a[i] - v
        j1 = int(r.argmin())
        umin = float(r[j1])
        r[j1] = np.inf
        j2 = int(r.argmin())
        usubmin = float(r[j2])
        gap = umin < usubmin
        if gap:
            v[j1] -= usubmin - umin
            j = j1
        else:
            j = j1 if row4col[j1] < 0 else j2
        displaced = int(row4col[j])
        col4row[i] = j
        row4col[j] = i
        if displaced >= 0:
            col4row[displaced] = -1
            if gap:
                queue.appendleft(displaced)
            else:
                queue.append(displaced)
    return steps


def warm_start_families(rng):
    """(name, matrix) pairs: Gaussian and integer-tied inputs for n = 1..40,
    and the near-tie families of tools/lap_near_ties.py."""
    for n in range(1, 41):
        yield "gaussian", rng.normal(size=(n, n))
        yield "{0,1}", rng.integers(0, 2, size=(n, n)).astype(float)
        yield "{0,1,2}", rng.integers(0, 3, size=(n, n)).astype(float)
        yield "constant", np.full((n, n), 2.5)
    for eps in (1e-13, 1e-11, 5e-10, 2e-9, 1e-8):
        for _ in range(8):
            n = int(rng.integers(2, 7))
            yield f"near-tie {eps:g}", (rng.integers(0, 3, size=(n, n))
                                        + eps * rng.integers(-1, 2, size=(n, n)))


class TestWarmStartBookkeeping:
    def test_phases_match_the_array_reference_bit_for_bit(self):
        rng = np.random.default_rng(41)
        for name, a in warm_start_families(rng):
            for x in (a, -a):
                got = assignment._column_reduction(x)
                want = reference_column_reduction(x)
                for g, w in zip(got, want):
                    assert g.dtype == w.dtype and g.tobytes() == w.tobytes(), name
                got_steps = assignment._augmenting_row_reduction(x, *got)
                want_steps = reference_row_reduction(x, *want)
                assert got_steps == want_steps, name
                for g, w in zip(got, want):
                    assert g.tobytes() == w.tobytes(), name

    def test_column_reduction_gives_a_row_its_first_argmin_column(self):
        # row 0 is the argmin of columns 1, 2 and 3 (column 1 ties with
        # row 3, whose index is larger); row 2 is the argmin of column 0
        a = np.array([[5.0, 0.0, 0.0, 1.0],
                      [6.0, 3.0, 4.0, 2.0],
                      [1.0, 4.0, 5.0, 3.0],
                      [7.0, 0.0, 2.0, 2.0]])
        v, col4row, row4col = assignment._column_reduction(a)
        np.testing.assert_array_equal(v, [1.0, 0.0, 0.0, 1.0])
        np.testing.assert_array_equal(col4row, [1, -1, 0, -1])
        np.testing.assert_array_equal(row4col, [2, 0, -1, -1])


def refine_exit(a, sense):
    """Refine solve_lap's own matching of a: (tight edges beyond the n
    matched ones, whether the rotation pass ran). The early exits hand
    back the matching array itself."""
    work = a if sense == "min" else -a
    perm, u, v = assignment._hungarian(work)
    out = assignment._lex_refine(work, perm, u, v)
    tol = 1e-9 * max(1.0, float(np.abs(work).max()))
    extra = int(((work - u[:, None] - v[None, :]) <= tol).sum()) - len(perm)
    return extra, out is not perm


def planted_cycle(rng, n, k):
    """Costs in [1, 2) with zeros on a random permutation and on its
    rotation over k random rows: exactly two optimal assignments."""
    a = rng.uniform(1.0, 2.0, size=(n, n))
    p = rng.permutation(n)
    a[np.arange(n), p] = 0.0
    cyc = rng.choice(n, size=k, replace=False)
    a[cyc, p[np.roll(cyc, -1)]] = 0.0
    return a


class TestLexRefineExits:
    def test_unique_optimum_exits_after_the_peel(self):
        rng = np.random.default_rng(21)
        peeled = 0
        for _ in range(60):
            n = int(rng.integers(2, 9))
            s = rng.normal(size=(n, n))
            for sense in ("min", "max"):
                extra, rotated = refine_exit(s, sense)
                assert not rotated
                peeled += extra > 0
                fast = assignment.solve_lap(s, sense)
                slow = assignment.brute_force_lap(s, sense)
                assert fast.perm == slow.perm
                assert fast.cost == slow.cost
        # 110 of the 120 solves leave extra tight edges: the peel decides
        assert peeled >= 100

    @pytest.mark.parametrize("tie", ["duplicated column", "3-cycle", "4-cycle"])
    def test_tied_optima_take_the_rotation_pass(self, tie):
        rng = np.random.default_rng(22)
        for _ in range(25):
            n = int(rng.integers(4, 9))
            if tie == "duplicated column":
                s = rng.normal(size=(n, n))
                j, k = rng.choice(n, size=2, replace=False)
                s[:, k] = s[:, j]
            else:
                s = planted_cycle(rng, n, int(tie[0]))
            for sense, x in (("min", s), ("max", -s)):
                assert refine_exit(x, sense)[1]
                fast = assignment.solve_lap(x, sense)
                slow = assignment.brute_force_lap(x, sense)
                assert fast.perm == slow.perm
                assert fast.cost == slow.cost


def reference_peel(g):
    """Whether the digraph g (g[i, k]: edge i -> k) peels to nothing when
    rows without an out-edge or an in-edge among the live rows are
    removed until none is left; a cycle never peels."""
    while g.size:
        live = g.any(axis=1) & g.any(axis=0)
        if live.all():
            return False
        g = g[np.ix_(live, live)]
    return True


def random_digraphs(rng):
    """(name, g) boolean adjacency matrices without self-loops: DAGs,
    DAGs with a planted 2-, 3- or 4-cycle, and graphs with no edges."""
    for _ in range(60):
        n = int(rng.integers(1, 13))
        order = rng.permutation(n)
        upper = np.triu(rng.random((n, n)) < rng.uniform(0.0, 0.6), k=1)
        dag = upper[np.ix_(order, order)]
        yield "dag", dag
        yield "empty", np.zeros((n, n), dtype=bool)
        for k in (2, 3, 4):
            if k <= n:
                g = dag.copy()
                cyc = rng.choice(n, size=k, replace=False)
                g[cyc, np.roll(cyc, -1)] = True
                yield f"{k}-cycle", g


class TestAcyclicityTest:
    def test_topological_sort_decides_as_the_peel(self):
        rng = np.random.default_rng(42)
        seen = set()
        for name, g in random_digraphs(rng):
            src, dst = np.nonzero(g)
            acyclic = assignment._is_acyclic(g.shape[0], src.tolist(), dst.tolist())
            assert acyclic == reference_peel(g), name
            assert acyclic == (name in ("dag", "empty")), name
            seen.add(name)
        assert seen == {"dag", "empty", "2-cycle", "3-cycle", "4-cycle"}


def reference_running_sums(costs, tail, levels):
    """brute_force_lap's level loop with a fresh sum per level."""
    for row, level in zip(tail, levels):
        costs = (costs[:, None] + row[level].reshape(costs.size, -1)).ravel()
    return costs


class TestBruteForce:
    def test_lap_matches_reference_enumeration(self):
        rng = np.random.default_rng(13)
        for _ in range(20):
            n = int(rng.integers(1, 6))
            s = rng.integers(0, 4, size=(n, n)).astype(float)
            for sense in ("min", "max"):
                got = assignment.brute_force_lap(s, sense)
                assert got.perm == enumerate_best(s, sense)

    def test_lap_size_guard(self):
        with pytest.raises(SizeGuardError):
            assignment.brute_force_lap(np.ones((9, 9)), "min")

    def test_qap_size_guard(self):
        with pytest.raises(SizeGuardError):
            assignment.brute_force_qap(
                np.ones((9, 9)), np.ones((9, 9)), np.ones((9, 9)), "min")

    def test_qap_matches_reference_enumeration(self):
        rng = np.random.default_rng(14)
        for _ in range(10):
            n = int(rng.integers(2, 6))
            s = rng.normal(size=(n, n))
            s_a = rng.normal(size=(n, n))
            s_a = (s_a + s_a.T) / 2
            s_b = rng.normal(size=(n, n))
            s_b = (s_b + s_b.T) / 2
            got = assignment.brute_force_qap(s, s_a, s_b, "min")
            best = min(
                (assignment.qap_objective(s, s_a, s_b, np.array(p)), p)
                for p in itertools.permutations(range(n)))
            assert got.cost == pytest.approx(best[0], abs=1e-12)
            assert got.perm == best[1]

    def test_lap_ties_at_table_size(self):
        rng = np.random.default_rng(19)
        for n in (7, 8):
            s = rng.integers(0, 3, size=(n, n)).astype(float)
            for sense in ("min", "max"):
                got = assignment.brute_force_lap(s, sense)
                assert got.perm == enumerate_best(s, sense)

    def test_qap_ties_across_table_blocks(self):
        # integer inputs make the costs exact and leave many tied optima
        rng = np.random.default_rng(20)
        n = 8
        s, s_a, s_b = (rng.integers(0, 3, size=(n, n)).astype(float)
                       for _ in range(3))
        perms = np.array(list(itertools.permutations(range(n))))
        costs = (s[np.arange(n), perms].sum(axis=1)
                 + np.einsum("ij,pij->p", s_a,
                             s_b[perms[:, :, None], perms[:, None, :]]))
        for sense, k in (("min", np.argmin(costs)), ("max", np.argmax(costs))):
            got = assignment.brute_force_qap(s, s_a, s_b, sense)
            assert got.perm == tuple(perms[k])
            assert got.cost == costs[k]

    @pytest.mark.parametrize("n", [7, 8])
    def test_lap_ranks_by_lap_cost_not_running_sums(self, n):
        # the prefix sums add entries in row order, lap_cost pairwise; on
        # this family the two orders disagree on the optimum about half
        # the time at n = 8, so the oracle must re-rank its candidates
        rng = np.random.default_rng(24 + n)
        for _ in range(4):
            s = mixed_magnitude(rng, n)
            for sense, (perm, cost) in lap_cost_optima(s).items():
                got = assignment.brute_force_lap(s, sense)
                assert got.perm == perm
                assert got.cost == cost

    def test_lap_holds_bounded_memory(self):
        # a call holds the 8! running sums and the gather of its window
        s = np.random.default_rng(25).normal(size=(8, 8))
        tracemalloc.start()
        try:
            assignment.brute_force_lap(s, "min")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2 ** 20

    def test_lap_overflowing_sums_rank_by_lap_cost(self):
        # R = sum_i max_j |a_ij| overflows in both; at n = 8 every running
        # sum does too (-inf for min, +inf for max) while each lap_cost,
        # summed pairwise, stays finite and exact, so every permutation
        # must be re-ranked, without a warning
        big = 0.6 * np.finfo(np.float64).max
        s = np.random.default_rng(26).integers(0, 3, size=(8, 8)) * 2.0 ** 971
        s[0] -= big
        s[2] -= big
        s[3] += big
        for s in (np.array([[1e308, 0.0], [0.0, -1e308]]), s):
            for sense, (perm, cost) in lap_cost_optima(s).items():
                with warnings.catch_warnings():
                    warnings.simplefilter("error")
                    got = assignment.brute_force_lap(s, sense)
                assert got.perm == perm
                assert got.cost == cost

    @pytest.mark.parametrize("n", range(1, 9))
    def test_running_sums_match_the_level_loop_bit_for_bit(self, n):
        # Gaussian and integer-tied entries, and entries up to 1e308 whose
        # running sums overflow to +-inf part way; each from the zero
        # start that brute_force_lap uses, and from a nonzero one
        rng = np.random.default_rng(60 + n)
        levels = assignment._lex_levels(n)
        overflowed = 0
        for family in ("normal", "ties", "1e308"):
            for _ in range(4):
                if family == "normal":
                    a = rng.normal(size=(n, n))
                elif family == "ties":
                    a = rng.integers(0, 3, size=(n, n)).astype(float)
                else:
                    a = rng.uniform(-1.0, 1.0, size=(n, n)) * 1e308
                for start in (np.zeros(1), a[:1, 0].copy()):
                    with np.errstate(over="ignore"):
                        got = assignment._running_sums(start, a, levels)
                        want = reference_running_sums(start, a, levels)
                    assert got.shape == (math.factorial(n),)
                    assert got.tobytes() == want.tobytes()
                    overflowed += int(np.isinf(got).any())
        assert overflowed > 0 or n == 1

    def test_lex_levels_are_cached_read_only_table_columns(self):
        for m in range(1, 9):
            levels = assignment._lex_levels(m)
            assert levels is assignment._lex_levels(m)
            assert all(lv.dtype == np.intp and not lv.flags.writeable
                       for lv in levels)
            # level k repeats once per completion of its prefix
            columns = [np.repeat(lv, math.factorial(m - k - 1))
                       for k, lv in enumerate(levels)]
            assert np.array_equal(np.column_stack(columns),
                                  assignment._lex_table(m))

    def test_lex_table_is_read_only_itertools_order(self):
        for m in range(9):
            table = assignment._lex_table(m)
            want = np.array(list(itertools.permutations(range(m))))
            assert table.shape == (len(want), m)
            assert np.array_equal(table, want)
            assert not table.flags.writeable

    def test_perm_blocks_concatenate_to_itertools_order(self):
        for n in range(1, 9):
            blocks = list(assignment._perm_blocks(n))
            want = np.array(list(itertools.permutations(range(n))))
            assert np.array_equal(np.concatenate(blocks), want)
            assert all(len(b) <= 5040 for b in blocks)
            table = assignment._lex_table(n)
            for b in blocks:
                assert b.base is table
                assert not b.flags.writeable

    def test_qap_reduces_to_lap_when_quadratic_term_vanishes(self):
        rng = np.random.default_rng(15)
        s = rng.normal(size=(5, 5))
        zero = np.zeros((5, 5))
        qap = assignment.brute_force_qap(s, zero, zero, "min")
        lap = assignment.brute_force_lap(s, "min")
        assert qap.perm == lap.perm
        assert qap.cost == pytest.approx(lap.cost)


class TestFailurePaths:
    @pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
    @pytest.mark.parametrize("solve", ["solve_lap", "brute_force_lap"])
    def test_non_finite_input_raises_evaluation_error(self, solve, bad):
        s = np.eye(3)
        s[1, 2] = bad
        with pytest.raises(EvaluationError,
                           match=f"^{solve}: matrix contains NaN or Inf"):
            getattr(assignment, solve)(s, "min")

    @pytest.mark.parametrize("solve", ["solve_lap", "brute_force_lap"])
    def test_unknown_sense_raises_contract_error(self, solve):
        with pytest.raises(ContractError,
                           match="^sense must be 'min' or 'max', got 'mx'"):
            getattr(assignment, solve)(np.eye(3), "mx")

    def test_quadratic_terms_of_another_size_raise_shape_error(self):
        s, small = np.eye(3), np.eye(2)
        with pytest.raises(ShapeError, match="^brute_force_qap: S, S_A, S_B "
                                             "must share the same size"):
            assignment.brute_force_qap(s, small, s, "min")
        with pytest.raises(ShapeError, match="^qap_objective: S, S_A, S_B "
                                             "must share the same size"):
            assignment.qap_objective(s, small, s, (0, 1, 2))

    def test_matching_accuracy_rejects_a_non_permutation(self):
        with pytest.raises(ContractError,
                           match=r"^expected a permutation of 0\.\.1"):
            assignment.matching_accuracy(np.eye(2), (0, 0))


class TestObjectives:
    def test_lap_cost_indexing(self):
        s = np.array([[1.0, 2.0], [3.0, 4.0]])
        assert assignment.lap_cost(s, np.array([1, 0])) == 5.0
        assert assignment.lap_cost(s, np.array([0, 1])) == 5.0

    def test_qap_objective_identity_perm(self):
        rng = np.random.default_rng(16)
        s = rng.normal(size=(4, 4))
        s_a = rng.normal(size=(4, 4))
        s_b = rng.normal(size=(4, 4))
        p = np.arange(4)
        want = s[np.arange(4), p].sum() + (s_a * s_b).sum()
        assert assignment.qap_objective(s, s_a, s_b, p) == pytest.approx(want)

    def test_matching_accuracy_counts_fixed_points(self):
        s = np.array([
            [0.0, 1.0, 1.0],
            [1.0, 1.0, 0.0],
            [1.0, 0.0, 1.0],
        ])
        # optimal assignment is (0, 2, 1): only item 0 matches identity
        acc = assignment.matching_accuracy(s, np.arange(3))
        assert acc == pytest.approx(1.0 / 3.0)

    def test_matching_accuracy_perfect(self):
        s = np.eye(4) * -1.0
        assert assignment.matching_accuracy(s, np.arange(4)) == 1.0


class TestExhaustiveSmallCases:
    def test_all_two_by_two_integer_matrices(self):
        # every 2x2 matrix over {0,1,2}: cost and tie-broken permutation
        # agree between the solver and enumeration, both senses
        for flat in itertools.product((0.0, 1.0, 2.0), repeat=4):
            s = np.array(flat).reshape(2, 2)
            for sense in ("min", "max"):
                fast = assignment.solve_lap(s, sense)
                slow = assignment.brute_force_lap(s, sense)
                assert fast.cost == slow.cost
                assert fast.perm == slow.perm

    def test_equidistant_sets_make_all_quadratic_costs_equal(self):
        # constant off-diagonal intra-set distances: the quadratic part of
        # the objective cannot distinguish permutations
        rng = np.random.default_rng(12)
        s = rng.normal(size=(4, 4))
        s_intra = 0.7 * (np.ones((4, 4)) - np.eye(4))
        quad = []
        for p in itertools.permutations(range(4)):
            total = assignment.qap_objective(s, s_intra, s_intra, p)
            quad.append(total - assignment.lap_cost(s, p))
        assert max(quad) - min(quad) <= 1e-12

    def test_random_matrix_matching_accuracy_is_chance_level(self):
        # the optimal assignment of an iid matrix is a uniform random
        # permutation, so expected matches with any fixed alignment is 1
        rng = np.random.default_rng(42)
        accs = np.array([
            assignment.matching_accuracy(rng.normal(size=(50, 50)),
                                         np.arange(50))
            for _ in range(1000)
        ])
        band = 3.0 * accs.std(ddof=1) / np.sqrt(accs.size)
        assert abs(accs.mean() - 1.0 / 50.0) <= band
