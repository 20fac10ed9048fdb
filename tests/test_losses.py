import dataclasses
import itertools
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from setcontrast import assignment, losses, simgeom, tensor as T
from setcontrast.errors import ContractError, EvaluationError, ShapeError

random_square = st.tuples(
    st.integers(2, 8), st.integers(0, 2 ** 31 - 1)
).map(lambda t: np.random.default_rng(t[1]).normal(size=(t[0], t[0])))


def identity(n):
    return losses.GroundTruthAlignment.identity(n)


def random_gt(rng, n):
    return losses.GroundTruthAlignment(tuple(int(j) for j in rng.permutation(n)))


class TestStructuredLapLoss:
    def test_known_2x2_instance(self):
        s = np.array([[0.8, 1.0], [1.0, 0.8]])
        val = losses.structured_lap_loss(s, identity(2), margin=0.5)[0]
        assert val == pytest.approx(0.3, abs=1e-12)

    def test_zero_when_gt_undercuts_by_more_than_margin(self):
        s = np.array([[0.0, 5.0], [5.0, 0.0]])
        assert losses.structured_lap_loss(s, identity(2), margin=0.5)[0] == 0.0

    def test_zero_on_exact_tie_without_margin(self):
        s = np.full((3, 3), 2.0)
        assert losses.structured_lap_loss(s, identity(3), margin=0.0)[0] == 0.0

    @settings(max_examples=40, deadline=None)
    @given(random_square)
    def test_nonnegative_and_zero_iff_gt_optimal(self, s):
        n = s.shape[0]
        gt = identity(n)
        val = losses.structured_lap_loss(s, gt, margin=0.5)[0]
        assert val >= 0.0
        sm = s + 0.5 * np.eye(n)
        opt = assignment.solve_lap(sm, "min").cost
        gt_cost = float(np.trace(sm))
        if val == 0.0:
            assert gt_cost == pytest.approx(opt, abs=1e-12)
        else:
            assert gt_cost > opt

    def test_optimal_ground_truth_reads_exactly_zero(self):
        # the ground truth is the optimum, but its trace summed over the
        # dense matrix rounds 1.1e-16 below the solver's cost, summed over
        # the assigned entries
        s = np.random.default_rng(49698279).normal(size=(4, 4))
        sm = s + 0.5 * np.eye(4)
        best = assignment.solve_lap(sm, "min")
        assert best.perm == (0, 1, 2, 3)
        assert (sm * np.eye(4)).sum() - best.cost < 0.0
        assert losses.structured_lap_loss(s, identity(4), margin=0.5)[0] == 0.0

    def test_envelope_gradient_is_gt_minus_argmin(self):
        rng = np.random.default_rng(20)
        s = rng.normal(size=(4, 4))
        _, pullback = losses.structured_lap_loss(s, identity(4), margin=0.5)
        g = pullback(1.0)
        sm = s + 0.5 * np.eye(4)
        star = assignment.solve_lap(sm, "min").perm
        y_star = np.zeros((4, 4))
        y_star[np.arange(4), star] = 1.0
        np.testing.assert_allclose(g, (np.eye(4) - y_star) / 4)


class TestBatchHardLapLoss:
    def test_known_2x2_instance(self):
        s = np.array([[0.8, 1.0], [1.0, 0.8]])
        val = losses.batch_hard_lap_loss(s, identity(2), margin=0.5)[0]
        assert val == pytest.approx(0.3, abs=1e-12)

    def test_zero_when_hinges_inactive(self):
        s = np.array([[0.0, 2.0, 2.0], [2.0, 0.0, 2.0], [2.0, 2.0, 0.0]])
        assert losses.batch_hard_lap_loss(s, identity(3), margin=0.5)[0] == 0.0

    @settings(max_examples=60, deadline=None)
    @given(random_square, st.sampled_from([0.0, 0.3, 0.5]))
    def test_equals_per_row_hinge_form(self, s, m):
        n = s.shape[0]
        rng = np.random.default_rng(int(abs(s[0, 0]) * 1e6) % (2 ** 31))
        gt = random_gt(rng, n)
        got = n * losses.batch_hard_lap_loss(s, gt, margin=m)[0]
        want = 0.0
        for i in range(n):
            j = gt.perm[i]
            neg = np.delete(s[i], j).min()
            want += max(0.0, s[i, j] + m - neg)
        assert got == pytest.approx(want, abs=1e-12)

    def test_tied_row_minimum_routes_to_first_column(self):
        # every row's minimum of S + 0.5 Y is tied; row 0 ties with its
        # own positive, which comes first, so that row gets no gradient
        s = np.array([[0.1, 0.6, 0.6, 0.9],
                      [0.3, 1.0, 0.3, 0.3],
                      [0.0, 0.0, 0.9, 0.4],
                      [0.7, 0.2, 0.2, 1.0]])
        want = np.array([[0.0, 0.0, 0.0, 0.0],
                         [-1.0, 1.0, 0.0, 0.0],
                         [-1.0, 0.0, 1.0, 0.0],
                         [0.0, -1.0, 0.0, 1.0]])
        _, pullback = losses.batch_hard_lap_loss(s, identity(4), margin=0.5)
        np.testing.assert_array_equal(pullback(1.0), 0.25 * want)

    def test_never_negative_when_every_positive_is_its_row_minimum(self):
        # positives 3 below a Gaussian matrix at margin 0: most hinges are
        # inactive, and the two sums that cancel add in different orders
        rng = np.random.default_rng(0)
        zeros = 0
        for _ in range(2000):
            n = int(rng.integers(2, 9))
            s = rng.normal(size=(n, n))
            s[np.arange(n), np.arange(n)] -= 3.0
            val = losses.batch_hard_lap_loss(s, identity(n), margin=0.0)[0]
            assert val >= 0.0
            hinge = sum(max(0.0, s[i, i] - np.delete(s[i], i).min()) for i in range(n))
            assert n * val == pytest.approx(hinge, abs=1e-12)
            zeros += hinge == 0.0
        assert zeros > 1000  # 1490 of the 2000

    def test_never_exceeds_one_to_one_loss(self):
        # relaxing the bijection constraint can only lower the minimum
        rng = np.random.default_rng(21)
        for _ in range(50):
            n = int(rng.integers(2, 7))
            s = rng.normal(size=(n, n))
            gt = random_gt(rng, n)
            relaxed = losses.batch_hard_lap_loss(s, gt, margin=0.5)[0]
            exact = losses.structured_lap_loss(s, gt, margin=0.5)[0]
            assert relaxed >= exact - 1e-12


class TestSmoothedBatchHard:
    def test_constant_matrix_closed_form(self):
        for n, tau in ((2, 0.05), (5, 0.5), (7, 1.0)):
            s = np.full((n, n), 1.3)
            val = losses.smoothed_batch_hard_loss(
                s, identity(n), temperature=tau)[0]
            assert val == pytest.approx(tau * np.log(n), rel=1e-12)

    def test_small_temperature_approaches_hard_loss(self):
        rng = np.random.default_rng(22)
        s = rng.normal(size=(5, 5))
        gt = identity(5)
        smooth = losses.smoothed_batch_hard_loss(s, gt, temperature=1e-3)[0]
        hard = losses.batch_hard_lap_loss(s, gt, margin=0.0)[0]
        assert abs(smooth - hard) < 1e-2

    @settings(max_examples=60, deadline=None)
    @given(random_square, st.sampled_from([0.05, 0.5, 1.0]))
    def test_equals_temperature_times_sum_form(self, s, tau):
        n = s.shape[0]
        gt = identity(n)
        smooth = losses.smoothed_batch_hard_loss(s, gt, temperature=tau)[0]
        rows = losses.infonce_loss(s, gt, temperature=tau)[0]
        assert n * abs(smooth - tau * rows) <= 1e-10


class TestInfoNCE:
    def test_constant_matrix_gives_log_n(self):
        s = np.full((4, 4), 0.7)
        val = losses.infonce_loss(s, identity(4), temperature=0.05)[0]
        assert val == pytest.approx(np.log(4.0), rel=1e-12)

    def test_dominated_softmax_bound(self):
        n, tau = 5, 0.1
        s = np.full((n, n), 10.0 * tau)
        np.fill_diagonal(s, 0.0)
        val = losses.infonce_loss(s, identity(n), temperature=tau)[0]
        bound = np.log(1.0 + (n - 1) * np.exp(-10.0))
        assert val == pytest.approx(bound, rel=1e-12)
        assert val <= bound * (1.0 + 1e-12)

    def test_mean_is_sum_over_n(self):
        # each row's term s_pos / tau + log sum_j exp(-S_ij / tau), by hand
        rng = np.random.default_rng(23)
        s = rng.normal(size=(6, 6))
        gt = random_gt(rng, 6)
        tau = 0.05
        rows = [s[i, gt.perm[i]] / tau + np.log(np.exp(-s[i] / tau).sum())
                for i in range(6)]
        mean = losses.infonce_loss(s, gt, temperature=tau)[0]
        assert mean == pytest.approx(sum(rows) / 6.0, rel=1e-12)

    def test_gradient_is_gt_minus_softmax(self):
        rng = np.random.default_rng(32)
        s = rng.normal(size=(5, 5))
        gt = random_gt(rng, 5)
        tau = 0.5
        g = losses.infonce_loss(s, gt, temperature=tau)[1](1.0)
        z = -s / tau
        soft = np.exp(z - z.max(axis=1, keepdims=True))
        soft /= soft.sum(axis=1, keepdims=True)
        y = np.zeros((5, 5))
        y[np.arange(5), gt.perm] = 1.0
        np.testing.assert_allclose(g, (y - soft) / tau / 5, atol=1e-12)

    def test_is_strictly_positive_at_generic_points(self):
        rng = np.random.default_rng(24)
        s = rng.normal(size=(5, 5))
        assert losses.infonce_loss(s, identity(5))[0] > 0.0


class TestNTLogistic:
    def test_zero_positive_and_far_negative(self):
        s = np.array([[0.0, 100.0], [100.0, 0.0]])
        val = losses.nt_logistic_loss(s, identity(2), temperature=1.0)[0]
        assert val == pytest.approx(np.log(2.0), abs=1e-10)

    def test_uniform_2x2_matches_hand_formula(self):
        c = 0.9
        s = np.full((2, 2), c)
        val = losses.nt_logistic_loss(s, identity(2), temperature=1.0)[0]
        want = np.log1p(np.exp(c)) + np.log1p(np.exp(-c))
        assert val == pytest.approx(want, rel=1e-12)

    def test_large_temperature_limit(self):
        rng = np.random.default_rng(25)
        s = rng.normal(size=(4, 4))
        val = losses.nt_logistic_loss(s, identity(4), temperature=1e9)[0]
        assert val == pytest.approx(2.0 * np.log(2.0), rel=1e-6)

    def test_picks_hardest_negative(self):
        # row i is [0.5, 3.0, 1.0, 2.0] shifted by i: positive 0.5, hardest 1.0
        s = np.array([np.roll([0.5, 3.0, 1.0, 2.0], i) for i in range(4)])
        val = losses.nt_logistic_loss(s, identity(4), temperature=1.0)[0]
        want = np.log1p(np.exp(0.5)) + np.log1p(np.exp(-1.0))
        assert val == pytest.approx(want, rel=1e-12)

    def test_tied_hardest_negative_routes_to_first_column(self):
        # each row's two smallest negatives tie; in row 3 the positive lies
        # between them
        s = np.array([[0.5, 0.2, 0.2, 0.9],
                      [0.3, 0.3, 0.8, 0.1],
                      [0.6, 0.9, 0.4, 0.4],
                      [0.2, 0.5, 0.3, 0.2]])
        gt = losses.GroundTruthAlignment((0, 3, 1, 2))
        tau = 0.5

        def sig(x):
            return 1.0 / (1.0 + np.exp(-x))

        want = np.zeros((4, 4))
        want[0, 0], want[1, 3] = sig(0.5 / tau) / tau, sig(0.1 / tau) / tau
        want[2, 1], want[3, 2] = sig(0.9 / tau) / tau, sig(0.3 / tau) / tau
        want[0, 1], want[1, 0] = -sig(-0.2 / tau) / tau, -sig(-0.3 / tau) / tau
        want[2, 2], want[3, 0] = -sig(-0.4 / tau) / tau, -sig(-0.2 / tau) / tau
        g = losses.nt_logistic_loss(s, gt, temperature=tau)[1](1.0)
        np.testing.assert_allclose(g, 0.25 * want, rtol=1e-12, atol=0.0)

    def test_stable_at_extreme_inputs(self):
        # softplus at +-800 neither overflows nor loses the linear tail;
        # the second row mirrors the first, so each row's value is the mean
        gt = identity(2)
        for row, value, grad in (([-800.0, 800.0], 0.0, [0.0, 0.0]),
                                 ([0.0, 0.0], 2.0 * np.log(2.0), [0.5, -0.5]),
                                 ([800.0, -800.0], 1600.0, [1.0, -1.0])):
            val, pullback = losses.nt_logistic_loss(np.array([row, row[::-1]]), gt,
                                                    temperature=1.0)
            g = pullback(1.0)
            assert np.isfinite(val) and np.isfinite(g).all()
            assert val == pytest.approx(value, abs=1e-12)
            np.testing.assert_allclose(g, np.array([grad, grad[::-1]]) / 2, atol=1e-12)
        assert losses.nt_logistic_loss(np.array([[-800.0, 800.0], [800.0, -800.0]]),
                                       gt, temperature=1.0)[0] == 0.0

    def test_needs_at_least_one_negative(self):
        with pytest.raises(ContractError):
            losses.nt_logistic_loss(np.ones((1, 1)),
                                    losses.GroundTruthAlignment((0,)))


class TestReadsByIndex:
    """``infonce_loss`` and ``nt_logistic_loss`` read their positives, and
    ``structured_lap_loss``'s pullback Y*, by index. Their values and
    pullbacks are those of the forms that read them through products
    with one-hot matrices, kept here as references, bit for bit."""

    @staticmethod
    def _reference(kind, s, gt, arg):
        n = s.shape[0]
        y = np.zeros((n, n))
        y[np.arange(n), gt.perm] = 1.0
        if kind == "infonce":
            e, r, lse = losses._softmax_of_neg(s, arg)
            pos = np.add.reduce(s * y, axis=1, keepdims=True)
            total = np.add.reduce(pos * (1.0 / arg) + lse, axis=None)

            def grad(c):
                return c / r * e * (-1.0 / arg) + (c * (1.0 / arg)) * y
        elif kind == "nt_logistic":
            pos = np.add.reduce(s * y, axis=1, keepdims=True) * (1.0 / arg)
            lifted = s + (float(np.ptp(s)) + 1.0) * y
            hardest = np.argmin(lifted, axis=1)
            neg = np.minimum.reduce(lifted, axis=1, keepdims=True) * (-1.0 / arg)
            total = np.add.reduce(np.logaddexp(0.0, pos) + np.logaddexp(0.0, neg),
                                  axis=None)

            def grad(c):
                g = c * losses._sigmoid(pos) * (1.0 / arg) * y
                g[np.arange(n), hardest] += (c * losses._sigmoid(neg)
                                             * (-1.0 / arg))[:, 0]
                return g
        else:
            sm = s + arg * y if arg else s
            best = assignment.solve_lap(sm, "min")
            total = max(0.0, np.add.reduce(sm * y, axis=None) - best.cost)

            def grad(c):
                return c * y - c * np.eye(n)[list(best.perm)]
        return float(total * (1.0 / n)), lambda c: grad(c * (1.0 / n))

    @staticmethod
    def _cosine(rng, n):
        """Negated inner products of integer rows, as cosine mode feeds a
        loss: row 0's positive is an exact -0.0, and two columns are
        equal, so every row's minimum may tie."""
        a = rng.integers(-1, 2, size=(n, 3)).astype(float)
        b = rng.integers(-1, 2, size=(n, 3)).astype(float)
        perm = rng.permutation(n)
        a[0], b[perm[0]] = [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]
        b[perm[-1]] = b[perm[1]]
        s = (a @ b.T) * -1.0
        assert s[0, perm[0]] == 0.0 and np.signbit(s[0, perm[0]])
        return s, losses.GroundTruthAlignment(tuple(int(j) for j in perm))

    @pytest.mark.parametrize("case", ["normal", "cosine"])
    @pytest.mark.parametrize("n", [2, 5, 32])
    @pytest.mark.parametrize("kind,arg", [("infonce", 0.05), ("infonce", 0.5),
                                          ("nt_logistic", 0.05), ("nt_logistic", 0.5),
                                          ("structured", 0.5), ("structured", 0.0)])
    def test_value_and_pullback_keep_the_product_bits(self, kind, arg, n, case):
        loss = {"infonce": losses.infonce_loss, "nt_logistic": losses.nt_logistic_loss,
                "structured": losses.structured_lap_loss}[kind]
        rng = np.random.default_rng(n)
        for _ in range(4):
            if case == "cosine":
                s, gt = self._cosine(rng, n)
            else:
                s, gt = rng.normal(size=(n, n)), random_gt(rng, n)
            value, pullback = loss(s, gt, arg)
            ref_value, ref_pullback = self._reference(kind, s, gt, arg)
            assert np.float64(value).tobytes() == np.float64(ref_value).tobytes()
            for c in (1.0, 0.25, 1.0 / 3.0, 0.0):
                assert pullback(c).tobytes() == ref_pullback(c).tobytes()


def _row_min_gap(m):
    part = np.sort(m, axis=1)
    return float((part[:, 1] - part[:, 0]).min())


def _lap_gap(m):
    """Cost gap between the best and the second-best permutation."""
    n = m.shape[0]
    perms = np.array(list(itertools.permutations(range(n))))
    costs = np.sort(m[np.arange(n), perms].sum(axis=1))
    return float(costs[1] - costs[0])


def _generic(rng, kind, n):
    """A random n x n S and alignment with every kink of the loss at
    least 1e-3 away."""
    while True:
        s = rng.normal(size=(n, n))
        perm = rng.permutation(n)
        y = np.zeros((n, n))
        y[np.arange(n), perm] = 1.0
        if kind == "batch_hard":
            ok = _row_min_gap(s + 0.5 * y) > 1e-3
        elif kind == "structured":
            ok = _lap_gap(s + 0.5 * y) > 1e-3
        elif kind == "nt_logistic":
            ok = _row_min_gap(s + 1e3 * y) > 1e-3
        else:
            ok = True
        if ok:
            return s, losses.GroundTruthAlignment(tuple(int(j) for j in perm))


FUSED = {
    "infonce": lambda s, gt: losses.infonce_loss(s, gt, 0.5),
    "smoothed": lambda s, gt: losses.smoothed_batch_hard_loss(s, gt, 0.5),
    "nt_logistic": lambda s, gt: losses.nt_logistic_loss(s, gt, 0.5),
    "sparseclr": lambda s, gt: losses.sparseclr_loss(s, gt),
    "batch_hard": lambda s, gt: losses.batch_hard_lap_loss(s, gt, 0.5),
    "structured": lambda s, gt: losses.structured_lap_loss(s, gt, 0.5),
}


# (S, alignment, error) that every pairwise loss rejects
BAD_OPERANDS = {
    "non_square": (np.ones((2, 3)), (0, 1), ShapeError),
    "wrong_length": (np.ones((2, 2)), (0, 1, 2), ContractError),
    "not_bijective": (np.ones((2, 2)), (1, 1), ContractError),
}


class TestOperandChecks:
    @pytest.mark.parametrize("kind,case", [
        (kind, case) for kind in sorted(FUSED) for case in BAD_OPERANDS])
    def test_bad_operands_raise(self, kind, case):
        s, gt, error = BAD_OPERANDS[case]
        with pytest.raises(error):
            FUSED[kind](s, gt)


def _weighted(fn, w):
    """fn, an array function of one input, times w: its pullback of c is
    fn's pullback of w c."""
    def f(x):
        value, pullback = fn(x)
        return w * value, lambda c: pullback(w * c)

    return f


class TestFusedLossGradients:
    @pytest.mark.parametrize("kind", sorted(FUSED))
    def test_gradcheck_at_tie_free_points(self, kind):
        rng = np.random.default_rng(sorted(FUSED).index(kind))
        for n in (2, 5, 8 if kind != "structured" else 6):
            s, gt = _generic(rng, kind, n)
            assert T.gradcheck(lambda x: FUSED[kind](x, gt), s) < 1e-6

    @pytest.mark.parametrize("kind", sorted(FUSED))
    def test_gradcheck_under_an_upstream_weight(self, kind):
        # the pullback scales by the upstream gradient, here 2.5, not only
        # by 1/N
        rng = np.random.default_rng(10 + sorted(FUSED).index(kind))
        for n in (2, 5):
            s, gt = _generic(rng, kind, n)
            f = _weighted(lambda x: FUSED[kind](x, gt), 2.5)
            assert T.gradcheck(f, s) < 1e-6


class TestSparsemax:
    def test_uniform_input(self):
        np.testing.assert_allclose(losses.sparsemax(np.full(3, 0.4)),
                                   np.full(3, 1.0 / 3.0))

    def test_two_coordinate_closed_form(self):
        np.testing.assert_allclose(losses.sparsemax(np.array([0.6, 0.2])),
                                   [0.7, 0.3], atol=1e-15)
        assert losses.sparsemax_threshold(np.array([0.7, 0.3])) == pytest.approx(0.0)

    def test_dominated_coordinates_clip_to_vertex(self):
        np.testing.assert_allclose(losses.sparsemax(np.array([5.0, 0.0, 0.0])),
                                   [1.0, 0.0, 0.0])
        assert losses.sparsemax_threshold(np.array([5.0, 0.0, 0.0])) == pytest.approx(4.0)

    @settings(max_examples=100, deadline=None)
    @given(st.integers(1, 9), st.integers(0, 2 ** 31 - 1))
    def test_output_lies_on_simplex_and_threshold_identity(self, k, seed):
        z = np.random.default_rng(seed).normal(size=k) * 3.0
        p = losses.sparsemax(z)
        assert p.min() >= 0.0
        assert p.sum() == pytest.approx(1.0, abs=1e-12)
        t = losses.sparsemax_threshold(z)
        np.testing.assert_allclose(p, np.maximum(z - t, 0.0), atol=1e-12)

    @settings(max_examples=50, deadline=None)
    @given(st.integers(2, 7), st.integers(0, 2 ** 31 - 1))
    def test_projection_is_idempotent(self, k, seed):
        z = np.random.default_rng(seed).normal(size=k)
        p = losses.sparsemax(z)
        np.testing.assert_allclose(losses.sparsemax(p), p, atol=1e-12)


class TestNonFiniteInput:
    @pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
    @pytest.mark.parametrize("call", [
        lambda v: losses.sparsemax([v, 1.0]),
        lambda v: losses.sparsemax_threshold([v, 1.0]),
        lambda v: simgeom.eig_dot([v, 1.0], [1.0, 2.0], "min"),
        lambda v: simgeom.min_eigengap([v, 1.0]),
    ], ids=["sparsemax", "sparsemax_threshold", "eig_dot", "min_eigengap"])
    def test_raises_evaluation_error(self, call, bad):
        with pytest.raises(EvaluationError):
            call(bad)


# each pairwise loss with an S of no rows
EMPTY_S = [
    (losses.structured_lap_loss, (0, 0)),
    (losses.batch_hard_lap_loss, (0, 0)),
    (losses.smoothed_batch_hard_loss, (0, 0)),
    (losses.infonce_loss, (0, 0)),
    (losses.nt_logistic_loss, (0, 0)),
    (losses.sparseclr_loss, (0, 0)),
]


def _empty_s_id(v):
    return v.__name__ if callable(v) else "x".join(map(str, v))


class TestArgumentChecks:
    """Each public loss rejects a bad argument itself, without a LossConfig
    in front of it."""

    def test_sparsemax_threshold_of_nothing(self):
        with pytest.raises(ShapeError, match="^sparsemax_threshold: empty input$"):
            losses.sparsemax_threshold([])

    @pytest.mark.parametrize("loss", [losses.structured_lap_loss,
                                      losses.batch_hard_lap_loss])
    def test_negative_margin(self, loss):
        s = np.arange(4.0).reshape(2, 2)
        gt = losses.GroundTruthAlignment.identity(2)
        with pytest.raises(ContractError, match=r"^margin must be >= 0, got -0\.5$"):
            loss(s, gt, margin=-0.5)

    @pytest.mark.parametrize("loss", [losses.structured_lap_loss,
                                      losses.batch_hard_lap_loss])
    def test_infinite_margin(self, loss):
        # inf * 0 off the positives would be NaN, which max(0, .) reads as 0
        s = np.arange(4.0).reshape(2, 2)
        gt = losses.GroundTruthAlignment.identity(2)
        with pytest.raises(ContractError, match=r"^margin must be finite, got inf$"):
            loss(s, gt, margin=np.inf)

    @pytest.mark.parametrize("temperature", [0.0, -1.0])
    @pytest.mark.parametrize("loss", [losses.infonce_loss,
                                      losses.smoothed_batch_hard_loss])
    def test_nonpositive_temperature(self, loss, temperature):
        s = np.arange(4.0).reshape(2, 2)
        gt = losses.GroundTruthAlignment.identity(2)
        with pytest.raises(ContractError,
                           match=f"^temperature must be > 0, got {temperature}$"):
            loss(s, gt, temperature=temperature)

    @pytest.mark.parametrize("loss", [losses.infonce_loss,
                                      losses.smoothed_batch_hard_loss,
                                      losses.nt_logistic_loss])
    def test_infinite_temperature(self, loss):
        # S / inf is all zeros: infonce would read log 2, nt_logistic
        # 2 log 2 and the smoothed loss inf * log 2
        s = np.array([[0.2, 1.0], [0.4, 0.3]])
        gt = losses.GroundTruthAlignment.identity(2)
        with pytest.raises(ContractError,
                           match=r"^temperature must be finite, got inf$"):
            loss(s, gt, temperature=np.inf)

    @pytest.mark.parametrize("loss, shape", EMPTY_S, ids=_empty_s_id)
    def test_empty_s(self, loss, shape):
        with pytest.raises(ShapeError, match=r"^\w+: S has no rows$"):
            loss(np.zeros(shape), ())

    @pytest.mark.parametrize("loss, shape", EMPTY_S, ids=_empty_s_id)
    def test_empty_s_of_another_dtype(self, loss, shape):
        # an S the conversion copies is checked as an array is, before
        # the 1/N scale
        with pytest.raises(ShapeError, match=r"^\w+: S has no rows$"):
            loss(np.zeros(shape, dtype=np.int64), ())

    @pytest.mark.parametrize("loss", [loss for loss, _ in EMPTY_S],
                             ids=lambda loss: loss.__name__)
    def test_nonfinite_or_3d_s(self, loss):
        s = np.eye(2)
        s[0, 1] = np.nan
        with pytest.raises(EvaluationError,
                           match=rf"^{loss.__name__}: input contains NaN or Inf$"):
            loss(s, (0, 1))
        with pytest.raises(ShapeError, match=(rf"^{loss.__name__}: expected a 1-D "
                                              r"or 2-D array, got ndim=3$")):
            loss(np.ones((2, 2, 2)), (0, 1))

    @pytest.mark.parametrize("call", [
        lambda s, gt: losses.structured_lap_loss(s, gt, margin=np.nan),
        lambda s, gt: losses.batch_hard_lap_loss(s, gt, margin=np.nan),
        lambda s, gt: losses.smoothed_batch_hard_loss(s, gt, temperature=np.nan),
        lambda s, gt: losses.infonce_loss(s, gt, temperature=np.nan),
        lambda s, gt: losses.nt_logistic_loss(s, gt, temperature=np.nan),
        lambda s, gt: losses.nt_logistic_loss(s, gt, temperature=0.0),
        lambda s, gt: losses.nt_logistic_loss(s, gt, temperature=-1.0),
    ], ids=["structured-margin-nan", "batch-hard-margin-nan",
            "smoothed-temperature-nan", "infonce-temperature-nan",
            "nt-logistic-temperature-nan", "nt-logistic-temperature-zero",
            "nt-logistic-temperature-negative"])
    def test_nan_and_out_of_range_hyperparameters(self, call):
        s = np.array([[0.2, 1.0], [0.4, 0.3]])
        gt = losses.GroundTruthAlignment.identity(2)
        with pytest.raises(ContractError,
                           match=r"^(margin must be >= 0|temperature must be > 0"
                                 r"|beta must be >= 0), got (nan|0\.0|-1\.0)$"):
            call(s, gt)


class TestSparseCLR:
    def test_single_entry_closed_form(self):
        # one column: the smoothed max of -s is -s - 1/2, so s - s - 1/2
        for s_val in (0.3, 1.7):
            s = np.array([[s_val]])
            got = losses.sparseclr_loss(s, identity(1))[0]
            assert got == pytest.approx(-0.5, rel=1e-12)

    def test_gradient_is_gt_minus_rowwise_sparsemax(self):
        rng = np.random.default_rng(26)
        s = np.abs(rng.normal(size=(4, 4))) + 0.1
        g = losses.sparseclr_loss(s, identity(4))[1](1.0)
        want = np.eye(4)
        for i in range(4):
            want[i] -= losses.sparsemax(-s[i])
        np.testing.assert_allclose(g, want / 4, atol=1e-12)

    @settings(max_examples=60, deadline=None)
    @given(random_square, st.sampled_from([0.1, 1.0, 10.0]),
           st.integers(0, 2 ** 31 - 1))
    def test_brackets_the_batch_hard_loss(self, s, scale, seed):
        # the sparsemax smoothed max of n entries lies in [max - 1/2,
        # max - 1/(2n)], so N * sparseclr lies in [N BH_0 - N/2, N BH_0 - 1/2];
        # 1e-10 covers the rounding at the one-column equality case
        s = s * scale
        n = s.shape[0]
        gt = random_gt(np.random.default_rng(seed), n)
        got = n * losses.sparseclr_loss(s, gt)[0]
        hard = n * losses.batch_hard_lap_loss(s, gt, margin=0.0)[0]
        assert hard - n / 2 - 1e-10 <= got <= hard - 0.5 + 1e-10

    def test_dominant_negative_zeroes_other_gradients(self):
        # first row: one distance far below the rest, so the support of
        # that row collapses onto it and the other columns get no signal
        rng = np.random.default_rng(31)
        s = np.abs(rng.normal(size=(4, 4))) + 3.0
        s[0] = [5.0, 0.01, 6.0, 7.0]
        g = losses.sparseclr_loss(s, identity(4))[1](1.0)
        assert losses.sparsemax(-s[0])[1] == 1.0
        assert g[0, 2] == 0.0
        assert g[0, 3] == 0.0

    def test_uniform_negatives_keep_dense_support(self):
        s = np.full((1, 4), 2.0)
        p = losses.sparsemax(-s[0])
        np.testing.assert_allclose(p, 0.25)


class TestQare:
    def test_cosine_known_instance(self):
        # orthogonal rows: 1 + S = [[2, 1], [1, 2]], spectrum (3, 1)
        i2 = np.eye(2)
        assert losses.qare(i2, i2)[0] == pytest.approx(10.0)

    @settings(max_examples=30, deadline=None)
    @given(st.integers(2, 5), st.integers(0, 2 ** 31 - 1))
    def test_invariant_to_simultaneous_relabeling(self, n, seed):
        rng = np.random.default_rng(seed)
        z_a, z_b = rng.normal(size=(n, 3)), rng.normal(size=(n, 3))
        p = rng.permutation(n)
        base = losses.qare(z_a, z_b)[0]
        moved = losses.qare(z_a[p], z_b[p])[0]
        assert moved == pytest.approx(base, rel=1e-12, abs=1e-9)

    def test_reads_the_rows_as_given(self):
        # neither qare nor cosine S normalizes rows (the encoder does): on
        # scaled rows qare is the descending pairing of the spectra of
        # 1 + Z Z^T, and cosine S is the product of the rows
        rng = np.random.default_rng(17)
        z_a, z_b = rng.normal(size=(6, 3)), rng.normal(size=(6, 3))
        z_a *= rng.uniform(0.1, 10.0, size=(6, 1))
        z_b *= 0.01
        l_a, l_b = (np.linalg.eigvalsh(1.0 + z @ z.T)[::-1] for z in (z_a, z_b))
        assert losses.qare(z_a, z_b)[0] == pytest.approx(l_a @ l_b, rel=1e-12)
        s = simgeom.pairwise_distances(z_a, z_b, "cosine")[0]
        want = z_a @ z_b.T
        np.testing.assert_allclose(s, want, rtol=0.0, atol=1e-12 * np.abs(want).max())

    def test_unit_rows_pair_the_spectra_of_the_shifted_cosine_triple(self):
        # the paper's form: on the encoder's unit rows, qare pairs the
        # spectra of 1 + S_A and 1 + S_B of the cosine similarity triple
        rng = np.random.default_rng(19)
        z_a, z_b = rng.normal(size=(7, 3)), rng.normal(size=(7, 3))
        z_a /= np.linalg.norm(z_a, axis=1, keepdims=True)
        z_b /= np.linalg.norm(z_b, axis=1, keepdims=True)
        _, s_a, s_b = simgeom.pairwise_distances(z_a, z_b, "cosine")
        l_a, l_b = (np.linalg.eigvalsh(1.0 + m)[::-1] for m in (s_a, s_b))
        assert losses.qare(z_a, z_b)[0] == pytest.approx(l_a @ l_b, rel=1e-12)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(2, 6), st.integers(1, 4), st.sampled_from([0.1, 1.0, 5.0]),
           st.integers(0, 2 ** 31 - 1))
    def test_bounds_the_similarity_form_qap(self, n, e, scale, seed):
        # max_Y [tr(S Y^T) + tr((1+S_A) Y (1+S_B) Y^T)] - tr(S Y_gt^T)
        # <= N * structured_lap_loss(-S, gt, 0) + qare, with S, S_A and S_B
        # the inner products of the rows qare reads, unit or not
        rng = np.random.default_rng(seed)
        z_a, z_b = scale * rng.normal(size=(n, e)), scale * rng.normal(size=(n, e))
        s = z_a @ z_b.T
        gt = random_gt(rng, n)
        qap = assignment.brute_force_qap(s, 1.0 + z_a @ z_a.T, 1.0 + z_b @ z_b.T, "max")
        excess = qap.cost - assignment.lap_cost(s, gt.indices)
        bound = (n * losses.structured_lap_loss(-s, gt, margin=0.0)[0]
                 + losses.qare(z_a, z_b)[0])
        assert excess <= bound + 1e-9 * max(1.0, abs(bound))

    @staticmethod
    def _point_pairs():
        rng = np.random.default_rng(15)
        for n, e in ((2, 2), (4, 3), (8, 2), (32, 16)):
            yield rng.normal(size=(n, e)), rng.normal(size=(n, e))
        angles = np.arange(6) * (np.pi / 3.0)
        hexagon = np.stack([np.cos(angles), np.sin(angles)], axis=1)
        yield hexagon, rng.normal(size=(6, 2))

    def test_matches_two_eigen_calls_bit_for_bit(self, monkeypatch):
        def run():
            out = []
            for z_a, z_b in self._point_pairs():
                q, pullback = losses.qare(z_a, z_b)
                g_a, g_b = pullback(1.0)
                out.append((np.float64(q).tobytes(), g_a.tobytes(), g_b.tobytes()))
            return out

        stacked = run()
        monkeypatch.setattr(simgeom, "sym_eigen_pair",
                            lambda a, b: (simgeom.sym_eigen(a), simgeom.sym_eigen(b)))
        assert run() == stacked

    @pytest.mark.parametrize("n,e", [(3, 4), (4, 3), (8, 3), (32, 16)])
    def test_factored_cosine_matches_the_full_spectrum(self, monkeypatch, n, e):
        # n < E+1, n = E+1 and n > E+1. The reference decomposes the n x n
        # 1 + Z Z^T and pulls each spectrum back as 2 M Z onto the set Z
        # as given, M = eigenvalue_gradient of the partner; on unit rows
        # these are the spectra of 1 + S_A and 1 + S_B
        rng = np.random.default_rng(100 * n + e)
        z_a, z_b = rng.normal(size=(n, e)), rng.normal(size=(n, e))
        full = [simgeom.sym_eigen(1.0 + z @ z.T) for z in (z_a, z_b)]
        ref = full[0].values @ full[1].values
        want = [2.0 * simgeom.eigenvalue_gradient(d, p.values) @ z
                for d, p, z in zip(full, full[::-1], (z_a, z_b))]

        read = []
        real = simgeom.eigenvalue_gradient
        monkeypatch.setattr(simgeom, "eigenvalue_gradient",
                            lambda d, up: read.append(d.values) or real(d, up))
        q, pullback = losses.qare(z_a, z_b)
        got = pullback(1.0)
        assert q == pytest.approx(ref, rel=1e-12)
        for w, g in zip(want, got):
            assert np.abs(g - w).max() <= 1e-12 * np.abs(w).max()
        # min(n, E+1) eigenvalues each, none within rounding of 0, where
        # the full form's other n - E - 1 are rounding noise
        k = min(n, e + 1)
        assert [v.size for v in read] == [k, k]
        for v, d in zip(read, full):
            assert v.min() > 1e-6 * v.max()
            assert np.abs(d.values[k:]).max(initial=0.0) < 1e-12 * v.max()

    @pytest.mark.parametrize("side", [0, 1])
    def test_nonfinite_or_3d_sets_rejected(self, side):
        pair = [np.ones((3, 2)), np.ones((3, 2))]
        pair[side][2, 1] = np.inf
        with pytest.raises(EvaluationError, match="^qare: input contains NaN or Inf$"):
            losses.qare(*pair)
        pair[side] = np.ones((3, 2, 1))
        with pytest.raises(ShapeError,
                           match="^qare: expected a 1-D or 2-D array, got ndim=3$"):
            losses.qare(*pair)

    def test_size_mismatch_rejected(self):
        for shape in ((2, 2), (3, 3)):
            with pytest.raises(ShapeError, match=(
                    rf"^qare: shapes differ, \(3, 2\) vs \({shape[0]}, {shape[1]}\)$")):
                losses.qare(np.ones((3, 2)), np.ones(shape))

    @pytest.mark.parametrize("side", [0, 1], ids=["hexagon-first", "hexagon-second"])
    def test_pullback_at_a_cluster_is_a_subgradient(self, side):
        # with the other set fixed, qare is max_U ||P U G^(1/2)||_F^2 over
        # orthogonal U, G the other set's PSD factor Gram: a convex
        # function of the rows. A regular hexagon's factor Gram is
        # diag(6, 3, 3) to rounding, and qare pairs its two equal
        # eigenvalues with distinct partners; the gradient it returns
        # there still bounds qare from below along every step
        angles = np.arange(6) * (np.pi / 3.0)
        hexagon = np.stack([np.cos(angles), np.sin(angles)], axis=1)
        pair = [np.random.default_rng(14).normal(size=(6, 2))] * 2
        pair[side] = hexagon
        q, pullback = losses.qare(*pair)
        grad = pullback(1.0)[side]
        rng = np.random.default_rng(3)
        for scale in (1e-4, 1e-2, 1.0):
            for _ in range(20):
                step = scale * rng.normal(size=hexagon.shape)
                moved = list(pair)
                moved[side] = hexagon + step
                gap = losses.qare(*moved)[0] - q - (grad * step).sum()
                assert gap >= -1e-9 * q


class TestStructuredQapExact:
    def test_vanishing_quadratic_term_reduces_to_lap(self):
        rng = np.random.default_rng(27)
        s = rng.normal(size=(4, 4))
        zero = np.zeros((4, 4))
        gt = identity(4)
        got = losses.structured_qap_loss_exact(s, zero, zero, gt)
        want = 4 * losses.structured_lap_loss(s, gt, margin=0.0)[0]
        assert got == pytest.approx(want, abs=1e-12)

    def test_alignment_must_be_as_long_as_s(self):
        # a raw sequence is read as an alignment; either form raises on a
        # length other than S's rows, and on a matching length both give
        # the same loss bits
        rng = np.random.default_rng(28)
        s, s_a, s_b = rng.normal(size=(3, 4, 4))
        for short in (losses.GroundTruthAlignment((1, 0, 2)), (1, 0, 2)):
            with pytest.raises(ContractError):
                losses.structured_qap_loss_exact(s, s_a, s_b, short)
        perm = (2, 0, 3, 1)
        got = losses.structured_qap_loss_exact(
            s, s_a, s_b, losses.GroundTruthAlignment(perm))
        assert got == losses.structured_qap_loss_exact(s, s_a, s_b, perm)

    @settings(max_examples=30, deadline=None)
    @given(st.integers(2, 6), st.integers(0, 2 ** 31 - 1))
    def test_spectral_upper_bound_holds(self, n, seed):
        rng = np.random.default_rng(seed)
        s = rng.normal(size=(n, n))
        s_a = rng.normal(size=(n, n))
        s_a = (s_a + s_a.T) / 2
        s_b = rng.normal(size=(n, n))
        s_b = (s_b + s_b.T) / 2
        gt = random_gt(rng, n)
        lhs = losses.structured_qap_loss_exact(s, s_a, s_b, gt)
        lap = n * losses.structured_lap_loss(s, gt, margin=0.0)[0]
        la = simgeom.sym_eigen(s_a).values
        lb = simgeom.sym_eigen(s_b).values
        assert lhs <= lap - simgeom.eig_dot(la, lb, "min") + 1e-9


class TestPairwiseLoss:
    # each (kind, mining) variant of the objective's pairwise term, by the
    # direct call it must dispatch to with the config's margin or temperature
    VARIANTS = {
        ("margin", "one-to-one"): lambda s, gt, c: losses.structured_lap_loss(
            s, gt, margin=c.margin),
        ("margin", "batch-hard"): lambda s, gt, c: losses.batch_hard_lap_loss(
            s, gt, margin=c.margin),
        ("smoothed", "batch-hard"): lambda s, gt, c: losses.smoothed_batch_hard_loss(
            s, gt, temperature=c.temperature),
        ("infonce", "batch-hard"): lambda s, gt, c: losses.infonce_loss(
            s, gt, temperature=c.temperature),
        ("nt_logistic", "batch-hard"): lambda s, gt, c: losses.nt_logistic_loss(
            s, gt, temperature=c.temperature),
        ("sparseclr", "batch-hard"): lambda s, gt, c: losses.sparseclr_loss(s, gt),
    }

    @pytest.mark.parametrize("kind,mining", sorted(VARIANTS))
    def test_matches_the_direct_call_bit_for_bit(self, kind, mining):
        # the objective's pairwise term at beta 0, against the direct call
        # on the euclidean S of the same two sets, chained with the
        # pullback of S: the value and the gradient on z_a
        cfg = losses.LossConfig(name="x", kind=kind, mining=mining,
                                margin=0.3, temperature=0.7)
        rng = np.random.default_rng(33)
        za, zb = rng.normal(size=(6, 3)), rng.normal(size=(6, 3))
        gt = random_gt(rng, 6)

        def configured(c):
            value, pullback = losses.two_view_loss(za, zb, gt, c)
            return np.float64(value).tobytes(), pullback(1.0)[0].tobytes()

        got = configured(cfg)
        s, pull_s = simgeom._similarity(za, zb, "euclidean", "test")
        value, pullback = self.VARIANTS[kind, mining](s, gt, cfg)
        assert got == (np.float64(value).tobytes(), pull_s(pullback(1.0))[0].tobytes())
        # the fields reach the loss: the default margin and temperature differ
        default = losses.LossConfig(name="x", kind=kind, mining=mining)
        if kind != "sparseclr":
            assert configured(default)[0] != got[0]

    def test_covers_every_kind_and_mining(self):
        assert {k for k, _ in self.VARIANTS} == set(losses.LOSS_KINDS)
        assert {m for _, m in self.VARIANTS} == set(losses.MINING_MODES)


class TestTwoViewLoss:
    def test_beta_zero_matches_bare_pairwise(self):
        rng = np.random.default_rng(28)
        za, zb = rng.normal(size=(5, 3)), rng.normal(size=(5, 3))
        gt = identity(5)
        cfg = losses.LossConfig(name="x", kind="infonce", beta=0.0)
        total, _ = losses.two_view_loss(za, zb, gt, cfg)
        s = simgeom.pairwise_distances(za, zb, "euclidean")[0]
        bare = losses.infonce_loss(s, gt, temperature=cfg.temperature)[0]
        assert total == bare

    def test_cosine_mode_feeds_negated_similarity(self):
        rng = np.random.default_rng(29)
        za, zb = rng.normal(size=(4, 3)), rng.normal(size=(4, 3))
        gt = identity(4)
        cfg = losses.LossConfig(name="x", kind="infonce", beta=0.0, mode="cosine")
        total, _ = losses.two_view_loss(za, zb, gt, cfg)
        s = simgeom.pairwise_distances(za, zb, "cosine")[0]
        bare = losses.infonce_loss(-s, gt, temperature=cfg.temperature)[0]
        assert total == bare

    @pytest.mark.parametrize("beta", [0.0, 0.5])
    def test_only_s_is_a_distance_matrix(self, monkeypatch, beta):
        # one euclidean step, forward and backward: qare reads the
        # factors of the sets, so S is the one distance matrix at any beta
        calls = []
        real = simgeom._distances

        def counting(a, b):
            calls.append(1)
            return real(a, b)

        monkeypatch.setattr(simgeom, "_distances", counting)
        rng = np.random.default_rng(31)
        za, zb = (rng.normal(size=(5, 3)) for _ in range(2))
        cfg = losses.LossConfig(name="x", kind="infonce", beta=beta)
        _, pullback = losses.two_view_loss(za, zb, identity(5), cfg)
        pullback(1.0)
        assert len(calls) == 1

    @pytest.mark.parametrize("beta", [0.0, 1.0])
    @pytest.mark.parametrize("mode", ["euclidean", "cosine"])
    def test_builds_no_tape(self, monkeypatch, beta, mode):
        def no_tape(*args):
            raise AssertionError("two_view_loss built a tape node")

        monkeypatch.setattr(T.Tape, "__init__", no_tape)
        monkeypatch.setattr(T, "custom_op", no_tape)
        rng = np.random.default_rng(32)
        za, zb = (rng.normal(size=(5, 3)) for _ in range(2))
        cfg = losses.LossConfig(name="x", kind="infonce", beta=beta, mode=mode)
        total, pullback = losses.two_view_loss(za, zb, identity(5), cfg)
        g_a, g_b = pullback(1.0)
        assert type(total) is float
        assert g_a.shape == g_b.shape == (5, 3)

    def test_total_adds_beta_times_qare_over_the_squared_batch(self):
        rng = np.random.default_rng(33)
        za, zb = rng.normal(size=(3, 2)), rng.normal(size=(3, 2))
        cfg = losses.LossConfig(name="x", kind="infonce", beta=3.0)
        total, _ = losses.two_view_loss(za, zb, identity(3), cfg)
        pairwise = losses.two_view_loss(za, zb, identity(3),
                                        dataclasses.replace(cfg, beta=0.0))[0]
        assert total == pairwise + losses.qare(za, zb)[0] * (3.0 / 9)

    def test_dispatch_covers_every_kind(self):
        rng = np.random.default_rng(30)
        za, zb = rng.normal(size=(4, 3)), rng.normal(size=(4, 3))
        gt = identity(4)
        for kind in losses.LOSS_KINDS:
            mining = "one-to-one" if kind == "margin" else "batch-hard"
            cfg = losses.LossConfig(name="x", kind=kind, mining=mining, beta=1.0)
            total, _ = losses.two_view_loss(za, zb, gt, cfg)
            assert np.isfinite(total)
            assert total != losses.two_view_loss(
                za, zb, gt, dataclasses.replace(cfg, beta=0.0))[0]

    def test_batch_size_mismatch_rejected(self):
        with pytest.raises(ShapeError):
            losses.two_view_loss(np.ones((3, 2)), np.ones((4, 2)),
                                 identity(3), losses.LossConfig(name="x"))

    @pytest.mark.parametrize("side", [0, 1])
    def test_nonfinite_or_3d_embeddings_rejected(self, side):
        cfg = losses.LossConfig(name="x")
        for bad in (np.nan, np.inf):
            pair = [np.ones((3, 2)), np.ones((3, 2))]
            pair[side][1, 0] = bad
            with pytest.raises(EvaluationError,
                               match="^two_view_loss: input contains NaN or Inf$"):
                losses.two_view_loss(*pair, identity(3), cfg)
        pair = [np.ones((3, 2)), np.ones((3, 2))]
        pair[side] = np.ones((3, 2, 1))
        with pytest.raises(ShapeError, match="^two_view_loss: expected a 1-D or "
                                             "2-D array, got ndim=3$"):
            losses.two_view_loss(*pair, identity(3), cfg)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(2, 6), st.integers(0, 2 ** 31 - 1))
    def test_invariant_to_simultaneous_row_permutation(self, n, seed):
        rng = np.random.default_rng(seed)
        za, zb = rng.normal(size=(n, 3)), rng.normal(size=(n, 3))
        p = rng.permutation(n)
        gt = identity(n)
        for kind in losses.LOSS_KINDS:
            mining = "one-to-one" if kind == "margin" else "batch-hard"
            cfg = losses.LossConfig(name="x", kind=kind, mining=mining, beta=1.0)
            base = losses.two_view_loss(za, zb, gt, cfg)[0]
            moved = losses.two_view_loss(za[p], zb[p], gt, cfg)[0]
            assert moved == pytest.approx(base, abs=1e-12)


class TestLossConfigValidation:
    @pytest.mark.parametrize("kwargs", [
        dict(temperature=0.0),
        dict(margin=-0.1),
        dict(beta=-1.0),
        dict(kind="nope"),
        dict(mining="sideways"),
        dict(kind="infonce", mining="one-to-one"),
        dict(mode="manhattan"),
        dict(temperature=-0.5),
        dict(mode="Cosine"),
    ])
    def test_invalid_configs_rejected(self, kwargs):
        with pytest.raises(ContractError):
            losses.LossConfig(name="x", **kwargs)

    @pytest.mark.parametrize("field, message", [
        ("margin", "margin must be >= 0"),
        ("temperature", "temperature must be > 0"),
        ("beta", "beta must be >= 0"),
    ])
    def test_nan_rejected(self, field, message):
        with pytest.raises(ContractError, match=f"^{message}$"):
            losses.LossConfig(name="x", **{field: float("nan")})

    @pytest.mark.parametrize("field", ["margin", "temperature", "beta"])
    def test_infinity_rejected(self, field):
        with pytest.raises(ContractError, match=f"^{field} must be finite$"):
            losses.LossConfig(name="x", **{field: float("inf")})

    def test_alignment_must_be_bijection(self):
        with pytest.raises(ContractError):
            losses.structured_lap_loss(np.ones((2, 2)),
                                       losses.GroundTruthAlignment((0, 0)),
                                       margin=0.0)

    @pytest.mark.parametrize("call", [
        lambda s: losses.structured_lap_loss(s, (0.5, 1.5), margin=0.0),
        lambda s: assignment.matching_accuracy(s, (0.5, 1.5)),
        lambda s: assignment.qap_objective(s, s, s, (1.7, 0.2)),
    ], ids=["structured_lap_loss", "matching_accuracy", "qap_objective"])
    def test_fractional_indices_rejected_not_truncated(self, call):
        # truncation would read (0.5, 1.5) as the identity and (1.7, 0.2)
        # as the swap, both valid permutations of 2
        s = np.array([[0.0, 1.0], [2.0, 0.5]])
        with pytest.raises(ContractError):
            call(s)


class TestGroundTruthAlignment:
    @pytest.mark.parametrize("perm", [(0.5, 1.5), (0, -1), (0, np.nan),
                                      np.array([1.0, 0.0])],
                             ids=["fraction", "negative", "nan", "integral-float-array"])
    def test_bad_entries_rejected_on_construction(self, perm):
        with pytest.raises(ContractError):
            losses.GroundTruthAlignment(perm)

    @pytest.mark.parametrize("perm", [(1, 1), (0, 2), (0, -1)],
                             ids=["repeated", "out-of-range", "negative"])
    @pytest.mark.parametrize("wrap", [tuple, np.array], ids=["tuple", "array"])
    def test_non_permutations_rejected_on_construction(self, perm, wrap):
        raw = wrap(perm)
        with pytest.raises(ContractError, match=(
                "^" + re.escape(f"expected a permutation of 0..1, got {raw!r}") + "$")):
            losses.GroundTruthAlignment(raw)

    def test_indices_are_read_only(self):
        gt = losses.GroundTruthAlignment((2, 0, 1))
        assert gt.indices.dtype == np.intp
        assert np.array_equal(gt.indices, [2, 0, 1])
        assert not gt.indices.flags.writeable

    def test_dense_matrix_is_a_read_only_one_hot_built_once(self):
        gt = losses.GroundTruthAlignment((2, 0, 1))
        y = gt.dense
        assert y.dtype == np.float64 and y.flags.c_contiguous
        assert not y.flags.writeable
        assert y.tobytes() == np.eye(3)[[2, 0, 1]].tobytes()
        with pytest.raises(ValueError):
            y[0, 0] = 1.0
        s = np.arange(9.0).reshape(3, 3)
        for loss in FUSED.values():
            loss(s, gt)[1](1.0)
        assert gt.dense is y and losses._dense_truth(s, gt, "test") is y
        assert y.tobytes() == np.eye(3)[[2, 0, 1]].tobytes()
        # equality, hashing and repr still read perm alone
        fresh = losses.GroundTruthAlignment((2, 0, 1))
        assert fresh == gt and hash(fresh) == hash(gt)
        assert repr(gt) == repr(fresh) == "GroundTruthAlignment(perm=(2, 0, 1))"

    @pytest.mark.parametrize("wrap", [list, tuple, np.array],
                             ids=["list", "tuple", "array"])
    def test_dense_truth_of_a_raw_sequence(self, wrap):
        s = np.ones((3, 3))
        y = losses._dense_truth(s, wrap([1, 2, 0]), "test")
        assert not y.flags.writeable
        assert y.tobytes() == losses.GroundTruthAlignment((1, 2, 0)).dense.tobytes()
        with pytest.raises(ContractError,
                           match=r"^alignment length 2 != rows 3$"):
            losses._dense_truth(s, wrap([1, 0]), "test")

    def test_equality_and_hash_follow_perm_only(self):
        a = losses.GroundTruthAlignment((1, 0))
        b = losses.GroundTruthAlignment((1, 0))
        assert a == b and hash(a) == hash(b)
        assert a != losses.GroundTruthAlignment((0, 1))
        assert repr(a) == "GroundTruthAlignment(perm=(1, 0))"

    @pytest.mark.parametrize("gt, match", [
        ((0, 1, 2), "length"),
        ((0, 2), "permutation"),
        ((0, -1), "permutation"),
        ((1, 1), "permutation"),
    ])
    @pytest.mark.parametrize("wrap", [tuple, np.array], ids=["tuple", "array"])
    def test_raw_alignments_keep_their_errors(self, gt, match, wrap):
        with pytest.raises(ContractError, match=match):
            losses.infonce_loss(np.ones((2, 2)), wrap(gt))

    @pytest.mark.parametrize("wrap", [list, tuple, np.array],
                             ids=["list", "tuple", "array"])
    def test_perm_is_stored_as_ints_and_booleans_are_rejected(self, wrap):
        gt = losses.GroundTruthAlignment(wrap([1, 0]))
        ref = losses.GroundTruthAlignment((1, 0))
        assert gt.perm == (1, 0) and all(type(j) is int for j in gt.perm)
        assert gt == ref and hash(gt) == hash(ref)
        assert repr(gt) == "GroundTruthAlignment(perm=(1, 0))"
        # a boolean mask is not the permutation (1, 0)
        s = np.array([[0.2, 1.0], [0.4, 0.3]])
        mask = wrap([True, False])
        for call in (lambda: assignment.matching_accuracy(s, mask),
                     lambda: assignment.qap_objective(s, s, s, mask),
                     lambda: losses.infonce_loss(s, mask),
                     lambda: losses.GroundTruthAlignment(mask)):
            with pytest.raises(ContractError, match="indices must be integers"):
                call()

    @pytest.mark.parametrize(
        "mixed", [[True, 0], (0, np.True_), np.array([True, 0], dtype=object)],
        ids=["list", "tuple", "object-array"])
    def test_booleans_mixed_with_integers_are_rejected(self, mixed):
        # numpy reads [True, 0] as the integers (1, 0)
        s = np.array([[0.2, 1.0], [0.4, 0.3]])
        for call in (lambda: losses.GroundTruthAlignment(mixed),
                     lambda: assignment.matching_accuracy(s, mixed),
                     lambda: assignment.qap_objective(s, s, s, mixed)):
            with pytest.raises(ContractError, match="indices must be integers"):
                call()

    @pytest.mark.parametrize("bad, match", [
        (True, "integers"),
        (np.True_, "integers"),
        ([True, 0], "integers"),
        ([0, np.True_], "integers"),
        ([1.5, 0], "integers"),
        ([float("nan"), 0], "integers"),
        ([0, 2 ** 63], "integers"),
        ([-(2 ** 63) - 1, 0], "integers"),
        ([0, 2 ** 70], "integers"),
        ([0, -1], "permutation of 0..1"),
        ([1.0, 0.0], "integers"),
        (0, "one-dimensional"),
        (np.int64(0), "one-dimensional"),
        ([[0, 1]], "one-dimensional"),
        ([[1], 0], "one-dimensional"),
    ], ids=["true", "numpy-true", "true-first", "numpy-true-second", "fraction",
            "nan", "above-intp", "below-intp", "far-above-intp", "negative",
            "integral-float", "int", "numpy-int", "nested", "ragged"])
    @pytest.mark.parametrize("wrap", [list, tuple], ids=["list", "tuple"])
    def test_every_bad_entry_is_rejected(self, bad, match, wrap):
        # numpy reads a Python int outside int64 as a float or an object
        bad = wrap(bad) if isinstance(bad, list) else bad
        with pytest.raises(ContractError, match=match):
            losses.GroundTruthAlignment(bad)

    @pytest.mark.parametrize("bad", [
        [1, True, 0],
        np.array([1, True], dtype=object),
        np.array([True, False]),
    ], ids=["list", "object-array", "bool-array"])
    def test_booleans_are_rejected_whatever_holds_them(self, bad):
        # the entries of a list or an object array are scanned as objects;
        # a bool ndarray is rejected by its dtype alone
        with pytest.raises(ContractError, match="^indices must be integers, got "):
            assignment._as_indices(bad)

    @pytest.mark.parametrize("raw", [[2 ** 63, 0], [0, 2 ** 64 - 1]],
                             ids=["intp-max-plus-one", "uint64-max"])
    def test_uint64_above_intp_is_rejected_not_wrapped(self, raw):
        # a cast reads 2**63 as -2**63, which the range check then blames
        bad = np.array(raw, dtype=np.uint64)
        s = np.eye(2)
        for call in (lambda: losses.GroundTruthAlignment(bad),
                     lambda: assignment.matching_accuracy(s, bad),
                     lambda: assignment._as_indices(bad)):
            with pytest.raises(ContractError,
                               match="^indices must be integers in the intp range"):
                call()

    def test_uint64_in_the_intp_range_converts(self):
        raw = np.array([2 ** 63 - 1, 0, 7], dtype=np.uint64)
        idx = assignment._as_indices(raw)
        assert idx.dtype == np.intp and idx.tolist() == [2 ** 63 - 1, 0, 7]
        gt = losses.GroundTruthAlignment(np.array([2, 0, 1], dtype=np.uint64))
        assert gt == losses.GroundTruthAlignment((2, 0, 1))

    @pytest.mark.parametrize("empty", [(), []], ids=["tuple", "list"])
    def test_an_empty_sequence_is_the_empty_permutation(self, empty):
        # numpy reads an empty sequence as float64, with no entry to reject
        gt = losses.GroundTruthAlignment(empty)
        assert gt.perm == () and gt.indices.dtype == np.intp
        assert losses.GroundTruthAlignment.identity(0) == gt

    def test_int_sequences_and_arrays_compare_and_hash_alike(self):
        perm = (4, 0, 3, 1, 5, 2)
        ref = losses.GroundTruthAlignment(perm)
        for raw in (list(perm), np.array(perm), np.array(perm, dtype=np.int32),
                    np.array(perm, dtype=np.uint8)):
            gt = losses.GroundTruthAlignment(raw)
            assert gt == ref and hash(gt) == hash(ref)
            assert all(type(j) is int for j in gt.perm)
            assert gt.indices.dtype == np.intp
            assert gt.indices.tobytes() == ref.indices.tobytes()

    def test_errors_are_not_cached(self):
        gt = losses.GroundTruthAlignment((0, 1, 2))
        losses.infonce_loss(np.ones((3, 3)), gt)  # a shape it passes at
        for _ in range(2):
            with pytest.raises(ContractError, match="length"):
                losses.infonce_loss(np.ones((2, 2)), gt)

    def test_raw_alignment_scores_like_the_object(self):
        s = np.array([[0.2, 1.0], [0.4, 0.3]])
        gt = losses.GroundTruthAlignment((1, 0))
        for raw in ((1, 0), np.array([1, 0])):
            assert (losses.infonce_loss(s, raw)[0]
                    == losses.infonce_loss(s, gt)[0])


class TestTiedOptimum:
    def test_structured_lap_zero_when_gt_tied_at_margin_zero(self):
        s = np.full((3, 3), 1.4)
        gt = losses.GroundTruthAlignment((0, 1, 2))
        assert losses.structured_lap_loss(s, gt, margin=0.0)[0] == 0.0
