import importlib
import weakref
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from setcontrast import losses, simgeom, tensor as T, verify
from setcontrast.errors import (
    ContractError,
    EvaluationError,
    ShapeError,
)

from conftest import gc_disabled, node, scaled, taped, weighted_sum


def small_arrays(rows=(1, 4), cols=(1, 4)):
    return st.tuples(
        st.integers(*rows), st.integers(*cols), st.integers(0, 2 ** 31 - 1)
    ).map(lambda t: np.random.default_rng(t[2]).normal(size=(t[0], t[1])))


class TestTensorBasics:
    def test_scalar_and_vector_coerce_to_2d(self):
        assert T.Tensor(2.5).shape == (1, 1)
        assert T.Tensor([1.0, 2.0, 3.0]).shape == (1, 3)

    def test_higher_rank_rejected(self):
        with pytest.raises(ShapeError):
            T.Tensor(np.zeros((2, 2, 2)))

    def test_data_is_immutable(self):
        t = T.Tensor(np.ones((2, 2)))
        with pytest.raises(ValueError):
            t.data[0, 0] = 9.0

    def test_constructor_copies_input(self):
        buf = np.ones((2, 2))
        t = T.Tensor(buf)
        buf[0, 0] = 7.0
        assert t.data[0, 0] == 1.0

    def test_data_is_c_ordered_whatever_the_input_layout(self):
        # BLAS rounds by memory layout, so a stored layout must not depend
        # on the caller's
        x = np.asfortranarray(np.arange(12.0).reshape(3, 4) / 7.0)
        for t in (T.Tensor(x), T.Tape().leaf(x)):
            assert t.data.flags.c_contiguous
            assert t.data.tobytes() == np.ascontiguousarray(x).tobytes()

    def test_item_requires_scalar(self):
        assert T.Tensor(3.0).item() == 3.0
        with pytest.raises(ShapeError):
            T.Tensor(np.ones((2, 2))).item()

    def test_as_tensor_passthrough(self):
        t = T.Tensor(np.ones((2, 2)))
        assert T.as_tensor(t) is t
        assert isinstance(T.as_tensor([[1.0]]), T.Tensor)

    def test_untracked_by_default(self):
        assert not T.Tensor(np.ones((2, 2))).tracked


class TestTapeSemantics:
    def test_backward_returns_zero_for_unreached_leaf(self):
        tape = T.Tape()
        a = tape.leaf(np.ones((2, 2)))
        b = tape.leaf(np.ones((2, 2)))
        loss = weighted_sum(a)
        grads = tape.backward(loss)
        np.testing.assert_allclose(grads[a].data, 1.0)
        np.testing.assert_allclose(grads[b].data, 0.0)

    def test_mixing_tapes_rejected(self):
        a = T.Tape().leaf(np.ones((2, 2)))
        b = T.Tape().leaf(np.ones((2, 2)))
        with pytest.raises(ContractError,
                           match="^operands were recorded on different tapes$"):
            T.custom_op((a, b), a.data + b.data, lambda g: (g, g))

    def test_constants_join_the_active_tape(self):
        tape = T.Tape()
        a = tape.leaf(np.full((2, 2), 3.0))
        out = weighted_sum(a, T.Tensor(np.full((2, 2), 2.0)))
        assert out.tracked
        grads = tape.backward(out)
        np.testing.assert_allclose(grads[a].data, 2.0)

    def test_linear_gradient_exact(self):
        tape = T.Tape()
        x = tape.leaf(np.array([[1.0, 2.0], [3.0, 4.0]]))
        w = np.array([[2.0, 0.0], [0.0, 5.0]])
        loss = weighted_sum(scaled(x, 0.5), w)
        grads = tape.backward(loss)
        np.testing.assert_array_equal(grads[x].data, 0.5 * w)

    def test_backward_rejects_a_loss_off_this_tape(self):
        tape = T.Tape()
        a = tape.leaf(np.ones((2, 2)))
        other = T.Tape()
        b = other.leaf(np.ones((2, 2)))
        for loss in (weighted_sum(b), T.Tensor(1.0)):
            with pytest.raises(ContractError,
                               match="^loss is not recorded on this tape$"):
                tape.backward(loss)
        tape.backward(weighted_sum(a))  # the tape itself still works

    def test_gradients_reject_a_leaf_of_another_tape(self):
        # both leaves are record 0 of their tape: an index lookup would
        # hand back xa's gradient for xb
        ta, tb = T.Tape(), T.Tape()
        xa = ta.leaf(np.ones((1, 2)))
        xb = tb.leaf(np.ones((1, 2)))
        grads = ta.backward(weighted_sum(xa, 3.0))
        with pytest.raises(ContractError,
                           match="^tensor was recorded on another tape$"):
            grads[xb]
        np.testing.assert_array_equal(grads[xa].data, [[3.0, 3.0]])

    def test_gradients_reject_a_tracked_non_leaf(self):
        tape = T.Tape()
        x = tape.leaf(np.ones((1, 2)))
        y = scaled(x, 2.0)
        grads = tape.backward(weighted_sum(y))
        with pytest.raises(ContractError,
                           match="^record 1 is not a leaf of this tape$"):
            grads[y]

    def test_gradients_reject_an_untracked_tensor(self):
        tape = T.Tape()
        grads = tape.backward(weighted_sum(tape.leaf(np.ones((1, 2)))))
        with pytest.raises(ContractError,
                           match="^tensor is not tracked on any tape$"):
            grads[T.Tensor(np.ones((1, 2)))]

    def test_gradients_hold_no_tape_alive(self):
        with gc_disabled():
            tape = T.Tape()
            x = tape.leaf(np.ones((1, 2)))
            grads = tape.backward(weighted_sum(x))
            alive = weakref.ref(tape)
            del tape, x
            assert alive() is None
            np.testing.assert_array_equal(grads[0].data, [[1.0, 1.0]])

    def test_backward_needs_a_scalar_loss(self):
        tape = T.Tape()
        a = tape.leaf(np.ones((2, 3)))
        with pytest.raises(ShapeError, match=r"^backward needs a scalar loss, "
                                             r"shape=\(2, 3\)$"):
            tape.backward(scaled(a, 2.0))

    def test_custom_op_roundtrip(self):
        def cube(x):
            x = T.as_tensor(x)
            val = x.data ** 3

            def vjp(g):
                return (3.0 * x.data ** 2 * g,)

            return T.custom_op([x], val, vjp)

        x0 = np.random.default_rng(2).normal(size=(3, 3))
        err = T.gradcheck(taped(lambda x: weighted_sum(cube(x))), x0)
        assert err < 1e-6

    def test_custom_op_value_is_2d(self):
        # a 0-d value is a (1, 1) scalar that backward accepts as a loss,
        # and a 1-D value a (1, n) row, as Tensor stores them
        tape = T.Tape()
        x = tape.leaf(np.array([[2.0]]))
        y = T.custom_op([x], np.float64(4.0), lambda g: (4.0 * g,))
        assert y.shape == (1, 1)
        np.testing.assert_array_equal(tape.backward(y)[x].data, [[4.0]])
        row = T.custom_op([x], np.array([1.0, 2.0, 3.0]), lambda g: (None,))
        assert row.shape == (1, 3)

    def test_stored_data_is_c_contiguous_float64_and_frozen(self):
        tape = T.Tape()
        x = tape.leaf(np.ones((2, 3)))
        # an integer value, and a Fortran-ordered VJP output
        y = T.custom_op([x], np.arange(6).reshape(3, 2).T,
                        lambda g: (np.asfortranarray(np.ones((2, 3))),))
        loss = T.custom_op([y], y.data.sum(), lambda g: (np.ones((2, 3)),))
        grad = tape.backward(loss)[x]
        for t in (y, grad):
            assert t.data.dtype == np.float64
            assert t.data.flags.c_contiguous and not t.data.flags.writeable
        np.testing.assert_array_equal(y.data, [[0, 2, 4], [1, 3, 5]])
        assert T.custom_op([x], np.float64(4.0), lambda g: (None,)).item() == 4.0

    def test_custom_op_rejects_a_value_above_2d(self):
        with pytest.raises(ShapeError,
                           match="^tensors are 1-D or 2-D, got ndim=3$"):
            T.custom_op([T.Tensor(1.0)], np.zeros((2, 2, 2)), lambda g: (None,))


def _hexagon_qare(tape):
    """qare of a regular hexagon, whose factor Gram is diag(6, 3, 3) to
    rounding, against a generic set: a gradient at an eigenvalue cluster
    with unequal partner values, one subgradient of many."""
    angles = np.arange(6) * (np.pi / 3.0)
    hexagon = np.stack([np.cos(angles), np.sin(angles)], axis=1)
    generic = np.random.default_rng(14).normal(size=(6, 2))
    return node(losses.qare, tape.leaf(hexagon), tape.leaf(generic))


class TestBenchmarkBackwardProbe:
    """perfbench's traced passes read every ``Tape.backward`` through
    ``tracer._backward_probe``, which reads ``len(tape)`` and
    ``tape.flags``. A tape keeps ``flags`` empty, the hexagon's qare
    included, so the probe reports no degenerate step."""

    @pytest.mark.parametrize("loss", [
        lambda tape: weighted_sum(scaled(tape.leaf(np.ones((2, 3))), 2.0)),
        _hexagon_qare,
    ], ids=["scaled-sum", "hexagon-qare"])
    def test_probe_reads_the_tape(self, monkeypatch, loss):
        monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
        tracer = importlib.import_module("tracer")
        tape = T.Tape()
        tape.backward(loss(tape))
        assert tape.flags == frozenset()
        assert tracer._backward_probe((tape,), {}, None) == {
            "nodes": len(tape), "degenerate": False}


def _distance_sum(x, y):
    """The sum of the euclidean distances between the rows of x and y,
    and its pullback onto x."""
    d, pullback = simgeom._similarity(x, y, "euclidean", "test")
    return d.sum(), lambda c: pullback(np.full(d.shape, c))[0]


class TestGradcheck:
    def test_detects_wrong_gradient(self):
        def bad(x):
            # claims d(sum x)/dx == 0.5
            return x.sum(), lambda c: np.full(x.shape, 0.5 * c)

        err = T.gradcheck(bad, np.ones((2, 2)))
        assert err > 0.1

    @pytest.mark.parametrize("f", [
        lambda x: (2.0 * x, lambda c: 2.0 * c),
        lambda x: 1.0,
        lambda x: weighted_sum(x),
    ], ids=["matrix", "float", "tensor"])
    def test_f_must_return_a_scalar_and_a_pullback(self, f):
        with pytest.raises(ContractError, match=(
                "^gradcheck: f must return a scalar value and its pullback$")):
            T.gradcheck(f, np.ones((2, 2)))

    def test_gradient_must_have_the_point_shape(self):
        with pytest.raises(ContractError, match=(
                r"^gradcheck: gradient shape \(4,\) != point shape \(2, 2\)$")):
            T.gradcheck(lambda x: (x.sum(), lambda c: np.full(4, c)), np.ones((2, 2)))

    def test_builds_no_tape(self, monkeypatch):
        def no_tape(self):
            raise AssertionError("gradcheck built a tape")

        def f(x):
            # x reaches both sides of the distances, scaled
            d, pullback = simgeom._similarity(2.0 * x, -0.5 * x, "euclidean", "test")

            def pull(c):
                g_a, g_b = pullback(np.full(d.shape, c))
                return 2.0 * g_a - 0.5 * g_b

            return d.sum(), pull

        monkeypatch.setattr(T.Tape, "__init__", no_tape)
        x0 = np.random.default_rng(0).normal(size=(3, 2))
        assert T.gradcheck(f, x0) < 1e-6

    def test_each_point_is_a_frozen_copy(self):
        # every point f sees is its own read-only C-ordered array: the
        # point, then x + h v and x - h v for each of K unit directions v
        seen = []
        w = np.arange(1.0, 7.0).reshape(2, 3)

        def f(x):
            seen.append(x)
            return (x * w).sum(), lambda c: c * w

        x0 = np.asfortranarray(np.arange(6.0).reshape(2, 3))
        T.gradcheck(f, x0)
        k = T._GRADCHECK_DIRECTIONS
        assert k == 2 and len(seen) == 1 + 2 * k
        assert seen[0].tobytes() == np.array(x0, order="C").tobytes()
        directions = []
        for plus, minus in zip(seen[1::2], seen[2::2]):
            v = (plus - minus) / 2e-6
            assert abs(np.linalg.norm(v) - 1.0) < 1e-8
            np.testing.assert_allclose((plus + minus) / 2.0, x0,
                                       rtol=0.0, atol=1e-15)
            directions.append(v / np.linalg.norm(v))
        assert abs(float(np.vdot(*directions))) < 1.0 - 1e-3
        for x in seen:
            assert x.flags.c_contiguous and not x.flags.writeable
        assert len({id(x) for x in seen}) == len(seen)

    def test_result_depends_on_f_and_x_alone(self):
        # the same point gives the same float bit for bit, and two points
        # of one shape are checked along different directions
        def f(x):
            return _distance_sum(x, np.ones((1, 3)))

        rng = np.random.default_rng(5)
        x1, x2 = rng.normal(size=(2, 4, 3))
        first, again = T.gradcheck(f, x1), T.gradcheck(f, x1)
        assert np.float64(first).tobytes() == np.float64(again).tobytes()
        seen = []

        def recorded(x):
            seen.append(x)
            return f(x)

        T.gradcheck(recorded, x1)
        T.gradcheck(recorded, x2)
        k = T._GRADCHECK_DIRECTIONS
        v1 = (seen[1] - seen[2]) / 2e-6
        v2 = (seen[2 + 2 * k] - seen[3 + 2 * k]) / 2e-6
        assert not np.allclose(v1, v2, rtol=0.0, atol=1e-3)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_nonfinite_output_rejected(self):
        def log(x):
            return np.log(x).sum(), lambda c: c / x

        with pytest.raises(EvaluationError):
            T.gradcheck(log, np.array([[-1.0, 1.0]]))

    def test_nonfinite_value_off_the_point_rejected(self):
        # finite at x = 0, so the analytic pass succeeds; +inf one step
        # to the right, where the first central difference evaluates f
        def cliff(x):
            value = np.inf if x.max() > 0.0 else x.sum()
            return value, lambda c: np.full(x.shape, c)

        with pytest.raises(EvaluationError,
                           match="^gradcheck: function value is not finite$"):
            T.gradcheck(cliff, np.zeros((1, 2)))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_nonfinite_gradient_rejected(self, bad):
        # a finite value whose pullback is not finite: the error <g, v> - num
        # is NaN or inf, and max(worst, nan) would report 0
        def broken(x):
            return x.sum(), lambda c: np.full(x.shape, bad)

        with pytest.raises(EvaluationError,
                           match="^gradcheck: gradient is not finite$"):
            T.gradcheck(broken, np.ones((2, 2)))

    @pytest.mark.parametrize("x, error", [
        (np.zeros((2, 2, 2)), ShapeError),
        (np.array([[1.0, np.nan]]), EvaluationError),
    ], ids=["3-d", "nan"])
    def test_point_must_be_finite_and_at_most_2d(self, x, error):
        with pytest.raises(error):
            T.gradcheck(lambda p: (p.sum(), lambda c: np.full(p.shape, c)), x)

    @settings(max_examples=25, deadline=None)
    @given(small_arrays())
    def test_composite_expression_gradient(self, a):
        # x reaches the sum through both of its operands, so their
        # gradients accumulate on the leaf
        def f(x):
            return weighted_sum(scaled(x, 0.7), x)

        assert T.gradcheck(taped(f), a) < 1e-5

    @settings(max_examples=25, deadline=None)
    @given(small_arrays(rows=(2, 5), cols=(2, 4)))
    def test_scale_then_distance_gradient(self, a):
        # x reaches both operands of the distance, one of them scaled
        def distances(x, y):
            return simgeom._similarity(x, y, "euclidean", "test")

        def f(x):
            return weighted_sum(node(distances, scaled(x, 0.5), x))

        cross = np.linalg.norm(0.5 * a[:, None, :] - a[None, :, :], axis=2)
        if cross.min() < 1e-2:
            return  # too close to the distance kink to difference safely
        assert T.gradcheck(taped(f), a) < 1e-5


def _partial(loss, side, other):
    """The reference: ``loss(a, b)`` as a function of one side, the other
    side held at ``other``, as the gradients suite checked each input with
    a gradcheck call of its own before one call checked both."""
    def f(x):
        value, pullback = loss(*((x, other) if side == 0 else (other, x)))
        return value, lambda c: pullback(c)[side]

    return f


def _per_input_worst(loss, a, b):
    return max(T.gradcheck(_partial(loss, 0, b), a),
               T.gradcheck(_partial(loss, 1, a), b))


def _bits(x):
    return np.float64(x).tobytes()


def _weighted_inputs(k, seen=None):
    """A function of k arrays of shape (2, 3), sum_j <x_j, w_j>, whose
    pullback gives a tuple of k gradients, a single array for k = 1.
    Every call appends its inputs to ``seen``."""
    ws = [np.arange(6.0).reshape(2, 3) + j for j in range(k)]

    def f(*xs):
        if seen is not None:
            seen.append(xs)
        value = sum(float((x * w).sum()) for x, w in zip(xs, ws))
        if k == 1:
            return value, lambda c: c * ws[0]
        return value, lambda c: tuple(c * w for w in ws)

    return f


class TestGradcheckInputs:
    """One gradcheck call checks every input of f from one base
    evaluation, and gives each input the error its own check gives."""

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_two_inputs_match_the_per_input_checks_bit_for_bit(self, seed):
        rng = np.random.default_rng(seed)
        za, zb = rng.normal(size=(2, 5, 3))
        cfg = losses.LossConfig(kind="infonce", beta=1.0, temperature=0.5)
        gt = losses.GroundTruthAlignment(rng.permutation(5))

        def objective(a, b):
            return losses.two_view_loss(a, b, gt, cfg)

        def distances(a, b):
            d, pullback = simgeom._similarity(a, b, "euclidean", "test")
            return d.sum(), lambda c: pullback(np.full(d.shape, c))

        for loss in (objective, losses.qare, distances):
            got = T.gradcheck(loss, za, zb)
            assert _bits(got) == _bits(_per_input_worst(loss, za, zb))

    def test_every_gradients_case_matches_the_per_input_checks(self):
        rng = np.random.default_rng(107)
        for label, cfg in verify._GRAD_CASES:
            for _ in range(2):
                za, zb, gt = verify._generic_point(rng, label, cfg.mode)
                if label == "qare":
                    loss = losses.qare
                else:
                    def loss(a, b):
                        return losses.two_view_loss(a, b, gt, cfg)
                got = T.gradcheck(loss, za, zb)
                assert _bits(got) == _bits(_per_input_worst(loss, za, zb)), label

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_f_runs_once_at_the_base_and_four_times_per_input(self, k):
        seen = []
        xs = [np.full((2, 3), float(j)) for j in range(k)]
        assert T.gradcheck(_weighted_inputs(k, seen), *xs) < 1e-8
        assert T._GRADCHECK_DIRECTIONS == 2 and len(seen) == 1 + 4 * k
        base = seen[0]
        assert all(not x.flags.writeable for x in base)
        # input j moves alone on calls 1 + 4j .. 4 + 4j; the others are
        # handed their frozen bases
        for j in range(k):
            for point in seen[1 + 4 * j:5 + 4 * j]:
                for i, x in enumerate(point):
                    if i == j:
                        assert x is not base[i] and not x.flags.writeable
                        assert not np.array_equal(x, base[i])
                    else:
                        assert x is base[i]

    @pytest.mark.parametrize("grads", [
        lambda c: np.ones((2, 3)),
        lambda c: (np.ones((2, 3)),),
        lambda c: (np.ones((2, 3)),) * 3,
        lambda c: [np.ones((2, 3))] * 2,
    ], ids=["one-array", "one-tuple", "three", "list"])
    def test_the_pullback_must_give_one_gradient_per_input(self, grads):
        def f(a, b):
            return float(a.sum() + b.sum()), grads

        with pytest.raises(ContractError, match=(
                "^gradcheck: the pullback must give a tuple of 2 gradients$")):
            T.gradcheck(f, np.ones((2, 3)), np.ones((2, 3)))

    def test_each_gradient_must_have_its_input_shape(self):
        def f(a, b):
            return float(a.sum() + b.sum()), lambda c: (np.ones((2, 3)), np.ones(3))

        with pytest.raises(ContractError, match=(
                r"^gradcheck: gradient shape \(3,\) != point shape \(1, 3\)$")):
            T.gradcheck(f, np.ones((2, 3)), np.ones((1, 3)))

    def test_a_wrong_gradient_on_either_input_shows(self):
        def crossed(a, b):
            # the gradients of <a, w> + 2 <b, w>, handed back crossed
            w = np.arange(6.0).reshape(2, 3)
            value = float((a * w).sum() + 2.0 * (b * w).sum())
            return value, lambda c: (2.0 * c * w, c * w)

        ones = np.ones((2, 3))
        assert T.gradcheck(crossed, ones, ones) > 0.1


class TestClosedFormGradients:
    """Gradients with known closed forms, read back off the tape."""

    def test_sum_gradient_is_ones(self):
        tape = T.Tape()
        x = tape.leaf(np.arange(6.0).reshape(2, 3))
        grads = tape.backward(weighted_sum(x))
        np.testing.assert_array_equal(grads[x].data, np.ones((2, 3)))

    def test_trace_of_product_gradient_is_transpose(self):
        rng = np.random.default_rng(3)
        a = rng.normal(size=(3, 3))
        b = rng.normal(size=(3, 3))

        def trace_ab(x):
            # tr(x b) = sum_ij x_ij b_ji
            return weighted_sum(x, b.T)

        tape = T.Tape()
        x = tape.leaf(a)
        grads = tape.backward(trace_ab(x))
        np.testing.assert_allclose(grads[x].data, b.T, atol=1e-12)
        assert T.gradcheck(taped(trace_ab), a) < 1e-8

    def test_squared_norm_gradcheck_is_exact(self):
        rng = np.random.default_rng(4)
        x = rng.normal(size=(4, 2))
        assert T.gradcheck(taped(lambda t: weighted_sum(t, t)), x) < 1e-8
