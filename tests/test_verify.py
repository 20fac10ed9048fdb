import dataclasses
import itertools
import math
import tracemalloc

import numpy as np
import pytest

from setcontrast import assignment, losses, simgeom, tensor as T, verify
from setcontrast.errors import ConfigError


def scaled(out, factor):
    """A (value, pullback) pair scaled by ``factor``: the value, and the
    pullback through the upstream it is handed."""
    value, pullback = out
    return factor * value, lambda c: pullback(factor * c)


def _loop_oracle(z):
    # the support-enumeration oracle as one Python loop over the masks
    k = z.size
    best = None
    best_d = np.inf
    for mask in range(1, 2 ** k):
        idx = [j for j in range(k) if mask >> j & 1]
        tau = (z[idx].sum() - 1.0) / len(idx)
        cand = z[idx] - tau
        if cand.min() < 0.0:
            continue
        p = np.zeros(k)
        p[idx] = cand
        d = float(((z - p) ** 2).sum())
        if d < best_d:
            best_d = d
            best = p
    return best


def _loop_grid(k, steps):
    # the simplex grid as a loop that adds 1/steps once per draw
    pts = []
    for comp in itertools.combinations_with_replacement(range(k), steps):
        p = np.zeros(k)
        for j in comp:
            p[j] += 1.0 / steps
        pts.append(p)
    return np.array(pts)


class TestSimplexGrid:
    @pytest.mark.parametrize("k, steps", [(1, 5), (2, 100), (3, 60), (4, 12)])
    def test_table_lookup_gives_the_loops_points_bit_for_bit(self, k, steps):
        # the same points in another order: the suite reads only the
        # smallest distance to them
        got = verify._simplex_grid(k, steps)
        want = _loop_grid(k, steps)
        assert got.shape == want.shape and got.dtype == want.dtype
        assert sorted(map(bytes, got)) == sorted(map(bytes, want))

    def test_points_run_in_the_lexicographic_order_of_their_counts(self):
        counts = np.rint(verify._simplex_grid(3, 4) * 4).astype(int)
        assert counts.tolist() == [
            [0, 0, 4], [0, 1, 3], [0, 2, 2], [0, 3, 1], [0, 4, 0],
            [1, 0, 3], [1, 1, 2], [1, 2, 1], [1, 3, 0],
            [2, 0, 2], [2, 1, 1], [2, 2, 0], [3, 0, 1], [3, 1, 0], [4, 0, 0]]


class TestProjectionOracle:
    def test_masked_pass_matches_support_loop(self):
        # Gaussian, integer-valued and one-decimal inputs, the last two
        # with many tied coordinates and candidates landing exactly on 0,
        # fed as stacks of 30 same-size rows that cycle through the
        # three families
        rng = np.random.default_rng(31)
        by_size = {}
        for i in range(2400):
            k = 1 + i % 8
            family = i // 8 % 3
            if family == 0:
                z = rng.normal(size=k) * float(rng.choice([0.1, 1.0, 10.0]))
            elif family == 1:
                z = rng.integers(-3, 4, size=k).astype(float)
            else:
                z = np.round(rng.normal(size=k), 1)
            by_size.setdefault(k, []).append(z)
        worst = 0.0
        stacks = [np.array(rows[start:start + 30])
                  for rows in by_size.values()
                  for start in range(0, len(rows), 30)]
        for stack in stacks:
            got = verify._projection_oracle(stack)
            assert got.shape == stack.shape
            for z, p in zip(stack, got):
                want = _loop_oracle(z)
                assert np.array_equal(p > 0.0, want > 0.0), z
                worst = max(worst, float(np.max(np.abs(p - want))))
                # a row's projection does not depend on its stack
                assert p.tobytes() == verify._projection_oracle(z[None, :])[0].tobytes()
        # the full support of k = 8 adds its coordinates in a different
        # order than numpy's pairwise sum, which may move the last ulp
        assert worst <= 1e-15

    def test_mask_table_is_read_only_in_mask_order(self):
        for k in range(1, 9):
            masks = verify._support_masks(k)
            assert masks.shape == (2 ** k - 1, k)
            assert masks.dtype == bool
            assert not masks.flags.writeable
            for r, row in enumerate(masks):
                assert sum(1 << j for j in np.flatnonzero(row)) == r + 1


class TestUpperBound:
    def test_fails_on_a_negated_qare(self, monkeypatch):
        real = losses.qare
        monkeypatch.setattr(losses, "qare",
                            lambda *args: scaled(real(*args), -1.0))
        assert not verify.suite_upper_bound().passed


def _transposed_pullback(real):
    # the map of ``real`` with a pullback that reads g^T for g
    def wrapped(da, db):
        value, pullback = real(da, db)
        return value, lambda g: pullback(g.T)

    return wrapped


def _crossed_pullback(real):
    # ``losses.two_view_loss`` with its pullback giving (g_b, g_a)
    def wrapped(*args):
        value, pullback = real(*args)
        return value, lambda c: pullback(c)[::-1]

    return wrapped


def _halved_pullback(real):
    # ``losses.qare`` with its pullback halved
    def wrapped(za, zb):
        value, pullback = real(za, zb)
        return value, lambda c: tuple(0.5 * g for g in pullback(c))

    return wrapped


class TestGradientSuite:
    # each mutation leaves every value as it is and breaks one pullback;
    # the cosine one is caught only by the suite's cosine cases
    @pytest.mark.parametrize("module, name, wrapped", [
        (simgeom, "_inner_products", _transposed_pullback(simgeom._inner_products)),
        (simgeom, "_distances", _transposed_pullback(simgeom._distances)),
        (losses, "qare", _halved_pullback(losses.qare)),
        (losses, "two_view_loss", _crossed_pullback(losses.two_view_loss)),
    ], ids=["cosine-reads-g-transposed", "euclidean-reads-g-transposed",
            "qare-halved", "two-view-gradients-crossed"])
    def test_fails_on_a_wrong_pullback(self, monkeypatch, module, name, wrapped):
        monkeypatch.setattr(module, name, wrapped)
        result = verify.suite_gradients()
        assert not result.passed and result.max_err > 1e-4

    def test_passes_with_no_tape(self, monkeypatch):
        # gradcheck reads the array functions' pullbacks: no Tape and no
        # custom_op node is made
        def no_tape(*args):
            raise AssertionError("the gradients suite built a tape")

        monkeypatch.setattr(T.Tape, "__init__", no_tape)
        monkeypatch.setattr(T, "custom_op", no_tape)
        result = verify.suite_gradients()
        assert result.passed and result.max_err < 1e-4

    def test_one_base_evaluation_serves_both_inputs_of_a_point(self, monkeypatch):
        # 300 points, each evaluated once at its base and four times per
        # input: 9 calls a point, where a check per input made 10
        calls = {"two_view_loss": 0, "qare": 0}

        def counted(name):
            real = getattr(losses, name)

            def wrapped(*args):
                calls[name] += 1
                return real(*args)

            return wrapped

        for name in calls:
            monkeypatch.setattr(losses, name, counted(name))
        assert verify.suite_gradients().passed
        # qare also runs inside the two combined cases' objective
        assert calls == {"two_view_loss": 2520, "qare": 540}

    def test_reports_the_same_line_twice_in_one_process(self):
        first, again = (verify.format_result(verify.run(["gradients"])[0])
                        for _ in range(2))
        assert first == again
        assert first.endswith("600 checks over 15 losses")


class _FlatRng:
    """A generator stand-in whose draws are all zeros: every pair of
    embeddings is at distance 0, so no draw is generic."""

    def normal(self, size):
        return np.zeros(size)

    def permutation(self, n):
        return np.arange(n)


def reference_generic_point(rng, kind, mode):
    """``verify._generic_point`` with its structured-LAP and sparseclr
    tests as Python loops: a sum per permutation of the 24, and a
    threshold call per row."""
    n = 4
    positives = np.arange(n) == np.arange(n)[:, None]
    for _ in range(500):
        za = rng.normal(size=(n, 3))
        zb = rng.normal(size=(n, 3))
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
            costs = sorted(sum(sm[i, p[i]] for i in range(n))
                           for p in itertools.permutations(range(n)))
            ok = costs[1] - costs[0] >= 1e-3
        elif kind == "nt-logistic":
            neg = np.sort(np.where(pos, np.inf, s_pair), axis=1)
            ok = bool(np.all(neg[:, 1] - neg[:, 0] >= 1e-3))
        elif kind == "sparseclr":
            ok = all(np.abs(z - losses.sparsemax_threshold(z)).min() >= 1e-3
                     for z in -s_pair)
        elif kind in ("qare", "combined"):
            shifted = (1.0 + z @ z.T for z in (za, zb))
            ok = min(simgeom.min_eigengap(d.values)
                     for d in simgeom.sym_eigen_pair(*shifted)) >= 1e-3
        if ok:
            return za, zb, losses.GroundTruthAlignment(perm)
    raise ConfigError(f"could not sample a generic point for {kind}/{mode}")


class TestGenericPoint:
    def test_sampling_failure_is_a_config_error(self):
        with pytest.raises(ConfigError, match=(
                "^could not sample a generic point for batch-hard/euclidean$")):
            verify._generic_point(_FlatRng(), "batch-hard", "euclidean")

    @pytest.mark.parametrize("seed", [107, 5, 2024])
    def test_draws_the_points_of_the_loop_form(self, seed):
        # the gradients suite's 300 draws, in its order, from one generator
        # each: the same points, alignments and generator state
        rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        for label, cfg in verify._GRAD_CASES:
            for _ in range(20):
                za, zb, gt = verify._generic_point(rng, label, cfg.mode)
                ref_a, ref_b, ref_gt = reference_generic_point(ref_rng, label, cfg.mode)
                assert za.tobytes() == ref_a.tobytes(), label
                assert zb.tobytes() == ref_b.tobytes(), label
                assert gt == ref_gt, label
        assert rng.bit_generator.state == ref_rng.bit_generator.state


# The three suites in their per-instance form: each instance's reference
# is scored on its own, the sparsemax oracle projects one vector. The
# chunked suites must give the same SuiteResult, max_err bits included.

def reference_projection_oracle(z):
    masks = verify._support_masks(z.size)
    total = np.cumsum(np.where(masks, z, 0.0), axis=1)[:, -1]
    tau = (total - 1.0) / masks.sum(axis=1)
    cand = z - tau[:, None]
    feasible = np.where(masks, cand, np.inf).min(axis=1) >= 0.0
    p = np.where(masks, cand, 0.0)
    d = ((z - p) ** 2).sum(axis=1)
    d[~feasible] = np.inf
    return p[np.argmin(d)]


def reference_suite_hinge_identity():
    rng = np.random.default_rng(102)
    worst = 0.0
    margins = (0.0, 0.3, 0.5)
    for k in range(1000):
        n = int(rng.integers(2, 9))
        m = margins[k % 3]
        s = rng.normal(size=(n, n))
        perm = rng.permutation(n)
        gt = losses.GroundTruthAlignment(perm)
        got = n * losses.batch_hard_lap_loss(s, gt, margin=m)[0]
        pos = s[np.arange(n), perm] + m
        neg = np.where(np.arange(n) == perm[:, None], np.inf, s).min(axis=1)
        ref = np.maximum(0.0, pos - neg).sum()
        worst = max(worst, abs(got - ref))
    return verify.SuiteResult("hinge_identity", worst <= 1e-12, worst,
                              f"1000 instances, margins {margins}")


def reference_suite_smoothing_identity():
    rng = np.random.default_rng(103)
    worst = 0.0
    outside = 0.0
    temps = (0.05, 0.5, 1.0)
    for k in range(1000):
        n = int(rng.integers(2, 9))
        tau = temps[k % 3]
        s = rng.normal(size=(n, n))
        perm = rng.permutation(n)
        gt = losses.GroundTruthAlignment(perm)
        got = n * losses.smoothed_batch_hard_loss(s, gt, temperature=tau)[0]
        lse = np.logaddexp.reduce(-s / tau, axis=1)
        pos = s[np.arange(n), perm]
        ref = (pos / tau + lse).sum() * tau
        worst = max(worst, abs(got - ref))
        if k % 4 == 0:
            sparse = n * losses.sparseclr_loss(s, gt)[0]
            hard = pos.sum() - s.min(axis=1).sum()
            outside = max(outside, hard - n / 2 - sparse, sparse - (hard - 0.5))
    return verify.SuiteResult("smoothing_identity", max(worst, outside) <= 1e-10,
                              max(worst, outside),
                              f"1000 instances, temperatures {temps}, "
                              f"250 sparseclr brackets, excess {outside:.3e}")


def reference_suite_sparsemax():
    rng = np.random.default_rng(106)
    worst = 0.0
    for k, steps in ((2, 100), (3, 60)):
        grid = verify._simplex_grid(k, steps)
        for _ in range(10):
            z = rng.normal(size=k)
            p = reference_projection_oracle(z)
            if abs(p.sum() - 1.0) > 1e-12 or p.min() < -1e-12:
                return verify.SuiteResult("sparsemax", False, 1.0,
                                          "oracle left the simplex")
            d_oracle = float(((z - p) ** 2).sum())
            d_grid = float(((z[None, :] - grid) ** 2).sum(axis=1).min())
            if d_oracle > d_grid + 1e-12:
                return verify.SuiteResult("sparsemax", False, d_oracle - d_grid,
                                          "oracle beaten by grid search")
    worst_thresh = 0.0
    for _ in range(1000):
        k = int(rng.integers(1, 9))
        z = rng.normal(size=k) * float(rng.choice([0.1, 1.0, 10.0]))
        p = losses.sparsemax(z)
        q = reference_projection_oracle(z)
        worst = max(worst, float(np.max(np.abs(p - q))))
        t = losses.sparsemax_threshold(z)
        ident = np.maximum(z - t, 0.0)
        worst_thresh = max(worst_thresh, float(np.max(np.abs(p - ident))))
    passed = worst <= 1e-10 and worst_thresh <= 1e-12
    return verify.SuiteResult("sparsemax", passed, max(worst, worst_thresh),
                              f"1000 vectors, threshold identity err {worst_thresh:.3e}")


class TestChunkedSuites:
    @pytest.mark.parametrize("suite, reference", [
        (verify.suite_hinge_identity, reference_suite_hinge_identity),
        (verify.suite_smoothing_identity, reference_suite_smoothing_identity),
        (verify.suite_sparsemax, reference_suite_sparsemax),
    ], ids=["hinge_identity", "smoothing_identity", "sparsemax"])
    def test_matches_the_per_instance_form(self, suite, reference):
        got, want = suite(), reference()
        assert got == want
        assert np.float64(got.max_err).tobytes() == np.float64(want.max_err).tobytes()

    def test_stacked_oracle_matches_the_per_vector_form(self):
        rng = np.random.default_rng(32)
        for k in range(1, 9):
            stack = rng.normal(size=(verify._oracle_rows(k), k))
            stack[::2] = np.round(stack[::2], 1)
            got = verify._projection_oracle(stack)
            want = np.array([reference_projection_oracle(z) for z in stack])
            assert got.tobytes() == want.tobytes()

    def test_chunks_fill_by_size_and_flush_the_rest(self):
        draws = [(k % 3, (k, float(k))) for k in range(10)]
        got = [(size, [c.tolist() for c in cols])
               for size, cols in verify._chunks(iter(draws), lambda size: 2)]
        assert got == [
            (0, [[0, 3], [0.0, 3.0]]), (1, [[1, 4], [1.0, 4.0]]),
            (2, [[2, 5], [2.0, 5.0]]), (0, [[6, 9], [6.0, 9.0]]),
            (1, [[7], [7.0]]), (2, [[8], [8.0]])]

    def test_oracle_rows_keep_temporaries_within_the_element_cap(self):
        rows = [verify._oracle_rows(k) for k in range(1, 9)]
        assert rows == [32, 32, 32, 32, 26, 10, 4, 2]
        for k, m in enumerate(rows, start=1):
            assert m * (2 ** k - 1) * k <= verify._ORACLE_ELEMENTS

    @pytest.mark.parametrize("name, bound_kib", [
        ("hinge_identity", 256), ("smoothing_identity", 256), ("sparsemax", 300)])
    def test_peak_traced_memory(self, name, bound_kib):
        # one partial chunk per size at a time; scoring every instance
        # in one stack peaks at 0.8-1 MiB
        suite = verify.SUITES[name]
        suite()
        tracemalloc.start()
        try:
            suite()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= bound_kib * 1024


def test_indexed_scale_draw_matches_choice():
    by_choice, by_index = np.random.default_rng(7), np.random.default_rng(7)
    for _ in range(1000):
        assert (float(by_choice.choice((0.1, 1.0, 10.0)))
                == verify._SCALES[int(by_index.integers(0, 3))])
    assert by_choice.bit_generator.state == by_index.bit_generator.state


def _at_call(real, call, change):
    # ``real`` with ``change`` applied to its result on the call-th call
    calls = itertools.count(1)

    def wrapped(*args, **kwargs):
        out = real(*args, **kwargs)
        return change(out) if next(calls) == call else out

    return wrapped


def _nan_entry(p):
    p = p.copy()
    p[0] = np.nan
    return p


class TestNanError:
    # one NaN from the library makes its suite FAIL with max_err nan
    @pytest.mark.parametrize("suite, module, name, call, change", [
        ("hinge_identity", losses, "batch_hard_lap_loss", 500,
         lambda v: scaled(v, np.nan)),
        ("smoothing_identity", losses, "smoothed_batch_hard_loss", 500,
         lambda v: scaled(v, np.nan)),
        ("smoothing_identity", losses, "sparseclr_loss", 100,
         lambda v: scaled(v, np.nan)),
        ("upper_bound", losses, "structured_lap_loss", 100,
         lambda v: scaled(v, np.nan)),
        ("upper_bound", losses, "qare", 30, lambda v: scaled(v, np.nan)),
        ("lap_exact", assignment, "solve_lap", 300,
         lambda a: dataclasses.replace(a, cost=np.nan)),
        ("sparsemax", losses, "sparsemax", 500, _nan_entry),
    ], ids=["hinge_identity-batch_hard_lap_loss",
            "smoothing_identity-smoothed_batch_hard_loss",
            "smoothing_identity-sparseclr_loss",
            "upper_bound-structured_lap_loss", "upper_bound-qare",
            "lap_exact-solve_lap", "sparsemax-sparsemax"])
    def test_suite_fails(self, monkeypatch, suite, module, name, call, change):
        monkeypatch.setattr(module, name,
                            _at_call(getattr(module, name), call, change))
        result = verify.SUITES[suite]()
        assert not result.passed and math.isnan(result.max_err)
        assert verify.format_result(result).startswith(f"FAIL {suite} ")
        assert "max_err=nan" in verify.format_result(result)


def _shifted_threshold(monkeypatch, call, in_sparsemax):
    # T(z) of the call-th vector the sparsemax suite draws, times
    # 1 + 1e-6: in the suite's own sparsemax_threshold call, and with
    # in_sparsemax also where losses.sparsemax reads it
    real_sparsemax, real_threshold = losses.sparsemax, losses.sparsemax_threshold
    calls = itertools.count(1)
    state = {"target": None, "inside": False}

    def sparsemax(z):
        if next(calls) == call:
            state["target"] = np.ravel(z).copy()
        state["inside"] = True
        try:
            return real_sparsemax(z)
        finally:
            state["inside"] = False

    def threshold(z):
        t = real_threshold(z)
        hit = (state["target"] is not None
               and np.array_equal(np.ravel(z), state["target"]))
        return t * (1 + 1e-6) if hit and (in_sparsemax or not state["inside"]) else t

    monkeypatch.setattr(losses, "sparsemax", sparsemax)
    monkeypatch.setattr(losses, "sparsemax_threshold", threshold)


class TestOneWrongInstance:
    # one instance's value off by a relative 1e-6, at the first, a middle
    # and the last instance: the last sits in a partial chunk
    @pytest.mark.parametrize("call", [1, 500, 1000])
    @pytest.mark.parametrize("suite, name, bound", [
        ("hinge_identity", "batch_hard_lap_loss", 1e-12),
        ("smoothing_identity", "smoothed_batch_hard_loss", 1e-10),
    ])
    def test_identity_fails(self, monkeypatch, suite, name, bound, call):
        real = getattr(losses, name)
        monkeypatch.setattr(losses, name,
                            _at_call(real, call, lambda v: scaled(v, 1 + 1e-6)))
        result = verify.SUITES[suite]()
        assert not result.passed and result.max_err > bound

    # a bracket is an inequality, and each value lies 3-7 % of itself
    # inside it: a relative 1e-6 leaves it inside, 10 % takes it out.
    # The 250 brackets are every fourth instance: the first, a middle
    # one and the last
    @pytest.mark.parametrize("call", [1, 125, 250])
    def test_sparseclr_bracket_fails(self, monkeypatch, call):
        monkeypatch.setattr(losses, "sparseclr_loss",
                            _at_call(losses.sparseclr_loss, call,
                                     lambda v: scaled(v, 0.9)))
        result = verify.suite_smoothing_identity()
        assert not result.passed and result.max_err > 1e-10
        assert result.detail.endswith(f"excess {result.max_err:.3e}")

    @pytest.mark.parametrize("call", [1, 500, 1000])
    def test_sparsemax_oracle_fails(self, monkeypatch, call):
        # sparsemax and the threshold agree, so only the oracle sees it
        _shifted_threshold(monkeypatch, call, in_sparsemax=True)
        result = verify.suite_sparsemax()
        assert not result.passed and result.max_err > 1e-10
        assert result.detail.endswith("threshold identity err 0.000e+00")

    @pytest.mark.parametrize("call", [1, 500, 1000])
    def test_threshold_identity_fails(self, monkeypatch, call):
        # sparsemax is right, so only the threshold identity sees it
        _shifted_threshold(monkeypatch, call, in_sparsemax=False)
        result = verify.suite_sparsemax()
        assert not result.passed and result.max_err > 1e-12
        assert result.detail.endswith(
            f"threshold identity err {result.max_err:.3e}")
