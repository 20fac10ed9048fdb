import itertools

import numpy as np
import pytest

from setcontrast import losses, simgeom, verify
from setcontrast.errors import ConfigError

from conftest import scaled


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
    @pytest.mark.parametrize("k, steps", [(2, 100), (3, 60), (4, 12)])
    def test_table_lookup_matches_the_loop_bit_for_bit(self, k, steps):
        got = verify._simplex_grid(k, steps)
        want = _loop_grid(k, steps)
        assert got.shape == want.shape and got.dtype == want.dtype
        assert got.tobytes() == want.tobytes()


class TestProjectionOracle:
    def test_masked_pass_matches_support_loop(self):
        # Gaussian, integer-valued and one-decimal inputs, the last two
        # with many tied coordinates and candidates landing exactly on 0
        rng = np.random.default_rng(31)
        worst = 0.0
        for i in range(2400):
            k = 1 + i % 8
            family = i // 8 % 3
            if family == 0:
                z = rng.normal(size=k) * float(rng.choice([0.1, 1.0, 10.0]))
            elif family == 1:
                z = rng.integers(-3, 4, size=k).astype(float)
            else:
                z = np.round(rng.normal(size=k), 1)
            got = verify._projection_oracle(z)
            want = _loop_oracle(z)
            assert np.array_equal(got > 0.0, want > 0.0), z
            worst = max(worst, float(np.max(np.abs(got - want))))
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


def _halved_pullback(real):
    # ``losses._qare`` with its pullback halved
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
        (losses, "_qare", _halved_pullback(losses._qare)),
    ], ids=["cosine-reads-g-transposed", "euclidean-reads-g-transposed",
            "qare-halved"])
    def test_fails_on_a_wrong_pullback(self, monkeypatch, module, name, wrapped):
        monkeypatch.setattr(module, name, wrapped)
        result = verify.suite_gradients()
        assert not result.passed and result.max_err > 1e-4

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


class TestGenericPoint:
    def test_sampling_failure_is_a_config_error(self):
        with pytest.raises(ConfigError, match=(
                "^could not sample a generic point for batch-hard/euclidean$")):
            verify._generic_point(_FlatRng(), "batch-hard", "euclidean")
