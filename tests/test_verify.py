import numpy as np

from setcontrast import verify


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
