import itertools
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from setcontrast import simgeom, tensor as T
from setcontrast.errors import ContractError, EvaluationError, ShapeError

from conftest import weighted_sum


def _symmetric_matrix(n, seed, low_rank):
    rng = np.random.default_rng(seed)
    if low_rank and n > 1:
        # Gram-plus-ones with rank(Z) < n, the shape of cosine-mode S_A/S_B:
        # repeated (zero) eigenvalues whenever rank(Z) + 1 < n
        z = rng.normal(size=(n, int(rng.integers(1, n))))
        return z @ z.T + 1.0
    m = rng.normal(size=(n, n))
    return (m + m.T) / 2.0


symmetric_matrices = st.builds(
    _symmetric_matrix, st.integers(1, 8), st.integers(0, 2 ** 31 - 1),
    st.booleans())


# asymmetries of 2e308 in matrices whose Frobenius norm overflows; in the
# second, max|a| * ||a / max|a| ||_F = 2e308 overflows too
GROSSLY_ASYMMETRIC = np.array([[1e308, 1e308], [-1e308, 0.0]])
GROSSLY_ASYMMETRIC_FULL = np.array([[1e308, 1e308], [-1e308, 1e308]])


def _nudged(asymmetry):
    """[[0, 10], [10, 0]] with ``asymmetry`` added below the diagonal.
    ||a||_F = 14.1 bounds the asymmetry at 1.41e-8: 2e-9 lies past the
    1e-9 the bound is never below, and inside it; 1.5e-8 lies past it."""
    return np.array([[0.0, 10.0], [10.0 + asymmetry, 0.0]])


def _shifted_cosine(z):
    """1 + S_A of one set: its rows made unit, as the encoder makes them,
    and their inner products from cosine ``cross_distances``."""
    x = z / np.linalg.norm(z, axis=1, keepdims=True)
    return simgeom.cross_distances(x, x, "cosine").data + 1.0


def _pair_family():
    """Pairs of one shape: Gaussian symmetric at n = 1-64, integer ties,
    rank-deficient cosine 1 + S at n = 32 in 16 dims, and the hexagon's
    distance matrix (repeated eigenvalues) against a generic set's."""
    rng = np.random.default_rng(22)
    for n in range(1, 65):
        yield _symmetric_matrix(n, 2 * n, False), _symmetric_matrix(n, 2 * n + 1, False)
    for n in (3, 6, 12):
        ties = [rng.integers(0, 3, size=(n, n)).astype(np.float64) for _ in range(2)]
        yield tuple(t + t.T for t in ties)
    yield _shifted_cosine(rng.normal(size=(32, 16))), _shifted_cosine(rng.normal(size=(32, 16)))
    angles = np.arange(6) * (np.pi / 3.0)
    hexagon = T.Tensor(np.stack([np.cos(angles), np.sin(angles)], axis=1))
    generic = T.Tensor(rng.normal(size=(6, 2)))
    yield simgeom.cross_distances(hexagon, hexagon).data, simgeom.cross_distances(generic, generic).data


class TestSymEigen:
    @settings(max_examples=40, deadline=None)
    @given(symmetric_matrices)
    def test_matches_lapack_eigenvalues(self, m):
        got = simgeom.sym_eigen(m).values
        want = np.linalg.eigvalsh(m)[::-1]
        np.testing.assert_allclose(got, want, atol=1e-10 * max(1.0, np.abs(m).max()))

    @settings(max_examples=40, deadline=None)
    @given(symmetric_matrices)
    def test_eigenpairs_satisfy_residual_and_orthogonality(self, m):
        dec = simgeom.sym_eigen(m)
        scale = max(1.0, float(np.linalg.norm(m)))
        res = m @ dec.vectors - dec.vectors * dec.values[None, :]
        assert np.abs(res).max() <= 1e-9 * scale
        orth = dec.vectors.T @ dec.vectors - np.eye(m.shape[0])
        assert np.abs(orth).max() <= 1e-10

    def test_values_sorted_descending(self):
        m = np.diag([1.0, 5.0, -2.0])
        np.testing.assert_allclose(simgeom.sym_eigen(m).values, [5.0, 1.0, -2.0])

    def test_diagonal_matrix_is_immediate(self):
        m = np.diag([3.0, 1.0])
        dec = simgeom.sym_eigen(m)
        np.testing.assert_allclose(dec.values, [3.0, 1.0])
        np.testing.assert_allclose(np.abs(dec.vectors), np.eye(2))

    def test_asymmetric_input_rejected(self):
        m = np.array([[0.0, 1.0], [0.0, 0.0]])
        with pytest.raises(ContractError):
            simgeom.sym_eigen(m)

    @pytest.mark.parametrize("shape", [(2, 3), (4,), (2, 2, 2)])
    def test_non_square_input_rejected(self, shape):
        with pytest.raises(ShapeError,
                           match=f"^expected a square matrix, got shape {re.escape(str(shape))}$"):
            simgeom.sym_eigen(np.zeros(shape))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_input_rejected(self, bad):
        m = np.eye(3)
        m[0, 1] = m[1, 0] = bad
        with pytest.raises(EvaluationError, match="NaN or Inf"):
            simgeom.sym_eigen(m)

    def test_tiny_asymmetry_tolerated(self):
        m = np.array([[1.0, 2.0], [2.0 + 1e-13, 1.0]])
        simgeom.sym_eigen(m)

    @pytest.mark.parametrize("scale, tolerated, rejected", [
        (1e6, 1e-5, 1e-2),      # ||a||_F = 3.2e6: the bound is 3.2e-3
        (0.1, 5e-10, 2e-9),     # ||a||_F = 0.32: the bound is 1e-9
        (10.0, 2e-9, 4e-8),     # ||a||_F = 31.6: the bound is 3.2e-8, and
                                # 2e-9 is past the 1e-9 it is never below
    ])
    def test_asymmetry_bound_is_relative_to_the_norm(self, scale, tolerated,
                                                     rejected):
        m = np.array([[1.0, 2.0], [2.0, 1.0]]) * scale
        m[1, 0] += tolerated
        np.testing.assert_allclose(simgeom.sym_eigen(m).values,
                                   [3.0 * scale, -scale], atol=tolerated)
        m[1, 0] += rejected - tolerated
        with pytest.raises(ContractError, match="not symmetric within 1e-9"):
            simgeom.sym_eigen(m)

    @staticmethod
    def _symmetrized_eigh(a):
        vals, vecs = np.linalg.eigh((a + a.T) / 2.0)
        return vals[::-1], vecs[:, ::-1]

    @staticmethod
    def _symmetric_family():
        rng = np.random.default_rng(21)
        for n in range(1, 65):
            m = rng.normal(size=(n, n))
            yield (m + m.T) / 2.0
        for n, e in ((4, 3), (32, 16)):  # explicit and Gram-form distances
            z = rng.normal(size=(n, e))
            yield simgeom.cross_distances(z, z).data
            yield _shifted_cosine(z)

    def test_exact_symmetry_gives_the_symmetrized_bits(self, monkeypatch):
        # an exactly symmetric matrix reaches eigh with its own bits, which
        # are those of (a + a^T) / 2
        real = np.linalg.eigh
        seen = []
        monkeypatch.setattr(np.linalg, "eigh", lambda a: seen.append(a) or real(a))
        as_it_stands = 0
        for a in self._symmetric_family():
            seen.clear()
            dec = simgeom.sym_eigen(a)
            if np.array_equal(a, a.T):
                assert len(seen) == 1 and seen[0].tobytes() == a.tobytes()
                as_it_stands += 1
            vals, vecs = self._symmetrized_eigh(a)
            assert dec.values.tobytes() == vals.tobytes()
            assert dec.vectors.tobytes() == vecs.tobytes()
        # (m + m^T) / 2 and both forms of a self-distance matrix are
        # symmetric bit for bit; cosine 1 + S is on a BLAS that multiplies
        # a matrix by its transpose symmetrically
        assert as_it_stands >= 66

    def test_one_ulp_asymmetry_takes_the_tolerance_path(self, monkeypatch):
        a = _symmetric_matrix(5, 7, False)
        a[3, 1] = np.nextafter(a[3, 1], np.inf)
        real = np.linalg.eigh
        seen = []
        monkeypatch.setattr(np.linalg, "eigh", lambda m: seen.append(m) or real(m))
        dec = simgeom.sym_eigen(a)
        (arg,) = seen
        assert arg is not a and arg.tobytes() == ((a + a.T) / 2.0).tobytes()
        vals, vecs = self._symmetrized_eigh(a)
        assert dec.values.tobytes() == vals.tobytes()
        assert dec.vectors.tobytes() == vecs.tobytes()

    @pytest.mark.parametrize("asymmetric", [False, True], ids=["exact", "one-ulp"])
    def test_huge_entries_do_not_overflow(self, asymmetric):
        # a + a^T overflows once entries pass about 8.99e307, and ||a||_F
        # overflows here too
        a = np.array([[1e308, 2.0], [2.0, -1e308]])
        if asymmetric:
            a[1, 0] = np.nextafter(2.0, 3.0)
        dec = simgeom.sym_eigen(a)
        np.testing.assert_array_equal(dec.values, [1e308, -1e308])
        np.testing.assert_array_equal(dec.values, np.linalg.eigvalsh(a)[::-1])
        assert np.isfinite(dec.vectors).all()

    def test_large_scale_converges(self):
        rng = np.random.default_rng(3)
        m = rng.normal(size=(12, 12)) * 1e6
        m = (m + m.T) / 2
        got = simgeom.sym_eigen(m).values
        np.testing.assert_allclose(got, np.linalg.eigvalsh(m)[::-1], rtol=1e-10)

    @pytest.mark.parametrize("a", [GROSSLY_ASYMMETRIC, GROSSLY_ASYMMETRIC_FULL],
                             ids=["three-entries", "four-entries"])
    def test_gross_asymmetry_with_an_overflowing_norm_rejected(self, a):
        with pytest.raises(ContractError,
                           match="^sym_eigen: matrix is not symmetric within 1e-9$"):
            simgeom.sym_eigen(a)


class TestSymEigenPair:
    def test_matches_two_single_calls_bit_for_bit(self):
        # against sym_eigen, and against a 2-D eigh call of the matrix alone
        count = 0
        for a, b in _pair_family():
            got = simgeom.sym_eigen_pair(a, b)
            for dec, m in zip(got, (a, b)):
                want = simgeom.sym_eigen(m)
                assert dec.values.tobytes() == want.values.tobytes()
                assert dec.vectors.tobytes() == want.vectors.tobytes()
                vals, vecs = TestSymEigen._symmetrized_eigh(m)
                assert dec.values.tobytes() == vals.tobytes()
                assert dec.vectors.tobytes() == vecs.tobytes()
            count += 1
        assert count == 69

    def test_one_eigh_call_per_pair(self, monkeypatch):
        real = np.linalg.eigh
        seen = []
        monkeypatch.setattr(np.linalg, "eigh", lambda a: seen.append(a.shape) or real(a))
        simgeom.sym_eigen_pair(np.eye(3), 2.0 * np.eye(3))
        assert seen == [(2, 3, 3)]

    def test_differing_shapes_rejected(self):
        with pytest.raises(ShapeError,
                           match=r"^sym_eigen_pair: shapes differ, \(3, 3\) vs \(2, 2\)$"):
            simgeom.sym_eigen_pair(np.eye(3), np.eye(2))

    @pytest.mark.parametrize("side", [0, 1], ids=["first", "second"])
    def test_non_square_side_rejected(self, side):
        pair = [np.eye(2), np.eye(2)]
        pair[side] = np.zeros((2, 3))
        with pytest.raises(ShapeError,
                           match=r"^expected a square matrix, got shape \(2, 3\)$"):
            simgeom.sym_eigen_pair(*pair)

    @pytest.mark.parametrize("side", [0, 1], ids=["first", "second"])
    def test_nan_in_either_matrix_rejected(self, side):
        pair = [np.eye(3), np.eye(3)]
        pair[side][0, 1] = pair[side][1, 0] = np.nan
        with pytest.raises(EvaluationError,
                           match="^sym_eigen: matrix contains NaN or Inf$"):
            simgeom.sym_eigen_pair(*pair)

    @pytest.mark.parametrize("side", [0, 1], ids=["first", "second"])
    @pytest.mark.parametrize("bad", [
        np.array([[0.0, 1.0], [0.0, 0.0]]), GROSSLY_ASYMMETRIC, _nudged(1.5e-8),
    ], ids=["plain", "overflowing-norm", "just-past-the-bound"])
    def test_asymmetric_matrix_on_either_side_rejected(self, side, bad):
        pair = [np.eye(2), np.eye(2)]
        pair[side] = bad
        with pytest.raises(ContractError,
                           match="^sym_eigen: matrix is not symmetric within 1e-9$"):
            simgeom.sym_eigen_pair(*pair)

    @pytest.mark.parametrize("side", [0, 1], ids=["first", "second"])
    def test_asymmetry_inside_the_bound_tolerated_on_either_side(self, side):
        pair = [np.eye(2), np.eye(2)]
        pair[side] = _nudged(2e-9)
        got = simgeom.sym_eigen_pair(*pair)[side]
        want = simgeom.sym_eigen(_nudged(2e-9))
        assert got.values.tobytes() == want.values.tobytes()


class TestEigenvalueGradient:
    def test_matches_finite_difference(self):
        rng = np.random.default_rng(4)
        m = rng.normal(size=(4, 4))
        m = (m + m.T) / 2

        def f(x):
            # symmetric part, so that a one-entry perturbation stays symmetric
            sym = T.custom_op((x,), (x.data + x.data.T) / 2, lambda g: ((g + g.T) / 2,))
            return weighted_sum(simgeom.eigvals(sym), [[1.0], [-2.0], [0.5], [3.0]])

        assert T.gradcheck(f, m) < 1e-6

    def test_gradient_is_symmetric(self):
        rng = np.random.default_rng(5)
        m = rng.normal(size=(5, 5))
        m = (m + m.T) / 2
        dec = simgeom.sym_eigen(m)
        g = simgeom.eigenvalue_gradient(dec, np.ones((5, 1)))
        np.testing.assert_allclose(g, g.T)

    def test_upstream_length_must_match(self):
        dec = simgeom.sym_eigen(np.eye(3))
        with pytest.raises(ShapeError,
                           match="^eigenvalue_gradient: upstream length mismatch$"):
            simgeom.eigenvalue_gradient(dec, np.ones(2))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_upstream_rejected(self, bad):
        # not a NaN matrix, as eig_dot and min_eigengap raise too
        dec = simgeom.sym_eigen(np.diag([3.0, 1.0, -2.0]))
        with pytest.raises(EvaluationError,
                           match="^eigenvalue_gradient: values contain NaN or Inf$"):
            simgeom.eigenvalue_gradient(dec, [1.0, bad, 0.5])

    @pytest.mark.parametrize("values,upstream", [
        ([6.0, 3.0, 3.0], [1.0, 2.0, 2.0]),   # a double cluster, equal partners
        ([6.0, 3.0, 3.0], [1.0, 2.0, -1.0]),  # a double cluster, spread partners
        ([3.0, 3.0, 3.0], [2.0, 2.0, 2.0]),   # one triple cluster, equal partners
        ([3.0, 3.0, 3.0], [2.0, 2.0, 2.0 + 1e-9]),  # a spread of 1e-9
    ])
    def test_cluster_basis_matters_only_under_unequal_upstream(self, values, upstream):
        # Q diag(values) Q^T has a cluster of equal eigenvalues; another
        # orthonormal basis of its eigenspace leaves the gradient as it
        # is under equal upstream values on the cluster (the projector
        # times that value), and moves it under unequal ones, where each
        # basis gives another valid subgradient. The move is at most the
        # upstream spread on the cluster, the spectral norm of
        # R D R^T - D for D that diagonal. So qare needs no special case
        q, _ = np.linalg.qr(np.random.default_rng(6).normal(size=(3, 3)))
        dec = simgeom.sym_eigen(q @ np.diag(values) @ q.T)
        cluster = np.flatnonzero(np.isclose(dec.values, 3.0))
        r, _ = np.linalg.qr(np.random.default_rng(7).normal(size=(cluster.size,) * 2))
        turned = dec.vectors.copy()
        turned[:, cluster] = dec.vectors[:, cluster] @ r
        rotated = simgeom.EigenDecomposition(dec.values, turned)
        moved = np.abs(simgeom.eigenvalue_gradient(rotated, upstream)
                       - simgeom.eigenvalue_gradient(dec, upstream)).max()
        spread = np.ptp(np.asarray(upstream)[cluster])
        if spread == 0.0:
            assert moved <= 1e-12
        else:
            assert spread / 100.0 < moved <= spread + 1e-12


class TestEigDot:
    def test_known_values(self):
        a = np.array([3.0, 1.0])
        b = np.array([4.0, 2.0])
        assert simgeom.eig_dot(a, b, "min") == pytest.approx(10.0)
        assert simgeom.eig_dot(a, b, "max") == pytest.approx(14.0)

    def test_order_of_inputs_is_irrelevant(self):
        rng = np.random.default_rng(6)
        a, b = rng.normal(size=5), rng.normal(size=5)
        for sense in ("min", "max"):
            assert simgeom.eig_dot(a, b, sense) == pytest.approx(
                simgeom.eig_dot(np.flip(np.sort(a)), b, sense))

    def test_unknown_sense_rejected(self):
        with pytest.raises(ContractError):
            simgeom.eig_dot(np.ones(2), np.ones(2), "median")

    def test_lengths_must_agree(self):
        with pytest.raises(ShapeError,
                           match=r"^eig_dot: lengths differ, \(2,\) vs \(3,\)$"):
            simgeom.eig_dot(np.ones(2), np.ones(3), "min")

    @settings(max_examples=30, deadline=None)
    @given(st.integers(2, 5), st.integers(0, 2 ** 31 - 1))
    def test_brackets_every_permutation_pairing(self, n, seed):
        rng = np.random.default_rng(seed)
        a, b = rng.normal(size=n), rng.normal(size=n)
        lo = simgeom.eig_dot(a, b, "min")
        hi = simgeom.eig_dot(a, b, "max")
        for perm in itertools.permutations(range(n)):
            v = float(a @ b[list(perm)])
            assert lo - 1e-9 <= v <= hi + 1e-9


class TestMinEigengap:
    def test_single_value_is_infinite(self):
        assert simgeom.min_eigengap(np.array([2.0])) == np.inf

    def test_gap_of_sorted_spectrum(self):
        assert simgeom.min_eigengap(np.array([5.0, 3.0, 2.5])) == pytest.approx(0.5)


class TestDistances:
    """The euclidean map of ``_similarity``: explicit differences up to
    1024 elements, the Gram form above, read through ``cross_distances``."""

    def test_matches_numpy(self):
        rng = np.random.default_rng(0)
        a = rng.normal(size=(3, 4))
        b = rng.normal(size=(3, 4))
        np.testing.assert_allclose(simgeom.cross_distances(T.Tensor(a), T.Tensor(b)).data,
                                   np.linalg.norm(a[:, None] - b[None], axis=2))

    def test_values(self):
        a = np.array([[0.0, 0.0], [3.0, 4.0]])
        b = np.array([[0.0, 0.0]])
        d = simgeom.cross_distances(T.Tensor(a), T.Tensor(b)).data
        np.testing.assert_allclose(d, [[0.0], [5.0]])

    def test_feature_dims_must_agree(self):
        with pytest.raises(ShapeError, match=(r"^cross_distances: feature dims differ, "
                                              r"\(2, 3\) vs \(1, 2\)$")):
            simgeom.cross_distances(np.ones((2, 3)), np.ones((1, 2)))

    @pytest.mark.parametrize("n,m,e", [(1, 1, 1), (4, 4, 3), (4, 4, 2),
                                       (8, 8, 16), (16, 16, 4), (1, 1024, 1)])
    def test_at_or_below_the_bound_is_the_explicit_form(self, n, m, e):
        # verify's 4x4 sets take this path, so their bytes must not move
        assert n * m * e <= simgeom._EXPLICIT_MAX_ELEMENTS
        rng = np.random.default_rng(n * m * e)
        a, b = rng.normal(size=(n, e)), rng.normal(size=(m, e))
        diff = a[:, None, :] - b[None, :, :]
        explicit = np.sqrt((diff * diff).sum(axis=2))
        assert simgeom.cross_distances(a, b).data.tobytes() == explicit.tobytes()

    @pytest.mark.parametrize("n,m,e", [(8, 8, 16), (16, 16, 4), (8, 9, 16),
                                       (32, 32, 16), (128, 128, 16), (3, 200, 2)])
    def test_agrees_with_the_explicit_form(self, n, m, e):
        # squared distances agree within the Gram form's zero bound,
        # 4 (E + 2) eps (|a_i|^2 + |b_j|^2), on both sides of 1024 elements
        rng = np.random.default_rng(n + m + e)
        a, b = rng.normal(size=(n, e)), rng.normal(size=(m, e))
        a[0] = b[0]  # one exact zero distance
        b[1] = a[1] + 1e-3  # and a near one
        d = simgeom.cross_distances(a, b).data
        diff = a[:, None, :] - b[None, :, :]
        explicit = (diff * diff).sum(axis=2)
        norms = (a * a).sum(axis=1)[:, None] + (b * b).sum(axis=1)[None, :]
        bound = 4.0 * (e + 2) * np.finfo(np.float64).eps * norms
        assert np.all(np.abs(d * d - explicit) <= bound)
        assert d[0, 0] == 0.0

    @pytest.mark.parametrize("n,e", [(32, 16), (128, 16), (40, 30)])
    def test_self_distances_are_symmetric_with_a_zero_diagonal(self, n, e):
        x = np.random.default_rng(e).normal(size=(n, e))
        x /= np.linalg.norm(x, axis=1, keepdims=True)  # as training sees them
        d = simgeom.cross_distances(x, x).data
        assert n * n * e > simgeom._EXPLICIT_MAX_ELEMENTS
        assert np.array_equal(np.diag(d), np.zeros(n))
        assert np.array_equal(d, d.T)
        assert d[~np.eye(n, dtype=bool)].min() > 0.0

    def test_zero_distance_has_zero_gradient(self):
        tape = T.Tape()
        a = tape.leaf(np.array([[1.0, 2.0]]))
        d = simgeom.cross_distances(a, T.Tensor(np.array([[1.0, 2.0]])))
        grads = tape.backward(weighted_sum(d))
        np.testing.assert_allclose(grads[a].data, 0.0)
        # 32x16 equal rows take the Gram form, whose rounding rule makes
        # every distance, and so every gradient, exactly 0
        rows = np.tile(np.random.default_rng(5).normal(size=(1, 16)), (32, 1))
        tape = T.Tape()
        a = tape.leaf(rows)
        d = simgeom.cross_distances(a, T.Tensor(rows))
        assert d.data.size * 16 > simgeom._EXPLICIT_MAX_ELEMENTS
        assert np.array_equal(d.data, np.zeros((32, 32)))
        grads = tape.backward(weighted_sum(d))
        assert np.array_equal(grads[a].data, np.zeros((32, 16)))

    def test_gram_form_gradient(self):
        # 32x16 against a fixed other set: Gram form, no zero distances
        rng = np.random.default_rng(11)
        a, b, w = (rng.normal(size=(32, 16)), rng.normal(size=(32, 16)),
                   rng.normal(size=(32, 32)))

        def f(x):
            return weighted_sum(simgeom.cross_distances(x, T.Tensor(b)), w)

        assert simgeom.cross_distances(a, b).data.min() > 1.0
        assert T.gradcheck(f, a) < 1e-6


class TestPairwiseDistances:
    def test_euclidean_matches_direct_computation(self):
        rng = np.random.default_rng(8)
        za, zb = rng.normal(size=(4, 3)), rng.normal(size=(5, 3))
        s, s_a, s_b = simgeom.pairwise_distances(za, zb, "euclidean")
        want = np.linalg.norm(za[:, None, :] - zb[None, :, :], axis=2)
        np.testing.assert_allclose(s.data, want, atol=1e-12)
        assert s.shape == (4, 5)
        assert s_a.shape == (4, 4)
        assert s_b.shape == (5, 5)
        np.testing.assert_allclose(np.diag(s_a.data), 0.0, atol=1e-12)

    def test_cosine_takes_the_rows_as_given(self):
        # the encoder makes rows unit; cosine mode only multiplies them
        rng = np.random.default_rng(9)
        za, zb = rng.normal(size=(4, 3)) * 10.0, rng.normal(size=(5, 3)) * 0.1
        triple = simgeom.pairwise_distances(za, zb, "cosine")
        for got, want in zip(triple, (za @ zb.T, za @ za.T, zb @ zb.T)):
            np.testing.assert_allclose(got.data, want, rtol=0.0,
                                       atol=1e-12 * np.abs(want).max())
        na = za / np.linalg.norm(za, axis=1, keepdims=True)
        nb = zb / np.linalg.norm(zb, axis=1, keepdims=True)
        s, s_a, s_b = simgeom.pairwise_distances(na, nb, "cosine")
        assert np.abs(s.data).max() <= 1.0 + 1e-12
        np.testing.assert_allclose(np.diag(s_a.data), 1.0, atol=1e-12)
        np.testing.assert_allclose(np.diag(s_b.data), 1.0, atol=1e-12)

    @pytest.mark.parametrize("side", ["z_a", "z_b"])
    def test_cosine_zero_row_gives_zero_similarities(self, side):
        # no normalization, so no zero-row check: the row's products are 0
        z = {"z_a": np.ones((3, 2)), "z_b": np.ones((3, 2))}
        z[side][1] = 0.0
        s, s_a, s_b = simgeom.pairwise_distances(z["z_a"], z["z_b"], "cosine")
        s = s.data if side == "z_a" else s.data.T
        intra = s_a.data if side == "z_a" else s_b.data
        np.testing.assert_array_equal(s[1], 0.0)
        np.testing.assert_array_equal(intra[1], 0.0)
        np.testing.assert_array_equal(intra[:, 1], 0.0)
        assert np.count_nonzero(s) == 6

    def test_intra_matrices_are_each_sets_own_map(self):
        # S_A and S_B are the map of one set Tensor on both sides, bit for
        # bit (one symmetric product in the Gram form); euclidean S_B is
        # cross_distances(z_b, z_b), as fig1b_instance reads the far view
        rng = np.random.default_rng(13)
        for n, e in ((4, 3), (32, 16)):  # explicit and Gram-form distances
            za, zb = T.Tensor(rng.normal(size=(n, e))), T.Tensor(rng.normal(size=(n + 1, e)))
            for mode in ("euclidean", "cosine"):
                _, s_a, s_b = simgeom.pairwise_distances(za, zb, mode)
                assert (simgeom.cross_distances(za, za, mode).data.tobytes()
                        == s_a.data.tobytes())
                assert (simgeom.cross_distances(zb, zb, mode).data.tobytes()
                        == s_b.data.tobytes())

    def test_intra_matrices_are_symmetric(self):
        rng = np.random.default_rng(10)
        za, zb = rng.normal(size=(5, 2)), rng.normal(size=(5, 2))
        for mode in ("euclidean", "cosine"):
            _, s_a, s_b = simgeom.pairwise_distances(za, zb, mode)
            np.testing.assert_allclose(s_a.data, s_a.data.T, atol=1e-12)
            np.testing.assert_allclose(s_b.data, s_b.data.T, atol=1e-12)

    def test_unknown_mode_rejected(self):
        with pytest.raises(ContractError):
            simgeom.pairwise_distances(np.ones((2, 2)), np.ones((2, 2)), "manhattan")

    def test_feature_dim_mismatch_rejected(self):
        for mode in ("euclidean", "cosine"):
            with pytest.raises(ShapeError, match="^cross_distances: feature dims differ"):
                simgeom.pairwise_distances(np.ones((2, 3)), np.ones((2, 4)), mode)

    @pytest.mark.parametrize("mode", ["euclidean", "cosine"])
    def test_each_matrix_gradcheck(self, mode):
        rng = np.random.default_rng(12)
        za, zb = rng.normal(size=(4, 3)), rng.normal(size=(5, 3))
        for field, sides in ((0, ("z_a", "z_b")), (1, ("z_a",)), (2, ("z_b",))):
            for side in sides:
                def f(x):
                    z = {"z_a": za, "z_b": zb, side: x}
                    m = simgeom.pairwise_distances(z["z_a"], z["z_b"], mode)[field]
                    return weighted_sum(m, np.sin(np.arange(m.data.size)).reshape(m.shape))

                assert T.gradcheck(f, za if side == "z_a" else zb) < 1e-7

    def test_cross_distances_is_the_triples_s(self):
        rng = np.random.default_rng(11)
        za, zb = rng.normal(size=(4, 3)), rng.normal(size=(5, 3))
        for mode in ("euclidean", "cosine"):
            s, _, _ = simgeom.pairwise_distances(za, zb, mode)
            assert np.array_equal(simgeom.cross_distances(za, zb, mode).data, s.data)
        with pytest.raises(ContractError):
            simgeom.cross_distances(za, zb, "manhattan")
        for mode in ("euclidean", "cosine"):
            with pytest.raises(ShapeError, match="^cross_distances: feature dims differ"):
                simgeom.cross_distances(np.ones((2, 3)), np.ones((2, 4)), mode)


class TestClosedFormSpectra:
    def test_two_by_two_closed_form(self):
        dec = simgeom.sym_eigen(np.array([[2.0, 1.0], [1.0, 2.0]]))
        np.testing.assert_allclose(dec.values, [3.0, 1.0], atol=1e-14)

    def test_eig_dot_equals_bruteforce_on_diagonal_pairs(self):
        # min/max over permutations of tr(D_A Y D_B Y^T) collapses to a
        # sorted pairing of the diagonals, which is exactly eig_dot
        rng = np.random.default_rng(11)
        for n in (2, 3, 4, 5, 6):
            la = rng.normal(size=n)
            lb = rng.normal(size=n)
            traces = [float(sum(la[i] * lb[p[i]] for i in range(n)))
                      for p in itertools.permutations(range(n))]
            assert simgeom.eig_dot(la, lb, "min") == pytest.approx(
                min(traces), abs=1e-9)
            assert simgeom.eig_dot(la, lb, "max") == pytest.approx(
                max(traces), abs=1e-9)


class TestEigenvalueVjp:
    def test_diagonal_case_selects_leading_eigvector_outer(self):
        tape = T.Tape()
        x = tape.leaf(np.diag([2.0, 1.0]))
        vals = simgeom.eigvals(x)
        picked = weighted_sum(vals, [[1.0], [0.0]])
        grads = tape.backward(picked)
        np.testing.assert_allclose(grads[x].data,
                                   [[1.0, 0.0], [0.0, 0.0]], atol=1e-12)

    def test_zero_upstream_gives_zero_matrix(self):
        tape = T.Tape()
        x = tape.leaf(np.array([[2.0, 0.3], [0.3, 1.0]]))
        vals = simgeom.eigvals(x)
        grads = tape.backward(weighted_sum(vals, 0.0))
        np.testing.assert_array_equal(grads[x].data, np.zeros((2, 2)))
