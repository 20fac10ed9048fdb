import numpy as np
import pytest

from setcontrast import harness, losses, simgeom, tensor as T
from setcontrast.errors import ConfigError, DegenerateInputError, NumericError, ShapeError

TINY = harness.SyntheticSpec(num_classes=2, samples_per_class=4,
                             ambient_dim=8, noise_sigma=0.2, seed=5)


def tiny_train_config(**kwargs):
    defaults = dict(epochs=3, batch_size=4, hidden_dim=16, embed_dim=4,
                    loss=losses.LossConfig(name="t", kind="infonce", beta=0.0),
                    seed=0)
    defaults.update(kwargs)
    return harness.TrainConfig(**defaults)


class TestSyntheticData:
    def test_shapes_and_alignment(self):
        ds = harness.gen_two_view_dataset(TINY)
        n = TINY.num_classes * TINY.samples_per_class
        assert ds.view_a.shape == (n, TINY.ambient_dim)
        assert ds.view_b.shape == (n, TINY.ambient_dim)
        assert ds.labels.shape == (n,)
        assert ds.gt.perm == tuple(range(n))
        counts = np.bincount(ds.labels)
        assert (counts == TINY.samples_per_class).all()

    def test_deterministic_given_seed(self):
        a = harness.gen_two_view_dataset(TINY)
        b = harness.gen_two_view_dataset(TINY)
        np.testing.assert_array_equal(a.view_a, b.view_a)
        np.testing.assert_array_equal(a.view_b, b.view_b)

    def test_different_seed_changes_data(self):
        other = harness.SyntheticSpec(num_classes=2, samples_per_class=4,
                                      ambient_dim=8, noise_sigma=0.2, seed=6)
        a = harness.gen_two_view_dataset(TINY)
        b = harness.gen_two_view_dataset(other)
        assert np.abs(a.view_a - b.view_a).max() > 1e-6

    def test_view_transforms_are_orthogonal(self):
        ds = harness.gen_two_view_dataset(TINY)
        for q in (ds.q_a, ds.q_b):
            np.testing.assert_allclose(q.T @ q, np.eye(q.shape[0]), atol=1e-10)

    def test_excessive_noise_rejected(self):
        with pytest.raises(ConfigError):
            harness.gen_two_view_dataset(
                harness.SyntheticSpec(num_classes=2, samples_per_class=4,
                                      ambient_dim=8, noise_sigma=100.0, seed=5))

    @pytest.mark.parametrize("kwargs", [
        dict(num_classes=1), dict(samples_per_class=0),
        dict(ambient_dim=0), dict(noise_sigma=-0.5),
    ])
    def test_invalid_spec_rejected(self, kwargs):
        base = dict(num_classes=2, samples_per_class=4, ambient_dim=8,
                    noise_sigma=0.2, seed=5)
        base.update(kwargs)
        with pytest.raises(ConfigError):
            harness.SyntheticSpec(**base)


class TestEncoder:
    def test_embeddings_are_row_normalized(self):
        rng = np.random.default_rng(0)
        enc = harness.MLPEncoder(8, 16, 4, rng)
        z = enc.embed(rng.normal(size=(10, 8)))
        np.testing.assert_allclose(np.linalg.norm(z, axis=1), 1.0, atol=1e-12)

    def test_seeded_construction_is_deterministic(self):
        cfg = tiny_train_config()
        e1 = harness.make_encoder(TINY, cfg)
        e2 = harness.make_encoder(TINY, cfg)
        x = np.random.default_rng(1).normal(size=(5, 8))
        np.testing.assert_array_equal(e1.embed(x), e2.embed(x))

    def test_forward_matches_embed(self):
        rng = np.random.default_rng(2)
        enc = harness.MLPEncoder(8, 16, 4, rng)
        x = rng.normal(size=(6, 8))
        out = enc.forward(x)
        z = out.data if isinstance(out, T.Tensor) else out
        np.testing.assert_allclose(z, enc.embed(x), atol=1e-12)

    def test_relu_subgradient_zero_at_kink(self):
        # the second hidden unit sits exactly at 0, so its weights get nothing
        enc = harness.MLPEncoder(2, 2, 2)
        enc.params["w1"][...] = np.eye(2)
        enc.params["b1"][...] = 0.0
        enc.params["w2"][...] = np.eye(2)
        enc.params["b2"][...] = [[0.0, 1.0]]
        tape = T.Tape()
        w = tape.leaf(enc.flat)
        z = enc.forward(np.array([[1.0, 0.0]]), w)
        grads = tape.backward(T.total_sum(T.mul(z, T.Tensor([[1.0, -1.0]]))))
        g = enc.views(grads[w].data.reshape(-1))
        np.testing.assert_array_equal(g["b1"][0, 1], 0.0)
        np.testing.assert_array_equal(g["w1"][:, 1], 0.0)
        assert g["b1"][0, 0] != 0.0

    @pytest.mark.parametrize("name", ["w1", "b1", "w2", "b2"])
    def test_forward_gradcheck_away_from_kinks(self, name):
        rng = np.random.default_rng(11)
        enc = harness.MLPEncoder(5, 7, 3, rng)
        enc.params["b1"][...] = rng.normal(size=(1, 7)) * 0.1
        enc.params["b2"][...] = rng.normal(size=(1, 3)) * 0.1
        x = rng.normal(size=(6, 5))
        pre = x @ enc.params["w1"] + enc.params["b1"]
        assert np.abs(pre).min() > 1e-3
        up = T.Tensor(rng.normal(size=(6, 3)))

        def f(p):
            # the flat vector with p in the named slice, its adjoint that slice
            buf = enc.flat.copy()
            enc.views(buf)[name][...] = p.data
            w = T.custom_op((p,), buf.reshape(1, -1),
                            lambda g: (enc.views(g.reshape(-1))[name],))
            return T.total_sum(T.mul(enc.forward(x, w), up))

        assert T.gradcheck(f, enc.params[name]) < 1e-7

    def test_narrow_encoder_zero_row_comes_from_dead_relus(self):
        # 2 classes, ambient_dim 4, hidden_dim 4, embed_dim 2, seeds 0
        spec = harness.SyntheticSpec(num_classes=2, ambient_dim=4, seed=0)
        enc = harness.make_encoder(spec, harness.TrainConfig(
            hidden_dim=4, embed_dim=2, seed=0))
        ds = harness.gen_two_view_dataset(spec)
        x = np.vstack([ds.view_a, ds.view_b])
        dead = (x @ enc.params["w1"] + enc.params["b1"] <= 0.0).all(axis=1)
        assert dead.any()
        np.testing.assert_array_equal(enc.params["b2"], 0.0)
        with pytest.raises(DegenerateInputError):
            enc.embed(x[dead])


def _reference_adam(params, grads, m, v, t, lr, b1, b2, eps):
    """Per-parameter Adam, one array at a time."""
    out = {}
    for k, p in params.items():
        g = grads[k]
        m[k] = b1 * m[k] + (1.0 - b1) * g
        v[k] = b2 * v[k] + (1.0 - b2) * (g * g)
        m_hat = m[k] / (1.0 - b1 ** t)
        v_hat = v[k] / (1.0 - b2 ** t)
        out[k] = p - lr * m_hat / (np.sqrt(v_hat) + eps)
    return out


class TestAdam:
    def test_single_step_matches_reference(self):
        params = np.array([1.0, -2.0])
        grad = np.array([0.5, 0.25])
        state = harness.AdamState(params.copy())
        lr, b1, b2, eps = 0.01, 0.9, 0.999, 1e-8
        harness.adam_step(state, grad, lr)
        m = (1 - b1) * grad
        v = (1 - b2) * grad ** 2
        mh = m / (1 - b1)
        vh = v / (1 - b2)
        want = params - lr * mh / (np.sqrt(vh) + eps)
        np.testing.assert_allclose(state.flat, want, atol=1e-15)

    def test_inputs_are_not_mutated(self):
        # the parameter buffer is the one array Adam writes, in place
        flat = np.ones(4)
        grad = np.ones(4)
        state = harness.AdamState(flat)
        harness.adam_step(state, grad, 0.1)
        np.testing.assert_array_equal(grad, np.ones(4))
        assert state.flat is flat and (flat < 1.0).all()
        assert not any(np.shares_memory(a, b) for a, b in
                       [(state.m, flat), (state.v, flat), (state.m, state.v),
                        (state.m, grad), (state.v, grad)])

    def test_flat_buffer_matches_per_parameter_loop_bit_for_bit(self):
        rng = np.random.default_rng(12)
        enc = harness.MLPEncoder(5, 4, 3)
        shapes = {k: p.shape for k, p in enc.params.items()}
        assert shapes == {"w1": (5, 4), "b1": (1, 4), "w2": (4, 3), "b2": (1, 3)}
        params = {k: rng.normal(size=sh) for k, sh in shapes.items()}
        for k in shapes:
            enc.params[k][...] = params[k]
        state = harness.AdamState(enc.flat)
        m = {k: np.zeros(sh) for k, sh in shapes.items()}
        v = {k: np.zeros(sh) for k, sh in shapes.items()}
        ref = dict(params)
        for t in range(1, 51):
            grads = {k: rng.normal(size=sh) * 10.0 ** rng.integers(-4, 3)
                     for k, sh in shapes.items()}
            grad = np.empty_like(enc.flat)
            for k in shapes:
                enc.views(grad)[k][...] = grads[k]
            harness.adam_step(state, grad, 5e-3)
            ref = _reference_adam(ref, grads, m, v, t, 5e-3, 0.9, 0.999, 1e-8)
            for k in shapes:
                np.testing.assert_array_equal(enc.params[k], ref[k])
                np.testing.assert_array_equal(enc.views(state.m)[k], m[k])
                np.testing.assert_array_equal(enc.views(state.v)[k], v[k])
        assert state.t == 50
        assert all(enc.params[k].base is enc.flat for k in shapes)

    def test_grad_shape_mismatch_rejected(self):
        state = harness.AdamState(np.ones(4))
        for grad in (np.ones(3), np.ones((1, 4)), np.ones((2, 2))):
            with pytest.raises(ShapeError):
                harness.adam_step(state, grad, 0.1)
        assert state.t == 0

    def test_name_at_maps_flat_positions_to_parameters(self):
        # the flat layout Adam steps over: w1 2x2, b1 1x2, w2 2x1, b2 1x1
        enc = harness.MLPEncoder(2, 2, 1)
        names = [enc.name_at(i) for i in range(enc.flat.size)]
        assert names == ["w1"] * 4 + ["b1"] * 2 + ["w2"] * 2 + ["b2"]
        for k, p in enc.params.items():
            np.testing.assert_array_equal(
                p.ravel(), enc.flat[[n == k for n in names]])


class TestTraining:
    def test_report_shape_and_ranges(self):
        ds = harness.gen_two_view_dataset(TINY)
        cfg = tiny_train_config()
        _, rep = harness.train(ds, harness.make_encoder(TINY, cfg), cfg)
        assert len(rep.epoch_losses) == cfg.epochs
        assert all(np.isfinite(rep.epoch_losses))
        assert 0.0 <= rep.matching_accuracy <= 1.0
        assert 0.0 <= rep.probe_accuracy <= 1.0
        assert rep.degenerate_batches >= 0
        assert rep.wall_seconds >= 0.0

    def test_trajectory_is_bit_deterministic(self):
        ds = harness.gen_two_view_dataset(TINY)
        cfg = tiny_train_config()
        _, r1 = harness.train(ds, harness.make_encoder(TINY, cfg), cfg)
        _, r2 = harness.train(ds, harness.make_encoder(TINY, cfg), cfg)
        assert r1.epoch_losses == r2.epoch_losses
        assert r1.matching_accuracy == r2.matching_accuracy
        assert r1.probe_accuracy == r2.probe_accuracy

    def test_loss_decreases_on_easy_data(self):
        ds = harness.gen_two_view_dataset(TINY)
        cfg = tiny_train_config(epochs=10)
        _, rep = harness.train(ds, harness.make_encoder(TINY, cfg), cfg)
        assert rep.epoch_losses[-1] < rep.epoch_losses[0]

    def test_quadratic_regularized_path_runs(self):
        ds = harness.gen_two_view_dataset(TINY)
        cfg = tiny_train_config(
            loss=losses.LossConfig(name="t", kind="infonce", beta=1.0))
        _, rep = harness.train(ds, harness.make_encoder(TINY, cfg), cfg)
        assert all(np.isfinite(rep.epoch_losses))

    def test_every_loss_kind_trains(self):
        ds = harness.gen_two_view_dataset(TINY)
        for kind in losses.LOSS_KINDS:
            mining = "one-to-one" if kind == "margin" else "batch-hard"
            cfg = tiny_train_config(
                epochs=2,
                loss=losses.LossConfig(name="t", kind=kind, mining=mining,
                                       beta=0.0))
            _, rep = harness.train(ds, harness.make_encoder(TINY, cfg), cfg)
            assert all(np.isfinite(rep.epoch_losses))

    def test_nonfinite_input_raises_numeric_error(self):
        import dataclasses
        ds = harness.gen_two_view_dataset(TINY)
        poisoned = np.array(ds.view_a)
        poisoned[0, 0] = np.nan
        ds = dataclasses.replace(ds, view_a=poisoned)
        cfg = tiny_train_config()
        with pytest.raises(NumericError):
            harness.train(ds, harness.make_encoder(TINY, cfg), cfg)

    @pytest.mark.parametrize("kind,mining", [
        ("infonce", "batch-hard"), ("smoothed", "batch-hard"),
        ("nt_logistic", "batch-hard"), ("sparseclr", "batch-hard"),
        ("margin", "batch-hard"), ("margin", "one-to-one"),
    ])
    def test_beta_zero_step_records_five_tape_nodes(self, monkeypatch, kind, mining):
        # 1 flat parameter leaf + 2 encoder views + S + the pairwise loss
        nodes = []
        real = T.Tape.backward

        def counting(self, loss):
            nodes.append(len(self))
            return real(self, loss)

        monkeypatch.setattr(T.Tape, "backward", counting)
        ds = harness.gen_two_view_dataset(TINY)
        cfg = tiny_train_config(epochs=1, loss=losses.LossConfig(
            name="t", kind=kind, mining=mining, beta=0.0))
        harness.train(ds, harness.make_encoder(TINY, cfg), cfg)
        assert nodes == [5, 5]

    @pytest.mark.parametrize("mode,count", [("euclidean", 15), ("cosine", 21)])
    def test_beta_one_step_adds_the_qare_term_once(self, monkeypatch, mode, count):
        # 1 flat leaf + 2 encoder views + the pairwise loss + qare's 6 nodes
        # + 2 that add beta * qare / N^2 to the unscaled pairwise loss, with
        # S, S_A, S_B as 3 distance nodes; cosine builds them in 8 nodes
        # (normalize, transpose, matmul), negates S, and its qare is 1 + S
        # shifts, 2 spectra, mul and sum
        nodes = []
        real = T.Tape.backward

        def counting(self, loss):
            nodes.append(len(self))
            return real(self, loss)

        monkeypatch.setattr(T.Tape, "backward", counting)
        ds = harness.gen_two_view_dataset(TINY)
        cfg = tiny_train_config(epochs=1, loss=losses.LossConfig(
            name="t", kind="infonce", beta=1.0, mode=mode))
        harness.train(ds, harness.make_encoder(TINY, cfg), cfg)
        assert nodes == [count, count]

    def test_partial_final_batch_is_dropped(self):
        ds = harness.gen_two_view_dataset(TINY)  # 8 samples
        cfg = tiny_train_config(batch_size=5, epochs=1)  # one step per epoch
        _, rep = harness.train(ds, harness.make_encoder(TINY, cfg), cfg)
        assert len(rep.epoch_losses) == 1


class TestEvaluation:
    def test_linear_probe_separates_blobs(self):
        rng = np.random.default_rng(3)
        a = rng.normal(size=(40, 2)) * 0.1 + np.array([3.0, 0.0])
        b = rng.normal(size=(40, 2)) * 0.1 + np.array([-3.0, 0.0])
        z = np.vstack([a, b])
        y = np.array([0] * 40 + [1] * 40)
        assert harness.linear_probe(z, y) >= 0.99

    def test_linear_probe_is_deterministic(self):
        rng = np.random.default_rng(4)
        z = rng.normal(size=(60, 4))
        y = rng.integers(0, 3, size=60)
        assert harness.linear_probe(z, y) == harness.linear_probe(z, y)

    def test_matching_accuracy_of_trained_encoder_in_range(self):
        ds = harness.gen_two_view_dataset(TINY)
        cfg = tiny_train_config()
        enc, _ = harness.train(ds, harness.make_encoder(TINY, cfg), cfg)
        acc = harness.evaluate_matching(enc, ds)
        assert 0.0 <= acc <= 1.0


class TestFig1bInstance:
    def test_shared_inter_set_matrix(self):
        near, far = harness.fig1b_instance()
        np.testing.assert_array_equal(near.s.data, far.s.data)
        assert near.s.shape == (4, 4)

    def test_intra_matrices_are_distance_like(self):
        near, far = harness.fig1b_instance()
        for t in (near, far):
            for m in (t.s_a.data, t.s_b.data):
                np.testing.assert_allclose(m, m.T, atol=1e-15)
                np.testing.assert_allclose(np.diag(m), 0.0, atol=1e-15)
                assert m.min() >= 0.0

    def test_quadratic_side_separates_the_geometries(self):
        near, far = harness.fig1b_instance()
        q_near = losses.qare(near.s_a, near.s_b, "euclidean").item()
        q_far = losses.qare(far.s_a, far.s_b, "euclidean").item()
        assert abs(q_near - q_far) > 1e-6


class TestAffineViewStructure:
    def test_zero_noise_views_share_one_latent(self):
        spec = harness.SyntheticSpec(num_classes=2, samples_per_class=4,
                                     ambient_dim=8, noise_sigma=0.0, seed=3)
        ds = harness.gen_two_view_dataset(spec)
        latent = (ds.view_a - ds.bias_a) @ ds.q_a
        np.testing.assert_allclose(latent @ ds.q_b.T + ds.bias_b,
                                   ds.view_b, atol=1e-10)

    def test_exact_inverse_encoder_matches_perfectly(self):
        spec = harness.SyntheticSpec(num_classes=2, samples_per_class=4,
                                     ambient_dim=8, noise_sigma=0.0, seed=3)
        ds = harness.gen_two_view_dataset(spec)

        class Inverse:
            def embed(self, x):
                if x is ds.view_a:
                    return (x - ds.bias_a) @ ds.q_a
                return (x - ds.bias_b) @ ds.q_b

        assert harness.evaluate_matching(Inverse(), ds) == 1.0

    def test_untrained_encoder_matches_at_chance(self):
        spec = harness.SyntheticSpec()
        ds = harness.gen_two_view_dataset(spec)
        n = spec.num_classes * spec.samples_per_class
        vals = np.array([
            harness.evaluate_matching(
                harness.make_encoder(spec, harness.TrainConfig(seed=seed)), ds)
            for seed in range(20)
        ])
        band = 3.0 * vals.std(ddof=1) / np.sqrt(vals.size)
        assert abs(vals.mean() - 1.0 / n) <= band


class TestOptimizerEdgeCases:
    def test_zero_learning_rate_freezes_parameters(self):
        ds = harness.gen_two_view_dataset(TINY)
        config = tiny_train_config(learning_rate=0.0)
        encoder = harness.make_encoder(TINY, config)
        before = {k: v.copy() for k, v in encoder.params.items()}
        trained, _ = harness.train(ds, encoder, config)
        for k in before:
            np.testing.assert_array_equal(trained.params[k], before[k])

    def test_zero_gradient_keeps_params_and_decays_moments(self):
        params = np.array([1.0, -2.0])
        zeros = np.zeros(2)
        state = harness.AdamState(params.copy())
        harness.adam_step(state, zeros, lr=0.1)
        np.testing.assert_array_equal(state.flat, params)
        harness.adam_step(state, np.ones(2), lr=0.1)
        m2, v2 = state.m.copy(), state.v.copy()
        harness.adam_step(state, zeros, lr=0.1)
        np.testing.assert_array_equal(state.m, 0.9 * m2)
        np.testing.assert_array_equal(state.v, 0.999 * v2)


class TestProbeBaselines:
    def test_shuffled_labels_score_at_chance(self):
        rng = np.random.default_rng(7)
        z = rng.normal(size=(200, 8))
        labels = np.repeat(np.arange(4), 50)
        vals = np.array([
            harness.linear_probe(
                z, labels[np.random.default_rng(100 + seed).permutation(200)],
                seed=seed)
            for seed in range(10)
        ])
        band = 3.0 * vals.std(ddof=1) / np.sqrt(vals.size)
        assert abs(vals.mean() - 0.25) <= band

    def test_zero_embeddings_score_the_class_prior(self):
        z = np.zeros((15, 4))
        y = np.array([0] * 10 + [1] * 5)
        # stratified split holds out 2 of class 0 and 1 of class 1; a
        # bias-only model predicts the majority class everywhere
        assert harness.linear_probe(z, y) == pytest.approx(2.0 / 3.0)
