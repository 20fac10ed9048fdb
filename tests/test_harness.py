import weakref

import numpy as np
import pytest

from setcontrast import assignment, harness, losses, simgeom, tensor as T
from setcontrast.errors import (
    ConfigError,
    ContractError,
    DegenerateInputError,
    EvaluationError,
    NumericError,
    ShapeError,
)

from conftest import gc_disabled, node

TINY = harness.SyntheticSpec(num_classes=2, samples_per_class=4,
                             ambient_dim=8, noise_sigma=0.2, seed=5)


def tiny_train_config(**kwargs):
    defaults = dict(epochs=3, batch_size=4, hidden_dim=16, embed_dim=4,
                    loss=losses.LossConfig(name="t", kind="infonce", beta=0.0),
                    seed=0)
    defaults.update(kwargs)
    return harness.TrainConfig(**defaults)


PAIRWISE_KINDS = [
    ("infonce", "batch-hard"), ("smoothed", "batch-hard"),
    ("nt_logistic", "batch-hard"), ("sparseclr", "batch-hard"),
    ("margin", "batch-hard"), ("margin", "one-to-one"),
]


class TestSyntheticData:
    def test_shapes_and_alignment(self):
        ds = harness.gen_two_view_dataset(TINY)
        n = TINY.num_classes * TINY.samples_per_class
        assert ds.view_a.shape == (n, TINY.ambient_dim)
        assert ds.view_b.shape == (n, TINY.ambient_dim)
        assert ds.labels.shape == (n,)
        # row i of each view is item i: mapped back through each view's
        # affine map, the rows match row i to row i
        latent_a = (ds.view_a - ds.bias_a) @ ds.q_a
        latent_b = (ds.view_b - ds.bias_b) @ ds.q_b
        assert harness.evaluate_matching(latent_a, latent_b) == 1.0
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

    def test_nan_noise_rejected(self):
        with pytest.raises(ConfigError, match="^noise_sigma must be >= 0$"):
            harness.SyntheticSpec(noise_sigma=float("nan"))

    def test_infinite_noise_rejected(self):
        # not reported as "not separable", which blames the class centers
        with pytest.raises(ConfigError, match="^noise_sigma must be finite$"):
            harness.SyntheticSpec(noise_sigma=float("inf"))


def reference_encoder_vjp(enc, x, up):
    """The encoder's output and flat gradient under the upstream gradient
    ``up``, in the concatenating form: four blocks built apart, raveled
    and joined."""
    p = enc.params
    pre = x @ p["w1"] + p["b1"]
    h = np.maximum(pre, 0.0)
    out = h @ p["w2"] + p["b2"]
    norms = np.sqrt((out * out).sum(axis=1, keepdims=True))
    z = out / norms
    g_out = (up - (up * z).sum(axis=1, keepdims=True) * z) / norms
    g_pre = (g_out @ p["w2"].T) * (pre > 0.0)
    parts = (x.T @ g_pre, g_pre.sum(axis=0), h.T @ g_out, g_out.sum(axis=0))
    return z, np.concatenate([q.ravel() for q in parts])


def step_function(enc, xa, xb, gt, loss):
    """One training step as a function of the flat parameters: w -> the
    objective on the two encoded batches and its pullback onto w, the
    chain ``train`` runs."""
    def step(w):
        (za, pull_a), (zb, pull_b) = enc.forward(xa, w), enc.forward(xb, w)
        value, pull = losses.two_view_loss(za, zb, gt, loss)

        def pullback(c):
            g_a, g_b = pull(c)
            return pull_b(g_b) + pull_a(g_a)

        return value, pullback

    return step


def encoded(enc, x, w):
    """``enc.forward`` of x under the flat leaf w, as one tape node over
    w. Its VJP holds w's shape, never w."""
    shape = w.shape
    z, pullback = enc.forward(x, w.data)
    return T.custom_op((w,), z, lambda g: (pullback(g).reshape(shape),))


class TestEncoder:
    def test_embeddings_are_row_normalized(self):
        rng = np.random.default_rng(0)
        enc = harness.MLPEncoder(8, 16, 4, rng)
        z = enc.embed(rng.normal(size=(10, 8)))
        np.testing.assert_allclose(np.linalg.norm(z, axis=1), 1.0, atol=1e-12)

    @pytest.mark.parametrize("scale", [1e-3, 1e3])
    def test_embeddings_are_unit_at_any_input_scale(self, scale):
        # the encoder is the one place that normalizes rows
        rng = np.random.default_rng(3)
        enc = harness.MLPEncoder(8, 16, 4, rng)
        z = enc.embed(scale * rng.normal(size=(10, 8)))
        np.testing.assert_allclose(np.linalg.norm(z, axis=1), 1.0, atol=1e-12)

    def test_zero_output_row_is_rejected_by_the_encoder(self):
        enc = harness.MLPEncoder(3, 4, 2, np.random.default_rng(0))
        enc.params["w2"][...] = 0.0
        with pytest.raises(DegenerateInputError,
                           match="^encoder: zero output row has no direction$"):
            enc.forward(np.ones((2, 3)))

    def test_seeded_construction_is_deterministic(self):
        cfg = tiny_train_config()
        e1 = harness.make_encoder(TINY, cfg)
        e2 = harness.make_encoder(TINY, cfg)
        x = np.random.default_rng(1).normal(size=(5, 8))
        np.testing.assert_array_equal(e1.embed(x), e2.embed(x))

    def test_input_width_must_match_the_first_layer(self):
        enc = harness.MLPEncoder(8, 16, 4, np.random.default_rng(0))
        with pytest.raises(ShapeError, match="^encoder: input width 7 != 8$"):
            enc.embed(np.ones((3, 7)))

    def test_forward_matches_embed(self):
        rng = np.random.default_rng(2)
        enc = harness.MLPEncoder(8, 16, 4, rng)
        x = rng.normal(size=(6, 8))
        z, _ = enc.forward(x)
        np.testing.assert_array_equal(z, enc.embed(x))

    def test_relu_subgradient_zero_at_kink(self):
        # the second hidden unit sits exactly at 0, so its weights get nothing
        enc = harness.MLPEncoder(2, 2, 2)
        enc.params["w1"][...] = np.eye(2)
        enc.params["b1"][...] = 0.0
        enc.params["w2"][...] = np.eye(2)
        enc.params["b2"][...] = [[0.0, 1.0]]
        _, pullback = enc.forward(np.array([[1.0, 0.0]]))
        g = enc.views(pullback(np.array([[1.0, -1.0]])))
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
        up = rng.normal(size=(6, 3))

        def f(p):
            # the flat vector with p in the named slice, its adjoint that slice
            buf = enc.flat.copy()
            enc.views(buf)[name][...] = p
            z, pullback = enc.forward(x, buf)
            return (z * up).sum(), lambda c: enc.views(pullback(c * up))[name]

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

    @pytest.mark.parametrize("widths", [(0, 4, 2), (8, 0, 2), (8, 4, 0)])
    def test_nonpositive_width_rejected(self, widths):
        with pytest.raises(ConfigError, match="^encoder widths must be positive$"):
            harness.MLPEncoder(*widths)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf],
                             ids=["nan", "inf", "-inf"])
    def test_forward_checks_a_raw_input_for_finite_values(self, bad):
        enc = harness.MLPEncoder(3, 4, 2, np.random.default_rng(0))
        x = np.ones((2, 3))
        x[1, 2] = bad
        with pytest.raises(EvaluationError, match="^encoder: input contains NaN or Inf$"):
            enc.forward(x)
        with pytest.raises(EvaluationError, match="^encoder: input contains NaN or Inf$"):
            enc.embed(x)
        flat = enc.flat.copy()
        flat[3] = bad
        with pytest.raises(EvaluationError, match="^encoder: input contains NaN or Inf$"):
            enc.forward(np.ones((2, 3)), flat)

    def test_forward_reads_any_layout_to_the_same_bits(self):
        # a Fortran-ordered, a float32 and a nested-list input, and the
        # parameters given explicitly as a row, give the default's bytes
        rng = np.random.default_rng(3)
        enc = harness.MLPEncoder(5, 6, 3, rng)
        x = np.round(rng.normal(size=(4, 5)), 2).astype(np.float32).astype(np.float64)
        want = enc.forward(x)[0].tobytes()
        for other in (np.asfortranarray(x), x.astype(np.float32), x.tolist()):
            assert enc.forward(other)[0].tobytes() == want
        assert enc.forward(x, enc.flat.reshape(1, -1))[0].tobytes() == want
        with pytest.raises(ShapeError, match=f"^encoder: 10 parameters != {enc.flat.size}$"):
            enc.forward(x, np.zeros(10))
        with pytest.raises(ShapeError,
                           match="^encoder: expected a 1-D or 2-D array, got ndim=3$"):
            enc.forward(x[None])

    @pytest.mark.parametrize("seed,integer", [(0, False), (1, False), (2, False),
                                              (3, True), (4, True)])
    def test_vjp_matches_the_concatenating_form_bit_for_bit(self, seed, integer):
        # integer inputs and weights put many pre-activations exactly at
        # the relu kink, where both forms must give the zero subgradient
        rng = np.random.default_rng(seed)
        enc = harness.MLPEncoder(5, 7, 3, rng)
        if integer:
            for k, p in enc.params.items():
                p[...] = rng.integers(-2, 3, size=p.shape)
            x = rng.integers(-2, 3, size=(9, 5)).astype(np.float64)
        else:
            enc.params["b1"][...] = rng.normal(size=(1, 7)) * 0.1
            enc.params["b2"][...] = rng.normal(size=(1, 3)) * 0.1
            x = rng.normal(size=(9, 5))
        pre = x @ enc.params["w1"] + enc.params["b1"]
        assert integer == bool((pre == 0.0).any())
        up = rng.normal(size=(9, 3))
        z, pullback = enc.forward(x)
        got = pullback(up)
        want_z, want = reference_encoder_vjp(enc, x, up)
        assert z.tobytes() == want_z.tobytes()
        assert got.shape == enc.flat.shape
        assert got.tobytes() == want.tobytes()


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


def expression_adam_step(flat, m, v, t, grad, lr):
    """One Adam step on the flat arrays in expression form, the reference
    that ``adam_step`` must match bit for bit."""
    m *= 0.9
    m += (1.0 - 0.9) * grad
    v *= 0.999
    v += (1.0 - 0.999) * (grad * grad)
    m_hat = m / (1.0 - 0.9 ** t)
    v_hat = v / (1.0 - 0.999 ** t)
    flat -= lr * m_hat / (np.sqrt(v_hat) + 1e-8)


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

    def test_in_place_step_matches_the_expression_form_bit_for_bit(self):
        rng = np.random.default_rng(31)
        flat = rng.normal(size=37)
        state = harness.AdamState(flat.copy())
        m, v = np.zeros(37), np.zeros(37)
        for t in range(1, 51):
            grad = rng.normal(size=37) * 10.0 ** rng.integers(-6, 4)
            if t % 7 == 0:
                grad = np.zeros(37)
            lr = (5e-3, 0.0, 1e-3, 0.3)[t % 4]
            harness.adam_step(state, grad, lr)
            expression_adam_step(flat, m, v, t, grad, lr)
            assert state.flat.tobytes() == flat.tobytes()
            assert state.m.tobytes() == m.tobytes()
            assert state.v.tobytes() == v.tobytes()
        assert state.t == 50

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

    @pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
    @pytest.mark.parametrize("view", ["view_a", "view_b"])
    def test_nonfinite_view_raises_before_the_first_step(self, monkeypatch, view, bad):
        import dataclasses
        ds = harness.gen_two_view_dataset(TINY)
        poisoned = np.array(getattr(ds, view))
        poisoned[5, 3] = bad
        ds = dataclasses.replace(ds, **{view: poisoned})
        applies = []
        monkeypatch.setattr(harness.MLPEncoder, "forward",
                            lambda *a: applies.append(a))
        cfg = tiny_train_config()
        with pytest.raises(NumericError, match=(
                rf"^non-finite value in {view} before training "
                r"\(loss='t', seed=0\): NaN or Inf$")):
            harness.train(ds, harness.make_encoder(TINY, cfg), cfg)
        assert applies == []

    def test_view_must_be_two_dimensional(self):
        import dataclasses
        ds = harness.gen_two_view_dataset(TINY)
        ds = dataclasses.replace(ds, view_b=ds.view_b.reshape(8, 2, 4))
        cfg = tiny_train_config()
        with pytest.raises(ShapeError, match="^train: view_b must be 2-D, got ndim=3$"):
            harness.train(ds, harness.make_encoder(TINY, cfg), cfg)

    @pytest.mark.parametrize("field,rows,shapes", [
        ("view_b", 6, r"view_a \(8, 8\), view_b \(6, 8\), labels \(8,\)"),
        ("view_b", 10, r"view_a \(8, 8\), view_b \(10, 8\), labels \(8,\)"),
        ("labels", 6, r"view_a \(8, 8\), view_b \(8, 8\), labels \(6,\)"),
    ], ids=["short-view-b", "long-view-b", "short-labels"])
    def test_disagreeing_rows_raise_before_the_first_step(self, monkeypatch,
                                                          field, rows, shapes):
        # a short view_b once failed at the first batch, a long one after
        # training in matching_accuracy, short labels in linear_probe
        import dataclasses
        ds = harness.gen_two_view_dataset(TINY)
        value = getattr(ds, field)
        value = np.resize(value, (rows,) + value.shape[1:])
        ds = dataclasses.replace(ds, **{field: value})
        applies = []
        monkeypatch.setattr(harness.MLPEncoder, "forward",
                            lambda *a: applies.append(a))
        cfg = tiny_train_config()
        with pytest.raises(ShapeError, match=(
                rf"^train: the views and labels disagree: {shapes}$")):
            harness.train(ds, harness.make_encoder(TINY, cfg), cfg)
        assert applies == []

    def test_views_of_another_layout_train_to_the_same_bits(self):
        # a Fortran-ordered view and a strided one are made C-ordered once
        import dataclasses
        ds = harness.gen_two_view_dataset(TINY)
        cfg = tiny_train_config()
        enc, rep = harness.train(ds, harness.make_encoder(TINY, cfg), cfg)
        strided = np.repeat(ds.view_b, 2, axis=1)[:, ::2]
        assert not strided.flags.c_contiguous
        other = dataclasses.replace(ds, view_a=np.asfortranarray(ds.view_a),
                                    view_b=strided)
        enc2, rep2 = harness.train(other, harness.make_encoder(TINY, cfg), cfg)
        assert rep2.epoch_losses == rep.epoch_losses
        assert enc2.flat.tobytes() == enc.flat.tobytes()

    @pytest.mark.parametrize("beta", [0.0, 1.0])
    @pytest.mark.parametrize("mode", ["euclidean", "cosine"])
    @pytest.mark.parametrize("kind,mining", PAIRWISE_KINDS)
    def test_train_builds_no_tape(self, monkeypatch, kind, mining, mode, beta):
        # a step is a chain of array-level pullbacks, and evaluation reads
        # arrays: a run passes with no Tape and no custom_op node to make
        def no_tape(*args):
            raise AssertionError("training built a tape")

        monkeypatch.setattr(T.Tape, "__init__", no_tape)
        monkeypatch.setattr(T, "custom_op", no_tape)
        ds = harness.gen_two_view_dataset(TINY)
        cfg = tiny_train_config(loss=losses.LossConfig(
            name="t", kind=kind, mining=mining, beta=beta, mode=mode))
        _, report = harness.train(ds, harness.make_encoder(TINY, cfg), cfg)
        assert len(report.epoch_losses) == cfg.epochs

    @pytest.mark.parametrize("beta", [0.0, 1.0])
    def test_a_step_calls_the_objective_once_and_the_encoder_twice(self, monkeypatch,
                                                                  beta):
        # one step (a batch of all 8 items), one embedding per view, then
        # the linear probe's own Adam steps
        events = []

        def recorded(name, real):
            def wrapped(*args, **kwargs):
                events.append(name)
                return real(*args, **kwargs)
            return wrapped

        monkeypatch.setattr(harness.MLPEncoder, "forward",
                            recorded("forward", harness.MLPEncoder.forward))
        monkeypatch.setattr(harness, "two_view_loss",
                            recorded("two_view_loss", harness.two_view_loss))
        monkeypatch.setattr(harness, "adam_step",
                            recorded("adam_step", harness.adam_step))
        ds = harness.gen_two_view_dataset(TINY)
        cfg = tiny_train_config(epochs=1, batch_size=8, loss=losses.LossConfig(
            name="t", kind="infonce", beta=beta))
        harness.train(ds, harness.make_encoder(TINY, cfg), cfg)
        assert events[:6] == ["forward", "forward", "two_view_loss", "adam_step",
                              "forward", "forward"]
        assert set(events[6:]) == {"adam_step"}

    @pytest.mark.parametrize("mode", ["euclidean", "cosine"])
    def test_beta_one_step_gradcheck_over_flat_parameters(self, mode):
        cfg = tiny_train_config(loss=losses.LossConfig(
            name="t", kind="infonce", beta=1.0, mode=mode))
        enc = harness.make_encoder(TINY, cfg)
        ds = harness.gen_two_view_dataset(TINY)
        xa, xb = ds.view_a[:4], ds.view_b[:4]
        gt = losses.GroundTruthAlignment.identity(4)
        # a generic point: no relu at its kink, no close eigenvalues in qare
        for x in (xa, xb):
            assert np.abs(x @ enc.params["w1"] + enc.params["b1"]).min() > 1e-3
        for z in (enc.embed(xa), enc.embed(xb)):
            shifted = 1.0 + z @ z.T
            assert simgeom.min_eigengap(simgeom.sym_eigen(shifted).values) > 1e-3

        assert T.gradcheck(step_function(enc, xa, xb, gt, cfg.loss), enc.flat) < 1e-6

    @pytest.mark.parametrize("kwargs,message", [
        (dict(batch_size=1), "batch_size must be >= 2"),
        (dict(learning_rate=-1e-3), "learning_rate must be >= 0"),
        (dict(hidden_dim=0), "encoder widths must be positive"),
        (dict(embed_dim=0), "encoder widths must be positive"),
        (dict(seed=-1), "seed must be >= 0, got -1"),
    ])
    def test_invalid_config_rejected(self, kwargs, message):
        with pytest.raises(ConfigError, match=f"^{message}$"):
            tiny_train_config(**kwargs)

    def test_nan_learning_rate_rejected(self):
        with pytest.raises(ConfigError, match="^learning_rate must be >= 0$"):
            tiny_train_config(learning_rate=float("nan"))

    def test_infinite_learning_rate_rejected(self):
        # not a non-finite parameter at step 1 that names neither
        with pytest.raises(ConfigError, match="^learning_rate must be finite$"):
            tiny_train_config(learning_rate=float("inf"))

    def test_batch_larger_than_the_dataset_rejected(self):
        # the CLI checks this before training; a library caller meets it here
        ds = harness.gen_two_view_dataset(TINY)  # 8 samples
        cfg = tiny_train_config(batch_size=9)
        with pytest.raises(ConfigError,
                           match="^batch_size 9 exceeds dataset size 8$"):
            harness.train(ds, harness.make_encoder(TINY, cfg), cfg)

    def test_nonfinite_parameters_raise_numeric_error(self):
        ds = harness.gen_two_view_dataset(TINY)
        cfg = tiny_train_config()
        enc = harness.make_encoder(TINY, cfg)
        enc.params["b2"][0, 1] = np.inf
        with pytest.raises(NumericError, match=(
                r"^non-finite value in parameter 'b2' before training "
                r"\(loss='t', seed=0\)$")):
            harness.train(ds, enc, cfg)

    @pytest.mark.parametrize("beta", [0.0, 1.0])
    def test_overflowing_update_raises_numeric_error_at_the_next_step(self, beta):
        # the first update leaves finite parameters of about 1e300, whose
        # products overflow in the next step's embedding to NaN rows, which
        # the objective rejects at any beta
        ds = harness.gen_two_view_dataset(TINY)
        cfg = tiny_train_config(learning_rate=1e300, loss=losses.LossConfig(
            name="t", kind="infonce", beta=beta))
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(
                NumericError, match=(r"^non-finite value at epoch 0 step 1 "
                                     r"\(loss='t', seed=0\): two_view_loss: "
                                     r"input contains NaN or Inf$")):
            harness.train(ds, harness.make_encoder(TINY, cfg), cfg)

    def test_nonfinite_loss_raises_numeric_error(self, monkeypatch):
        def nan_objective(za, zb, gt, cfg):
            return np.nan, None

        monkeypatch.setattr(harness, "two_view_loss", nan_objective)
        ds = harness.gen_two_view_dataset(TINY)
        cfg = tiny_train_config()
        with pytest.raises(NumericError, match=(
                r"^non-finite loss nan at epoch 0 step 0 \(loss='t', seed=0\)$")):
            harness.train(ds, harness.make_encoder(TINY, cfg), cfg)

    def test_partial_final_batch_is_dropped(self):
        ds = harness.gen_two_view_dataset(TINY)  # 8 samples
        cfg = tiny_train_config(batch_size=5, epochs=1)  # one step per epoch
        _, rep = harness.train(ds, harness.make_encoder(TINY, cfg), cfg)
        assert len(rep.epoch_losses) == 1


class TestTrainingScaleGradients:
    """The gradient of one default-size step (batch 32, widths 64 and 16,
    3,152 flat parameters) against central differences. Such a step runs
    what the toy-size gradchecks never reach: Gram-form distances,
    rank-deficient cosine spectra (n = 32 > E + 1 = 17), the n = 32 LAP
    and the encoder's in-place VJP."""

    DIRECTIONS = 4
    STEPS = (1e-4, 1e-5, 1e-6)

    @pytest.mark.parametrize("beta", [0.0, 1.0])
    @pytest.mark.parametrize("mode", ["euclidean", "cosine"])
    @pytest.mark.parametrize("kind,mining", PAIRWISE_KINDS)
    def test_step_gradient_matches_central_differences(self, kind, mining, mode, beta):
        # after one epoch of training, on a random batch; per unit
        # direction d, the best step h's |difference quotient - g.d|
        # relative to |g|. The worst case over these 24 cases read 3.6e-11.
        # With the encoder VJP missing its 1/norms every case read 6.5e-3 or
        # more, and with the qare weight of the objective's pullback scaled
        # by 1.01 every beta=1 case read 1.3e-5 or more.
        spec = harness.SyntheticSpec()
        cfg = harness.TrainConfig(epochs=1, loss=losses.LossConfig(
            name="g", kind=kind, mining=mining, beta=beta, mode=mode))
        ds = harness.gen_two_view_dataset(spec)
        enc, _ = harness.train(ds, harness.make_encoder(spec, cfg), cfg)
        assert enc.flat.size == 3152
        rng = np.random.default_rng(11)
        idx = rng.permutation(spec.num_items)[:cfg.batch_size]
        xa, xb = ds.view_a[idx], ds.view_b[idx]
        gt = losses.GroundTruthAlignment.identity(cfg.batch_size)

        step = step_function(enc, xa, xb, gt, cfg.loss)
        flat = enc.flat.copy()
        g = step(flat)[1](1.0)
        worst = 0.0
        for _ in range(self.DIRECTIONS):
            d = rng.normal(size=flat.size)
            d /= np.linalg.norm(d)
            err = min(abs((step(flat + h * d)[0] - step(flat - h * d)[0])
                          / (2.0 * h) - g @ d) for h in self.STEPS)
            worst = max(worst, err / np.linalg.norm(g))
        assert worst < 1e-6


class TestTapeFreeStep:
    """A training step chains the pullbacks of ``forward`` on each view
    and of ``losses.two_view_loss`` with no tape. Its value and flat
    gradient are those of the tape composition of the same step, two
    ``custom_op`` nodes over ``forward`` and one over ``two_view_loss``,
    and ``Tape.backward``, bit for bit: each adjoint the tape sums has at
    most two terms, so the order of the sum moves no bit."""

    @staticmethod
    def _run(name, loss):
        """The dataset, encoder and config of a run of one step: one batch
        of TINY, of 32 rows at the default widths 64 and 16, or of a
        pair of sets where qare meets an eigenvalue cluster."""
        if name != "hexagon":
            spec = TINY if name == "tiny" else harness.SyntheticSpec(
                num_classes=2, samples_per_class=16)
            widths = (16, 4) if name == "tiny" else (64, 16)
            cfg = harness.TrainConfig(epochs=1, batch_size=spec.num_items,
                                      hidden_dim=widths[0], embed_dim=widths[1],
                                      loss=loss)
            return harness.gen_two_view_dataset(spec), harness.make_encoder(spec, cfg), cfg
        # an encoder of widths 2, 4 and 2 that maps each row x to
        # relu(x) - relu(-x) = x, so the hexagon, whose factor Gram is
        # diag(6, 3, 3) to rounding, to itself: qare pairs its two equal
        # eigenvalues with a generic view B's distinct ones, so the
        # step's gradient is one subgradient of many
        angles = np.arange(6) * (np.pi / 3.0)
        hexagon = np.stack([np.cos(angles), np.sin(angles)], axis=1)
        generic = np.random.default_rng(14).normal(size=(6, 2))
        ds = harness.TwoViewDataset(
            view_a=hexagon, view_b=generic, labels=np.repeat([0, 1], 3),
            q_a=np.eye(2), q_b=np.eye(2), bias_a=np.zeros(2), bias_b=np.zeros(2))
        enc = harness.MLPEncoder(2, 4, 2)
        enc.params["w1"][...] = [[1.0, 0.0, -1.0, 0.0], [0.0, 1.0, 0.0, -1.0]]
        enc.params["w2"][...] = [[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.0, -1.0]]
        cfg = harness.TrainConfig(epochs=1, batch_size=6, hidden_dim=4, embed_dim=2,
                                  loss=loss)
        return ds, enc, cfg

    @pytest.mark.parametrize("run,beta", [("tiny", 0.0), ("tiny", 1.0),
                                          ("default", 0.0), ("default", 1.0),
                                          ("hexagon", 1.0)])
    @pytest.mark.parametrize("mode", ["euclidean", "cosine"])
    @pytest.mark.parametrize("kind,mining", PAIRWISE_KINDS)
    def test_step_is_the_tape_composition_bit_for_bit(self, monkeypatch, kind,
                                                      mining, mode, beta, run):
        ds, enc, cfg = self._run(run, losses.LossConfig(
            name="t", kind=kind, mining=mining, beta=beta, mode=mode))
        flat = enc.flat.copy()
        batches, grads = [], []
        real_forward, real_adam = harness.MLPEncoder.forward, harness.adam_step

        def seen_forward(self, x, flat=None):
            batches.append(np.array(x))
            return real_forward(self, x, flat)

        def seen_adam(state, grad, lr):
            grads.append(grad.copy())
            real_adam(state, grad, lr)

        monkeypatch.setattr(harness.MLPEncoder, "forward", seen_forward)
        monkeypatch.setattr(harness, "adam_step", seen_adam)
        _, report = harness.train(ds, enc, cfg)
        monkeypatch.undo()

        # one step an epoch: the first two forwards are its views, the
        # first Adam update its gradient, the one epoch loss its value
        tape = T.Tape()
        w = tape.leaf(flat)
        za, zb = (encoded(enc, x, w) for x in batches[:2])
        gt = losses.GroundTruthAlignment.identity(cfg.batch_size)
        loss = node(lambda a, b: losses.two_view_loss(a, b, gt, cfg.loss), za, zb)
        grad = tape.backward(loss)[w].data.reshape(-1)
        assert report.epoch_losses == [loss.item()]
        assert grads[0].tobytes() == grad.tobytes()


def reference_probe(x, y, seed):
    """linear_probe's split and training loop with each row's max taken
    by a reduction; returns the trained flat weights and the accuracy."""
    classes, codes = np.unique(y, return_inverse=True)
    rng = np.random.default_rng(seed)
    train_idx, test_idx = [], []
    for c in classes:
        members = np.flatnonzero(y == c)
        members = members[rng.permutation(members.size)]
        cut = max(1, int(round(members.size * 0.8)))
        cut = min(cut, members.size - 1) if members.size > 1 else cut
        train_idx.append(members[:cut])
        test_idx.append(members[cut:])
    train_idx = np.concatenate(train_idx)
    test_idx = np.concatenate(test_idx)
    yt, xt = codes[train_idx], x[train_idx]
    k = x.shape[1] * classes.size
    state = harness.AdamState(np.zeros(k + classes.size))
    w, b = state.flat[:k].reshape(x.shape[1], classes.size), state.flat[k:]
    for _ in range(harness._PROBE_EPOCHS):
        order = rng.permutation(xt.shape[0])
        for start in range(0, xt.shape[0], harness._PROBE_BATCH):
            sel = order[start:start + harness._PROBE_BATCH]
            xb, yb = xt[sel], yt[sel]
            logits = xb @ w + b
            logits -= logits.max(axis=1, keepdims=True)
            p = np.exp(logits)
            p /= p.sum(axis=1, keepdims=True)
            p[np.arange(sel.size), yb] -= 1.0
            p /= sel.size
            harness.adam_step(
                state, np.concatenate([(xb.T @ p).ravel(), p.sum(axis=0)]),
                lr=harness._PROBE_LR)
    pred = np.argmax(x[test_idx] @ w + b, axis=1)
    return state.flat, float(np.mean(pred == codes[test_idx]))


class TestEvaluation:
    def test_linear_probe_matches_the_reference_loop_bit_for_bit(self, monkeypatch):
        # 8 classes, 240 training rows: two minibatches (128, 112) a step
        rng = np.random.default_rng(6)
        y = np.repeat(np.arange(8), 38)
        z = rng.normal(size=(y.size, 4)) + 0.8 * rng.normal(size=(8, 4))[y]
        states = []
        real = harness.adam_step

        def spy(state, grad, lr):
            states.append(state)
            real(state, grad, lr)

        monkeypatch.setattr(harness, "adam_step", spy)
        acc = harness.linear_probe(z, y, seed=3)
        monkeypatch.setattr(harness, "adam_step", real)
        flat, ref_acc = reference_probe(z, y, seed=3)
        assert len(states) == 200 and all(s is states[0] for s in states)
        assert states[0].flat.tobytes() == flat.tobytes()
        assert acc == ref_acc and 0.2 < acc < 1.0
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
        acc = harness.evaluate_matching(enc.embed(ds.view_a), enc.embed(ds.view_b))
        assert 0.0 <= acc <= 1.0

    def test_train_embeds_each_view_once(self, monkeypatch):
        # the matching accuracy and the probe share one embedding per view,
        # and train reaches the accuracy through the public binding
        ds = harness.gen_two_view_dataset(TINY)
        cfg = tiny_train_config()
        real_embed = harness.MLPEncoder.embed
        real_matching = harness.evaluate_matching
        seen, matched = [], []

        def counted(self, x):
            z = real_embed(self, x)
            seen.append((x, z))
            return z

        def recorded(za, zb):
            matched.append((za, zb, real_matching(za, zb)))
            return matched[-1][2]

        monkeypatch.setattr(harness.MLPEncoder, "embed", counted)
        monkeypatch.setattr(harness, "evaluate_matching", recorded)
        enc, report = harness.train(ds, harness.make_encoder(TINY, cfg), cfg)
        assert len(seen) == 2
        assert seen[0][0] is ds.view_a and seen[1][0] is ds.view_b
        assert len(matched) == 1
        za, zb, acc = matched[0]
        assert za is seen[0][1] and zb is seen[1][1]
        assert report.matching_accuracy == acc
        za, zb = real_embed(enc, ds.view_a), real_embed(enc, ds.view_b)
        assert report.matching_accuracy == real_matching(za, zb)
        assert report.probe_accuracy == harness.linear_probe(
            np.vstack([za, zb]), np.concatenate([ds.labels, ds.labels]),
            seed=cfg.seed)

    def test_linear_probe_rejects_mismatched_labels(self):
        with pytest.raises(ShapeError,
                           match="^linear_probe: embeddings and labels disagree$"):
            harness.linear_probe(np.zeros((6, 2)), np.array([0, 1] * 2))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_linear_probe_rejects_nonfinite_embeddings(self, bad):
        rng = np.random.default_rng(6)
        z = rng.normal(size=(40, 3))
        z[7, 1] = bad
        with pytest.raises(EvaluationError,
                           match="^linear_probe: embeddings contain NaN or Inf$"):
            harness.linear_probe(z, np.repeat([0, 1], 20))

    def test_linear_probe_rejects_a_negative_seed(self):
        # numpy's default_rng would raise a bare ValueError
        with pytest.raises(ContractError,
                           match="^linear_probe: seed must be >= 0, got -1$"):
            harness.linear_probe(np.eye(4), np.array([0, 0, 1, 1]), seed=-1)

    def test_linear_probe_needs_two_classes(self):
        with pytest.raises(ContractError,
                           match="^linear_probe needs at least two classes$"):
            harness.linear_probe(np.zeros((4, 2)), np.zeros(4, dtype=int))

    def test_linear_probe_needs_a_held_out_sample(self):
        # a class of one sample goes wholly to the training side
        with pytest.raises(ContractError,
                           match="^linear_probe: split left no held-out samples$"):
            harness.linear_probe(np.eye(3), np.arange(3))

    @pytest.mark.parametrize("num_classes,samples_per_class", [(5, 9), (8, 16)])
    def test_block_rows_give_the_one_call_bytes(self, monkeypatch, num_classes,
                                                samples_per_class):
        # evaluation's S is one distance matrix over all items
        spec = harness.SyntheticSpec(num_classes=num_classes,
                                     samples_per_class=samples_per_class)
        ds = harness.gen_two_view_dataset(spec)
        enc = harness.make_encoder(spec, harness.TrainConfig())
        seen = []
        real = assignment.matching_accuracy

        def capture(s, perm):
            seen.append(s)
            return real(s, perm)

        monkeypatch.setattr(assignment, "matching_accuracy", capture)
        harness.evaluate_matching(enc.embed(ds.view_a), enc.embed(ds.view_b))
        whole = simgeom.pairwise_distances(enc.embed(ds.view_a), enc.embed(ds.view_b))[0]
        assert len(seen) == 1
        assert seen[0].shape == whole.shape == (spec.num_items, spec.num_items)
        assert seen[0].tobytes() == whole.tobytes()


class TestTapeLifetime:
    """A tape's records hold arrays only, so reference counting alone
    frees a step's graph once its last Tensor goes: nothing waits for
    the cycle collector. The step is composed on the tape as in
    ``TestTapeFreeStep``."""

    @pytest.mark.parametrize("kind,mining,beta,mode", [
        *((kind, mining, 0.0, "euclidean") for kind, mining in PAIRWISE_KINDS),
        ("infonce", "batch-hard", 0.0, "cosine"),
        ("infonce", "batch-hard", 1.0, "euclidean"),
        ("infonce", "batch-hard", 1.0, "cosine"),
    ])
    def test_step_graph_is_freed_without_the_collector(self, kind, mining,
                                                        beta, mode):
        loss = losses.LossConfig(name="t", kind=kind, mining=mining, beta=beta,
                                 mode=mode)
        ds = harness.gen_two_view_dataset(TINY)
        enc = harness.make_encoder(TINY, tiny_train_config(loss=loss))
        gt = losses.GroundTruthAlignment.identity(4)
        with gc_disabled():
            tape = T.Tape()
            w = tape.leaf(enc.flat)
            za = encoded(enc, ds.view_a[:4], w)
            zb = encoded(enc, ds.view_b[:4], w)
            value = node(lambda a, b: losses.two_view_loss(a, b, gt, loss), za, zb)
            grad = tape.backward(value)[w]
            # the flat leaf, two encoder views and the objective
            assert len(tape) == 4 and np.isfinite(grad.data).all()
            alive = weakref.ref(tape)
            del tape, w, za, zb, value, grad
            assert alive() is None


class TestFig1bInstance:
    def test_shared_inter_set_matrix(self):
        (s_near, _, _), (s_far, _, _) = harness.fig1b_instance()
        np.testing.assert_array_equal(s_near, s_far)
        assert s_near.shape == (4, 4)

    def test_intra_matrices_are_distance_like(self):
        for _, s_a, s_b in harness.fig1b_instance():
            for m in (s_a, s_b):
                np.testing.assert_allclose(m, m.T, atol=1e-15)
                np.testing.assert_allclose(np.diag(m), 0.0, atol=1e-15)
                assert m.min() >= 0.0

    def test_quadratic_side_separates_the_geometries(self):
        view_a, near, far = harness.fig1b_points()
        q_near = losses.qare(view_a, near)[0]
        q_far = losses.qare(view_a, far)[0]
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

        enc = Inverse()
        assert harness.evaluate_matching(enc.embed(ds.view_a),
                                         enc.embed(ds.view_b)) == 1.0

    def test_untrained_encoder_matches_at_chance(self):
        spec = harness.SyntheticSpec()
        ds = harness.gen_two_view_dataset(spec)
        n = spec.num_classes * spec.samples_per_class
        encoders = [harness.make_encoder(spec, harness.TrainConfig(seed=seed))
                    for seed in range(20)]
        vals = np.array([
            harness.evaluate_matching(enc.embed(ds.view_a), enc.embed(ds.view_b))
            for enc in encoders
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
