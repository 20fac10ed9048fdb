"""Acceptance gate: one test per primary guarantee, in order.

Each test prints a single PASS/FAIL line with the measured error and
elapsed time, then asserts at the stated tolerance. Runtime bounds are
asserted where the guarantee includes one.
"""

import json
import time

import numpy as np

from setcontrast import cli, harness, losses, verify


def _line(ok: bool, label: str, detail: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'} [{label}] {detail}")


def _suite(name: str, budget: float = None):
    t0 = time.perf_counter()
    r = verify.SUITES[name]()
    dt = time.perf_counter() - t0
    ok = r.passed and (budget is None or dt < budget)
    _line(ok, name, f"max_err={r.max_err:.3e} elapsed={dt:.1f}s ({r.detail})")
    assert r.passed, r.detail
    if budget is not None:
        assert dt < budget, f"{name} took {dt:.1f}s, budget {budget}s"


def test_criterion_01_sandwich_bound():
    # 200 symmetric pairs, every permutation inside the eig_dot bracket
    _suite("sandwich", budget=30.0)


def test_criterion_02_batch_hard_identity():
    # N * batch-mean structured batch-hard loss == per-row hinge sum, 1e-12
    _suite("hinge_identity", budget=10.0)


def test_criterion_03_smoothing_identity():
    # N * batch-mean smoothed batch-hard == temperature * sum-form softmax
    # loss, 1e-10
    _suite("smoothing_identity", budget=10.0)


def test_criterion_04_quadratic_upper_bound():
    # exact quadratic structured loss <= N * batch-mean linear loss
    # - eig_dot(min)
    _suite("upper_bound", budget=60.0)


def test_criterion_05_assignment_solver_exact():
    # solver cost == exhaustive enumeration, both senses, exactly
    _suite("lap_exact", budget=30.0)


def test_criterion_06_sparsemax_oracle():
    # closed form == support-enumeration oracle (itself grid-checked),
    # plus the threshold identity at 1e-12
    _suite("sparsemax")


def test_criterion_07_gradient_suite():
    # finite differences at 20 generic points per loss, rel err <= 1e-4
    _suite("gradients", budget=120.0)


def test_criterion_08_shared_lap_distinct_qap():
    _suite("fig1b")


def test_criterion_09_desk_scale_direction():
    t0 = time.perf_counter()
    spec = harness.SyntheticSpec()
    dataset = harness.gen_two_view_dataset(spec)
    n_items = spec.num_classes * spec.samples_per_class
    means = {}
    for beta in (0.0, 1.0):
        accs = []
        for seed in (0, 1, 2, 3, 4):
            config = harness.TrainConfig(
                loss=losses.LossConfig(name="infonce", kind="infonce",
                                       beta=beta),
                seed=seed)
            encoder = harness.make_encoder(spec, config)
            _, report = harness.train(dataset, encoder, config)
            accs.append(report.matching_accuracy)
        means[beta] = float(np.mean(accs))
    dt = time.perf_counter() - t0
    gap = means[1.0] - means[0.0]
    floor = 10.0 / n_items
    ok = (gap >= -0.02 and means[0.0] >= floor and means[1.0] >= floor
          and dt < 300.0)
    _line(ok, "desk-scale direction",
          f"acc(beta=0)={means[0.0]:.4f} acc(beta=1)={means[1.0]:.4f} "
          f"gap={gap:+.4f} floor={floor:.4f} elapsed={dt:.1f}s")
    assert gap >= -0.02, f"regularized variant regressed by {-gap:.4f}"
    assert means[0.0] >= floor and means[1.0] >= floor
    assert dt < 300.0


def test_criterion_10_beta_sweep_reproducible(tmp_path):
    t0 = time.perf_counter()
    doc = {
        "data": {"num_classes": 4, "samples_per_class": 8,
                 "ambient_dim": 16, "noise_sigma": 0.25, "seed": 7},
        "train": {"epochs": 6, "batch_size": 8,
                  "hidden_dim": 32, "embed_dim": 8},
        "losses": [{"name": "infonce", "kind": "infonce", "beta": 0.0}],
        "seeds": [0, 1],
    }
    cfgp = tmp_path / "cfg.json"
    cfgp.write_text(json.dumps(doc), encoding="utf-8")
    sweep_dir = tmp_path / "sweep"
    train_dir = tmp_path / "train"
    assert cli.main(["sweep", "--config", str(cfgp),
                     "--out", str(sweep_dir)]) == 0
    assert cli.main(["train", "--config", str(cfgp),
                     "--out", str(train_dir)]) == 0

    rows = (sweep_dir / "sweep.csv").read_text().splitlines()[1:]
    assert len(rows) == 16 * len(doc["seeds"])
    grid = sorted({ln.split(",")[0] for ln in rows}, key=float)
    assert [float(g) for g in grid] == [i * 0.125 for i in range(16)]

    train_finals = {}
    for ln in (train_dir / "history.csv").read_text().splitlines()[1:]:
        seed, _, _, _, macc, pacc = ln.split(",")
        if macc:
            train_finals[seed] = (macc, pacc)
    zero_rows = [ln for ln in rows if float(ln.split(",")[0]) == 0.0]
    assert len(zero_rows) == len(doc["seeds"])
    mismatches = 0
    for ln in zero_rows:
        _, seed, macc, pacc = ln.split(",")
        if (macc, pacc) != train_finals[seed]:
            mismatches += 1
    dt = time.perf_counter() - t0
    ok = mismatches == 0
    _line(ok, "beta sweep",
          f"{len(rows)} rows over 16-point grid, {mismatches} byte "
          f"mismatches at beta=0, elapsed={dt:.1f}s")
    assert mismatches == 0
