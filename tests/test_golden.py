"""Golden trajectories of a reference regime whose accuracies stay well
below 1, so that a change which slows learning, or moves the bits of
training, shows in them.

The regime: data seed 7, 16 classes, ``noise_sigma`` 2.0, encoder widths
32 and 4, infonce in euclidean and in cosine mode, batch 32, 10 epochs,
at β 0 and 1 and run seeds 0 and 1. ``golden_reference.json`` holds each run's epoch
losses and its two accuracies. The losses are compared at 1e-9 relative
and the accuracies exactly.

A deliberate numeric change regenerates the file with

    PYTHONPATH=src python tests/test_golden.py

and says so in CHANGES.md.
"""

import json
from pathlib import Path

import numpy as np

from setcontrast import harness, losses

GOLDEN = Path(__file__).with_name("golden_reference.json")
SPEC = harness.SyntheticSpec(num_classes=16, noise_sigma=2.0, seed=7)
MODES = ("euclidean", "cosine")
BETAS = (0.0, 1.0)
SEEDS = (0, 1)


def _runs() -> list:
    dataset = harness.gen_two_view_dataset(SPEC)
    runs = []
    for mode in MODES:
        for beta in BETAS:
            loss = losses.LossConfig(name="infonce", kind="infonce", beta=beta,
                                     mode=mode)
            for seed in SEEDS:
                cfg = harness.TrainConfig(epochs=10, batch_size=32, hidden_dim=32,
                                          embed_dim=4, loss=loss, seed=seed)
                _, report = harness.train(dataset, harness.make_encoder(SPEC, cfg), cfg)
                runs.append({"mode": mode, "beta": beta, "seed": seed,
                             "epoch_losses": report.epoch_losses,
                             "matching_accuracy": report.matching_accuracy,
                             "probe_accuracy": report.probe_accuracy})
    return runs


def test_reference_runs_match_the_golden_file():
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    runs = _runs()
    assert [(r["mode"], r["beta"], r["seed"]) for r in runs] == \
        [(g["mode"], g["beta"], g["seed"]) for g in golden]
    for run, want in zip(runs, golden):
        where = f"mode={run['mode']} beta={run['beta']} seed={run['seed']}"
        np.testing.assert_allclose(run["epoch_losses"], want["epoch_losses"],
                                   rtol=1e-9, atol=0.0, err_msg=where)
        assert run["matching_accuracy"] == want["matching_accuracy"], where
        assert run["probe_accuracy"] == want["probe_accuracy"], where
        # the regime is only worth its runtime while neither metric saturates
        assert max(want["matching_accuracy"], want["probe_accuracy"]) < 0.9, where


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(_runs(), indent=1) + "\n", encoding="utf-8")
