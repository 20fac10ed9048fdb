"""Byte-compare the CLI outputs of two checkouts of setcontrast.

    python tools/golden_cmp.py BASE HEAD

BASE and HEAD are checkout roots, each with the package under ``src/``.
Each checkout runs, in fresh processes with BLAS pinned to one thread:

- ``train`` on the ``pairwise``, ``lap`` and ``qare`` configs of
  ``perfbench/workloads.py`` at workload seeds 1-8 (``history.csv`` and
  ``summary.json`` each, 48 files);
- ``sweep --beta-grid 0,0.5,1`` for cosine infonce and for margin
  one-to-one (one ``sweep.csv`` each);
- ``verify``, whose stdout is one file.

The CSV files print 9 significant digits, so a change in the last bits
of a training run would pass them unseen. So one more fresh process per
checkout trains every run of the 24 train configs in process and writes
two sha256 digests per run: of ``repr(report.epoch_losses)`` and of the
trained ``encoder.flat`` bytes, and the epoch losses themselves
(``digests.txt``, 120 runs).

The 51 files of one side are then compared byte for byte with the
other's, and the digests run by run. The script prints each differing or
missing file and digest and the counts, and exits 1 if any differs, 0
otherwise. Where a run's epoch-loss digest differs, it also prints that
run's largest relative epoch-loss difference, and at the end the largest
over all runs; this is a report of how far the losses moved, not a
gate. It needs only the standard library and the two checkouts; the
configs come from this checkout's ``perfbench/workloads.py``, which is
standard library only. It is not a tier-1 test: one side takes about
80 s.
"""

from __future__ import annotations

import filecmp
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
from workloads import WORKLOADS  # noqa: E402

TRAIN_WORKLOADS = ("pairwise", "lap", "qare")
SEEDS = range(1, 9)
BETA_GRID = "0,0.5,1"
SWEEPS = {
    "sweep-infonce-cosine": {"name": "infonce_cosine", "kind": "infonce",
                             "mode": "cosine"},
    "sweep-margin-one-to-one": {"name": "margin_one_to_one", "kind": "margin",
                                "mining": "one-to-one"},
}


# Trains every run of the configs named on its command line, as the
# ``train`` command does, and prints one line per run: the config, loss
# and seed, the sha256 of repr(epoch_losses) and of encoder.flat, then the
# epoch losses, comma-separated.
_DIGEST_CHILD = """
import dataclasses, hashlib, sys
from pathlib import Path
from setcontrast import cli, harness
for path in sys.argv[1:]:
    cfg = cli.load_config(path)
    dataset = harness.gen_two_view_dataset(cfg.data)
    for loss in cfg.losses:
        for seed in cfg.seeds:
            tc = dataclasses.replace(cfg.train, loss=loss, seed=seed)
            encoder, report = harness.train(
                dataset, harness.make_encoder(cfg.data, tc), tc)
            losses = hashlib.sha256(repr(report.epoch_losses).encode())
            flat = hashlib.sha256(encoder.flat.tobytes())
            print(Path(path).stem, loss.name, seed,
                  losses.hexdigest(), flat.hexdigest(),
                  ",".join(map(repr, report.epoch_losses)))
"""


def _run(checkout: Path, argv, stdout=None) -> None:
    """``python argv`` under ``checkout``'s package, BLAS on one thread."""
    env = dict(os.environ, PYTHONPATH=str(checkout / "src"),
               OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    done = subprocess.run([sys.executable, *argv],
                          env=env, stdout=stdout, stderr=subprocess.PIPE,
                          text=True)
    if done.returncode != 0:
        print(f"{checkout}: python {' '.join(argv)[:200]} exited "
              f"{done.returncode}\n{done.stderr}", file=sys.stderr)


def _outputs(checkout: Path, out: Path, configs: Path) -> None:
    """Every golden run of one checkout, written under ``out``."""
    train_configs = [configs / f"{name}-seed{seed}.json"
                     for name in TRAIN_WORKLOADS for seed in SEEDS]
    for cfg in train_configs:
        _run(checkout, ["-m", "setcontrast", "train", "--config", str(cfg),
                        "--out", str(out / cfg.stem)])
    for name in SWEEPS:
        _run(checkout, ["-m", "setcontrast", "sweep",
                        "--config", str(configs / f"{name}.json"),
                        "--beta-grid", BETA_GRID, "--out", str(out / name)])
    with open(out / "verify.txt", "w", encoding="utf-8") as fh:
        _run(checkout, ["-m", "setcontrast", "verify"], stdout=fh)
    with open(out / "digests.txt", "w", encoding="utf-8") as fh:
        _run(checkout, ["-c", _DIGEST_CHILD, *map(str, train_configs)],
             stdout=fh)


def _digests(path: Path) -> tuple:
    """{(config, loss, seed, what): sha256} and {(config, loss, seed):
    epoch losses} from one side's digests.txt."""
    found, epoch_losses = {}, {}
    if path.is_file():
        for line in path.read_text(encoding="utf-8").splitlines():
            config, loss, seed, losses, flat, values = line.split()
            found[(config, loss, seed, "epoch_losses")] = losses
            found[(config, loss, seed, "flat")] = flat
            epoch_losses[(config, loss, seed)] = [float(v) for v in values.split(",")]
    return found, epoch_losses


def _max_rel(a: list, b: list) -> float:
    """Largest relative difference between two runs' epoch losses."""
    return max((abs(x - y) / max(abs(x), abs(y)) for x, y in zip(a, b) if x != y),
               default=0.0)


def _write_configs(configs: Path) -> None:
    for name in TRAIN_WORKLOADS:
        for seed in SEEDS:
            (configs / f"{name}-seed{seed}.json").write_text(
                json.dumps(WORKLOADS[name].config(seed)), encoding="utf-8")
    for name, loss in SWEEPS.items():
        (configs / f"{name}.json").write_text(
            json.dumps({"losses": [loss]}), encoding="utf-8")


def _expected() -> list:
    files = [f"{name}-seed{seed}/{leaf}" for name in TRAIN_WORKLOADS
             for seed in SEEDS for leaf in ("history.csv", "summary.json")]
    return files + [f"{name}/sweep.csv" for name in SWEEPS] + ["verify.txt"]


def _expected_digests() -> list:
    return [(f"{name}-seed{seed}", loss["name"], str(run), what)
            for name in TRAIN_WORKLOADS for seed in SEEDS
            for cfg in (WORKLOADS[name].config(seed),)
            for loss in cfg["losses"] for run in cfg["seeds"]
            for what in ("epoch_losses", "flat")]


def main(argv) -> int:
    if len(argv) != 2:
        print("usage: python tools/golden_cmp.py BASE HEAD", file=sys.stderr)
        return 2
    base, head = (Path(a).resolve() for a in argv)
    with tempfile.TemporaryDirectory(prefix="golden_cmp-") as tmp:
        work = Path(tmp)
        configs = work / "configs"
        configs.mkdir()
        _write_configs(configs)
        for side, checkout in (("base", base), ("head", head)):
            (work / side).mkdir()
            _outputs(checkout, work / side, configs)
        files = _expected()
        differing = []
        for rel in files:
            a, b = work / "base" / rel, work / "head" / rel
            if not (a.is_file() and b.is_file()):
                differing.append(f"{rel} (missing)")
            elif not filecmp.cmp(a, b, shallow=False):
                differing.append(rel)
        base_digests, base_losses = _digests(work / "base" / "digests.txt")
        head_digests, head_losses = _digests(work / "head" / "digests.txt")
    keys = _expected_digests()
    digest_diffs = []
    worst = 0.0
    for key in keys:
        a, b = base_digests.get(key), head_digests.get(key)
        if a is None or b is None:
            digest_diffs.append(" ".join(key) + " (missing)")
        elif a != b and key[3] == "epoch_losses":
            moved = _max_rel(base_losses[key[:3]], head_losses[key[:3]])
            worst = max(worst, moved)
            digest_diffs.append(" ".join(key) + " (largest relative epoch-loss "
                                f"difference {moved:.2e})")
        elif a != b:
            digest_diffs.append(" ".join(key))
    for rel in differing:
        print(f"DIFF {rel}")
    for key in digest_diffs:
        print(f"DIFF digest {key}")
    print(f"{len(differing)} differing files of {len(files)}")
    print(f"{len(digest_diffs)} differing digests of {len(keys)}")
    print(f"largest relative epoch-loss difference over all runs: {worst:.2e}")
    return 1 if differing or digest_diffs else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
