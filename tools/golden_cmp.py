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

The 51 files of one side are then compared byte for byte with the
other's. The script prints each differing or missing file and the count,
and exits 1 if any file differs, 0 otherwise. It needs only the standard
library and the two checkouts; the configs come from this checkout's
``perfbench/workloads.py``, which is standard library only. It is not a
tier-1 test: one side takes about 40 s.

The CSV files print 9 significant digits, so a change in the last bits
of a training run can pass unseen; compare the tape's values and
gradients directly when bit-identity is the claim.
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


def _run(checkout: Path, argv, stdout=None) -> None:
    env = dict(os.environ, PYTHONPATH=str(checkout / "src"),
               OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    done = subprocess.run([sys.executable, "-m", "setcontrast", *argv],
                          env=env, stdout=stdout, stderr=subprocess.PIPE,
                          text=True)
    if done.returncode != 0:
        print(f"{checkout}: setcontrast {' '.join(argv)} exited "
              f"{done.returncode}\n{done.stderr}", file=sys.stderr)


def _outputs(checkout: Path, out: Path, configs: Path) -> None:
    """Every golden run of one checkout, written under ``out``."""
    for name in TRAIN_WORKLOADS:
        for seed in SEEDS:
            cfg = configs / f"{name}-seed{seed}.json"
            _run(checkout, ["train", "--config", str(cfg),
                            "--out", str(out / cfg.stem)])
    for name in SWEEPS:
        _run(checkout, ["sweep", "--config", str(configs / f"{name}.json"),
                        "--beta-grid", BETA_GRID, "--out", str(out / name)])
    with open(out / "verify.txt", "w", encoding="utf-8") as fh:
        _run(checkout, ["verify"], stdout=fh)


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
    for rel in differing:
        print(f"DIFF {rel}")
    print(f"{len(differing)} differing files of {len(files)}")
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
