"""Command-line front end: `verify`, `train`, and `sweep`.

Configs are JSON documents validated strictly (unknown keys rejected,
every diagnostic names the offending field). The schema of the `data`,
`train` and `losses[i]` sections is their dataclass: `SyntheticSpec`,
`TrainConfig` and `LossConfig`, read field by field. The whole run is
checked (config, beta grid, separable classes) before the output
directory is created. All output files are byte-deterministic for a
given config: rows are sorted, floats are printed with 9 significant
digits, and no wall-clock data is written.

Exit codes: 0 success, 2 config error, 3 numeric failure during
training, 1 any other failure (including a failing verify suite).
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import math
import sys
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple, get_type_hints

import numpy as np

from . import harness
from . import losses
from . import verify
from .errors import ConfigError, ContractError, NumericError, SetContrastError

DEFAULT_SEEDS = (0, 1, 2)
# weighting grid for the sweep command; 0.125 steps are binary-exact
DEFAULT_BETA_GRID = tuple(i * 0.125 for i in range(16))

_MISSING = object()


def _fmt(x: float) -> str:
    return f"{x:.9g}"


def _expect_mapping(obj: Any, path: str) -> Dict[str, Any]:
    if not isinstance(obj, dict):
        raise ConfigError(f"{path}: expected an object, got {type(obj).__name__}")
    return obj


def _take(d: Dict[str, Any], path: str, key: str, kinds, default=_MISSING):
    """Pop a typed field; bool is rejected where a number is expected, and
    so are NaN, Infinity and integers too large for a float, all of
    which json.loads accepts. A float -0.0 reads as 0.0, so that equal
    configs write equal bytes."""
    if key not in d:
        if default is _MISSING:
            raise ConfigError(f"{path}.{key}: missing required field")
        return default
    v = d.pop(key)
    if kinds is float:
        if isinstance(v, bool) or not isinstance(v, (int, float)):
            raise ConfigError(f"{path}.{key}: expected a number")
        try:
            v = float(v)
        except OverflowError:
            v = math.inf
        if not math.isfinite(v):
            raise ConfigError(f"{path}.{key}: expected a finite number")
        return v + 0.0
    if kinds is int:
        if isinstance(v, bool) or not isinstance(v, int):
            raise ConfigError(f"{path}.{key}: expected an integer")
        return v
    if kinds is str:
        if not isinstance(v, str):
            raise ConfigError(f"{path}.{key}: expected a string")
        return v
    raise AssertionError(kinds)


def _reject_unknown(d: Dict[str, Any], path: str) -> None:
    if d:
        key = sorted(d)[0]
        raise ConfigError(f"{path}.{key}: unknown key")


@dataclasses.dataclass(frozen=True)
class ExperimentConfig:
    data: harness.SyntheticSpec
    train: harness.TrainConfig
    losses: Tuple[losses.LossConfig, ...]
    seeds: Tuple[int, ...]
    out: Optional[str]


def _parse_section(section: Any, path: str, cls, required: Tuple[str, ...] = (),
                   unread: Tuple[str, ...] = ()):
    """Read one section into the dataclass ``cls``: each int, float and str
    field not in ``unread`` is a key of its annotated type, defaulting to
    the field's default unless ``required``. Checks run type, then domain
    (``cls``'s own), then unknown key; every diagnostic starts with ``path``."""
    d = dict(_expect_mapping(section, path))
    hints = get_type_hints(cls)
    values = {f.name: _take(d, path, f.name, hints[f.name],
                            _MISSING if f.name in required else f.default)
              for f in dataclasses.fields(cls)
              if hints[f.name] in (int, float, str) and f.name not in unread}
    try:
        obj = cls(**values)
    except (ConfigError, ContractError) as e:
        raise ConfigError(f"{path}: {e}")
    _reject_unknown(d, path)
    return obj


def load_config(path: str) -> ExperimentConfig:
    p = Path(path)
    try:
        text = p.read_text(encoding="utf-8")
    except OSError as e:
        raise ConfigError(f"{path}: {e.strerror or e}")
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as e:
        raise ConfigError(
            f"{path}: invalid JSON at line {e.lineno}, column {e.colno}: {e.msg}")
    d = dict(_expect_mapping(doc, "config"))

    data = _parse_section(d.pop("data", {}), "data", harness.SyntheticSpec)
    train = _parse_section(d.pop("train", {}), "train", harness.TrainConfig,
                           unread=("seed",))
    if train.batch_size > data.num_items:
        raise ConfigError(f"train: batch_size {train.batch_size} exceeds the "
                          f"dataset size {data.num_items}")

    if "losses" not in d:
        raise ConfigError("losses: missing required field")
    raw_losses = d.pop("losses")
    if not isinstance(raw_losses, list) or not raw_losses:
        raise ConfigError("losses: expected a non-empty list")
    loss_cfgs = [_parse_section(entry, f"losses[{i}]", losses.LossConfig,
                                required=("name", "kind"))
                 for i, entry in enumerate(raw_losses)]
    names = [c.name for c in loss_cfgs]
    if len(set(names)) != len(names):
        dup = sorted(n for n in names if names.count(n) > 1)[0]
        raise ConfigError(f"losses: duplicate name {dup!r}")

    seeds = d.pop("seeds", list(DEFAULT_SEEDS))
    if (not isinstance(seeds, list) or not seeds
            or any(isinstance(s, bool) or not isinstance(s, int) for s in seeds)):
        raise ConfigError("seeds: expected a non-empty list of integers")
    if any(s < 0 for s in seeds):
        raise ConfigError("seeds: must be non-negative")
    if len(set(seeds)) != len(seeds):
        raise ConfigError("seeds: duplicate seed")

    out = d.pop("out", None)
    if out is not None and not isinstance(out, str):
        raise ConfigError("out: expected a string")

    _reject_unknown(d, "config")
    return ExperimentConfig(data=data, train=train, losses=tuple(loss_cfgs),
                            seeds=tuple(seeds), out=out)


def _resolve_out(cfg: ExperimentConfig, flag: Optional[str], force: bool) -> Path:
    target = flag or cfg.out
    if target is None:
        raise ConfigError("out: missing required field (set in config or pass --out)")
    out = Path(target)
    if out.exists():
        if not out.is_dir():
            raise ConfigError(f"out: {out} exists and is not a directory")
        if any(out.iterdir()) and not force:
            raise ConfigError(f"out: {out} is not empty (pass --force to overwrite)")
    else:
        try:
            out.mkdir(parents=True)
        except OSError as e:
            raise ConfigError(f"out: {out}: {e.strerror or e}")
    return out


def _run_one(dataset: harness.TwoViewDataset, cfg: ExperimentConfig,
             loss: losses.LossConfig, seed: int) -> harness.RunReport:
    tc = dataclasses.replace(cfg.train, loss=loss, seed=seed)
    encoder = harness.make_encoder(cfg.data, tc)
    _, report = harness.train(dataset, encoder, tc)
    return report


def _write_csv(path: Path, header: Sequence[str],
               rows: Sequence[Sequence[str]]) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(header)
        w.writerows(rows)


def cmd_train(cfg: ExperimentConfig, dataset: harness.TwoViewDataset,
              out: Path) -> int:
    rows: List[Tuple[int, str, int, str, str, str]] = []
    summary: Dict[str, Any] = {}
    for loss in cfg.losses:
        match_accs: List[float] = []
        probe_accs: List[float] = []
        for seed in cfg.seeds:
            report = _run_one(dataset, cfg, loss, seed)
            match_accs.append(report.matching_accuracy)
            probe_accs.append(report.probe_accuracy)
            last = len(report.epoch_losses)
            for epoch, mean_loss in enumerate(report.epoch_losses, start=1):
                final = epoch == last
                rows.append((
                    seed, loss.name, epoch, _fmt(mean_loss),
                    _fmt(report.matching_accuracy) if final else "",
                    _fmt(report.probe_accuracy) if final else "",
                ))
        summary[loss.name] = {
            "kind": loss.kind,
            "mode": loss.mode,
            "beta": loss.beta,
            "matching_accuracy": {
                "mean": float(np.mean(match_accs)),
                "std": float(np.std(match_accs)),
            },
            "probe_accuracy": {
                "mean": float(np.mean(probe_accs)),
                "std": float(np.std(probe_accs)),
            },
            "seeds": list(cfg.seeds),
        }
    rows.sort(key=lambda r: (r[0], r[1], r[2]))
    _write_csv(out / "history.csv",
               ("seed", "loss_name", "epoch", "mean_loss",
                "matching_acc", "probe_acc"),
               [tuple(str(c) for c in row) for row in rows])
    payload = json.dumps({"variants": summary}, sort_keys=True, indent=2)
    (out / "summary.json").write_text(payload + "\n", encoding="utf-8")
    return 0


def _parse_beta_grid(text: Optional[str]) -> Tuple[float, ...]:
    if text is None:
        return DEFAULT_BETA_GRID
    values = []
    for part in text.split(","):
        part = part.strip()
        try:
            v = float(part) + 0.0  # -0 reads as 0
        except ValueError:
            raise ConfigError(f"beta-grid: {part!r} is not a number")
        if not np.isfinite(v):
            raise ConfigError(f"beta-grid: {part!r} is not finite")
        if v < 0:
            raise ConfigError(f"beta-grid: {part!r} is negative")
        if v in values:
            raise ConfigError(f"beta-grid: duplicate value {part!r}")
        values.append(v)
    if not values:
        raise ConfigError("beta-grid: empty grid")
    return tuple(values)


def cmd_sweep(cfg: ExperimentConfig, dataset: harness.TwoViewDataset,
              out: Path, variants: Sequence[losses.LossConfig]) -> int:
    rows: List[Tuple[float, int, str, str]] = []
    for loss in variants:
        for seed in cfg.seeds:
            report = _run_one(dataset, cfg, loss, seed)
            rows.append((loss.beta, seed, _fmt(report.matching_accuracy),
                         _fmt(report.probe_accuracy)))
    rows.sort(key=lambda r: (r[0], r[1]))
    _write_csv(out / "sweep.csv",
               ("beta", "seed", "matching_acc", "probe_acc"),
               [(_fmt(b), str(s), m, p) for b, s, m, p in rows])
    return 0


def cmd_verify(suite: Optional[str]) -> int:
    results = verify.run([suite] if suite else None)
    for r in results:
        print(verify.format_result(r))
    return 0 if all(r.passed for r in results) else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="setcontrast",
        description="Contrastive representation learning with assignment-"
                    "problem structured losses and a spectral quadratic "
                    "regularizer.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_verify = sub.add_parser("verify", help="run the self-check suites")
    p_verify.add_argument("--suite", default=None,
                          help="run a single suite by name")

    p_train = sub.add_parser("train", help="train per seed and loss variant")
    p_train.add_argument("--config", required=True)
    p_train.add_argument("--out", default=None)
    p_train.add_argument("--force", action="store_true",
                         help="allow writing into a non-empty directory")

    p_sweep = sub.add_parser("sweep", help="train across a grid of "
                                           "regularizer weights")
    p_sweep.add_argument("--config", required=True)
    p_sweep.add_argument("--out", default=None)
    p_sweep.add_argument("--force", action="store_true")
    p_sweep.add_argument("--beta-grid", default=None,
                         help="comma-separated distinct non-negative weights "
                              "(default: 0 to 1.875 step 0.125)")
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "verify":
            return cmd_verify(args.suite)
        cfg = load_config(args.config)
        if args.command == "sweep":
            grid = _parse_beta_grid(args.beta_grid)
            if len(cfg.losses) != 1:
                raise ConfigError("losses: sweep requires exactly one loss entry")
            variants = [dataclasses.replace(cfg.losses[0], beta=b) for b in grid]
        # before the output directory: it raises ConfigError on inseparable classes
        dataset = harness.gen_two_view_dataset(cfg.data)
        out = _resolve_out(cfg, args.out, args.force)
        if args.command == "train":
            return cmd_train(cfg, dataset, out)
        if args.command == "sweep":
            return cmd_sweep(cfg, dataset, out, variants)
        raise AssertionError(args.command)
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return 2
    except NumericError as e:
        print(f"numeric failure: {e}", file=sys.stderr)
        return 3
    except SetContrastError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
