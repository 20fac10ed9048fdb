"""setcontrast benchmark: runs one workload and prints its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from any directory of a source checkout; the package is imported
from the checkout's ``src/`` (nothing is installed). Every pass runs in a
fresh process with BLAS pinned to one thread, and passes repeat until S
seconds of passes have run (at least two passes).

``--trace 0`` measures the end-to-end metrics: set-up time (median of
fresh processes), pass time, throughput and peak memory. Set-up and pass
times are calibrated to a reference core speed (see ``calibrate.py``);
the plain wall times are in the report.
``--trace 1`` alternates untraced and traced passes and reports the
per-layer metrics of the traced ones (with the runs' accuracies), plus
the tracing overhead.

Every run checks the outputs: each pass exits 0, repeated passes write
byte-identical files, traced passes write the same bytes as untraced
ones, every verify suite prints PASS, and the span tree of each traced
pass is sound. A failed check counts as a failed operation. The last
line of stdout is the result; the line before it is the full report
(samples, quartiles, checks, environment), also written to
``.perfbench_out/<run>/report.json``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

from calibrate import calibrated_s, load_samples
from tracer import load as load_spans
from tracer import summarize
from workloads import VERIFY_SUITES, WORKLOADS, Workload

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
CHILD = BENCH_DIR / "child.py"
SETUP_REPEATS = 9
# the whole run must end within 180 s; stop starting passes before this
RUN_BUDGET_S = 165.0
BLAS_THREADS = "1"
_BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


class ChildFailed(RuntimeError):
    pass


def _child_env() -> Dict[str, str]:
    env = dict(os.environ)
    for var in _BLAS_VARS:
        env[var] = BLAS_THREADS
    return env


def _run_child(args: List[str], deadline: float) -> dict:
    timeout = max(1.0, deadline - time.monotonic())
    try:
        proc = subprocess.run([sys.executable, str(CHILD), *args], cwd=str(ROOT),
                              env=_child_env(), capture_output=True, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        raise ChildFailed(f"child timed out after {timeout:.0f} s")
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise ChildFailed(f"child exited {proc.returncode}: {proc.stderr[-2000:]}")
    return json.loads(lines[-1])


def _spread(values: List[float]) -> dict:
    """Median, quartiles, sample count and the highest percentile that has
    at least ten samples beyond it (None when there are too few)."""
    vals = sorted(values)
    n = len(vals)
    q1, q3 = (statistics.quantiles(vals, n=4)[0::2] if n >= 2 else (vals[0], vals[0]))
    out = {"n": n, "median": statistics.median(vals), "q1": q1, "q3": q3,
           "tail_percentile": None, "tail_value": None}
    top = int(100 * (1 - 10 / n)) if n > 10 else 0
    if top >= 50:
        out["tail_percentile"] = top
        out["tail_value"] = statistics.quantiles(vals, n=100)[top - 1]
    return out


def _git_sha(root: Path) -> Optional[str]:
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = root / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = root / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def _src_digest(root: Path) -> str:
    h = hashlib.sha256()
    for path in sorted((root / "src" / "setcontrast").glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()


class Ledger:
    """Operations attempted and failed, with the reason for each failure."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.failures: List[str] = []

    def record(self, ops: int, failed: int, reasons: List[str]) -> None:
        self.attempted += ops
        self.failed += min(ops, failed)
        self.failures.extend(reasons)


def _outputs(pass_dir: Path, wl: Workload) -> Dict[str, bytes]:
    if not wl.is_train:
        return {"stdout.txt": (pass_dir / "stdout.txt").read_bytes()}
    return {name: (pass_dir / "out" / name).read_bytes()
            for name in ("history.csv", "summary.json")}


def _check_content(wl: Workload, files: Dict[str, bytes]) -> List[str]:
    """Problems in one pass's outputs, judged on their own."""
    if not wl.is_train:
        lines = files["stdout.txt"].decode().splitlines()
        names = [ln.split()[1] if len(ln.split()) > 1 else "" for ln in lines]
        problems = [f"verify: {ln}" for ln in lines if not ln.startswith("PASS ")]
        if names != list(VERIFY_SUITES):
            problems.append(f"verify: suites {names}")
        return problems
    problems = []
    variants = json.loads(files["summary.json"])["variants"]
    expected = sorted(name for name, _ in wl.losses)
    if sorted(variants) != expected:
        problems.append(f"summary.json variants {sorted(variants)} != {expected}")
    for name, v in variants.items():
        for key in ("matching_accuracy", "probe_accuracy"):
            if not 0.0 <= v[key]["mean"] <= 1.0:
                problems.append(f"summary.json {name}.{key} = {v[key]['mean']}")
    rows = files["history.csv"].decode().splitlines()
    want = 1 + wl.epoch_count() * len(wl.losses) * wl.runs_per_loss
    if len(rows) != want:
        problems.append(f"history.csv has {len(rows)} lines, expected {want}")
    return problems


class Runner:
    def __init__(self, wl: Workload, seed: int, work: Path, deadline: float):
        self.wl = wl
        self.work = work
        self.deadline = deadline
        self.config = ""
        if wl.is_train:
            path = work / "config.json"
            path.write_text(json.dumps(wl.config(seed), indent=2), encoding="utf-8")
            self.config = str(path)
        self.ledger = Ledger()
        self.reference: Optional[Dict[str, bytes]] = None
        self.passes = 0
        self.env: dict = {}

    def setup_times(self) -> List[dict]:
        samples = []
        args = ["setup", str(ROOT)] + ([self.config] if self.config else [])
        for i in range(SETUP_REPEATS + 1):
            result = _run_child(args, self.deadline)
            self.env = result["env"]
            if i:  # the first process fills the bytecode cache
                samples.append(result)
        return samples

    def one_pass(self, trace: bool) -> Optional[dict]:
        """Run and check one pass; None when it crashed."""
        pass_dir = self.work / f"pass{self.passes}"
        self.passes += 1
        pass_dir.mkdir()
        ops = self.wl.operations()
        args = ["pass", str(ROOT), self.wl.name, self.config, str(pass_dir),
                "1" if trace else "0"]
        try:
            result = _run_child(args, self.deadline)
        except ChildFailed as e:
            self.ledger.record(ops, ops, [f"pass {pass_dir.name}: {e}"])
            return None
        self.env = result["env"]
        if result["error"] or result["exit"] is None:
            self.ledger.record(ops, ops, [f"pass {pass_dir.name}: {result['error']}"])
            return None
        try:
            files = _outputs(pass_dir, self.wl)
            problems = _check_content(self.wl, files)
        except (OSError, ValueError, KeyError) as e:
            self.ledger.record(ops, ops, [f"pass {pass_dir.name}: outputs: {e}"])
            return None
        if result["exit"] != 0 and not problems:
            problems.append(f"exit code {result['exit']}: {result['stderr']}")
        if self.reference is None:
            self.reference = files
        else:
            for name, data in files.items():
                if data != self.reference[name]:
                    kind = "traced" if trace else "repeated"
                    problems.append(f"{name} differs between {kind} pass and pass0")
        if trace:
            spans = load_spans(str(pass_dir / "spans.jsonl"))
            result["layers"], span_problems = summarize(spans)
            problems += span_problems
        else:
            samples = load_samples(str(pass_dir / "probe.bin"))
            result["calibrated_s"] = calibrated_s(samples)
            result["probes"] = len(samples) // 2 - 1
        # one failed operation per problem: a FAIL line fails one suite
        self.ledger.record(ops, len(problems),
                           [f"pass {pass_dir.name}: {p}" for p in problems])
        return result

    def repeat(self, seconds: int, min_rounds: int, round_fn) -> None:
        """Call round_fn until `seconds` are used: a further round starts
        only if it should end within half a round of the target, and
        never past the run's deadline."""
        started = time.monotonic()
        rounds = 0
        while True:
            t0 = time.monotonic()
            round_fn()
            rounds += 1
            now = time.monotonic()
            last = now - t0
            if rounds >= min_rounds and now - started + last / 2 > seconds:
                return
            if now + 1.5 * last > self.deadline:
                return


def measure_untraced(runner: Runner, seconds: int) -> dict:
    wl = runner.wl
    setup = runner.setup_times()
    results: List[dict] = []

    def one():
        r = runner.one_pass(trace=False)
        if r is not None:
            results.append(r)

    runner.repeat(seconds, 2, one)
    detail = {"setup_s": _spread([r["setup_s"] for r in setup]),
              "wall_setup_s": _spread([r["wall_setup_s"] for r in setup])}
    metrics: Dict[str, float] = {"setup_s": detail["setup_s"]["median"]}
    if not results:
        return {"metrics": metrics, "detail": detail}
    wall = [r["pass_s"] for r in results]
    rss = [r["peak_rss_mb"] for r in results]
    calibrated = [r["calibrated_s"] for r in results]
    detail.update(wall_pass_s=_spread(wall), pass_s=_spread(calibrated),
                  peak_rss_mb=_spread(rss), probes=results[0]["probes"])
    pass_s = detail["pass_s"]["median"]
    metrics.update(pass_s=pass_s, steps_per_s=wl.steps() / pass_s,
                   peak_rss_mb=detail["peak_rss_mb"]["median"])
    return {"metrics": metrics, "detail": detail}


def measure_traced(runner: Runner, seconds: int) -> dict:
    plain: List[float] = []
    traced: List[dict] = []

    def pair():
        r = runner.one_pass(trace=False)
        if r is not None:
            plain.append(r["pass_s"])
        r = runner.one_pass(trace=True)
        if r is not None:
            traced.append(r)

    runner.repeat(seconds, 1, pair)
    detail: dict = {}
    metrics: Dict[str, float] = {}
    if traced:
        names = traced[0]["layers"].keys()
        metrics = {k: statistics.median(r["layers"][k] for r in traced) for k in names}
        traced_s = [r["pass_s"] for r in traced]
        detail["traced_pass_s"] = _spread(traced_s)
        if plain:
            detail["untraced_pass_s"] = _spread(plain)
            metrics["trace.overhead"] = (statistics.median(traced_s)
                                         / statistics.median(plain))
    return {"metrics": metrics, "detail": detail}


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    deadline = time.monotonic() + RUN_BUDGET_S

    if not (ROOT / "src" / "setcontrast" / "__init__.py").is_file():
        print(f"no setcontrast sources under {ROOT / 'src'}; run from a checkout",
              file=sys.stderr)
        return 2
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    declared = [m["name"] for m in bench["per_layer" if args.trace else "end_to_end"]]

    wl = WORKLOADS[args.workload]
    work = ROOT / ".perfbench_out" / f"{wl.name}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    runner = Runner(wl, args.seed, work, deadline)
    try:
        measured = (measure_traced if args.trace else measure_untraced)(
            runner, args.seconds)
    except ChildFailed as e:  # set-up itself failed: nothing was measured
        print(f"set-up failed: {e}", file=sys.stderr)
        return 1

    metrics = measured["metrics"]
    if sorted(metrics) != sorted(declared):
        missing = sorted(set(declared) - set(metrics))
        extra = sorted(set(metrics) - set(declared))
        if runner.ledger.failed == 0:
            print(f"metrics disagree with BENCHMARK.json: missing {missing}, "
                  f"undeclared {extra}", file=sys.stderr)
            return 1
        metrics = {k: v for k, v in metrics.items() if k in declared}
    units = {m["name"]: m["unit"] for m in bench["end_to_end"] + bench["per_layer"]}
    ledger = runner.ledger
    report = {
        "workload": wl.name,
        "seconds": args.seconds,
        "trace": args.trace,
        "rationale": wl.describe(),
        "environment": {
            "git_sha": _git_sha(ROOT),
            "src_sha256": _src_digest(ROOT),
            "nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)),
            "blas_threads": int(BLAS_THREADS),
            "workload_seed": args.seed,
            **runner.env,
        },
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "fail_frac": ledger.failed / ledger.attempted,
        "failures": ledger.failures,
        "detail": measured["detail"],
    }
    (work / "report.json").write_text(json.dumps(report, indent=2), encoding="utf-8")
    print(json.dumps(report))
    print(json.dumps({
        "correct": ledger.failed == 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in declared
                    if k in metrics},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
