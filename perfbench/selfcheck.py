"""Self-check of the benchmark definition against the code it measures.

    python3 perfbench/selfcheck.py

1. BENCHMARK.json is well formed, names exactly the workloads defined in
   ``workloads.py``, and declares exactly the per-layer metrics that
   ``tracer.summarize`` computes (plus ``trace.overhead``).
2. Every traced layer resolves to a public function or method of the
   package under ``src/``, so a rename fails here instead of silently
   dropping a layer.
3. Each workload, run for one second in both trace modes, is correct and
   emits every metric BENCHMARK.json names for that mode. This part takes
   a few minutes, most of it in two verify passes per mode.

Exits 0 when everything holds and 1 with the problems listed otherwise.
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
from pathlib import Path
from typing import List

import tracer
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
_NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
_UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def check_definition(bench: dict) -> List[str]:
    problems = []
    names = [w["name"] for w in bench["workloads"]]
    if sorted(names) != sorted(WORKLOADS):
        problems.append(f"workloads {names} != defined {sorted(WORKLOADS)}")
    for w in bench["workloads"]:
        if len(w["why"]) > 200 or "\n" in w["why"]:
            problems.append(f"workload {w['name']}: why is not one line of <= 200")
    all_metrics = bench["end_to_end"] + bench["per_layer"]
    seen = set()
    for m in all_metrics:
        if not _NAME.fullmatch(m["name"]) or m["name"] in seen:
            problems.append(f"metric name {m['name']!r} is invalid or repeated")
        seen.add(m["name"])
        if not _UNIT.fullmatch(m["unit"]) or m["better"] not in ("higher", "lower"):
            problems.append(f"metric {m['name']}: bad unit or direction")
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    if any(not 0 < b <= 0.25 for b in bounds.values()):
        problems.append("every end-to-end bound must lie in (0, 0.25]")
    if bounds.get("setup_s") != max(bounds.values(), default=None):
        problems.append("setup_s must carry the largest bound")
    empty_metrics, _ = tracer.summarize([])
    computed = set(empty_metrics) | {"trace.overhead"}
    declared = {m["name"] for m in bench["per_layer"]}
    if computed != declared:
        problems.append(f"per-layer metrics not computed: {sorted(declared - computed)}; "
                        f"computed but not declared: {sorted(computed - declared)}")
    return problems


def check_layers() -> List[str]:
    sys.path.insert(0, str(ROOT / "src"))
    import setcontrast
    from setcontrast import cli, verify  # noqa: F401  (load every layer module)
    problems = []
    for layer in tracer.LAYERS:
        try:
            tracer.resolve(setcontrast, layer)
        except tracer.LayerNotFound as e:
            problems.append(str(e))
    return problems


def check_runs(bench: dict) -> List[str]:
    problems = []
    for name in sorted(WORKLOADS):
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", name,
                 "--seed", "1", "--seconds", "1", "--trace", str(trace)],
                cwd=str(ROOT), capture_output=True, text=True, timeout=200)
            label = f"{name} --trace {trace}"
            if proc.returncode != 0:
                problems.append(f"{label}: exit {proc.returncode}: {proc.stderr[-500:]}")
                continue
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            want = {m["name"] for m in bench["per_layer" if trace else "end_to_end"]}
            if not result["correct"]:
                problems.append(f"{label}: not correct ({result['failed']} failed)")
            if set(result["metrics"]) != want:
                problems.append(f"{label}: emitted {sorted(result['metrics'])}")
            print(f"{label}: ok", flush=True)
    return problems


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    problems = check_definition(bench) + check_layers()
    if not problems:
        problems = check_runs(bench)
    for p in problems:
        print(f"FAIL {p}")
    if not problems:
        print("benchmark self-check passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
