"""One fresh benchmark process: either set-up timing or one pass.

    python3 perfbench/child.py setup ROOT [CONFIG]
    python3 perfbench/child.py pass ROOT WORKLOAD CONFIG PASS_DIR TRACE

``setup`` times ``import setcontrast`` (with its CLI module), then
``cli.load_config`` and ``harness.gen_two_view_dataset`` when a config is
given, calibrated by speed samples just before and after (see
``calibrate.py``). ``pass`` times one ``cli.main`` call with the
workload's argv, traced when TRACE is 1, and writes into PASS_DIR the
command's stdout and either the spans (traced) or the speed samples
(untraced). Both modes print one JSON line.
"""

from __future__ import annotations

import contextlib
import io
import json
import platform
import resource
import sys
import time
from pathlib import Path

from calibrate import BRACKET_SAMPLES, SpeedProbe, bracketed_s


def _import_package(root: Path):
    src = root / "src"
    sys.path.insert(0, str(src))
    import setcontrast
    from setcontrast import cli
    if Path(setcontrast.__file__).resolve().parent != (src / "setcontrast").resolve():
        raise ImportError(f"setcontrast imported from {setcontrast.__file__}, "
                          f"not from {src}")
    return setcontrast, cli


def _environment() -> dict:
    import numpy as np
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {"python": platform.python_version(), "numpy": np.__version__,
            "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip()}


def setup(root: Path, config: str = "") -> dict:
    probe = SpeedProbe()
    for _ in range(BRACKET_SAMPLES):
        probe.sample()
    started = time.perf_counter()
    _, cli = _import_package(root)
    if config:
        from setcontrast import harness
        harness.gen_two_view_dataset(cli.load_config(config).data)
    wall_s = time.perf_counter() - started
    for _ in range(BRACKET_SAMPLES):
        probe.sample()
    return {"setup_s": bracketed_s(wall_s, probe), "wall_setup_s": wall_s,
            "env": _environment()}


def run_pass(root: Path, workload: str, config: str, pass_dir: str,
             trace: bool) -> dict:
    from workloads import WORKLOADS
    package, cli = _import_package(root)
    if trace:
        from tracer import Tracer
        recorder = Tracer()
    else:
        recorder = SpeedProbe()
    recorder.install(package)
    out = Path(pass_dir)
    argv = WORKLOADS[workload].argv(config, str(out / "out"))
    stdout, stderr = io.StringIO(), io.StringIO()
    error = None
    rc = None
    started = time.perf_counter()
    if not trace:
        recorder.sample()
    try:
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            rc = cli.main(argv)
    except Exception as e:  # a crash is a failed operation, reported below
        error = f"{type(e).__name__}: {e}"
    if not trace:
        recorder.sample()
    ended = time.perf_counter()
    pass_s = ended - started
    (out / "stdout.txt").write_text(stdout.getvalue(), encoding="utf-8")
    if trace:
        recorder.dump(str(out / "spans.jsonl"))
    else:
        recorder.dump(str(out / "probe.bin"), started, ended)
    result = {
        "pass_s": pass_s,
        "exit": rc,
        "error": error,
        "stderr": stderr.getvalue()[-2000:],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "env": _environment(),
    }
    return result


def main(argv) -> int:
    mode, root = argv[0], Path(argv[1])
    if mode == "setup":
        result = setup(root, *argv[2:])
    elif mode == "pass":
        workload, config, pass_dir, trace = argv[2:]
        result = run_pass(root, workload, config, pass_dir, trace == "1")
    else:
        raise SystemExit(f"unknown mode {mode!r}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
