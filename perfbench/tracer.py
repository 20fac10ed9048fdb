"""Runtime span tracing of setcontrast's public functions.

The tracer wraps each layer function at runtime, at every module binding
the program looks it up through (``harness`` binds ``two_view_loss``
from ``losses``, ``verify.SUITES`` holds the suite functions), and wraps
methods on their class. No source file changes. Spans stay in memory as
``[name, start, end, parent, op, attrs]`` lists and are written out once,
by ``dump``, when the traced pass ends.

Tensor primitives (``tensor.add``, ``tensor.matmul``, ...) are not
wrapped: they are the arithmetic inside every layer, and a span per
primitive would cost more than the work it times.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from workloads import VERIFY_SUITES


@dataclass(frozen=True)
class Layer:
    name: str       # metric prefix, e.g. "harness.MLPEncoder.forward"
    module: str     # setcontrast submodule
    path: str       # attribute path inside it; a dict step takes the key
    op_root: bool = False   # a span of this layer starts a new operation
    probe: Optional[Callable] = None  # (args, kwargs, result) -> span attrs


def _train_probe(args, kwargs, result):
    config = kwargs["config"] if "config" in kwargs else args[2]
    return {"beta": config.loss.beta}


def _backward_probe(args, kwargs, result):
    tape = args[0]
    return {"nodes": len(tape),
            "degenerate": "degenerate-eigenvalues" in tape.flags}


def _accuracy_probe(args, kwargs, result):
    return {"acc": result}


LAYERS: Tuple[Layer, ...] = (
    Layer("cli.main", "cli", "main"),
    Layer("cli.load_config", "cli", "load_config"),
    Layer("harness.gen_two_view_dataset", "harness", "gen_two_view_dataset"),
    Layer("harness.train", "harness", "train", probe=_train_probe),
    Layer("harness.MLPEncoder.forward", "harness", "MLPEncoder.forward"),
    Layer("harness.adam_step", "harness", "adam_step"),
    Layer("harness.evaluate_matching", "harness", "evaluate_matching",
          probe=_accuracy_probe),
    Layer("harness.linear_probe", "harness", "linear_probe", probe=_accuracy_probe),
    Layer("simgeom.pairwise_distances", "simgeom", "pairwise_distances"),
    Layer("simgeom.eigvals", "simgeom", "eigvals"),
    Layer("simgeom.sym_eigen", "simgeom", "sym_eigen"),
    Layer("losses.two_view_loss", "losses", "two_view_loss"),
    Layer("losses.infonce_loss", "losses", "infonce_loss"),
    Layer("losses.smoothed_batch_hard_loss", "losses", "smoothed_batch_hard_loss"),
    Layer("losses.nt_logistic_loss", "losses", "nt_logistic_loss"),
    Layer("losses.sparseclr_loss", "losses", "sparseclr_loss"),
    Layer("losses.batch_hard_lap_loss", "losses", "batch_hard_lap_loss"),
    Layer("losses.structured_lap_loss", "losses", "structured_lap_loss"),
    Layer("losses.qare", "losses", "qare"),
    Layer("losses.sparsemax", "losses", "sparsemax"),
    Layer("assignment.solve_lap", "assignment", "solve_lap"),
    Layer("assignment.brute_force_lap", "assignment", "brute_force_lap"),
    Layer("assignment.brute_force_qap", "assignment", "brute_force_qap"),
    Layer("tensor.Tape.backward", "tensor", "Tape.backward", probe=_backward_probe),
    Layer("tensor.gradcheck", "tensor", "gradcheck"),
) + tuple(Layer(f"verify.{s}", "verify", f"SUITES.{s}", op_root=True)
          for s in VERIFY_SUITES)


class LayerNotFound(LookupError):
    pass


def resolve(package, layer: Layer) -> Tuple[object, str, Callable]:
    """(owner, attribute, function) for a layer; raises LayerNotFound
    when the module, attribute or key is gone or is not public."""
    owner = getattr(package, layer.module, None)
    if owner is None:
        raise LayerNotFound(f"{layer.name}: no module setcontrast.{layer.module}")
    parts = layer.path.split(".")
    for part in parts[:-1]:
        owner = owner.get(part) if isinstance(owner, dict) else getattr(owner, part, None)
        if owner is None:
            raise LayerNotFound(f"{layer.name}: {layer.module}.{layer.path} not found")
    last = parts[-1]
    fn = owner.get(last) if isinstance(owner, dict) else getattr(owner, last, None)
    if not callable(fn) or any(p.startswith("_") for p in parts):
        raise LayerNotFound(
            f"{layer.name}: {layer.module}.{layer.path} is not a public function")
    return owner, last, fn


def install_wrappers(package, wrap: Callable[[Layer, Callable], Callable],
                     strict: bool) -> None:
    """Replace each layer's function by ``wrap(layer, fn)`` at every
    binding in the loaded package; methods are replaced on their class.
    A layer that does not resolve raises when ``strict``, else is skipped."""
    modules = [m for k, m in sys.modules.items()
               if m is not None and (k == package.__name__
                                     or k.startswith(package.__name__ + "."))]
    for layer in LAYERS:
        try:
            owner, attr, fn = resolve(package, layer)
        except LayerNotFound:
            if strict:
                raise
            continue
        wrapped = wrap(layer, fn)
        if isinstance(owner, type):
            setattr(owner, attr, wrapped)
            continue
        for mod in modules:
            for key, value in list(vars(mod).items()):
                if value is fn:
                    setattr(mod, key, wrapped)
                elif isinstance(value, dict):
                    for dkey, dvalue in list(value.items()):
                        if dvalue is fn:
                            value[dkey] = wrapped


class Tracer:
    """Collects nested spans from wrapped calls on one thread."""

    def __init__(self) -> None:
        self.spans: List[list] = []
        self._stack: List[int] = []
        self._ops = 0

    def wrap(self, layer: Layer, fn: Callable) -> Callable:
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        name, probe, op_root = layer.name, layer.probe, layer.op_root

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            if op_root:
                self._ops += 1
                op = self._ops
            else:
                op = spans[parent][4] if parent >= 0 else 0
            rec = [name, 0.0, 0.0, parent, op, None]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if probe is not None:
                rec[5] = probe(args, kwargs, result)
            return result

        return traced

    def install(self, package) -> None:
        """Wrap every layer at every binding in the loaded package."""
        install_wrappers(package, self.wrap, strict=True)

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for rec in self.spans:
                fh.write(json.dumps(rec, separators=(",", ":")))
                fh.write("\n")


def load(path: str) -> List[list]:
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh]


def _percentile(sorted_vals: List[float], q: float) -> float:
    if not sorted_vals:
        return 0.0
    pos = (len(sorted_vals) - 1) * q
    lo = int(pos)
    hi = min(lo + 1, len(sorted_vals) - 1)
    return sorted_vals[lo] + (sorted_vals[hi] - sorted_vals[lo]) * (pos - lo)


def summarize(spans: List[list]) -> Tuple[Dict[str, float], List[str]]:
    """Per-layer metrics of one traced pass, plus the problems found in
    the span tree (an empty list when it is sound)."""
    problems: List[str] = []
    # the part of each span's interval its children cover; children open
    # in start order, so a running mark merges overlapping ones
    covered = [0.0] * len(spans)
    mark = [s[1] for s in spans]
    roots = []
    for i, (_, start, end, parent, _, _) in enumerate(spans):
        if end < start:
            problems.append(f"span {i} ends before it starts")
        if parent < 0:
            roots.append(i)
            continue
        lo = max(start, mark[parent])
        hi = min(end, spans[parent][2])
        if hi > lo:
            covered[parent] += hi - lo
            mark[parent] = hi
    if len(roots) != 1 or spans[roots[0]][0] != "cli.main":
        problems.append(f"expected one cli.main root span, got {len(roots)} roots")

    calls: Dict[str, int] = {layer.name: 0 for layer in LAYERS}
    total: Dict[str, float] = {layer.name: 0.0 for layer in LAYERS}
    self_s: Dict[str, float] = {layer.name: 0.0 for layer in LAYERS}
    lap_ms: List[float] = []
    nodes: List[int] = []
    accuracy: Dict[str, List[float]] = {"harness.evaluate_matching": [],
                                        "harness.linear_probe": []}
    spectral_steps = 0
    degenerate_steps = 0
    for i, (name, start, end, parent, _, attrs) in enumerate(spans):
        attrs = attrs or {}  # a call that raised has no probe attrs
        dur = end - start
        calls[name] += 1
        total[name] += dur
        self_s[name] += dur - covered[i]
        if name == "assignment.solve_lap":
            lap_ms.append(dur * 1e3)
        elif name in accuracy and attrs:
            accuracy[name].append(attrs["acc"])
        elif name == "tensor.Tape.backward" and attrs:
            nodes.append(attrs["nodes"])
            p = parent
            while p >= 0 and spans[p][0] != "harness.train":
                p = spans[p][3]
            if p >= 0 and (spans[p][5] or {}).get("beta", 0.0) > 0.0:
                spectral_steps += 1
                degenerate_steps += attrs["degenerate"]

    root_s = spans[roots[0]][2] - spans[roots[0]][1] if roots else 0.0
    self_sum = sum(self_s.values())
    if abs(self_sum - root_s) > 1e-6 * max(root_s, 1e-9):
        problems.append(f"self times sum to {self_sum!r} s, root span is {root_s!r} s")

    lap_ms.sort()
    match, probe = accuracy["harness.evaluate_matching"], accuracy["harness.linear_probe"]
    m: Dict[str, float] = {
        # mean accuracy over the pass's runs, as summary.json reports it
        "match_acc": sum(match) / len(match) if match else 0.0,
        "probe_acc": sum(probe) / len(probe) if probe else 0.0,
        "cli.load_config.s": total["cli.load_config"],
        "cli.main.self_s": self_s["cli.main"],
        "harness.gen_two_view_dataset.s": total["harness.gen_two_view_dataset"],
        "harness.train.self_s": self_s["harness.train"],
        "harness.evaluate_matching.self_s": self_s["harness.evaluate_matching"],
        "harness.linear_probe.self_s": self_s["harness.linear_probe"],
        "simgeom.degenerate_step_frac": (degenerate_steps / spectral_steps
                                         if spectral_steps else 0.0),
        "losses.two_view_loss.self_s": self_s["losses.two_view_loss"],
        "assignment.solve_lap.ms.p50": _percentile(lap_ms, 0.50),
        "assignment.solve_lap.ms.p95": _percentile(lap_ms, 0.95),
        "assignment.brute_force_lap.self_s": self_s["assignment.brute_force_lap"],
        "assignment.brute_force_qap.self_s": self_s["assignment.brute_force_qap"],
        "tensor.tape_nodes_per_step": sum(nodes) / len(nodes) if nodes else 0.0,
        "trace.spans": float(len(spans)),
    }
    for name in ("harness.MLPEncoder.forward", "harness.adam_step",
                 "simgeom.pairwise_distances", "simgeom.eigvals",
                 "simgeom.sym_eigen", "losses.infonce_loss",
                 "losses.smoothed_batch_hard_loss", "losses.nt_logistic_loss",
                 "losses.sparseclr_loss", "losses.batch_hard_lap_loss",
                 "losses.structured_lap_loss", "losses.qare", "losses.sparsemax",
                 "assignment.solve_lap", "tensor.Tape.backward",
                 "tensor.gradcheck"):
        m[f"{name}.calls"] = float(calls[name])
        m[f"{name}.self_s"] = self_s[name]
    for s in VERIFY_SUITES:
        m[f"verify.{s}.s"] = total[f"verify.{s}"]
    return m, problems
