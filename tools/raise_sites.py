"""List the ``raise`` statements in ``src/`` that tier-1 never reaches.

    python tools/raise_sites.py

The script finds every ``raise`` statement under ``src/setcontrast``
with ``ast``, runs the tier-1 suite (``tests/``) in this process under
``sys.settrace``, and records which of those statements ran. It prints
each site that never ran as ``file:line function: source``.

A few sites are exempt, each with its reason in ``EXEMPT`` below: the
``AssertionError`` sentinels that mark impossible states, ``__main__``,
and the CLI sites that only a subprocess test reaches (a subprocess is
not traced). An exemption names a file, the function that holds the
site and a fragment of its source; one that matches no site is stale and
is reported too.

Exit status: 0 when every site ran or is exempt, 1 when some site that
is not exempt never ran or an exemption is stale, 2 when tier-1 itself
fails (its coverage then says nothing). It needs the standard library
and pytest; tracing makes tier-1 about twice as slow, so it is not a
tier-1 test itself.
"""

from __future__ import annotations

import ast
import sys
import threading
from pathlib import Path
from typing import Dict, List, NamedTuple, Set, Tuple

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "setcontrast"

# (file, enclosing function, source fragment, reason)
EXEMPT: Tuple[Tuple[str, str, str, str], ...] = (
    ("cli.py", "_take", "AssertionError",
     "sentinel: every annotated field type is int, float or str"),
    ("cli.py", "main", "AssertionError",
     "sentinel: argparse admits only the train and sweep commands here"),
    ("cli.py", "_resolve_out", "e.strerror",
     "mkdir failing below a regular file, forced by the subprocess test "
     "tests/test_cli.py::TestForceAndPaths::test_out_path_below_a_file_rejected"),
    ("__main__.py", "<module>", "SystemExit",
     "runs only as `python -m setcontrast`, forced by the subprocess test "
     "tests/test_cli.py::TestVerifyCommand::test_runs_as_python_module"),
)


class Site(NamedTuple):
    file: str      # path relative to src/setcontrast
    line: int
    function: str  # enclosing qualified name, "<module>" at top level
    source: str    # the statement's first line, stripped


def raise_sites() -> List[Site]:
    """Every raise statement under the package, in file and line order."""
    sites = []
    for path in sorted(PACKAGE.glob("*.py")):
        text = path.read_text(encoding="utf-8")
        lines = text.splitlines()

        def visit(node, scope):
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                      ast.ClassDef)):
                    inner = child.name if scope == "<module>" else f"{scope}.{child.name}"
                    visit(child, inner)
                    continue
                if isinstance(child, ast.Raise):
                    sites.append(Site(path.name, child.lineno, scope,
                                      lines[child.lineno - 1].strip()))
                visit(child, scope)

        visit(ast.parse(text, filename=str(path)), "<module>")
    return sites


def traced_tier1(files: Set[str]) -> Tuple[int, Dict[str, Set[int]]]:
    """Run tier-1 in process; (pytest's exit code, lines run per file)."""
    import pytest

    ran: Dict[str, Set[int]] = {f: set() for f in files}

    def local(frame, event, arg):
        if event == "line":
            ran[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def global_trace(frame, event, arg):
        if frame.f_code.co_filename in ran:
            ran[frame.f_code.co_filename].add(frame.f_lineno)
            return local
        return None

    threading.settrace(global_trace)
    sys.settrace(global_trace)
    try:
        code = pytest.main(["-q", "-p", "no:cacheprovider", "--rootdir", str(ROOT),
                            str(ROOT / "tests")])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    return int(code), ran


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    sites = raise_sites()
    code, ran = traced_tier1({str(PACKAGE / s.file) for s in sites})
    if code != 0:
        print(f"tier-1 failed (pytest exit {code}); coverage not judged")
        return 2
    unreached = [s for s in sites if s.line not in ran[str(PACKAGE / s.file)]]
    used = set()
    failures = []
    for s in unreached:
        hits = [e for e in EXEMPT
                if e[0] == s.file and e[1] == s.function and e[2] in s.source]
        if hits:
            used.update(hits)
        else:
            failures.append(f"{s.file}:{s.line} {s.function}: {s.source}")
    stale = [e for e in EXEMPT if e not in used]
    print(f"{len(sites)} raise sites, {len(unreached)} never reached, "
          f"{len(unreached) - len(failures)} of those exempt")
    for line in failures:
        print(f"UNREACHED {line}")
    for file, function, fragment, _ in stale:
        print(f"STALE EXEMPTION {file} {function}: {fragment!r} matches no unreached site")
    return 1 if failures or stale else 0


if __name__ == "__main__":
    sys.exit(main())
