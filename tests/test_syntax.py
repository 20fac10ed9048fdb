"""Every Python file of the package, its tools and its tests parses as
Python 3.10, the oldest version pyproject.toml declares. This checks
syntax only (say, an ``except*`` clause), not standard-library or numpy
APIs that 3.10 lacks."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted(p for d in ("src", "tools", "tests") for p in (ROOT / d).rglob("*.py"))


def test_sources_found():
    assert any(p.name == "harness.py" for p in SOURCES)
    assert any(p.name == "raise_sites.py" for p in SOURCES)


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: str(p.relative_to(ROOT)))
def test_parses_as_python_3_10(path):
    ast.parse(path.read_text(encoding="utf-8"), filename=str(path),
              feature_version=(3, 10))


def test_guard_rejects_newer_syntax():
    with pytest.raises(SyntaxError):
        ast.parse("try:\n    pass\nexcept* ValueError:\n    pass\n",
                  feature_version=(3, 10))
