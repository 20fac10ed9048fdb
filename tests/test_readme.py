"""README.md's examples run as written: its ```python blocks in order, in
one namespace, and its ```json config through the CLI's loader."""

import re
from pathlib import Path

import numpy as np

from setcontrast import cli

README = Path(__file__).resolve().parents[1] / "README.md"


def fenced_blocks(lang):
    text = README.read_text(encoding="utf-8")
    return re.findall(rf"^```{lang}\n(.*?)^```$", text, flags=re.M | re.S)


def test_python_examples_run_in_order(capsys):
    blocks = fenced_blocks("python")
    assert blocks
    namespace = {}
    for block in blocks:
        exec(compile(block, str(README), "exec"), namespace)
    assert np.isfinite(namespace["total"])
    assert capsys.readouterr().out


def test_json_config_loads(tmp_path):
    (block,) = fenced_blocks("json")
    path = tmp_path / "cfg.json"
    path.write_text(block, encoding="utf-8")
    cfg = cli.load_config(str(path))
    assert [loss.name for loss in cfg.losses] == ["infonce", "infonce+qare"]
