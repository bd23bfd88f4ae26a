"""The README's examples run as written."""

import json
import re
from pathlib import Path

from gobstacle import cli

README = (Path(__file__).resolve().parent.parent / "README.md").read_text()


def _fenced(lang):
    """The README's one fenced block tagged `lang`."""
    (block,) = re.findall(rf"^```{lang}\n(.*?)^```$", README, re.M | re.S)
    return block


def test_the_quick_start_runs(capsys):
    exec(compile(_fenced("python"), "README.md", "exec"), {})
    assert capsys.readouterr().out


def test_the_run_json_example_solves(tmp_path, monkeypatch, capsys):
    cfg = json.loads(_fenced("json"))
    monkeypatch.chdir(tmp_path)
    (tmp_path / "run.json").write_text(json.dumps(cfg))
    assert cli.main(["solve", "-c", "run.json"]) == 0
    for name in cfg["output"].values():
        if isinstance(name, str):
            assert (tmp_path / name).stat().st_size > 0
    assert "mode: limit" in capsys.readouterr().out
