"""Every numbered demo runs to completion; demos/retune_levels.py, a
Monte-Carlo tuning run, is only loaded."""

import runpy
from pathlib import Path

import pytest

DEMO_DIR = Path(__file__).resolve().parent.parent / "demos"
DEMOS = sorted(DEMO_DIR.glob("0*.py"))


def test_all_demos_found():
    assert [p.name[:2] for p in DEMOS] == ["01", "02", "03", "04", "05", "06"]


@pytest.mark.parametrize("path", DEMOS, ids=[p.stem for p in DEMOS])
def test_demo_runs(path, capsys):
    runpy.run_path(str(path), run_name="__main__")
    assert capsys.readouterr().out


def test_retune_levels_loads():
    # without run_name="__main__" the module body runs but main() does not
    names = runpy.run_path(str(DEMO_DIR / "retune_levels.py"))
    assert callable(names["main"]) and callable(names["measure_kin"])
