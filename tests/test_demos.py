"""Smoke test: every demo script runs to the end without an exception or warning.

Each demo runs inside a temporary directory, so the CSV files some of them
write stay out of the source tree.
"""

import runpy
import warnings
from pathlib import Path

import pytest

DEMOS = sorted((Path(__file__).parent.parent / "demos").glob("*.py"))


def test_demos_found():
    assert len(DEMOS) >= 6


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.stem)
def test_demo_runs_quietly(demo, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        runpy.run_path(str(demo), run_name="__main__")
    assert capsys.readouterr().out
