"""The demos run end to end on small settings."""
from __future__ import annotations

import runpy
import sys
from pathlib import Path

DEMOS = Path(__file__).resolve().parents[1] / "demos"


def test_theory_walkthrough_reports_no_violations(monkeypatch, capsys):
    script = DEMOS / "theory_walkthrough.py"
    monkeypatch.setattr(sys, "argv", [str(script), "--trials", "20", "--rounds", "2"])
    runpy.run_path(str(script), run_name="__main__")
    out = capsys.readouterr().out
    assert "bound violations: {'left_inverse': 0, 'attr_error': 0}" in out
    assert "refused checks: none" in out
    assert "alignment bound violations on held-out rows: 0" in out
