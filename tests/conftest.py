"""Shared pytest hooks, the package path and the single-term loss view.

The acceptance tests register a status per criterion; the terminal summary
hook prints one line per criterion even when pytest captures stdout.
"""
from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

import pytest

# The package under test is the one Python finds: installed, or named by
# PYTHONPATH.  Only when neither provides it does the checkout's own src/
# go on the path, after everything else.
if importlib.util.find_spec("fedzsl") is None:
    sys.path.append(str(Path(__file__).resolve().parent.parent / "src"))

from fedzsl.losses import AblationFlags, LossWeights, joint_loss  # noqa: E402

_CRITERIA: dict[int, tuple[str, str]] = {}


def single_term(
    term, params, features, labels, attrs, distill=None, bc_squared=True, grads=True
):
    """One loss term alone: ``joint_loss`` with only ``term`` enabled, at weight 1."""
    flags = AblationFlags(**{t: t == term for t in ("sce", "bc", "kl", "ad")})
    weights = LossWeights(w_bc=1.0, w_kl=1.0, w_ad=1.0)
    return joint_loss(
        params,
        features,
        labels,
        attrs,
        distill,
        weights,
        ablation=flags,
        bc_squared=bc_squared,
        grads=grads,
    )


def record_criterion(number: int, detail: str = "") -> None:
    """Mark a criterion as passed; called at the end of its test body."""
    _CRITERIA[number] = ("PASS", detail)


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_makereport(item, call):
    outcome = yield
    report = outcome.get_result()
    if report.when != "call" or not item.name.startswith("test_criterion_"):
        return
    number = int(item.name.split("_")[2])
    if report.failed:
        last = report.longreprtext.strip().splitlines()
        _CRITERIA[number] = ("FAIL", last[-1][:160] if last else "")
    elif report.skipped:
        _CRITERIA[number] = ("SKIP", "")


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _CRITERIA:
        return
    terminalreporter.write_sep("-", "acceptance criteria")
    for number in sorted(_CRITERIA):
        status, detail = _CRITERIA[number]
        suffix = f"  [{detail}]" if detail else ""
        terminalreporter.write_line(f"criterion {number}: {status}{suffix}")
