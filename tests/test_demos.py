"""The demos run end to end on small settings.

The quickstart and the ablation comparison build their runs from the
``fedzsl run`` settings table; their printed metrics are checked against the
same runs built field by field, in the same process, so the check does not
depend on the BLAS thread count.
"""
from __future__ import annotations

import runpy
import sys
from pathlib import Path

from fedzsl.dataset import SyntheticSpec, generate_synthetic
from fedzsl.fed import TrainConfig, run_simulation
from fedzsl.glasso import distill_targets, graphical_lasso, sample_covariance
from fedzsl.losses import AblationFlags, DistillConfig
from fedzsl.model import ATTRIBUTE_BASED, ATTRIBUTE_FREE
from fedzsl.partition import PartitionSpec

DEMOS = Path(__file__).resolve().parents[1] / "demos"


def test_theory_walkthrough_reports_no_violations(monkeypatch, capsys):
    script = DEMOS / "theory_walkthrough.py"
    monkeypatch.setattr(sys, "argv", [str(script), "--trials", "20", "--rounds", "2"])
    runpy.run_path(str(script), run_name="__main__")
    out = capsys.readouterr().out
    assert "bound violations: {'left_inverse': 0, 'attr_error': 0}" in out
    assert "refused checks: none" in out
    assert "alignment bound violations on held-out rows: 0" in out


def run_demo(monkeypatch, capsys, name, *argv):
    script = DEMOS / name
    monkeypatch.setattr(sys, "argv", [str(script), *argv])
    runpy.run_path(str(script), run_name="__main__")
    return capsys.readouterr().out.splitlines()


def hand_made_run(seed, rounds, eval_every, mode=ATTRIBUTE_BASED, flags=None, distill=True):
    """A demo's run built field by field, with targets from the default glasso."""
    ds, attrs = generate_synthetic(SyntheticSpec(num_seen=20, num_unseen=5), seed=seed)
    targets = None
    if distill:
        sim = graphical_lasso(sample_covariance(attrs))
        targets = DistillConfig(tau=4.0, targets=distill_targets(sim.gamma, tau=4.0))
    cfg = TrainConfig(
        rounds=rounds,
        num_clients=5,
        local_lr=0.008,
        seed=seed,
        distill=targets,
        mode=mode,
        ablation=flags or AblationFlags(),
        partition=PartitionSpec(scheme="pccd", num_clients=5, seed=seed),
        eval_every=eval_every,
    )
    return run_simulation(ds, attrs, cfg)


def test_quickstart_prints_the_hand_made_run(monkeypatch, capsys):
    out = run_demo(monkeypatch, capsys, "quickstart.py", "--rounds", "2")
    trace = hand_made_run(seed=0, rounds=2, eval_every=5)

    def cell(v):
        return "." if v is None else f"{v:.1f}"

    rows = [
        f"{r.round_index:>5} {r.global_loss:>9.4f} {cell(r.acc_c):>6} {cell(r.acc_u):>6} "
        f"{cell(r.acc_s):>6} {cell(r.acc_h):>6}"
        for r in trace
    ]
    header = f"{'round':>5} {'loss':>9} {'acc_c':>6} {'acc_u':>6} {'acc_s':>6} {'acc_h':>6}"
    start = out.index(header)
    assert out[start + 1 : start + 1 + len(rows)] == rows
    assert len(rows) == 2


def test_ablation_comparison_prints_the_hand_made_runs(monkeypatch, capsys):
    out = run_demo(monkeypatch, capsys, "ablation_comparison.py", "--seeds", "1", "--rounds", "2")
    sce_only = AblationFlags(sce=True, bc=False, kl=False, ad=False)
    finals = {
        "full": hand_made_run(0, 2, 2)[-1],
        # The KL term is off, so the targets are never read.
        "sce only": hand_made_run(0, 2, 2, flags=sce_only)[-1],
        "attr-free": hand_made_run(0, 2, 2, mode=ATTRIBUTE_FREE, distill=False)[-1],
    }

    def cell(v):
        return "." if v is None else f"{v:.1f}"

    for name, f in finals.items():
        accs = " ".join(f"{cell(v):>6}" for v in (f.acc_c, f.acc_u, f.acc_s, f.acc_h))
        row = f"{name:<10} {accs}"
        assert row in out, row
