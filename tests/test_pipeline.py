"""The run pipeline: a settings table in, a configured run out.

``fedzsl.cli.configure_run`` is the one place a run's settings become a
``TrainConfig`` with its distillation targets.  The benchmark's training
pass (``perfbench/workloads.py:train_pass``) still builds its run by hand;
it is loaded by path, without importing the rest of the benchmark, and
must write the same bytes as ``fedzsl run`` with the workload's settings.
"""
from __future__ import annotations

import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import fedzsl
from fedzsl import cli
from fedzsl.dataset import SyntheticSpec, generate_synthetic
from fedzsl.glasso import GlassoConfig, distill_targets, graphical_lasso, sample_covariance
from fedzsl.model import ATTRIBUTE_FREE

WORKLOADS = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"


def load_workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    # dataclasses looks the module up by name while it builds its classes.
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


workloads = load_workloads()


class StubClock:
    """The part of ``PhaseClock`` a pass uses, without timers or signals."""

    def __init__(self) -> None:
        self.laps: dict[str, float] = {}
        self.cal: list[dict[str, float]] = []
        self.ticks: list[dict[str, list[float]]] = []

    def lap(self, name: str) -> None:
        self.laps[name] = 0.0


@pytest.fixture(scope="module")
def attrs():
    return generate_synthetic(SyntheticSpec(num_seen=6, num_unseen=2, d_a=6, d_v=8), seed=0)[1]


def test_default_config_is_a_new_table_each_call():
    first = cli.default_config()
    first["train"]["rounds"] = 7
    assert cli.default_config()["train"]["rounds"] != 7
    assert list(first) == ["train", "losses", "partition", "glasso", "model"]


def test_targets_come_from_the_glasso_settings(attrs):
    settings = cli.default_config()
    settings["glasso"]["delta"] = 0.2
    settings["losses"]["tau"] = 2.5
    cfg, sim = cli.configure_run(settings, attrs)
    expected = graphical_lasso(sample_covariance(attrs), GlassoConfig(delta=0.2))
    np.testing.assert_array_equal(sim.theta, expected.theta)
    targets = distill_targets(expected.gamma, 2.5)
    np.testing.assert_array_equal(cfg.distill.targets.probs, targets.probs)
    assert cfg.distill.tau == 2.5


@pytest.mark.parametrize(
    "section, values",
    [("losses", {"kl": False}), ("losses", {"w_kl": 0.0}), ("model", {"mode": ATTRIBUTE_FREE})],
    ids=["kl-off", "zero-kl-weight", "attribute-free"],
)
def test_no_similarity_without_the_kl_term(attrs, section, values):
    settings = cli.default_config()
    settings[section].update(values)
    cfg, sim = cli.configure_run(settings, attrs)
    assert sim is None and cfg.distill is None and not cfg.kl_enabled


def test_import_fedzsl_does_not_import_the_cli():
    # A fresh interpreter, given the package this suite imports.
    code = "import sys, fedzsl; print('fedzsl.cli' in sys.modules)"
    package_root = str(Path(fedzsl.__file__).resolve().parent.parent)
    result = subprocess.run(
        [sys.executable, "-c", code],
        env=dict(os.environ, PYTHONPATH=package_root),
        capture_output=True,
        text=True,
        timeout=60,
        check=True,
    )
    assert result.stdout.strip() == "False"


@pytest.mark.parametrize("name", ["cub_train", "awa_many_clients"])
def test_fedzsl_run_writes_what_the_benchmark_pass_writes(tmp_path, name):
    w = workloads.tiny(workloads.WORKLOADS[name])
    seed = 3
    data = workloads.make_inputs(w, seed, tmp_path / "inputs")
    bench = tmp_path / "bench"
    result = workloads.train_pass(w, seed, data, bench, StubClock())
    assert result.failed == 0
    out = tmp_path / "run"
    code = cli.main(
        [
            "run", "--data", str(data), "--out", str(out), "--seed", str(seed),
            "--rounds", str(w.rounds),
            "--clients", str(w.num_clients),
            "--local-epochs", str(w.local_epochs),
            "--batch-size", str(w.batch_size),
            "--sample-fraction", repr(w.sample_fraction),
            "--eval-every", str(w.eval_every),
        ]
    )
    assert code == 0
    for file in ("metrics.csv", "final_model.csv"):
        assert (out / file).read_bytes() == (bench / file).read_bytes(), file
