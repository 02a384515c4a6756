"""Float32 features (as features.bin stores them) give the float64 results bit for bit.

A dataset loaded from features.bin keeps its float32 values, and every
product or ufunc that reads them widens them exactly.  Each test here runs
the same values once as float32 and once widened to float64 up front, and
compares the results by their bytes.
"""
from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from fedzsl.dataset import (
    FeatureDataset,
    SyntheticSpec,
    generate_synthetic,
    load_dataset,
    save_dataset,
    split_train_test,
)
from fedzsl.evaluation import evaluate
from fedzsl.fed import TrainConfig, metrics_to_csv, run_simulation
from fedzsl.glasso import distill_targets, graphical_lasso, sample_covariance
from fedzsl.losses import DistillConfig, LossWeights, ce_loss_attribute_free, joint_loss
from fedzsl.model import ATTRIBUTE_BASED, ATTRIBUTE_FREE, forward_attr, init_params, save_model
from fedzsl.partition import PartitionSpec
from fedzsl.theory import build_theory_report


@pytest.fixture(scope="module")
def paired(tmp_path_factory):
    """The same dataset loaded from features.bin (float32) and widened to float64."""
    spec = SyntheticSpec(
        num_seen=10, num_unseen=4, d_a=12, d_v=40, samples_per_class=24, group_count=3
    )
    ds, attrs = generate_synthetic(spec, seed=7)
    root = tmp_path_factory.mktemp("bin")
    save_dataset(root, ds, attrs, binary=True)
    ds32, attrs = load_dataset(root)
    assert ds32.features.dtype == np.float32
    ds64 = FeatureDataset(ds32.features.astype(np.float64), ds32.labels, ds32.split)
    assert ds64.features.dtype == np.float64
    return ds32, ds64, attrs


def _distill(attrs):
    sim = graphical_lasso(sample_covariance(attrs))
    return DistillConfig(tau=4.0, targets=distill_targets(sim.gamma, tau=4.0))


def _config(mode, attrs):
    based = mode == ATTRIBUTE_BASED
    return TrainConfig(
        rounds=3,
        num_clients=3,
        local_epochs=1,
        batch_size=16,
        seed=5,
        mode=mode,
        distill=_distill(attrs) if based else None,
        partition=PartitionSpec(scheme="pccd", num_clients=3, seed=5),
    )


def _run_bytes(ds, attrs, mode, threads, out):
    trace = run_simulation(ds, attrs, _config(mode, attrs), threads=threads)
    save_model(out, trace.final_params)
    return metrics_to_csv(trace).encode(), out.read_bytes()


def _report_bytes(report) -> bytes:
    parts = [report.total.hex()]
    parts += [f"{name}={value.hex()}" for name, value in report.terms.items()]
    parts += [f"{name}={grad.dtype}{grad.shape}" for name, grad in report.grads.items()]
    return "\n".join(parts).encode() + b"".join(g.tobytes() for g in report.grads.values())


@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize("mode", [ATTRIBUTE_BASED, ATTRIBUTE_FREE])
def test_run_simulation_writes_the_same_bytes(paired, tmp_path, mode, threads):
    ds32, ds64, attrs = paired
    narrow = _run_bytes(ds32, attrs, mode, threads, tmp_path / "narrow.csv")
    wide = _run_bytes(ds64, attrs, mode, threads, tmp_path / "wide.csv")
    assert narrow == wide


@pytest.mark.parametrize("grads", [True, False])
def test_joint_loss_is_bit_identical(paired, grads):
    ds32, ds64, attrs = paired
    params = init_params(ds32.d_v, attrs.d_a, 10, ATTRIBUTE_BASED, seed=2)
    distill = _distill(attrs)
    for rows in (slice(0, 16), slice(None)):  # a minibatch and the whole set
        results = [
            _report_bytes(
                joint_loss(
                    params, ds.features[rows], ds.labels[rows], attrs, distill, LossWeights(),
                    grads=grads,
                )
            )
            for ds in (ds32, ds64)
        ]
        assert results[0] == results[1]


@pytest.mark.parametrize("grads", [True, False])
def test_attribute_free_loss_is_bit_identical(paired, grads):
    ds32, ds64, attrs = paired
    seen = ds32.split.seen
    params = init_params(ds32.d_v, attrs.d_a, num_seen=len(seen), mode=ATTRIBUTE_FREE, seed=2)
    train = [split_train_test(ds, 1)[0] for ds in (ds32, ds64)]
    results = [
        _report_bytes(ce_loss_attribute_free(params, t.features, t.labels, seen, grads=grads))
        for t in train
    ]
    assert results[0] == results[1]


@pytest.mark.parametrize("mode", [ATTRIBUTE_BASED, ATTRIBUTE_FREE])
def test_evaluate_is_bit_identical(paired, mode):
    ds32, ds64, attrs = paired
    params = run_simulation(ds64, attrs, _config(mode, attrs)).final_params
    results = []
    for ds in (ds32, ds64):
        _, test_seen, test_unseen = split_train_test(ds, 3)
        metrics = evaluate(params, test_seen, test_unseen, attrs, ds.split)
        results.append([None if x is None else x.hex() for x in dataclasses.astuple(metrics)])
    assert results[0] == results[1]


def test_forward_attr_of_one_vector_is_bit_identical(paired):
    ds32, ds64, attrs = paired
    params = init_params(ds32.d_v, attrs.d_a, 10, ATTRIBUTE_BASED, seed=2)
    narrow = forward_attr(params, ds32.features[3])
    assert narrow.dtype == np.float64
    assert narrow.tobytes() == forward_attr(params, ds64.features[3]).tobytes()


def test_theory_report_is_bit_identical(paired):
    ds32, ds64, attrs = paired
    params = run_simulation(ds64, attrs, _config(ATTRIBUTE_BASED, attrs)).final_params
    reports = [build_theory_report(params, ds.features, ds.labels, attrs) for ds in (ds32, ds64)]
    narrow, wide = reports
    for name in ("c_h", "L_h", "delta_rec"):
        assert getattr(narrow, name).hex() == getattr(wide, name).hex()
    for name in ("epsilons", "lz"):
        assert getattr(narrow, name).tobytes() == getattr(wide, name).tobytes()
    assert narrow.margins == wide.margins
    assert narrow.violations == wide.violations
    assert narrow.refusals == wide.refusals
