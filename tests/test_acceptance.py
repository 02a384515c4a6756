"""Acceptance gate: one test per shipped claim, reported line by line.

Each test ends with record_criterion(n), so the terminal summary prints an
explicit pass/fail line per criterion.
"""
from __future__ import annotations

import time

import numpy as np

from conftest import record_criterion, single_term
from fedzsl import cli
from fedzsl.dataset import (
    AttributeMatrix,
    ClassSplit,
    FeatureDataset,
    SyntheticSpec,
    generate_synthetic,
    split_train_test,
)
from fedzsl.evaluation import harmonic_mean, per_class_top1
from fedzsl.fed import TrainConfig, run_simulation
from fedzsl.glasso import GlassoConfig, distill_targets, graphical_lasso, sample_covariance
from fedzsl.losses import AblationFlags, DistillConfig, ce_loss_attribute_free, joint_loss
from fedzsl.model import ATTRIBUTE_BASED, ATTRIBUTE_FREE, init_opt_state, init_params, sgd_step
from fedzsl.partition import PartitionSpec, partition
from fedzsl.theory import run_check_suite

D_V, D_A, NUM_CLASSES = 8, 5, 6
FD_STEP = 1e-5
FD_TOL = 1e-4
GRAD_POINTS = 10

# Tuned locally: high enough that the attribute regressor converges in 50
# rounds, low enough that the headless baseline stays crippled by the
# class-disjoint partition.
E2E_LOCAL_LR = 0.008


def _packed_fd_error(value_fn, tensors, analytic) -> float:
    """Packed-vector relative error between analytic and central-difference
    gradients over every entry of ``tensors``."""
    numeric, exact = [], []
    for name, tensor in tensors.items():
        flat = tensor.ravel()
        approx = np.zeros(flat.size)
        for i in range(flat.size):
            kept = flat[i]
            flat[i] = kept + FD_STEP
            up = value_fn()
            flat[i] = kept - FD_STEP
            down = value_fn()
            flat[i] = kept
            approx[i] = (up - down) / (2.0 * FD_STEP)
        numeric.append(approx)
        exact.append(analytic[name].ravel().copy())
    a = np.concatenate(exact)
    n = np.concatenate(numeric)
    return float(np.linalg.norm(a - n) / max(np.linalg.norm(a) + np.linalg.norm(n), 1e-12))


def _random_problem(seed: int):
    rng = np.random.default_rng(seed)
    params = init_params(D_V, D_A, num_seen=NUM_CLASSES, mode=ATTRIBUTE_BASED, seed=seed)
    for tensor in params.tensors().values():
        tensor[...] = 0.3 * rng.standard_normal(tensor.shape)
    v = rng.standard_normal((4, D_V))
    labels = rng.integers(0, NUM_CLASSES, size=4)
    attrs = AttributeMatrix(
        values=rng.standard_normal((D_A, NUM_CLASSES)), groups=((0, 2), (2, 5))
    )
    distill = DistillConfig(
        tau=4.0, targets=distill_targets(sample_covariance(attrs), tau=4.0)
    )
    return rng, params, v, labels, attrs, distill


def test_criterion_1_gradient_checks():
    start = time.perf_counter()
    worst = 0.0
    for point in range(GRAD_POINTS):
        rng, params, v, labels, attrs, distill = _random_problem(point)
        trainables = {name: params.tensors()[name] for name in params.trainable_names()}

        for term in ("sce", "kl", "bc", "ad"):
            report = single_term(term, params, v, labels, attrs, distill)
            err = _packed_fd_error(
                lambda: single_term(term, params, v, labels, attrs, distill).total,
                trainables,
                report.grads,
            )
            assert err < FD_TOL, f"{term} point {point}: {err}"
            worst = max(worst, err)

        head = init_params(D_V, D_A, num_seen=NUM_CLASSES, mode=ATTRIBUTE_FREE, seed=point)
        for tensor in head.tensors().values():
            tensor[...] = 0.3 * rng.standard_normal(tensor.shape)
        seen = tuple(range(NUM_CLASSES))
        heads = {name: head.tensors()[name] for name in head.trainable_names()}
        report = ce_loss_attribute_free(head, v, labels, seen)
        err = _packed_fd_error(
            lambda: ce_loss_attribute_free(head, v, labels, seen).total,
            heads,
            report.grads,
        )
        assert err < FD_TOL, f"ce point {point}: {err}"
        worst = max(worst, err)
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0, f"gradient checks took {elapsed:.2f}s"
    record_criterion(
        1, f"5 losses x {GRAD_POINTS} points, max rel err {worst:.2e}, {elapsed:.2f}s"
    )


def test_criterion_2_glasso_closed_forms():
    start = time.perf_counter()
    cfg = GlassoConfig(delta=0.1, tol=1e-9, max_sweeps=500)

    sim = graphical_lasso(np.array([[2.0, 0.0], [0.0, 3.0]]), cfg)
    assert np.allclose(sim.gamma, np.diag([2.1, 3.1]), atol=1e-6)
    assert np.allclose(sim.theta, np.diag([1 / 2.1, 1 / 3.1]), atol=1e-6)

    sim_dense = graphical_lasso(np.array([[1.0, 0.8], [0.8, 1.0]]), cfg)
    assert np.allclose(sim_dense.gamma, [[1.1, 0.7], [0.7, 1.1]], atol=1e-6)
    expected_theta = np.array([[1.1, -0.7], [-0.7, 1.1]]) / (1.1**2 - 0.7**2)
    assert np.allclose(sim_dense.theta, expected_theta, atol=1e-6)

    sim_sparse = graphical_lasso(np.array([[1.0, 0.05], [0.05, 1.0]]), cfg)
    assert sim_sparse.theta[0, 1] == 0.0
    assert abs(sim_sparse.gamma[0, 1]) <= 1e-9
    assert abs(0.05 - sim_sparse.gamma[0, 1]) <= cfg.delta + 1e-9  # KKT sub-gradient
    assert np.allclose(np.diag(sim_sparse.gamma), [1.1, 1.1], atol=1e-6)

    for solved in (sim, sim_dense, sim_sparse):
        objective = np.asarray(solved.objective)
        assert np.all(np.diff(objective) <= 1e-10), "objective increased"
        assert np.max(np.abs(solved.gamma @ solved.theta - np.eye(2))) <= 1e-6
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0, f"glasso checks took {elapsed:.2f}s"
    record_criterion(2, f"3 closed forms within 1e-6, monotone, {elapsed * 1e3:.0f}ms")


def test_criterion_3_theory_suite():
    start = time.perf_counter()
    results = run_check_suite(trials=1000, seed=0)
    elapsed = time.perf_counter() - start
    names = [r.name for r in results]
    assert names == [
        "pinsker",
        "mixture_convexity",
        "kl_lipschitz",
        "left_inverse",
        "attr_error",
        "margin",
    ]
    for result in results:
        assert result.trials >= 1000, result.name
        assert result.violations == 0, f"{result.name}: {result.violations} violations"
    assert elapsed < 30.0, f"theory suite took {elapsed:.2f}s"
    record_criterion(3, f"6 checks x 1000 trials, 0 violations, {elapsed:.2f}s")


def test_criterion_4_degenerate_federation():
    ds, attrs = generate_synthetic(SyntheticSpec(), seed=0)
    distill = DistillConfig(
        tau=4.0,
        targets=distill_targets(graphical_lasso(sample_covariance(attrs)).gamma, tau=4.0),
    )
    cfg = TrainConfig(
        rounds=20,
        num_clients=1,
        sample_fraction=1.0,
        server_lr=1.0,
        seed=0,
        distill=distill,
        partition=PartitionSpec(scheme="iid", num_clients=1, seed=0),
        eval_every=20,
    )
    trace = run_simulation(ds, attrs, cfg)

    train, _, _ = split_train_test(ds, cfg.seed)
    params = init_params(
        train.d_v, attrs.d_a, num_seen=len(train.split.seen), mode=cfg.mode, seed=cfg.seed
    )
    for round_index in range(cfg.rounds):
        opt = init_opt_state(params, cfg.local_lr, cfg.momentum, cfg.weight_decay)
        rng = np.random.default_rng([cfg.seed, round_index, 0])
        for _ in range(cfg.local_epochs):
            order = rng.permutation(train.num_samples)
            for s in range(0, train.num_samples, cfg.batch_size):
                batch = order[s : s + cfg.batch_size]
                report = joint_loss(
                    params,
                    train.features[batch],
                    train.labels[batch],
                    attrs,
                    cfg.distill,
                    cfg.weights,
                    ablation=cfg.ablation,
                )
                sgd_step(params, report.grads, opt)
    for name, tensor in trace.final_params.tensors().items():
        assert np.array_equal(tensor, params.tensors()[name]), f"{name} differs"
    record_criterion(4, "20 rounds bit-identical to the plain minibatch loop")


def test_criterion_5_determinism_and_threads(tmp_path):
    data = tmp_path / "data"
    assert cli.main(["synth", "--out", str(data), "--seed", "0"]) == 0
    flags = ["--rounds", "3", "--clients", "5", "--seed", "11"]
    outs = []
    for name, threads in (("a", 1), ("b", 1), ("c", 8)):
        out = tmp_path / name
        code = cli.main(
            ["run", "--data", str(data), "--out", str(out), "--threads", str(threads), *flags]
        )
        assert code == 0
        outs.append(out)
    first = (outs[0] / "metrics.csv").read_bytes()
    assert (outs[1] / "metrics.csv").read_bytes() == first, "same-seed rerun differs"
    assert (outs[2] / "metrics.csv").read_bytes() == first, "threads 1 vs 8 differ"
    assert (outs[1] / "final_model.csv").read_bytes() == (outs[0] / "final_model.csv").read_bytes()
    assert (outs[2] / "final_model.csv").read_bytes() == (outs[0] / "final_model.csv").read_bytes()
    record_criterion(5, "same seed and threads 1 vs 8 byte-identical")


def test_criterion_6_metric_arithmetic():
    h = harmonic_mean(57.5, 58.0)
    assert abs(h - 57.75) <= 0.005
    assert h == 2.0 * 57.5 * 58.0 / (57.5 + 58.0)

    labels = np.array([0] * 10 + [1] * 90)
    preds = np.zeros(100, dtype=np.int64)  # class 0 all right, class 1 all wrong
    macro = per_class_top1(preds, labels, classes=(0, 1))
    micro = 100.0 * float(np.mean(preds == labels))
    assert macro == 50.0
    assert micro == 10.0
    record_criterion(6, f"harmonic {h:.4f}, macro 50.0 vs micro 10.0")


def _e2e_config(seed: int, distill, mode: str, ablation: AblationFlags) -> TrainConfig:
    return TrainConfig(
        rounds=50,
        num_clients=5,
        local_lr=E2E_LOCAL_LR,
        seed=seed,
        distill=distill,
        mode=mode,
        ablation=ablation,
        partition=PartitionSpec(scheme="pccd", num_clients=5, seed=seed),
        eval_every=50,
    )


def test_criterion_7_directional_reproduction():
    acc_c, seen_attr, seen_free, h_full, h_sce = [], [], [], [], []
    for seed in (0, 1, 2):
        ds, attrs = generate_synthetic(
            SyntheticSpec(num_seen=20, num_unseen=5), seed=seed
        )
        distill = DistillConfig(
            tau=4.0,
            targets=distill_targets(
                graphical_lasso(sample_covariance(attrs)).gamma, tau=4.0
            ),
        )
        variants = {
            "full": _e2e_config(seed, distill, ATTRIBUTE_BASED, AblationFlags()),
            "sce": _e2e_config(
                seed,
                distill,
                ATTRIBUTE_BASED,
                AblationFlags(sce=True, bc=False, kl=False, ad=False),
            ),
            "free": _e2e_config(seed, None, ATTRIBUTE_FREE, AblationFlags()),
        }
        finals = {}
        for name, cfg in variants.items():
            start = time.perf_counter()
            finals[name] = run_simulation(ds, attrs, cfg)[-1]
            elapsed = time.perf_counter() - start
            assert elapsed < 120.0, f"{name} seed {seed} took {elapsed:.1f}s"
        acc_c.append(finals["full"].acc_c)
        seen_attr.append(finals["full"].acc_s)
        seen_free.append(finals["free"].acc_s)
        h_full.append(finals["full"].acc_h)
        h_sce.append(finals["sce"].acc_h)
    mean_acc_c = float(np.mean(acc_c))
    gap = float(np.mean(seen_attr) - np.mean(seen_free))
    mean_h_full = float(np.mean(h_full))
    mean_h_sce = float(np.mean(h_sce))
    assert mean_acc_c >= 60.0, f"unseen accuracy {mean_acc_c:.2f} < 60"
    assert gap >= 25.0, f"seen-accuracy gap {gap:.2f} < 25"
    assert mean_h_full >= mean_h_sce, (
        f"full harmonic {mean_h_full:.2f} < single-term {mean_h_sce:.2f}"
    )
    record_criterion(
        7,
        f"acc_c {mean_acc_c:.1f}, seen gap {gap:.1f}, "
        f"harmonic {mean_h_full:.1f} vs {mean_h_sce:.1f}",
    )


def test_criterion_8_partition_fidelity():
    ds, _ = generate_synthetic(
        SyntheticSpec(num_seen=150, num_unseen=5, d_a=8, d_v=8, samples_per_class=2),
        seed=0,
    )
    train, _, _ = split_train_test(ds, seed=0)
    ten = partition(train, PartitionSpec(scheme="pccd", num_clients=10, seed=0))
    assert [len(classes) for classes in ten.local_classes] == [15] * 10
    twenty = partition(train, PartitionSpec(scheme="pccd", num_clients=20, seed=0))
    sizes = [len(classes) for classes in twenty.local_classes]
    assert set(sizes) <= {7, 8}
    assert sum(sizes) == 150

    rng = np.random.default_rng(0)
    sixty = FeatureDataset(
        features=rng.standard_normal((60, 4)),
        labels=np.zeros(60, dtype=np.int64),
        split=ClassSplit(seen=(0,), unseen=()),
    )
    kept = partition(
        sixty,
        PartitionSpec(scheme="pccd", num_clients=1, local_data_ratio=0.1, seed=0),
    )
    assert kept.assignments[0].size == 6
    record_criterion(8, "15/client at K=10, {7,8} at K=20, ratio keeps 6 of 60")
