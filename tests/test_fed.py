"""Local training, weighted aggregation, and the simulation loop."""
from __future__ import annotations

import gc
import math
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedzsl import fed
from fedzsl.dataset import SyntheticSpec, generate_synthetic, split_train_test
from fedzsl.fed import (
    ClientUpdate,
    FedError,
    METRICS_HEADER,
    RoundMetrics,
    TrainConfig,
    TrainingDivergedError,
    aggregate,
    local_train,
    metrics_to_csv,
    run_simulation,
)
from fedzsl.glasso import distill_targets, graphical_lasso, sample_covariance
from fedzsl.losses import AblationFlags, DistillConfig, LossWeights, joint_loss
from fedzsl.model import ATTRIBUTE_FREE, init_opt_state, init_params, sgd_step
from fedzsl.partition import PartitionSpec, partition, sample_clients


def tiny_problem(seed: int = 0):
    spec = SyntheticSpec(
        num_seen=6, num_unseen=2, d_a=6, d_v=8, samples_per_class=10, group_count=3
    )
    ds, attrs = generate_synthetic(spec, seed=seed)
    S = sample_covariance(attrs)
    sim = graphical_lasso(S)
    distill = DistillConfig(tau=4.0, targets=distill_targets(sim.gamma, tau=4.0))
    return ds, attrs, distill


def tiny_config(distill, **overrides) -> TrainConfig:
    base = dict(
        rounds=2,
        num_clients=2,
        local_epochs=2,
        batch_size=16,
        seed=0,
        distill=distill,
        partition=PartitionSpec(scheme="pccd", num_clients=2, seed=0),
    )
    base.update(overrides)
    return TrainConfig(**base)


TRAIN_COUNTS = ("rounds", "num_clients", "local_epochs", "batch_size", "eval_every", "seed")


class TestTrainConfig:
    def test_partition_client_count_must_match(self):
        with pytest.raises(FedError):
            TrainConfig(
                num_clients=3, partition=PartitionSpec(scheme="pccd", num_clients=2)
            )

    def test_bounds(self):
        with pytest.raises(FedError):
            TrainConfig(rounds=0)
        with pytest.raises(FedError):
            TrainConfig(sample_fraction=0.0)
        with pytest.raises(FedError):
            TrainConfig(server_lr=0.0)
        TrainConfig(local_lr=0.0)  # a zero local rate is a valid no-op run

    @pytest.mark.parametrize("value", [2.9, -0.5, math.nan, math.inf])
    @pytest.mark.parametrize("field", TRAIN_COUNTS)
    def test_a_non_integral_count_is_refused(self, field, value):
        with pytest.raises(FedError, match=rf"^{field} must be an integer, got {value}$"):
            TrainConfig(**{field: value})

    def test_whole_counts_load_as_ints(self):
        cfg = TrainConfig(**{field: 10.0 for field in TRAIN_COUNTS})
        for field in TRAIN_COUNTS:
            value = getattr(cfg, field)
            assert type(value) is int and value == 10, field

    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("seed", -1, r"seed must be >= 0, got -1"),
            ("momentum", 1.0, r"momentum must lie in \[0, 1\), got 1.0"),
            ("momentum", -0.1, r"momentum must lie in \[0, 1\), got -0.1"),
            ("weight_decay", -1.0, r"weight_decay must be finite and >= 0, got -1.0"),
            ("weight_decay", math.inf, r"weight_decay must be finite and >= 0, got inf"),
        ],
    )
    def test_optimizer_settings_and_seed_are_checked(self, field, value, message):
        # The same bounds OptState enforces, refused when the config is built.
        with pytest.raises(FedError, match=message):
            TrainConfig(**{field: value})

    @pytest.mark.parametrize("value", [-0.1, math.nan, math.inf])
    def test_local_lr_must_be_finite_and_non_negative(self, value):
        with pytest.raises(FedError, match=rf"local_lr must be finite and >= 0, got {value}"):
            TrainConfig(local_lr=value)

    @pytest.mark.parametrize("value", [0.0, -1.0, math.nan, math.inf])
    def test_server_lr_must_be_finite_and_positive(self, value):
        with pytest.raises(FedError, match=rf"server_lr must be finite and > 0, got {value}"):
            TrainConfig(server_lr=value)

    def test_unknown_mode_is_refused(self):
        with pytest.raises(FedError, match=r"mode must be one of \(.*\), got 'attribute'"):
            TrainConfig(mode="attribute")

    def test_kl_enabled_reflects_mode_flag_and_weight(self):
        spec = PartitionSpec(scheme="pccd", num_clients=10)
        assert TrainConfig(partition=spec).kl_enabled
        assert not TrainConfig(partition=spec, ablation=AblationFlags(kl=False)).kl_enabled
        assert not TrainConfig(partition=spec, weights=LossWeights(w_kl=0.0)).kl_enabled
        assert not TrainConfig(
            partition=spec, mode=ATTRIBUTE_FREE
        ).kl_enabled


class TestLocalTrain:
    def client_slice(self, seed: int = 0):
        ds, attrs, distill = tiny_problem(seed)
        cfg = tiny_config(distill)
        train, _, _ = split_train_test(ds, cfg.seed)
        part = partition(train, cfg.partition)
        return train.subset(part.assignments[0]), attrs, cfg, train

    def test_deterministic(self):
        data, attrs, cfg, _ = self.client_slice()
        params = init_params(8, 6, num_seen=6, mode=cfg.mode, seed=0)
        u1 = local_train(params, data, attrs, cfg, round_index=0, client_id=0)
        u2 = local_train(params, data, attrs, cfg, round_index=0, client_id=0)
        for name in u1.trained:
            assert np.array_equal(u1.trained[name], u2.trained[name])
        assert u1.mean_local_loss == u2.mean_local_loss

    def test_global_params_are_not_mutated(self):
        data, attrs, cfg, _ = self.client_slice()
        params = init_params(8, 6, num_seen=6, mode=cfg.mode, seed=0)
        reference = params.clone()
        local_train(params, data, attrs, cfg, round_index=0, client_id=0)
        for name, tensor in params.tensors().items():
            assert np.array_equal(tensor, reference.tensors()[name]), name

    def test_zero_learning_rate_gives_zero_delta(self):
        data, attrs, cfg, _ = self.client_slice()
        cfg = tiny_config(cfg.distill, local_lr=0.0)
        params = init_params(8, 6, num_seen=6, mode=cfg.mode, seed=0)
        update = local_train(params, data, attrs, cfg, round_index=0, client_id=0)
        for name, trained in update.trained.items():
            assert np.array_equal(trained, params.tensors()[name]), name
        merged = aggregate(params, [update], server_lr=0.5)
        for name, tensor in merged.tensors().items():
            assert np.array_equal(tensor, params.tensors()[name]), name

    def test_single_step_matches_direct_sgd(self):
        # One epoch, one full batch, one step: the delta must equal the
        # movement of a hand-driven optimizer on the same gradients.
        data, attrs, cfg, _ = self.client_slice()
        cfg = tiny_config(cfg.distill, local_epochs=1, batch_size=data.num_samples)
        params = init_params(8, 6, num_seen=6, mode=cfg.mode, seed=0)
        update = local_train(params, data, attrs, cfg, round_index=3, client_id=1)
        twin = params.clone()
        opt = init_opt_state(twin, cfg.local_lr, cfg.momentum, cfg.weight_decay)
        order = np.random.default_rng([cfg.seed, 3, 1]).permutation(data.num_samples)
        report = joint_loss(
            twin,
            data.features[order],
            data.labels[order],
            attrs,
            cfg.distill,
            cfg.weights,
            ablation=cfg.ablation,
        )
        sgd_step(twin, report.grads, opt)
        for name in update.trained:
            assert np.array_equal(update.trained[name], twin.tensors()[name]), name

    def test_metadata_fields(self):
        data, attrs, cfg, _ = self.client_slice()
        params = init_params(8, 6, num_seen=6, mode=cfg.mode, seed=0)
        update = local_train(params, data, attrs, cfg, round_index=0, client_id=1)
        assert update.client_id == 1
        assert update.num_local_classes == len(np.unique(data.labels))
        assert np.isfinite(update.mean_local_loss)
        assert tuple(update.trained) == params.trainable_names()

    def test_divergence_raises_with_context(self):
        data, attrs, cfg, _ = self.client_slice()
        cfg = tiny_config(cfg.distill, local_lr=1e9)
        params = init_params(8, 6, num_seen=6, mode=cfg.mode, seed=0)
        with np.errstate(all="ignore"):
            with pytest.raises(TrainingDivergedError, match="client 0"):
                local_train(params, data, attrs, cfg, round_index=0, client_id=0)


def shifted(params, amount) -> dict[str, np.ndarray]:
    """Trained tensors that sit ``amount`` away from ``params``."""
    return {name: t + amount for name, t in params.tensors().items()}


class TestAggregate:
    def test_zero_deltas_leave_params_unchanged(self):
        # Trained tensors equal to the global ones give zero movement.
        params = init_params(5, 3, num_seen=4, mode="attribute-based", seed=0)
        updates = [
            ClientUpdate(
                client_id=k, trained=shifted(params, 0.0), num_local_classes=2,
                mean_local_loss=1.0,
            )
            for k in range(3)
        ]
        merged = aggregate(params, updates, server_lr=1.0)
        for name, tensor in merged.tensors().items():
            assert np.array_equal(tensor, params.tensors()[name]), name

    def test_class_count_weighting(self):
        # Clients holding 10 and 30 classes weigh 0.25 and 0.75.
        params = init_params(4, 2, num_seen=4, mode="attribute-based", seed=1)
        updates = [
            ClientUpdate(client_id=0, trained=shifted(params, 1.0), num_local_classes=10,
                         mean_local_loss=0.0),
            ClientUpdate(client_id=1, trained=shifted(params, 2.0), num_local_classes=30,
                         mean_local_loss=0.0),
        ]
        merged = aggregate(params, updates, server_lr=1.0)
        expected_step = 0.25 * 1.0 + 0.75 * 2.0
        for name, tensor in merged.tensors().items():
            assert np.allclose(tensor, params.tensors()[name] + expected_step, atol=1e-15)

    def test_server_lr_scales_the_step(self):
        params = init_params(4, 2, num_seen=4, mode="attribute-based", seed=1)
        update = ClientUpdate(
            client_id=0, trained=shifted(params, 1.0), num_local_classes=5, mean_local_loss=0.0
        )
        merged = aggregate(params, [update], server_lr=0.5)
        for name, tensor in merged.tensors().items():
            assert np.allclose(tensor, params.tensors()[name] + 0.5, atol=1e-15)

    def test_order_independent(self):
        rng = np.random.default_rng(2)
        params = init_params(5, 3, num_seen=4, mode="attribute-based", seed=2)
        updates = []
        for k in range(4):
            trained = {name: rng.standard_normal(t.shape) for name, t in params.tensors().items()}
            updates.append(
                ClientUpdate(
                    client_id=k, trained=trained, num_local_classes=k + 1, mean_local_loss=0.0
                )
            )
        forward = aggregate(params, updates, server_lr=1.0)
        shuffled = aggregate(params, updates[::-1], server_lr=1.0)
        for name in forward.tensors():
            assert np.array_equal(forward.tensors()[name], shuffled.tensors()[name]), name

    def test_single_client_unit_scales_copies_exactly(self):
        # One participant at unit scales adopts the trained tensors verbatim,
        # with no round-off from the add-the-difference form.
        rng = np.random.default_rng(3)
        params = init_params(5, 3, num_seen=4, mode="attribute-based", seed=3)
        trained = {name: rng.standard_normal(t.shape) for name, t in params.tensors().items()}
        update = ClientUpdate(
            client_id=0,
            trained=trained,
            num_local_classes=3,
            mean_local_loss=0.0,
        )
        merged = aggregate(params, [update], server_lr=1.0)
        for name in trained:
            assert np.array_equal(merged.tensors()[name], trained[name]), name

    def test_non_unit_server_lr_uses_the_formula(self):
        params = init_params(5, 3, num_seen=4, mode="attribute-based", seed=3)
        update = ClientUpdate(
            client_id=0,
            trained=shifted(params, 1.0),
            num_local_classes=3,
            mean_local_loss=0.0,
        )
        merged = aggregate(params, [update], server_lr=2.0)
        for name, tensor in merged.tensors().items():
            assert np.allclose(tensor, params.tensors()[name] + 2.0, atol=1e-15)

    def test_rejects_duplicates_and_shape_mismatch(self):
        params = init_params(4, 2, num_seen=4, mode="attribute-based", seed=1)
        ones = shifted(params, 1.0)
        update = ClientUpdate(client_id=0, trained=ones, num_local_classes=1, mean_local_loss=0.0)
        with pytest.raises(FedError):
            aggregate(params, [update, update], server_lr=1.0)
        bad = ClientUpdate(
            client_id=1,
            trained={name: np.ones((2, 2)) for name in ones},
            num_local_classes=1,
            mean_local_loss=0.0,
        )
        with pytest.raises(FedError):
            aggregate(params, [bad], server_lr=1.0)
        with pytest.raises(FedError):
            aggregate(params, [], server_lr=1.0)

    def test_rejects_a_missing_tensor(self):
        params = init_params(4, 2, num_seen=4, mode="attribute-based", seed=1)
        partial = shifted(params, 1.0)
        del partial["b_h"]
        update = ClientUpdate(
            client_id=2, trained=partial, num_local_classes=1, mean_local_loss=0.0
        )
        with pytest.raises(FedError, match="client 2 update is missing tensor 'b_h'"):
            aggregate(params, [update], server_lr=0.5)

    def test_rejects_a_misshaped_tensor(self):
        params = init_params(4, 2, num_seen=4, mode="attribute-based", seed=1)
        trained = shifted(params, 1.0)
        trained["W_h"] = np.ones((2, 4))
        update = ClientUpdate(
            client_id=3, trained=trained, num_local_classes=1, mean_local_loss=0.0
        )
        with pytest.raises(FedError, match=r"client 3 trained 'W_h' has shape \(2, 4\)"):
            aggregate(params, [update], server_lr=1.0)

    @pytest.mark.parametrize("server_lr", [0.0, -0.5, math.nan, math.inf])
    def test_rejects_a_bad_server_lr(self, server_lr):
        # A NaN rate would otherwise turn every aggregated tensor into NaN.
        params = init_params(4, 2, num_seen=4, mode="attribute-based", seed=1)
        update = ClientUpdate(
            client_id=0, trained=shifted(params, 1.0), num_local_classes=1, mean_local_loss=0.0
        )
        with pytest.raises(FedError, match=rf"server_lr must be finite and > 0, got {server_lr}"):
            aggregate(params, [update], server_lr=server_lr)


class TestAggregateProperties:
    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(
        seed=st.integers(0, 2**31 - 1),
        d_v=st.integers(1, 6),
        d_a=st.integers(1, 5),
        clients=st.integers(1, 5),
        server_lr=st.sampled_from([1.0, 0.5, 0.3, 2.0]),
        data=st.data(),
    )
    def test_does_not_depend_on_update_order(self, seed, d_v, d_a, clients, server_lr, data):
        params = init_params(d_v, d_a, num_seen=3, mode="attribute-based", seed=seed)
        rng = np.random.default_rng(seed)
        updates = [
            ClientUpdate(
                client_id=k,
                trained={n: t + rng.standard_normal(t.shape) for n, t in params.tensors().items()},
                num_local_classes=data.draw(st.integers(1, 50)),
                mean_local_loss=0.0,
            )
            for k in range(clients)
        ]
        order = data.draw(st.permutations(range(clients)))
        forward = aggregate(params, updates, server_lr).tensors()
        permuted = aggregate(params, [updates[i] for i in order], server_lr).tensors()
        for name, tensor in forward.items():
            assert tensor.tobytes() == permuted[name].tobytes(), name

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(
        seed=st.integers(0, 2**31 - 1),
        d_v=st.integers(1, 6),
        d_a=st.integers(1, 5),
        classes=st.integers(1, 50),
        mode=st.sampled_from(["attribute-based", ATTRIBUTE_FREE]),
    )
    def test_one_client_at_unit_scales_collapses_to_trained(self, seed, d_v, d_a, classes, mode):
        params = init_params(d_v, d_a, num_seen=3, mode=mode, seed=seed)
        rng = np.random.default_rng(seed)
        trained = {
            n: rng.standard_normal(params.tensors()[n].shape) for n in params.trainable_names()
        }
        update = ClientUpdate(
            client_id=0, trained=trained, num_local_classes=classes, mean_local_loss=0.0
        )
        merged = aggregate(params, [update], server_lr=1.0)
        for name, tensor in merged.tensors().items():
            expected = trained.get(name, params.tensors()[name])
            assert tensor.tobytes() == expected.tobytes(), name


class TestMetricsCsv:
    def test_header_and_empty_cells(self):
        rows = [
            RoundMetrics(0, None, None, None, None, 1.5, 1.25, 0.25),
            RoundMetrics(1, 50.0, 25.0, 75.0, 37.5, 1.25, 1.0, 0.5),
        ]
        text = metrics_to_csv(rows)
        lines = text.splitlines()
        assert lines[0] == METRICS_HEADER
        assert lines[1] == "0,,,,,1.5,1.25,0.25"
        assert lines[2] == "1,50.0,25.0,75.0,37.5,1.25,1.0,0.5"
        assert text.endswith("\n")


class TestRunSimulation:
    @pytest.mark.parametrize("threads", [0, -2])
    def test_fewer_than_one_thread_is_refused(self, threads):
        ds, attrs, distill = tiny_problem()
        with pytest.raises(FedError, match=rf"threads must be >= 1, got {threads}"):
            run_simulation(ds, attrs, tiny_config(distill), threads=threads)

    @pytest.mark.parametrize("threads", [2.9, 1.5, math.nan, math.inf])
    def test_a_non_integral_thread_count_is_refused(self, threads):
        # Truncating would run threads=2.9 as a pool of 2 workers.
        ds, attrs, distill = tiny_problem()
        with pytest.raises(FedError, match=rf"^threads must be an integer, got {threads}$"):
            run_simulation(ds, attrs, tiny_config(distill), threads=threads)

    def test_a_whole_thread_count_runs_as_an_int(self):
        ds, attrs, distill = tiny_problem()
        cfg = tiny_config(distill)
        whole = run_simulation(ds, attrs, cfg, threads=2.0)
        assert metrics_to_csv(list(whole)) == metrics_to_csv(list(run_simulation(ds, attrs, cfg)))

    def test_trace_length_and_eval_cadence(self):
        ds, attrs, distill = tiny_problem()
        cfg = tiny_config(distill, rounds=3, eval_every=2)
        trace = run_simulation(ds, attrs, cfg)
        assert len(trace) == 3
        assert trace[0].acc_s is None  # round 1 of 3, off-cadence
        assert trace[1].acc_s is not None  # (1+1) % 2 == 0
        assert trace[2].acc_s is not None  # final round always scores
        assert trace.final_params is not None
        assert trace.client_partition is not None

    def test_global_loss_is_the_gradient_call_total(self):
        # The per-round global loss runs forward-only; it must equal the
        # default call's total on the final model bit for bit.
        ds, attrs, distill = tiny_problem()
        cfg = tiny_config(distill)
        trace = run_simulation(ds, attrs, cfg)
        train, _, _ = split_train_test(ds, cfg.seed)
        report = joint_loss(
            trace.final_params, train.features, train.labels, attrs, distill, cfg.weights
        )
        assert trace[-1].global_loss == report.total

    def test_deterministic_metrics(self):
        ds, attrs, distill = tiny_problem()
        cfg = tiny_config(distill)
        a = metrics_to_csv(list(run_simulation(ds, attrs, cfg)))
        b = metrics_to_csv(list(run_simulation(ds, attrs, cfg)))
        assert a == b

    def test_thread_count_does_not_change_results(self):
        ds, attrs, distill = tiny_problem()
        cfg = tiny_config(distill)
        serial = run_simulation(ds, attrs, cfg, threads=1)
        threaded = run_simulation(ds, attrs, cfg, threads=4)
        assert metrics_to_csv(list(serial)) == metrics_to_csv(list(threaded))
        for name in serial.final_params.tensors():
            assert np.array_equal(
                serial.final_params.tensors()[name], threaded.final_params.tensors()[name]
            ), name

    def test_single_client_equals_centralized_training(self):
        # K=1 at unit scales is bitwise the plain seeded minibatch loop.
        ds, attrs, distill = tiny_problem(seed=4)
        cfg = tiny_config(
            distill,
            rounds=3,
            num_clients=1,
            partition=PartitionSpec(scheme="iid", num_clients=1, seed=4),
            seed=4,
        )
        trace = run_simulation(ds, attrs, cfg)
        train, _, _ = split_train_test(ds, cfg.seed)
        params = init_params(train.d_v, attrs.d_a, num_seen=6, mode=cfg.mode, seed=cfg.seed)
        for round_index in range(cfg.rounds):
            opt = init_opt_state(params, cfg.local_lr, cfg.momentum, cfg.weight_decay)
            rng = np.random.default_rng([cfg.seed, round_index, 0])
            for _ in range(cfg.local_epochs):
                order = rng.permutation(train.num_samples)
                for start in range(0, train.num_samples, cfg.batch_size):
                    batch = order[start : start + cfg.batch_size]
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
            assert np.array_equal(tensor, params.tensors()[name]), name

    def test_client_loss_statistics(self):
        ds, attrs, distill = tiny_problem()
        cfg = tiny_config(distill, rounds=1)
        train, _, _ = split_train_test(ds, cfg.seed)
        part = partition(train, cfg.partition)
        params = init_params(train.d_v, attrs.d_a, num_seen=6, mode=cfg.mode, seed=cfg.seed)
        updates = [
            local_train(params, train.subset(part.assignments[k]), attrs, cfg, 0, k)
            for k in range(cfg.num_clients)
        ]
        losses = np.array([u.mean_local_loss for u in updates])
        trace = run_simulation(ds, attrs, cfg)
        assert trace[0].client_loss_mean == pytest.approx(float(losses.mean()), rel=1e-12)
        assert trace[0].client_loss_std == pytest.approx(float(losses.std()), rel=1e-12)

    def test_partial_participation_only_trains_sampled_clients(self):
        ds, attrs, distill = tiny_problem()
        cfg = tiny_config(distill, num_clients=3, sample_fraction=0.5, rounds=2,
                          partition=PartitionSpec(scheme="pccd", num_clients=3, seed=0))
        chosen = sample_clients(3, 0.5, round_index=0, seed=cfg.seed)
        assert len(chosen) == 2
        trace = run_simulation(ds, attrs, cfg)
        assert len(trace) == 2

    def test_untrained_model_sits_near_chance(self):
        # Zero rounds are not expressible; one zero-lr round reports the
        # untrained model. Restricted unseen accuracy over 2 classes should
        # hover near 50 percent across seeds.
        accs = []
        for seed in range(5):
            ds, attrs, distill = tiny_problem(seed=seed)
            cfg = tiny_config(distill, rounds=1, local_lr=0.0, seed=seed,
                              partition=PartitionSpec(scheme="pccd", num_clients=2, seed=seed))
            trace = run_simulation(ds, attrs, cfg)
            accs.append(trace[0].acc_c)
        assert 20.0 <= float(np.mean(accs)) <= 80.0

    def test_attribute_free_mode_runs_and_reports_only_seen(self):
        ds, attrs, _ = tiny_problem()
        cfg = tiny_config(None, mode=ATTRIBUTE_FREE)
        trace = run_simulation(ds, attrs, cfg)
        assert trace[-1].acc_s is not None
        assert trace[-1].acc_c is None
        assert trace[-1].acc_h is None

    def test_kl_enabled_requires_distill(self):
        ds, attrs, _ = tiny_problem()
        cfg = tiny_config(None)
        with pytest.raises(FedError):
            run_simulation(ds, attrs, cfg)

    def test_global_divergence_is_reported(self):
        ds, attrs, distill = tiny_problem()
        cfg = tiny_config(distill, local_lr=1e9)
        with np.errstate(all="ignore"):
            with pytest.raises(TrainingDivergedError):
                run_simulation(ds, attrs, cfg)

    def test_non_finite_global_loss_is_reported(self, monkeypatch):
        # Clients stay finite; only the aggregated model blows up, so the
        # forward-only global loss is the check that must fire.
        real_aggregate = fed.aggregate

        def blown_up(*args, **kwargs):
            params = real_aggregate(*args, **kwargs)
            params.W_g *= 1e200
            assert np.all(np.isfinite(params.W_g))
            return params

        monkeypatch.setattr(fed, "aggregate", blown_up)
        ds, attrs, distill = tiny_problem()
        with np.errstate(all="ignore"):
            with pytest.raises(TrainingDivergedError, match="global loss non-finite after round 0"):
                run_simulation(ds, attrs, tiny_config(distill))

    @pytest.mark.parametrize("threads", [1, 2])
    def test_nothing_from_a_round_is_kept_across_the_global_loss(self, monkeypatch, threads):
        # Each client's copy of its rows, each update and its trained
        # tensors are released before the forward-only global loss and the
        # evaluation run.
        refs = []
        checked = []
        real_local_train = fed.local_train
        real_joint_loss = fed.joint_loss
        real_evaluate = fed.evaluate

        def tracked_local_train(global_params, client_data, *args, **kwargs):
            update = real_local_train(global_params, client_data, *args, **kwargs)
            refs.append(weakref.ref(client_data))
            refs.append(weakref.ref(update))
            refs.extend(weakref.ref(tensor) for tensor in update.trained.values())
            return update

        def assert_released(stage):
            gc.collect()
            alive = sum(ref() is not None for ref in refs)
            assert refs and alive == 0, f"{alive} of {len(refs)} alive at the {stage}"
            checked.append(stage)

        def tracked_joint_loss(*args, grads=True, **kwargs):
            if not grads:
                assert_released("global loss")
            return real_joint_loss(*args, grads=grads, **kwargs)

        def tracked_evaluate(*args, **kwargs):
            assert_released("evaluation")
            return real_evaluate(*args, **kwargs)

        monkeypatch.setattr(fed, "local_train", tracked_local_train)
        monkeypatch.setattr(fed, "joint_loss", tracked_joint_loss)
        monkeypatch.setattr(fed, "evaluate", tracked_evaluate)
        ds, attrs, distill = tiny_problem()
        cfg = tiny_config(
            distill,
            rounds=3,
            num_clients=3,
            partition=PartitionSpec(scheme="pccd", num_clients=3, seed=0),
        )
        run_simulation(ds, attrs, cfg, threads=threads)
        assert checked == ["global loss", "evaluation"] * cfg.rounds
        # Per client and round: its rows, its update and four trained tensors.
        assert len(refs) == cfg.rounds * cfg.num_clients * 6

    def test_every_client_loss_covers_all_prototypes(self):
        # Under class-disjoint partitioning each client still scores against
        # every class prototype, so an untrained single-class client's loss
        # is near log(num_classes), not log(1) = 0.
        ds, attrs, distill = tiny_problem()
        cfg = tiny_config(
            distill,
            num_clients=6,
            local_lr=0.0,
            rounds=1,
            weights=LossWeights(w_bc=0.0, w_kl=0.0, w_ad=0.0),
            partition=PartitionSpec(scheme="pccd", num_clients=6, seed=0),
        )
        trace = run_simulation(ds, attrs, cfg)
        assert trace[0].client_loss_mean > 0.5 * np.log(attrs.num_classes)


class TestClientUpdateRefusals:
    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("client_id", -1, "client_id must be >= 0, got -1"),
            ("num_local_classes", 0, "num_local_classes must be >= 1, got 0"),
            ("mean_local_loss", float("nan"), "mean_local_loss must be finite, got nan"),
            ("client_id", 1.9, "client_id must be an integer, got 1.9"),
            ("num_local_classes", 2.7, "num_local_classes must be an integer, got 2.7"),
            ("num_local_classes", float("inf"), "num_local_classes must be an integer, got inf"),
        ],
        ids=[
            "negative-client-id", "no-local-classes", "nan-loss", "fractional-client-id",
            "fractional-local-classes", "infinite-local-classes",
        ],
    )
    def test_rejects_bad_metadata(self, field, value, message):
        params = init_params(4, 2, num_seen=4, mode="attribute-based", seed=1)
        fields = dict(
            client_id=0, trained=params.tensors(), num_local_classes=1, mean_local_loss=0.0
        )
        fields[field] = value
        with pytest.raises(FedError, match=message):
            ClientUpdate(**fields)

    def test_whole_counts_load_as_ints(self):
        params = init_params(4, 2, num_seen=4, mode="attribute-based", seed=1)
        update = ClientUpdate(
            client_id=3.0, trained=params.tensors(), num_local_classes=2.0, mean_local_loss=0.0
        )
        assert (update.client_id, update.num_local_classes) == (3, 2)
        assert type(update.client_id) is int and type(update.num_local_classes) is int
