"""Loss values, closed forms, and finite-difference gradient verification.

Each attribute-based term is checked through its single-term view of
``joint_loss`` (only that flag on, unit weight).
"""
from __future__ import annotations

import math
import sys
import threading
import time
import tracemalloc
import warnings

import numpy as np
import pytest

from conftest import single_term
from fedzsl import _blas, _kernels, losses
from fedzsl.dataset import AttributeMatrix
from fedzsl.glasso import DistillTargets, distill_targets
from fedzsl.losses import (
    AblationFlags,
    DistillConfig,
    LossError,
    LossReport,
    LossWeights,
    NonFiniteLossError,
    ce_loss_attribute_free,
    joint_loss,
)
from fedzsl.model import ATTRIBUTE_BASED, ATTRIBUTE_FREE, ModelParams, init_opt_state, init_params

D_V, D_A, NUM_CLASSES = 8, 5, 6
FD_STEP = 1e-5
FD_TOL = 1e-4


def problem(seed: int):
    """A random instance: params, features, labels, attributes, targets."""
    rng = np.random.default_rng(seed)
    params = init_params(D_V, D_A, num_seen=4, mode=ATTRIBUTE_BASED, seed=seed)
    features = rng.standard_normal((7, D_V))
    labels = rng.integers(0, NUM_CLASSES, size=7)
    raw = rng.standard_normal((D_A, NUM_CLASSES))
    values = raw / np.linalg.norm(raw, axis=0, keepdims=True)
    attrs = AttributeMatrix(values=values, groups=((0, 2), (2, 5)))
    gamma = rng.standard_normal((NUM_CLASSES, NUM_CLASSES))
    gamma = gamma @ gamma.T / NUM_CLASSES
    distill = DistillConfig(tau=4.0, targets=distill_targets(gamma, tau=4.0))
    return params, features, labels, attrs, distill


def fd_relative_error(loss_fn, params: ModelParams, names: tuple[str, ...]) -> float:
    """Packed central-difference gradient error over the named tensors."""
    report = loss_fn()
    analytic: list[np.ndarray] = []
    numeric: list[np.ndarray] = []
    for name in names:
        tensor = params.tensors()[name]
        grad_fd = np.zeros_like(tensor)
        for idx in np.ndindex(tensor.shape):
            original = tensor[idx]
            tensor[idx] = original + FD_STEP
            up = loss_fn().total
            tensor[idx] = original - FD_STEP
            down = loss_fn().total
            tensor[idx] = original
            grad_fd[idx] = (up - down) / (2.0 * FD_STEP)
        analytic.append(report.grads[name].ravel())
        numeric.append(grad_fd.ravel())
    a = np.concatenate(analytic)
    n = np.concatenate(numeric)
    return float(np.linalg.norm(a - n) / max(np.linalg.norm(a) + np.linalg.norm(n), 1e-12))


class TestSce:
    def test_gradient_matches_finite_differences(self):
        params, features, labels, attrs, _ = problem(0)
        err = fd_relative_error(
            lambda: single_term("sce", params, features, labels, attrs),
            params,
            ("W_g", "b_g", "W_h", "b_h"),
        )
        assert err < FD_TOL

    def test_zero_scores_give_log_num_classes(self):
        _, features, labels, attrs, _ = problem(1)
        params = ModelParams(
            W_g=np.zeros((D_A, D_V)),
            b_g=np.zeros(D_A),
            W_h=np.zeros((D_V, D_A)),
            b_h=np.zeros(D_V),
        )
        report = single_term("sce", params, features, labels, attrs)
        assert report.total == pytest.approx(math.log(NUM_CLASSES), rel=1e-12)

    def test_invariant_under_constant_logit_shift(self):
        # Appending an attribute dimension that is 1 for every prototype and
        # feeding it a constant bias shifts every logit equally.
        params, features, labels, attrs, _ = problem(3)
        shifted_values = np.vstack([attrs.values, np.ones(NUM_CLASSES)])
        shifted_attrs = AttributeMatrix(values=shifted_values, groups=((0, D_A + 1),))
        shifted_params = ModelParams(
            W_g=np.vstack([params.W_g, np.zeros(D_V)]),
            b_g=np.concatenate([params.b_g, [7.25]]),
            W_h=np.hstack([params.W_h, np.zeros((D_V, 1))]),
            b_h=params.b_h.copy(),
        )
        base = single_term("sce", params, features, labels, attrs)
        shifted = single_term("sce", shifted_params, features, labels, shifted_attrs)
        assert shifted.total == pytest.approx(base.total, rel=1e-12)
        assert np.allclose(shifted.grads["W_g"][:D_A], base.grads["W_g"], atol=1e-12)

    def test_candidates_cover_labels(self):
        # The candidates are every class of A; a label past them is rejected.
        params, features, _, attrs, _ = problem(4)
        with pytest.raises(LossError):
            single_term("sce", params, features, np.full(7, NUM_CLASSES), attrs)

    def test_wrong_mode_is_rejected(self):
        _, features, labels, attrs, _ = problem(5)
        free = init_params(D_V, D_A, num_seen=4, mode=ATTRIBUTE_FREE, seed=0)
        with pytest.raises(LossError):
            single_term("sce", free, features, labels, attrs)


def bias_only(b_g: np.ndarray) -> ModelParams:
    """Params whose predicted attributes are ``b_g`` for every input (W_g = 0)."""
    d_a = b_g.shape[0]
    return ModelParams(
        W_g=np.zeros((d_a, D_V)), b_g=b_g, W_h=np.zeros((D_V, d_a)), b_h=np.zeros(D_V)
    )


class TestAd:
    def test_known_group_norms(self):
        # One sample, groups (0,2) and (2,4): norms 5 and 0.
        attrs = AttributeMatrix(values=np.eye(4), groups=((0, 2), (2, 4)))
        params = bias_only(np.array([3.0, 4.0, 0.0, 0.0]))
        report = single_term("ad", params, np.ones((1, D_V)), np.array([0]), attrs)
        assert report.total == pytest.approx(5.0, rel=1e-15)
        assert np.allclose(report.grads["b_g"][:2], [0.6, 0.8])
        assert np.allclose(report.grads["b_g"][2:], 0.0)

    def test_batch_mean(self):
        # a_hat rows (3, 4) and (0, 0) from a one-feature regressor.
        attrs = AttributeMatrix(values=np.eye(2), groups=((0, 2),))
        params = ModelParams(
            W_g=np.array([[3.0], [4.0]]), b_g=np.zeros(2), W_h=np.zeros((1, 2)), b_h=np.zeros(1)
        )
        report = single_term("ad", params, np.array([[1.0], [0.0]]), np.array([0, 0]), attrs)
        assert report.total == pytest.approx(2.5, rel=1e-15)

    def test_zero_input_gives_zero_loss_and_gradient(self):
        attrs = AttributeMatrix(values=np.ones((6, 2)), groups=((0, 3), (3, 6)))
        features = np.random.default_rng(6).standard_normal((4, D_V))
        report = single_term("ad", bias_only(np.zeros(6)), features, np.zeros(4, int), attrs)
        assert report.total == 0.0
        assert all(np.all(grad == 0.0) for grad in report.grads.values())

    def test_gradient_matches_finite_differences(self):
        params, features, labels, attrs, _ = problem(6)
        err = fd_relative_error(
            lambda: single_term("ad", params, features, labels, attrs),
            params,
            ("W_g", "b_g", "W_h", "b_h"),
        )
        assert err < FD_TOL

    def test_groups_must_partition(self):
        # The groups come from the attribute matrix, so its d_a must match
        # the regressor's output width.
        _, features, labels, attrs, _ = problem(6)
        wide = init_params(D_V, D_A + 1, num_seen=4, mode=ATTRIBUTE_BASED, seed=0)
        with pytest.raises(LossError):
            single_term("ad", wide, features, labels, attrs)


class TestKl:
    def test_gradient_matches_finite_differences(self):
        params, features, labels, attrs, distill = problem(7)
        err = fd_relative_error(
            lambda: single_term("kl", params, features, labels, attrs, distill),
            params,
            ("W_g", "b_g", "W_h", "b_h"),
        )
        assert err < FD_TOL

    def test_perfect_match_gives_zero(self):
        # With identity attributes and an identity regressor, feeding the
        # similarity rows reproduces the target distributions exactly.
        n = 3
        rng = np.random.default_rng(8)
        gamma = rng.standard_normal((n, n))
        gamma = gamma + gamma.T
        targets = distill_targets(gamma, tau=2.0)
        attrs = AttributeMatrix(values=np.eye(n), groups=((0, n),))
        params = ModelParams(
            W_g=np.eye(n), b_g=np.zeros(n), W_h=np.zeros((n, n)), b_h=np.zeros(n)
        )
        labels = np.arange(n)
        cfg = DistillConfig(tau=2.0, targets=targets)
        report = single_term("kl", params, gamma[labels], labels, attrs, cfg)
        assert report.total == pytest.approx(0.0, abs=1e-12)
        assert np.allclose(report.grads["W_g"], 0.0, atol=1e-12)

    def test_two_class_worked_example(self):
        # Uniform prediction against a one-hot target at tau=1 costs ln 2.
        attrs = AttributeMatrix(values=np.eye(2), groups=((0, 2),))
        params = ModelParams(
            W_g=np.zeros((2, 2)), b_g=np.zeros(2), W_h=np.zeros((2, 2)), b_h=np.zeros(2)
        )
        targets = DistillTargets(probs=np.array([[1.0, 0.0], [0.0, 1.0]]), tau=1.0)
        cfg = DistillConfig(tau=1.0, targets=targets)
        report = single_term("kl", params, np.ones((1, 2)), np.array([0]), attrs, cfg)
        assert report.total == pytest.approx(math.log(2.0), rel=1e-12)

    def test_tau_squared_scaling_of_the_value(self):
        # A zero regressor predicts uniform at any tau, so the value scales
        # exactly with tau^2 against a fixed one-hot target.
        attrs = AttributeMatrix(values=np.eye(2), groups=((0, 2),))
        params = ModelParams(
            W_g=np.zeros((2, 2)), b_g=np.zeros(2), W_h=np.zeros((2, 2)), b_h=np.zeros(2)
        )
        probs = np.array([[1.0, 0.0], [0.0, 1.0]])
        losses = {}
        for tau in (1.0, 3.0):
            cfg = DistillConfig(tau=tau, targets=DistillTargets(probs=probs, tau=tau))
            losses[tau] = single_term(
                "kl", params, np.ones((1, 2)), np.array([0]), attrs, cfg
            ).total
        assert losses[3.0] == pytest.approx(9.0 * losses[1.0], rel=1e-12)

    def test_tau_mismatch_is_rejected(self):
        targets = DistillTargets(probs=np.array([[0.5, 0.5]]), tau=2.0)
        with pytest.raises(LossError):
            DistillConfig(tau=4.0, targets=targets)

    def test_targets_must_cover_all_classes(self):
        params, features, labels, attrs, _ = problem(9)
        small = DistillTargets(probs=np.full((2, 2), 0.5), tau=4.0)
        with pytest.raises(LossError):
            single_term(
                "kl", params, features, labels, attrs, DistillConfig(tau=4.0, targets=small)
            )


class TestBc:
    def test_gradient_matches_finite_differences_squared(self):
        params, features, labels, attrs, _ = problem(10)
        err = fd_relative_error(
            lambda: single_term("bc", params, features, labels, attrs),
            params,
            ("W_g", "b_g", "W_h", "b_h"),
        )
        assert err < FD_TOL

    def test_perfect_reconstruction_gives_zero(self):
        # Square invertible regressor with its exact inverse as decoder.
        rng = np.random.default_rng(12)
        W = rng.standard_normal((4, 4)) + 4.0 * np.eye(4)
        params = ModelParams(
            W_g=W, b_g=np.zeros(4), W_h=np.linalg.inv(W), b_h=np.zeros(4)
        )
        features = rng.standard_normal((6, 4))
        attrs = AttributeMatrix(values=np.eye(4), groups=((0, 4),))
        report = single_term("bc", params, features, np.zeros(6, int), attrs)
        assert report.total == pytest.approx(0.0, abs=1e-20)

    def test_zero_decoder_measures_feature_norms(self):
        rng = np.random.default_rng(13)
        features = rng.standard_normal((5, D_V))
        params = ModelParams(
            W_g=np.zeros((D_A, D_V)),
            b_g=np.zeros(D_A),
            W_h=np.zeros((D_V, D_A)),
            b_h=np.zeros(D_V),
        )
        _, _, _, attrs, _ = problem(13)
        labels = np.zeros(5, int)
        squared = single_term("bc", params, features, labels, attrs).total
        norms = np.linalg.norm(features, axis=1)
        assert squared == pytest.approx(float((norms**2).mean()), rel=1e-12)


class TestCe:
    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(14)
        params = init_params(D_V, D_A, num_seen=4, mode=ATTRIBUTE_FREE, seed=14)
        features = rng.standard_normal((7, D_V))
        labels = rng.choice([0, 2, 5, 9], size=7)
        seen = (0, 2, 5, 9)
        err = fd_relative_error(
            lambda: ce_loss_attribute_free(params, features, labels, seen),
            params,
            ("W_c", "b_c"),
        )
        assert err < FD_TOL

    def test_uniform_head_gives_log_seen_count(self):
        params = ModelParams(
            W_g=np.zeros((D_A, D_V)),
            b_g=np.zeros(D_A),
            W_h=np.zeros((D_V, D_A)),
            b_h=np.zeros(D_V),
            mode=ATTRIBUTE_FREE,
            W_c=np.zeros((4, D_V)),
            b_c=np.zeros(4),
        )
        features = np.ones((3, D_V))
        report = ce_loss_attribute_free(params, features, np.array([0, 2, 5]), (0, 2, 5, 9))
        assert report.total == pytest.approx(math.log(4.0), rel=1e-12)

    def test_head_rows_follow_sorted_seen_order(self):
        # Row i scores the i-th smallest seen id; a huge bias on row 1 must
        # pull every sample toward seen id 2 regardless of unsorted input.
        params = ModelParams(
            W_g=np.zeros((D_A, D_V)),
            b_g=np.zeros(D_A),
            W_h=np.zeros((D_V, D_A)),
            b_h=np.zeros(D_V),
            mode=ATTRIBUTE_FREE,
            W_c=np.zeros((3, D_V)),
            b_c=np.array([0.0, 1000.0, 0.0]),
        )
        features = np.ones((1, D_V))
        confident = ce_loss_attribute_free(params, features, np.array([2]), (9, 2, 0))
        assert confident.total == pytest.approx(0.0, abs=1e-6)

    def test_label_outside_seen_is_rejected(self):
        params = init_params(D_V, D_A, num_seen=3, mode=ATTRIBUTE_FREE, seed=0)
        with pytest.raises(LossError):
            ce_loss_attribute_free(params, np.ones((1, D_V)), np.array([7]), (0, 1, 2))

    @pytest.mark.parametrize(
        "seen, shown", [((0.5, 1.2, 2.9), "0.5"), ((0, 1, np.inf), "inf")], ids=["0.5", "inf"]
    )
    def test_rejects_non_integral_seen_classes(self, seen, shown):
        # Truncating would give the loss of seen classes (0, 1, 2).
        params = init_params(D_V, D_A, num_seen=3, mode=ATTRIBUTE_FREE, seed=0)
        message = f"^ce_loss_attribute_free: seen_classes must be integers, got {shown}$"
        with pytest.raises(LossError, match=message):
            ce_loss_attribute_free(params, np.ones((2, D_V)), np.array([0, 1]), seen)

    def test_integral_float_seen_classes_give_the_integer_result(self):
        params = init_params(D_V, D_A, num_seen=3, mode=ATTRIBUTE_FREE, seed=0)
        features = np.random.default_rng(3).standard_normal((4, D_V))
        labels = np.array([0, 2, 5, 2])
        as_ints = ce_loss_attribute_free(params, features, labels, (0, 2, 5))
        as_floats = ce_loss_attribute_free(params, features, labels, (5.0, 0.0, 2.0))
        assert as_floats.total == as_ints.total
        assert as_floats.grads["W_c"].tobytes() == as_ints.grads["W_c"].tobytes()

    def test_head_size_must_match_seen(self):
        params = init_params(D_V, D_A, num_seen=3, mode=ATTRIBUTE_FREE, seed=0)
        with pytest.raises(LossError):
            ce_loss_attribute_free(params, np.ones((1, D_V)), np.array([0]), (0, 1))


class TestJoint:
    def test_gradient_matches_finite_differences(self):
        params, features, labels, attrs, distill = problem(15)
        weights = LossWeights(w_bc=0.1, w_kl=10.0, w_ad=0.3)
        err = fd_relative_error(
            lambda: joint_loss(params, features, labels, attrs, distill, weights),
            params,
            ("W_g", "b_g", "W_h", "b_h"),
        )
        assert err < FD_TOL

    @pytest.mark.parametrize(
        "bad, shown", [(0.7, "0.7"), (np.nan, "nan"), (np.inf, "inf")], ids=["0.7", "nan", "inf"]
    )
    def test_rejects_non_integral_labels(self, bad, shown):
        params, features, labels, attrs, distill = problem(15)
        labels = labels.astype(np.float64)
        labels[3] = bad
        with pytest.raises(LossError, match=f"^joint_loss: labels must be integers, got {shown}$"):
            joint_loss(params, features, labels, attrs, distill, LossWeights())

    def test_integral_float_labels_give_the_integer_result(self):
        params, features, labels, attrs, distill = problem(15)
        as_ints = joint_loss(params, features, labels, attrs, distill, LossWeights())
        as_floats = joint_loss(
            params, features, labels.astype(np.float64), attrs, distill, LossWeights()
        )
        assert as_floats.total == as_ints.total

    def test_total_is_the_sum_of_reported_terms(self):
        params, features, labels, attrs, distill = problem(16)
        report = joint_loss(params, features, labels, attrs, distill, LossWeights())
        assert set(report.terms) == {"sce", "bc", "kl", "ad"}
        assert report.total == pytest.approx(sum(report.terms.values()), rel=1e-15)

    def test_terms_store_weighted_values(self):
        params, features, labels, attrs, distill = problem(17)
        weights = LossWeights(w_bc=0.25, w_kl=2.0, w_ad=0.5)
        report = joint_loss(params, features, labels, attrs, distill, weights)
        args = (params, features, labels, attrs, distill)
        assert report.terms["sce"] == single_term("sce", *args).total
        assert report.terms["bc"] == 0.25 * single_term("bc", *args).total
        assert report.terms["kl"] == 2.0 * single_term("kl", *args).total
        assert report.terms["ad"] == 0.5 * single_term("ad", *args).total

    def test_sce_only_matches_the_standalone_loss(self):
        params, features, labels, attrs, distill = problem(18)
        only = AblationFlags(sce=True, bc=False, kl=False, ad=False)
        report = joint_loss(params, features, labels, attrs, None, LossWeights(), ablation=only)
        zero_weights = LossWeights(w_bc=0.0, w_kl=0.0, w_ad=0.0)
        standalone = joint_loss(params, features, labels, attrs, distill, zero_weights)
        full = joint_loss(params, features, labels, attrs, distill, LossWeights())
        assert report.total == standalone.total == full.terms["sce"]
        for name in report.grads:
            assert np.array_equal(report.grads[name], standalone.grads[name]), name

    def test_sce_reads_the_shared_scores_before_kl_scales_them(self):
        # SCE and KL share one a_hat @ A product that KL divides by tau in
        # place; each term must still equal its single-term value exactly.
        params, features, labels, attrs, distill = problem(23)
        both = AblationFlags(sce=True, bc=False, kl=True, ad=False)
        report = joint_loss(
            params, features, labels, attrs, distill, LossWeights(w_kl=3.0), ablation=both
        )
        args = (params, features, labels, attrs, distill)
        sce, kl = single_term("sce", *args), single_term("kl", *args)
        assert report.terms == {"sce": sce.total, "kl": 3.0 * kl.total}
        expected = sce.grads["W_g"] + 3.0 * kl.grads["W_g"]
        assert np.allclose(report.grads["W_g"], expected, atol=1e-12)

    def test_flag_off_and_weight_zero_are_bit_identical(self):
        params, features, labels, attrs, distill = problem(19)
        by_flag = joint_loss(
            params,
            features,
            labels,
            attrs,
            distill,
            LossWeights(),
            ablation=AblationFlags(bc=False),
        )
        by_weight = joint_loss(
            params, features, labels, attrs, distill, LossWeights(w_bc=0.0)
        )
        assert by_flag.total == by_weight.total
        assert by_flag.terms == by_weight.terms
        for name in by_flag.grads:
            assert np.array_equal(by_flag.grads[name], by_weight.grads[name]), name

    def test_gradients_add_across_terms(self):
        params, features, labels, attrs, distill = problem(20)
        weights = LossWeights(w_bc=0.1, w_kl=10.0, w_ad=0.3)
        report = joint_loss(params, features, labels, attrs, distill, weights)
        args = (params, features, labels, attrs, distill)
        expected = (
            single_term("sce", *args).grads["W_g"]
            + 0.1 * single_term("bc", *args).grads["W_g"]
            + 10.0 * single_term("kl", *args).grads["W_g"]
            + 0.3 * single_term("ad", *args).grads["W_g"]
        )
        assert np.allclose(report.grads["W_g"], expected, atol=1e-12)

    def test_forward_only_matches_the_gradient_call_bit_for_bit(self):
        # grads=False shares the forward arithmetic, so total and terms are
        # exactly those of the default call and no gradient is reported.
        params, features, labels, attrs, distill = problem(24)
        args = (params, features, labels, attrs, distill)
        calls = {
            "full": lambda **kw: joint_loss(*args, LossWeights(), **kw),
            "zero bc weight": lambda **kw: joint_loss(*args, LossWeights(w_bc=0.0), **kw),
        }
        for term in ("sce", "bc", "kl", "ad"):
            calls[term] = lambda term=term, **kw: single_term(term, *args, **kw)
        free = init_params(D_V, D_A, num_seen=4, mode=ATTRIBUTE_FREE, seed=24)
        seen = (0, 1, 2, 3)
        calls["attribute-free ce"] = lambda **kw: ce_loss_attribute_free(
            free, features, labels % 4, seen, **kw
        )
        for name, call in calls.items():
            with_grads, forward = call(), call(grads=False)
            assert forward.total == with_grads.total, name
            assert forward.terms == with_grads.terms, name
            assert forward.grads == {}, name
            assert with_grads.grads, name

    def test_kl_enabled_without_targets_is_rejected(self):
        params, features, labels, attrs, _ = problem(22)
        with pytest.raises(LossError):
            joint_loss(params, features, labels, attrs, None, LossWeights())

    @pytest.mark.parametrize(
        "labels",
        [np.zeros(9, int), np.zeros(2, int), np.zeros((2, 2), int), np.zeros((4, 1), int), 0],
        ids=["too-many", "too-few", "2x2", "column", "scalar"],
    )
    @pytest.mark.parametrize("grads", [True, False])
    def test_labels_must_be_one_per_feature_row(self, labels, grads):
        params, _, _, attrs, distill = problem(25)
        features = np.ones((4, D_V))
        with pytest.raises(LossError, match=r"labels must have shape \(4,\)"):
            joint_loss(params, features, labels, attrs, distill, LossWeights(), grads=grads)
        free = init_params(D_V, D_A, num_seen=4, mode=ATTRIBUTE_FREE, seed=25)
        with pytest.raises(LossError, match=r"labels must have shape \(4,\)"):
            ce_loss_attribute_free(free, features, labels, (0, 1, 2, 3), grads=grads)

    def test_all_losses_are_nonnegative(self):
        for seed in range(5):
            args = problem(30 + seed)
            assert single_term("sce", *args).total >= 0.0
            assert single_term("bc", *args).total >= 0.0
            assert single_term("kl", *args).total >= -1e-12
            assert single_term("ad", *args).total >= 0.0

    def test_non_finite_values_raise_the_dedicated_error(self):
        with pytest.raises(NonFiniteLossError):
            LossReport(total=float("inf"), terms={}, grads={})
        with pytest.raises(NonFiniteLossError):
            LossReport(total=1.0, terms={"sce": float("nan")}, grads={})
        with pytest.raises(NonFiniteLossError):
            LossReport(total=1.0, terms={}, grads={"W_g": np.array([np.inf])})

    def test_finite_gradient_whose_sum_overflows_is_accepted(self):
        big = np.full((3, 2), np.finfo(np.float64).max)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            report = LossReport(total=1.0, terms={}, grads={"W_g": big, "b_g": -big[0]})
        assert report.grads["W_g"] is big

    @pytest.mark.parametrize(
        "bad",
        [[np.nan], [np.inf], [-np.inf], [np.inf, -np.inf]],
        ids=["nan", "+inf", "-inf", "+inf-and--inf"],
    )
    def test_non_finite_gradient_entries_name_the_tensor(self, bad):
        grad = np.zeros((4, 3))
        grad.flat[: len(bad)] = bad
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NonFiniteLossError, match="gradient for 'W_h' is non-finite"):
                LossReport(total=1.0, terms={}, grads={"b_g": np.ones(2), "W_h": grad})

    def test_weights_must_be_nonnegative(self):
        with pytest.raises(LossError):
            LossWeights(w_kl=-1.0)


class TestAllocation:
    def test_forward_only_peak_is_the_live_arrays_plus_one_block(self):
        # CUB-like shape.  a_hat lives through the whole call; the class
        # scores are released before BC allocates its residual, so only the
        # larger of the two is live beside it.  Everything else is a per-row
        # vector or a block-sized temporary.
        rows, d_a, d_v, classes = 2000, 312, 256, 200
        rng = np.random.default_rng(0)
        raw = rng.standard_normal((d_a, classes))
        attrs = AttributeMatrix(
            values=raw / np.linalg.norm(raw, axis=0), groups=((0, 100), (100, 212), (212, 312))
        )
        gamma = rng.standard_normal((classes, classes))
        distill = DistillConfig(tau=4.0, targets=distill_targets(gamma @ gamma.T / classes, 4.0))
        params = init_params(d_v, d_a, num_seen=150, mode=ATTRIBUTE_BASED, seed=0)
        features = rng.standard_normal((rows, d_v))
        labels = rng.integers(0, classes, size=rows)
        live = 8 * rows * (d_a + max(classes, d_v))
        block = 8 * losses._ROW_BLOCK * max(d_a, classes, d_v)
        # Float32 features, as features.bin loads them, are widened only
        # inside the first product, never held as a float64 copy.
        for batch in (features, features.astype(np.float32)):
            tracemalloc.start()
            try:
                joint_loss(params, batch, labels, attrs, distill, LossWeights(), grads=False)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < live + 4 * block, batch.dtype

    def test_forward_only_holds_no_full_split_array(self):
        # A CUB-sized split of float32 features: the forward-only loss walks
        # it in blocks of rows, so beside per-row vectors its peak stays
        # below one array over all rows of the narrowest width (the class
        # scores').  The numpy bodies add BC's full-length vector of squares.
        rows, d_a, d_v, classes = 4800, 312, 256, 200
        rng = np.random.default_rng(1)
        raw = rng.standard_normal((d_a, classes))
        attrs = AttributeMatrix(
            values=raw / np.linalg.norm(raw, axis=0), groups=((0, 100), (100, 212), (212, 312))
        )
        distill = DistillConfig(tau=4.0, targets=distill_targets(np.eye(classes), 4.0))
        params = init_params(d_v, d_a, num_seen=150, mode=ATTRIBUTE_BASED, seed=1)
        features = rng.standard_normal((rows, d_v)).astype(np.float32)
        labels = rng.integers(0, classes, size=rows)
        bound = 8 * rows * classes
        if _kernels.compiled() is None:
            bound += 8 * rows * d_v
        tracemalloc.start()
        try:
            joint_loss(params, features, labels, attrs, distill, LossWeights(), grads=False)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < bound, (peak, bound)

    def test_a_numpy_bodies_workspace_holds_no_softmax_array_but_out(self, monkeypatch):
        # CUB shapes at batch 64: the numpy bodies read neither the
        # exponentials nor their row sums, so each softmax term's work
        # buffer is its ``out`` and the 64 bytes that align it.
        monkeypatch.setattr(_kernels, "compiled", lambda: None)
        rows, d_a, d_v, classes = 200, 312, 256, 200
        rng = np.random.default_rng(2)
        attrs = AttributeMatrix(
            values=rng.standard_normal((d_a, classes)), groups=((0, 100), (100, 212), (212, 312))
        )
        distill = DistillConfig(tau=4.0, targets=distill_targets(np.eye(classes), 4.0))
        params = init_params(d_v, d_a, num_seen=150, mode=ATTRIBUTE_BASED, seed=2)
        features = rng.standard_normal((rows, d_v)).astype(np.float32)
        labels = rng.integers(0, classes, size=rows)
        work = losses.StepWorkspace(
            params, features, labels, 64, A=attrs, distill=distill, weights=LossWeights()
        )
        for softmax in (work._sce_work, work._kl_work):
            assert softmax.out.shape == (64, classes)
            buffer = softmax.out
            while buffer.base is not None:
                buffer = buffer.base
            assert buffer.nbytes == softmax.out.nbytes + 64


class TestStepWorkspace:
    # A step's transients are numpy's own: a ufunc call that broadcasts (the
    # bias adds) sets up an iteration buffer of about 33 KB and frees it
    # before it returns.  Nothing batch- or parameter-sized is allocated.
    STEP_BOUND = 48 * 1024

    @pytest.mark.parametrize("mode", [ATTRIBUTE_BASED, ATTRIBUTE_FREE])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64], ids=["float32", "float64"])
    def test_steps_after_the_first_allocate_under_a_small_fixed_bound(self, mode, dtype):
        # AwA-shaped, batch 16 over 200 rows, so the last batch is a tail of
        # 8; the compiled kernels, or the numpy bodies when they are not
        # built (the suite also runs this class with compiled() patched to
        # None).  One gradient array, W_g or W_c, is far larger.
        params, features, labels, attrs, distill = awa_shaped(200, dtype)
        if mode == ATTRIBUTE_FREE:
            params = init_params(256, 85, num_seen=50, mode=ATTRIBUTE_FREE, seed=0)
        opt = init_opt_state(params, 0.01, 0.9, 1e-5)
        work = losses.StepWorkspace(
            params, features, labels, 16, A=attrs, distill=distill, weights=LossWeights(),
            seen=range(50), opt=opt,
        )
        order = np.random.default_rng(0).permutation(200)
        work.step(order[:16])
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            for at in range(16, 200, 16):
                work.step(order[at : at + 16])
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        gradient = params.W_g if mode == ATTRIBUTE_BASED else params.W_c
        assert peak - start < self.STEP_BOUND < gradient.nbytes / 2, peak - start
        assert held - start < 16 * 1024, held - start

    @pytest.mark.parametrize("grads_of", ["joint", "free"])
    def test_public_losses_return_arrays_that_later_calls_do_not_touch(self, grads_of):
        # Each call runs in a workspace of its own: a second call writes
        # none of the first's gradients, and neither shares memory with it.
        params, features, labels, attrs, distill = problem(0)
        if grads_of == "free":
            params = init_params(D_V, D_A, num_seen=NUM_CLASSES, mode=ATTRIBUTE_FREE, seed=0)

        def call(rows):
            if grads_of == "joint":
                return joint_loss(
                    params, features[rows], labels[rows], attrs, distill, LossWeights()
                )
            return ce_loss_attribute_free(
                params, features[rows], labels[rows], range(NUM_CLASSES)
            )

        first = call(slice(0, 7))
        kept = {name: grad.copy() for name, grad in first.grads.items()}
        second = call(slice(2, 5))
        assert list(second.grads) == list(first.grads)
        for name, grad in first.grads.items():
            assert grad.tobytes() == kept[name].tobytes(), name
            for other in second.grads.values():
                assert not np.shares_memory(grad, other), name
        assert any(
            second.grads[name].tobytes() != kept[name].tobytes() for name in kept
        )

    def test_a_workspace_refuses_what_the_loss_refuses_before_any_step(self):
        # Every label of the client is checked once, when the workspace is
        # built, with the message the loss gives.
        params, features, labels, attrs, distill = problem(1)
        labels = labels.copy()
        labels[-1] = NUM_CLASSES
        with pytest.raises(LossError, match="a label is outside the attribute matrix classes"):
            losses.StepWorkspace(
                params, features, labels, 4, A=attrs, distill=distill, weights=LossWeights()
            )
        free = init_params(D_V, D_A, num_seen=3, mode=ATTRIBUTE_FREE, seed=0)
        with pytest.raises(LossError, match="is not among the candidate classes"):
            losses.StepWorkspace(free, features, np.array([0, 1, 2, 3, 0, 1, 2]), 4, seen=[0, 1, 2])


def awa_shaped(rows: int, dtype, seed: int = 0, d_a: int = 85, d_v: int = 256, classes: int = 50):
    """Params, features, labels, attributes and targets, AwA-shaped by default."""
    rng = np.random.default_rng(seed)
    raw = rng.standard_normal((d_a, classes))
    cuts = (d_a * 20 // 85, d_a * 51 // 85)
    attrs = AttributeMatrix(
        values=raw / np.linalg.norm(raw, axis=0), groups=((0, cuts[0]), cuts, (cuts[1], d_a))
    )
    gamma = rng.standard_normal((classes, classes))
    distill = DistillConfig(tau=4.0, targets=distill_targets(gamma @ gamma.T / classes, 4.0))
    params = init_params(d_v, d_a, num_seen=classes * 4 // 5, mode=ATTRIBUTE_BASED, seed=seed)
    params.b_h = rng.standard_normal(d_v)
    features = rng.standard_normal((rows, d_v)).astype(dtype)
    labels = rng.integers(0, classes, size=rows)
    return params, features, labels, attrs, distill


class TestForwardOnlyBlocks:
    @pytest.mark.parametrize("body", ["compiled", "numpy"])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64], ids=["float32", "float64"])
    @pytest.mark.parametrize("rows", [16, 255, 256, 257, 511, 513, 700, 1200, 3840])
    def test_every_term_is_the_gradient_calls_bytes(self, monkeypatch, rows, dtype, body):
        # Blocks of 256 or more rows give the whole products' bits under one
        # BLAS thread, and each term's per-row values are reduced once.
        if body == "compiled" and _kernels.compiled() is None:
            pytest.skip("the compiled kernels are not built")
        if body == "numpy":
            monkeypatch.setattr(_kernels, "compiled", lambda: None)
        args = awa_shaped(rows, dtype, seed=rows)
        with _blas.one_thread() as pinned:
            if not pinned:
                pytest.skip("numpy's bundled OpenBLAS is not found")
            with_grads = joint_loss(*args, LossWeights())
            forward = joint_loss(*args, LossWeights(), grads=False)
        assert forward.total.hex() == with_grads.total.hex()
        assert {k: v.hex() for k, v in forward.terms.items()} == {
            k: v.hex() for k, v in with_grads.terms.items()
        }
        assert list(forward.terms) == ["sce", "bc", "kl", "ad"]

    @pytest.mark.parametrize("body", ["compiled", "numpy"])
    @pytest.mark.parametrize(
        "d_a, d_v, classes, rows",
        [(16, 32, 10, 4800), (6, 8, 8, 767), (6, 8, 8, 4800), (200, 32, 120, 640), (150, 64, 40, 960)],
    )
    def test_narrow_and_odd_shapes_are_the_gradient_calls_bytes(
        self, monkeypatch, d_a, d_v, classes, rows, body
    ):
        # Narrow products, where OpenBLAS may take its small-matrix path for
        # a block and not for the whole product, and the CLI smoke shapes,
        # each over two or more blocks.  Verified only on OpenBLAS 0.3.31's
        # SkylakeX kernels.
        if body == "compiled" and _kernels.compiled() is None:
            pytest.skip("the compiled kernels are not built")
        if body == "numpy":
            monkeypatch.setattr(_kernels, "compiled", lambda: None)
        args = awa_shaped(rows, np.float32, seed=rows + d_a, d_a=d_a, d_v=d_v, classes=classes)
        assert len(list(losses._forward_blocks(rows))) >= 2
        with _blas.one_thread() as pinned:
            if not pinned:
                pytest.skip("numpy's bundled OpenBLAS is not found")
            with_grads = joint_loss(*args, LossWeights())
            forward = joint_loss(*args, LossWeights(), grads=False)
        assert {k: v.hex() for k, v in forward.terms.items()} == {
            k: v.hex() for k, v in with_grads.terms.items()
        }
        assert forward.total.hex() == with_grads.total.hex()

    @pytest.mark.parametrize("body", ["compiled", "numpy"])
    @pytest.mark.parametrize("rows", [255, 700, 1200, 3840])
    def test_the_attribute_free_loss_is_the_gradient_calls_bytes(self, monkeypatch, rows, body):
        if body == "compiled" and _kernels.compiled() is None:
            pytest.skip("the compiled kernels are not built")
        if body == "numpy":
            monkeypatch.setattr(_kernels, "compiled", lambda: None)
        rng = np.random.default_rng(rows)
        params = init_params(256, 85, num_seen=40, mode=ATTRIBUTE_FREE, seed=rows)
        features = rng.standard_normal((rows, 256)).astype(np.float32)
        labels = rng.integers(0, 40, size=rows)
        with _blas.one_thread() as pinned:
            if not pinned:
                pytest.skip("numpy's bundled OpenBLAS is not found")
            with_grads = ce_loss_attribute_free(params, features, labels, range(40))
            forward = ce_loss_attribute_free(params, features, labels, range(40), grads=False)
        assert forward.total.hex() == with_grads.total.hex()

    @pytest.mark.parametrize("body", ["compiled", "numpy"])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64], ids=["float32", "float64"])
    def test_block_0_run_last_gives_the_gradient_calls_bytes(self, monkeypatch, dtype, body):
        # Block 0 waits until every later block has run (three blocks), so
        # each per-row vector and BC's leaf table fill out of row order;
        # each is still reduced once, after its blocks.
        if body == "compiled" and _kernels.compiled() is None:
            pytest.skip("the compiled kernels are not built")
        if body == "numpy":
            monkeypatch.setattr(_kernels, "compiled", lambda: None)
        rows = 1000
        assert len(list(losses._forward_blocks(rows))) == 3
        map_blocks, waits = losses._map_blocks, []

        def block_0_last(rows, run):
            later = len(list(losses._forward_blocks(rows))) - 1
            ran = threading.Semaphore(0)

            def delayed(start, stop):
                if start == 0:
                    waits.append(all(ran.acquire(timeout=10.0) for _ in range(later)))
                    return run(start, stop)
                try:
                    return run(start, stop)
                finally:
                    ran.release()

            map_blocks(rows, delayed)

        args = awa_shaped(rows, dtype, seed=rows)
        rng = np.random.default_rng(rows)
        free = init_params(256, 85, num_seen=40, mode=ATTRIBUTE_FREE, seed=rows)
        free_args = (free, rng.standard_normal((rows, 256)).astype(dtype),
                     rng.integers(0, 40, size=rows), range(40))
        with _blas.one_thread() as pinned:
            if not pinned:
                pytest.skip("numpy's bundled OpenBLAS is not found")
            with_grads = joint_loss(*args, LossWeights())
            free_with_grads = ce_loss_attribute_free(*free_args)
            monkeypatch.setattr(losses, "_map_blocks", block_0_last)
            forward = joint_loss(*args, LossWeights(), grads=False)
            free_forward = ce_loss_attribute_free(*free_args, grads=False)
        assert waits == [True, True]
        assert {k: v.hex() for k, v in forward.terms.items()} == {
            k: v.hex() for k, v in with_grads.terms.items()
        }
        assert forward.total.hex() == with_grads.total.hex()
        assert free_forward.total.hex() == free_with_grads.total.hex()

    @pytest.mark.parametrize("body", ["compiled", "numpy"])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64], ids=["float32", "float64"])
    @pytest.mark.parametrize("shape", [(1290, 16), (960, 64), (1000, 85)], ids=str)
    def test_blocks_run_in_reverse_order_give_the_gradient_calls_bytes(
        self, monkeypatch, shape, dtype, body
    ):
        # The last block first, on this thread: BC's sum of squares, whose
        # pairwise leaves straddle block boundaries at these shapes, is
        # order-free, and so is every other term.
        if body == "compiled" and _kernels.compiled() is None:
            pytest.skip("the compiled kernels are not built")
        if body == "numpy":
            monkeypatch.setattr(_kernels, "compiled", lambda: None)
        rows, d_v = shape
        args = awa_shaped(rows, dtype, seed=rows, d_v=d_v)
        ran = []

        def reversed_blocks(rows, run):
            for start, stop in reversed(list(losses._forward_blocks(rows))):
                ran.append(start)
                run(start, stop)

        with _blas.one_thread() as pinned:
            if not pinned:
                pytest.skip("numpy's bundled OpenBLAS is not found")
            with_grads = joint_loss(*args, LossWeights())
            monkeypatch.setattr(losses, "_map_blocks", reversed_blocks)
            forward = joint_loss(*args, LossWeights(), grads=False)
        assert ran == sorted(ran, reverse=True) and len(ran) >= 3
        assert {k: v.hex() for k, v in forward.terms.items()} == {
            k: v.hex() for k, v in with_grads.terms.items()
        }
        assert forward.total.hex() == with_grads.total.hex()

    @pytest.mark.parametrize("rows", [0, 1, 255, 256, 511, 512, 767, 768, 1023, 1024, 4800])
    def test_blocks_cover_the_rows_with_at_least_a_row_block_each(self, rows):
        # No rows are one empty block.
        blocks = list(losses._forward_blocks(rows))
        assert blocks[0][0] == 0 and blocks[-1][1] == rows
        assert all(a[1] == b[0] for a, b in zip(blocks, blocks[1:]))
        sizes = [stop - start for start, stop in blocks]
        assert all(size == losses._ROW_BLOCK for size in sizes[:-1])
        if len(blocks) > 1:
            assert losses._ROW_BLOCK <= sizes[-1] < 2 * losses._ROW_BLOCK


class TestMapBlocks:
    # 1290 rows make five blocks; the last has 266 rows.
    ROWS = 5 * losses._ROW_BLOCK + 10

    def test_a_slow_block_on_one_thread_leaves_the_others_to_the_other(self):
        # While one thread sits in block 0, the other takes the blocks after
        # it, so both threads run blocks.
        threads = {}

        def run(start, stop):
            threads[start] = threading.current_thread()
            if start == 0:
                time.sleep(0.05)

        losses._map_blocks(self.ROWS, run)
        blocks = list(losses._forward_blocks(self.ROWS))
        assert sorted(threads) == [start for start, _ in blocks]
        assert len(set(threads.values())) == 2

    def test_while_one_thread_holds_block_0_the_other_takes_the_last_block(self):
        # The last block is shared like every other: with three blocks,
        # block 0 waits until the last has run, which only the other thread
        # can then take.
        rows = 3 * losses._ROW_BLOCK + 10
        last = list(losses._forward_blocks(rows))[-1][0]
        last_ran = threading.Event()
        threads, waited = {}, []

        def run(start, stop):
            threads[start] = threading.current_thread()
            if start == 0:
                waited.append(last_ran.wait(timeout=10.0))
            if start == last:
                last_ran.set()

        losses._map_blocks(rows, run)
        assert waited == [True]
        assert threads[last] is not threads[0]

    def test_an_earlier_blocks_error_comes_first_and_the_lane_is_done_by_then(self):
        # Block 1 fails first, on one thread, while block 0 runs on the
        # other; block 0 fails later, and its error is the one raised.
        started, finished = threading.Event(), threading.Event()

        def run(start, stop):
            if start == 0:
                assert started.wait(timeout=30.0)
                time.sleep(0.05)
                finished.set()
                raise ValueError("block 0")
            if start == losses._ROW_BLOCK:
                started.set()
                raise RuntimeError("block 1")
            return None

        with pytest.raises(ValueError, match="block 0"):
            losses._map_blocks(self.ROWS, run)
        assert finished.is_set()

    def test_no_block_is_taken_once_one_has_failed(self):
        ran = []

        def run(start, stop):
            ran.append(start)
            raise ValueError(f"block at {start}")

        with pytest.raises(ValueError, match="block at 0"):
            losses._map_blocks(20 * losses._ROW_BLOCK, run)
        assert sorted(ran) == [0, losses._ROW_BLOCK][: len(ran)]

    def test_each_block_runs_once_under_fast_switching(self):
        # A thread switch after almost every bytecode: no block is lost or
        # run twice.
        rows = 40 * losses._ROW_BLOCK
        want = [start for start, _ in losses._forward_blocks(rows)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(20):
                ran = []
                losses._map_blocks(rows, lambda start, stop: ran.append(start))
                assert sorted(ran) == want
        finally:
            sys.setswitchinterval(interval)

    def test_the_lane_runs_in_the_callers_errstate(self):
        states = {}

        def run(start, stop):
            states[start] = np.geterr()["over"]
            time.sleep(0.005)  # so that both threads take blocks

        with np.errstate(over="raise"):
            losses._map_blocks(self.ROWS, run)
        assert list(states.values()) == ["raise"] * 5

    @pytest.mark.parametrize("rows", [0, 1, 511])
    def test_one_block_runs_here(self, rows):
        ran = []
        losses._map_blocks(
            rows, lambda start, stop: ran.append((start, stop, threading.current_thread()))
        )
        assert ran == [(0, rows, threading.current_thread())]
