"""Loss values, closed forms, and finite-difference gradient verification.

Each attribute-based term is checked through its single-term view of
``joint_loss`` (only that flag on, unit weight).
"""
from __future__ import annotations

import math
import tracemalloc
import warnings

import numpy as np
import pytest

from conftest import single_term
from fedzsl import losses
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
from fedzsl.model import ATTRIBUTE_BASED, ATTRIBUTE_FREE, ModelParams, init_params

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
