"""Spectral bounds and the executable checks behind the supporting analysis."""
from __future__ import annotations

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedzsl import theory
from fedzsl.dataset import AttributeMatrix, SyntheticSpec, generate_synthetic, split_train_test
from fedzsl.fed import TrainConfig, run_simulation
from fedzsl.glasso import DistillTargets, distill_targets, graphical_lasso, sample_covariance
from fedzsl.losses import DistillConfig
from fedzsl.model import ATTRIBUTE_BASED, ATTRIBUTE_FREE, ModelParams, init_params
from fedzsl.partition import PartitionSpec
from fedzsl.theory import (
    AssumptionError,
    CheckResult,
    TheoryReport,
    _attr_error_impl,
    _closest_and_farthest,
    _left_inverse_impl,
    _random_unit_prototypes,
    build_theory_report,
    check_attr_error_bound,
    check_client_alignment,
    check_kl_lipschitz,
    check_left_inverse_bound,
    check_margin_theorem,
    check_mixture_convexity,
    check_pinsker,
    run_check_suite,
    spectral_bounds,
)


# Brute-force oracles: the per-pair and per-sample loops the array
# formulation replaced.  They read the thresholds from the module at call
# time, so a monkeypatched threshold moves oracle and check together.


def left_inverse_loop(params, samples):
    _, big = spectral_bounds(params.W_h)
    a_hat = samples @ params.W_g.T + params.b_g
    recon = a_hat @ params.W_h.T + params.b_h
    delta = float(np.linalg.norm(recon - samples, axis=1).max())
    violations = 0
    worst = -math.inf
    slacks = []
    n = samples.shape[0]
    for i in range(n):
        for j in range(i + 1, n):
            lhs = float(np.linalg.norm(a_hat[i] - a_hat[j]))
            rhs = float(np.linalg.norm(samples[i] - samples[j])) / big - 2.0 * delta / big
            slack = rhs - lhs
            slacks.append(slack)
            worst = max(worst, slack)
            if not slack <= theory.GEOM_EPS:  # a NaN slack is a violation
                violations += 1
    return (violations, worst, len(slacks)), slacks


def left_inverse_rows(params, samples, bounds):
    """The row-by-row form the pair screen replaced, verbatim: each row
    against all later rows, through ``_row_norms``."""
    samples = np.asarray(samples, dtype=np.float64)
    _, big = bounds
    errors, a_hat = theory._reconstruction_errors(params, samples)
    delta = float(errors.max())
    n = samples.shape[0]
    a_buf = np.empty_like(a_hat)
    x_buf = np.empty_like(samples)
    violations = 0
    worst = -math.inf
    for i in range(n - 1):
        # The pairs (i, j), j > i, as rows i+1.. subtracted from row i.
        a_diff = np.subtract(a_hat[i], a_hat[i + 1 :], out=a_buf[: n - i - 1])
        x_diff = np.subtract(samples[i], samples[i + 1 :], out=x_buf[: n - i - 1])
        lhs = theory._row_norms(a_diff)
        rhs = theory._row_norms(x_diff) / big - 2.0 * delta / big
        slack = rhs - lhs
        worst = max(worst, float(slack.max()))
        violations += int(np.count_nonzero(slack > theory.GEOM_EPS))
    return violations, worst, n * (n - 1) // 2


def attr_error_loop(params, features, labels, A):
    small, _ = spectral_bounds(params.W_h)
    a_hat = features @ params.W_g.T + params.b_g
    recon = a_hat @ params.W_h.T + params.b_h
    delta = float(np.linalg.norm(recon - features, axis=1).max())
    prototypes = A.values[:, labels].T
    decoded = prototypes @ params.W_h.T + params.b_h
    violations = 0
    worst = -math.inf
    slacks = []
    for i in range(features.shape[0]):
        lhs = float(np.linalg.norm(a_hat[i] - prototypes[i]))
        eps_i = float(np.linalg.norm(decoded[i] - features[i]))
        slack = lhs - (eps_i + delta) / small
        slacks.append(slack)
        worst = max(worst, slack)
        if not slack <= theory.GEOM_EPS:
            violations += 1
    return (violations, worst, features.shape[0]), slacks


def alignment_loop(params, features, labels, A, targets):
    def kl(p, q):
        mask = p > 0.0
        with np.errstate(divide="ignore"):
            return float((p[mask] * np.log(p[mask] / q[mask])).sum())

    tau = targets.tau
    logits = (features @ params.W_g.T + params.b_g) @ A.values / tau
    shifted = logits - logits.max(axis=1, keepdims=True)
    probs = np.exp(shifted)
    probs /= probs.sum(axis=1, keepdims=True)
    rows = targets.probs[labels]
    epsilon = max(tau * tau * kl(rows[i], probs[i]) for i in range(rows.shape[0]))
    radius = math.sqrt(2.0 * epsilon / (tau * tau))
    l1 = [float(np.abs(probs[i] - rows[i]).sum()) for i in range(rows.shape[0])]
    violations = sum(lhs > radius + theory.ALIGN_EPS for lhs in l1)
    return violations, [lhs - radius for lhs in l1]


def alignment_inline(params, features, labels, A, targets):
    """``check_client_alignment`` as it was with its own masked row KL, verbatim.

    Returns the count, and for the test the rows, the model's distributions,
    the row KLs and each row's L1 gap to the radius."""
    tau = targets.tau
    logits = theory.forward_attr(params, features) @ A.values / tau
    shifted = logits - logits.max(axis=1, keepdims=True)
    probs = np.exp(shifted)
    probs /= probs.sum(axis=1, keepdims=True)
    rows = targets.probs[labels]
    # Row-wise KL(rows || probs) over each row's support, as _kl does.
    with np.errstate(divide="ignore"):
        ratio = np.divide(rows, probs, out=np.ones_like(rows), where=rows > 0.0)
        kl_values = (rows * np.log(ratio)).sum(axis=1)
    epsilon = float((tau * tau * kl_values).max())
    lhs = np.abs(probs - rows).sum(axis=1)
    radius = math.sqrt(2.0 * epsilon / (tau * tau))
    bound = radius + theory.ALIGN_EPS
    return int(np.count_nonzero(lhs > bound)), (rows, probs, kl_values, lhs - radius)


def broadcast_distances(values):
    diffs = values[:, :, None] - values[:, None, :]
    dist = np.linalg.norm(diffs, axis=0)
    off = dist + np.diag(np.full(values.shape[1], math.inf))
    return off.min(axis=1), dist.max(axis=1)


def per_class_closest_and_farthest(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per column, the distance to the nearest other column and to the farthest.

    Built one column at a time; each distance row equals the matching row of
    ``np.linalg.norm(values[:, :, None] - values[:, None, :], axis=0)`` bit
    for bit (the same differences, summed over the same axis in the same
    order) without the d x C x C temporary.
    """
    num = values.shape[1]
    closest = np.empty(num)
    farthest = np.empty(num)
    for y in range(num):
        dist = np.linalg.norm(values[:, [y]] - values, axis=0)
        farthest[y] = dist.max()
        dist[y] = math.inf
        closest[y] = dist.min()
    return closest, farthest


def broadcast_unit_prototypes(rng, d_a, num_classes, min_margin):
    for _ in range(1000):
        raw = rng.standard_normal((d_a, num_classes))
        values = raw / np.linalg.norm(raw, axis=0, keepdims=True)
        if float(broadcast_distances(values)[0].min()) >= min_margin:
            return values
    raise AssertionError("oracle found no prototype set")


def random_instance(seed, d_v, d_a, n, num_classes=7):
    """A random model, samples at mixed scales, labels and a unit prototype table."""
    rng = np.random.default_rng(seed)
    params = init_params(d_v, d_a, num_seen=4, mode=ATTRIBUTE_BASED, seed=seed)
    samples = rng.standard_normal((n, d_v)) * rng.uniform(0.1, 10.0, size=(n, 1))
    labels = rng.integers(0, num_classes, size=n)
    raw = rng.standard_normal((d_a, num_classes))
    attrs = AttributeMatrix(values=raw / np.linalg.norm(raw, axis=0), groups=((0, d_a),))
    return params, samples, labels, attrs


# (d_v, d_a, n): tall, wide and square decoders, and the two-sample minimum.
SHAPES = ((8, 5, 12), (6, 9, 15), (20, 20, 30), (3, 2, 2))


class TestSpectralBounds:
    def test_matches_svd_on_random_matrices(self):
        rng = np.random.default_rng(0)
        for shape in ((6, 6), (10, 4), (4, 10), (1, 5), (5, 1)):
            W = rng.standard_normal(shape)
            smallest, largest = spectral_bounds(W)
            singular = np.linalg.svd(W, compute_uv=False)
            # For a wide matrix the relevant smallest value is that of the
            # column map, which is 0 when columns are dependent.
            expected_small = 0.0 if shape[0] < shape[1] else float(singular.min())
            assert largest == pytest.approx(float(singular.max()), rel=1e-8)
            assert smallest == pytest.approx(expected_small, rel=1e-6, abs=1e-5)

    def test_tall_matrix_small_singular_value_accuracy(self):
        for seed in range(5):
            W = np.random.default_rng(seed).standard_normal((12, 5))
            smallest, largest = spectral_bounds(W)
            singular = np.linalg.svd(W, compute_uv=False)
            assert smallest == pytest.approx(float(singular.min()), rel=1e-7, abs=1e-9)
            assert largest >= smallest

    def test_known_diagonal(self):
        W = np.diag([3.0, 0.5])
        smallest, largest = spectral_bounds(W)
        assert largest == pytest.approx(3.0, rel=1e-10)
        assert smallest == pytest.approx(0.5, rel=1e-10)

    def test_zero_matrix(self):
        smallest, largest = spectral_bounds(np.zeros((3, 3)))
        assert smallest == 0.0
        assert largest == 0.0

    def test_scalar_matrix(self):
        smallest, largest = spectral_bounds(np.array([[-2.0]]))
        assert smallest == pytest.approx(2.0)
        assert largest == pytest.approx(2.0)

    def test_rejects_empty(self):
        with pytest.raises(AssumptionError):
            spectral_bounds(np.empty((0, 3)))
        with pytest.raises(AssumptionError):
            spectral_bounds(np.empty((3, 0)))

    def test_a_power_iteration_cut_off_at_its_cap_returns_its_last_iterate(self, monkeypatch):
        # Eigenvalues 1 and 0.999 are too close for three passes to settle
        # within the tolerance, so the loop ends at its cap.
        gram = np.diag([1.0, 0.999, 0.5])
        monkeypatch.setattr(theory, "_POWER_MAX_ITER", 3)
        v = np.random.default_rng(7).standard_normal(3)
        v /= np.linalg.norm(v)
        eigs = [float(v @ gram @ v)]
        for _ in range(3):
            w = gram @ v
            v = w / float(np.linalg.norm(w))
            eigs.append(float(v @ gram @ v))
        assert abs(eigs[-1] - eigs[-2]) > theory._POWER_TOL
        got = theory._top_eigenvalue(gram, np.random.default_rng(7))
        assert got.hex() == eigs[-1].hex()


class TestProbabilityChecks:
    def test_pinsker_holds_on_random_pairs(self):
        assert check_pinsker(trials=300, dim=10, seed=0) == 0

    def test_mixture_convexity_holds(self):
        assert check_mixture_convexity(trials=300, num_components=5, dim=8, seed=1) == 0

    def test_kl_lipschitz_holds(self):
        assert check_kl_lipschitz(trials=300, dim=8, floor=0.01, seed=2) == 0

    def test_kl_lipschitz_floor_validation(self):
        with pytest.raises(AssumptionError):
            check_kl_lipschitz(trials=10, dim=8, floor=0.5)
        with pytest.raises(AssumptionError):
            check_kl_lipschitz(trials=10, dim=8, floor=0.0)

    def test_dimension_validation(self):
        with pytest.raises(AssumptionError):
            check_pinsker(trials=10, dim=1)
        with pytest.raises(AssumptionError):
            check_mixture_convexity(trials=10, num_components=1)


class TestGeometryChecks:
    def test_left_inverse_bound_on_random_models(self):
        rng = np.random.default_rng(3)
        for seed in range(5):
            params = init_params(8, 5, num_seen=4, mode=ATTRIBUTE_BASED, seed=seed)
            samples = rng.standard_normal((12, 8))
            assert check_left_inverse_bound(params, samples) == 0

    def test_left_inverse_refuses_zero_decoder(self):
        params = ModelParams(
            W_g=np.ones((2, 3)), b_g=np.zeros(2), W_h=np.zeros((3, 2)), b_h=np.zeros(3)
        )
        with pytest.raises(AssumptionError):
            check_left_inverse_bound(params, np.ones((3, 3)))

    def test_left_inverse_needs_two_samples(self):
        params = init_params(4, 3, num_seen=2, mode=ATTRIBUTE_BASED, seed=0)
        with pytest.raises(AssumptionError):
            check_left_inverse_bound(params, np.ones((1, 4)))

    def test_attr_error_bound_on_random_models(self):
        rng = np.random.default_rng(4)
        raw = rng.standard_normal((5, 6))
        values = raw / np.linalg.norm(raw, axis=0, keepdims=True)
        attrs = AttributeMatrix(values=values, groups=((0, 5),))
        for seed in range(5):
            params = init_params(8, 5, num_seen=4, mode=ATTRIBUTE_BASED, seed=100 + seed)
            features = rng.standard_normal((20, 8))
            labels = rng.integers(0, 6, size=20)
            assert check_attr_error_bound(params, features, labels, attrs) == 0

    def test_attr_error_refuses_non_injective_decoder(self):
        # A wide decoder (d_v < d_a) has a zero smallest singular value.
        params = ModelParams(
            W_g=np.ones((5, 3)), b_g=np.zeros(5), W_h=np.ones((3, 5)), b_h=np.zeros(3)
        )
        attrs = AttributeMatrix(values=np.eye(5)[:, :3] + 0.1, groups=((0, 5),))
        with pytest.raises(AssumptionError):
            check_attr_error_bound(params, np.ones((2, 3)), np.array([0, 1]), attrs)


class TestArrayChecksMatchTheLoops:
    @pytest.mark.parametrize("shape", SHAPES)
    def test_left_inverse_equals_the_pair_loop(self, shape):
        for seed in range(3):
            params, samples, _, _ = random_instance(seed, *shape)
            expected, _ = left_inverse_loop(params, samples)
            got = _left_inverse_impl(params, samples, spectral_bounds(params.W_h))
            assert got == expected

    @pytest.mark.parametrize("shape", SHAPES)
    def test_attr_error_equals_the_sample_loop(self, shape):
        for seed in range(3):
            params, samples, labels, attrs = random_instance(seed, *shape)
            expected, _ = attr_error_loop(params, samples, labels, attrs)
            bounds = spectral_bounds(params.W_h)
            got = _attr_error_impl(params, samples, labels, attrs, bounds)
            assert got == expected
            # The report's path: the per-sample prototype errors it computed.
            decoded = theory.forward_decode(params, attrs.values[:, labels].T)
            epsilons = theory._row_norms(decoded - samples)
            assert _attr_error_impl(params, samples, labels, attrs, bounds, None, epsilons) == expected

    def test_left_inverse_counts_agree_when_half_the_pairs_violate(self, monkeypatch):
        # Under the premises every slack is negative; a threshold at the
        # median slack makes the counting path agree on a nonzero count (an odd
        # pair count puts one slack exactly on the threshold).
        params, samples, _, _ = random_instance(11, 8, 5, 39)
        _, slacks = left_inverse_loop(params, samples)
        monkeypatch.setattr(theory, "GEOM_EPS", float(np.median(slacks)))
        expected, _ = left_inverse_loop(params, samples)
        got = _left_inverse_impl(params, samples, spectral_bounds(params.W_h))
        assert got == expected
        assert 0 < got[0] < got[2]

    def test_left_inverse_equals_the_pair_loop_on_the_suite_instances(self):
        # The suite's 10-row draws, regenerated as run_check_suite makes them.
        for seed in range(4):
            rng = np.random.default_rng(seed + 3)
            total = 0
            while total < 1000:
                params = init_params(8, 5, num_seen=4, mode=ATTRIBUTE_BASED, seed=int(rng.integers(2**63)))
                samples = rng.standard_normal((10, 8))
                expected, _ = left_inverse_loop(params, samples)
                got = _left_inverse_impl(params, samples, spectral_bounds(params.W_h))
                assert (got[0], got[1].hex(), got[2]) == (expected[0], expected[1].hex(), expected[2])
                total += got[2]

    def test_attr_error_counts_agree_when_half_the_samples_violate(self, monkeypatch):
        params, samples, labels, attrs = random_instance(12, 8, 5, 41)
        _, slacks = attr_error_loop(params, samples, labels, attrs)
        monkeypatch.setattr(theory, "GEOM_EPS", float(np.median(slacks)))
        expected, _ = attr_error_loop(params, samples, labels, attrs)
        got = _attr_error_impl(params, samples, labels, attrs, spectral_bounds(params.W_h))
        assert got == expected
        assert 0 < got[0] < got[2]

    def test_alignment_counts_equal_the_row_loop(self, monkeypatch):
        params, samples, labels, attrs = random_instance(13, 8, 5, 41)
        gamma = np.random.default_rng(13).standard_normal((7, 7))
        probs = distill_targets(gamma + gamma.T, tau=3.0).probs
        # Zero entries leave a row's support, as in the loop's mask.
        probs[0, 1:3] = 0.0
        probs[0] /= probs[0].sum()
        targets = DistillTargets(probs=probs, tau=3.0)
        labels[:5] = 0
        expected, gaps = alignment_loop(params, samples, labels, attrs, targets)
        assert check_client_alignment(params, samples, labels, attrs, targets) == expected == 0
        monkeypatch.setattr(theory, "ALIGN_EPS", float(np.median(gaps)))
        expected, _ = alignment_loop(params, samples, labels, attrs, targets)
        assert check_client_alignment(params, samples, labels, attrs, targets) == expected
        assert 0 < expected < samples.shape[0]

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(
        st.integers(0, 2**32 - 1),
        st.sampled_from([(8, 5, 6), (5, 9, 7), (16, 12, 3), (3, 2, 2)]),
        st.integers(1, 40),
        st.floats(0.5, 8.0),
        st.floats(0.0, 1.0),
    )
    def test_alignment_counts_equal_the_inline_kl_form(self, seed, dims, n, tau, quantile):
        # With strictly positive targets the row KL is taken over whole rows,
        # so _row_kl and the former inline masked KL sum the same terms.  A
        # threshold at a drawn quantile of the gaps gives nonzero counts.
        d_v, d_a, num_classes = dims
        rng = np.random.default_rng(seed)
        params = init_params(d_v, d_a, num_seen=2, mode=ATTRIBUTE_BASED, seed=seed)
        raw = rng.standard_normal((d_a, num_classes))
        attrs = AttributeMatrix(values=raw / np.linalg.norm(raw, axis=0), groups=((0, d_a),))
        gamma = rng.standard_normal((num_classes, num_classes))
        targets = distill_targets(gamma + gamma.T, tau=tau)
        assert (targets.probs > 0.0).all()
        features = rng.standard_normal((n, d_v)) * rng.uniform(0.1, 10.0, size=(n, 1))
        labels = rng.integers(0, num_classes, size=n)
        _, (rows, probs, kl_values, gaps) = alignment_inline(params, features, labels, attrs, targets)
        assert np.array_equal(theory._row_kl(rows, probs), kl_values)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(theory, "ALIGN_EPS", float(np.quantile(gaps, quantile)))
            expected, _ = alignment_inline(params, features, labels, attrs, targets)
            assert check_client_alignment(params, features, labels, attrs, targets) == expected

    @pytest.mark.parametrize("shape", ((5, 6), (16, 12), (85, 50), (2, 2)))
    def test_prototype_distances_equal_the_broadcast(self, shape):
        values = np.random.default_rng(shape[1]).standard_normal(shape)
        closest, farthest = _closest_and_farthest(values)
        want_closest, want_farthest = broadcast_distances(values)
        assert np.array_equal(closest, want_closest)
        assert np.array_equal(farthest, want_farthest)

    @settings(max_examples=150, deadline=None)
    @given(
        d=st.integers(1, 9),
        num=st.integers(1, 14),
        duplicates=st.integers(0, 3),
        scale=st.sampled_from([1.0, 1e-150, 1e-8, 1e8, 1e150]),
        step=st.sampled_from([None, 1, 2, 3, 5]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_blocked_prototype_distances_equal_the_per_class_loop(
        self, d, num, duplicates, scale, step, seed
    ):
        # One attribute, duplicate columns (a zero closest distance) and
        # extreme scales; ``step`` columns per block, or all in one block.
        rng = np.random.default_rng(seed)
        values = rng.standard_normal((d, num)) * scale
        for _ in range(duplicates):
            values[:, rng.integers(num)] = values[:, rng.integers(num)]
        limit = theory._DISTANCE_BYTES if step is None else 8 * d * num * step
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(theory, "_DISTANCE_BYTES", limit)
            closest, farthest = _closest_and_farthest(values)
        want_closest, want_farthest = per_class_closest_and_farthest(values)
        assert closest.tobytes() == want_closest.tobytes()
        assert farthest.tobytes() == want_farthest.tobytes()

    def test_prototype_distance_blocks_stay_within_the_byte_bound(self):
        # The report's CUB-sized table runs in blocks of 8 classes.
        values = np.random.default_rng(0).standard_normal((312, 200))
        tracemalloc.start()
        try:
            closest, farthest = _closest_and_farthest(values)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert theory._DISTANCE_BYTES // (8 * 312 * 200) == 8
        assert peak < theory._DISTANCE_BYTES + 64 * 1024
        want_closest, want_farthest = per_class_closest_and_farthest(values)
        assert closest.tobytes() == want_closest.tobytes()
        assert farthest.tobytes() == want_farthest.tobytes()

    @pytest.mark.parametrize("d_a,num_classes", ((5, 6), (16, 12)))
    def test_prototype_draws_follow_the_broadcast_rng_stream(self, d_a, num_classes):
        # Accept-or-redraw decides how much of the stream a draw consumes,
        # and the suite's later checks read the rest of it.
        for seed in range(20):
            rng, oracle_rng = np.random.default_rng(seed), np.random.default_rng(seed)
            got = _random_unit_prototypes(rng, d_a, num_classes, min_margin=0.3)
            want = broadcast_unit_prototypes(oracle_rng, d_a, num_classes, min_margin=0.3)
            assert np.array_equal(got, want)
            assert rng.bit_generator.state == oracle_rng.bit_generator.state


@st.composite
def pair_instances(draw):
    """A model and samples with copied rows, rows 1 ulp apart and extreme scales,
    plus the index of a pair whose slack becomes the threshold, or None."""
    d_v, d_a = draw(st.sampled_from([(8, 5), (5, 8), (6, 6), (1, 3), (3, 1)]))
    n = draw(st.integers(2, 24))
    seed = draw(st.integers(0, 2**32 - 1))
    scale = draw(st.sampled_from([1.0, 1.0, 1e-3, 1e3, 1e-160, 1e160]))
    rng = np.random.default_rng(seed)
    params = init_params(d_v, d_a, num_seen=4, mode=ATTRIBUTE_BASED, seed=seed)
    if draw(st.booleans()):  # biases move the predicted attributes off the origin
        params = ModelParams(
            W_g=params.W_g, b_g=rng.standard_normal(d_a) * scale,
            W_h=params.W_h, b_h=rng.standard_normal(d_v) * scale,
        )
    samples = rng.standard_normal((n, d_v)) * scale
    edits = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1), st.booleans()), max_size=n))
    for src, dst, copy in edits:
        samples[dst] = samples[src] if copy else np.nextafter(samples[src], np.inf)
    threshold_pair = draw(st.none() | st.integers(0, n * (n - 1) // 2 - 1))
    return params, samples, threshold_pair


class TestPairScreen:
    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(pair_instances())
    def test_equals_the_pair_loop(self, instance):
        params, samples, threshold_pair = instance
        with pytest.MonkeyPatch.context() as mp, np.errstate(all="ignore"):
            if threshold_pair is not None:
                _, slacks = left_inverse_loop(params, samples)
                mp.setattr(theory, "GEOM_EPS", slacks[threshold_pair])
            expected, _ = left_inverse_loop(params, samples)
            got = _left_inverse_impl(params, samples, spectral_bounds(params.W_h))
        assert (got[0], got[1].hex(), got[2]) == (expected[0], expected[1].hex(), expected[2])

    def test_recomputes_few_pairs_at_cub_shape(self, monkeypatch):
        # CUB-shaped: d_v 256, d_a 312, 640 rows (204,480 pairs).  Each
        # recomputed pair sends one row per side through _row_norms.
        rng = np.random.default_rng(0)
        params = init_params(256, 312, num_seen=150, mode=ATTRIBUTE_BASED, seed=0)
        samples = rng.standard_normal((640, 256)) * rng.uniform(0.5, 2.0, size=(640, 1))
        bounds = (0.0, float(np.linalg.norm(params.W_h, 2)))
        expected = left_inverse_rows(params, samples, bounds)
        rows = []
        real = theory._row_norms

        def counting(block):
            rows.append(block.shape[0])
            return real(block)

        monkeypatch.setattr(theory, "_row_norms", counting)
        got = _left_inverse_impl(params, samples, bounds)
        assert (got[0], got[1].hex(), got[2]) == (expected[0], expected[1].hex(), expected[2])
        assert sum(rows) / 2 < 0.01 * got[2]

    def test_nan_slacks_are_violations_pair_by_pair(self):
        # The decoder drops the third attribute, so rows near 1e154 still
        # reconstruct exactly (delta 0) while their distances overflow, and
        # pairs 0-2 and 1-2 have slack inf - inf = NaN.  As in the pair loop,
        # those two pairs are counted as violations and skipped as the
        # worst: pair 0-1's slack 0 is the worst.  The row loop took each
        # row's NaN maximum and so skipped rows 0 and 1.
        params = ModelParams(
            W_g=np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 0.0]]), b_g=np.zeros(3),
            W_h=np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]), b_h=np.zeros(2),
        )
        samples = np.array([[1e154, 0.0], [1e154, 1e-3], [-1e154, 0.0], [1.0, 0.0], [2.0, 0.0]])
        bounds = spectral_bounds(params.W_h)
        with np.errstate(all="ignore"):
            expected, slacks = left_inverse_loop(params, samples)
            got = _left_inverse_impl(params, samples, bounds)
            by_rows = left_inverse_rows(params, samples, bounds)
        assert [k for k, slack in enumerate(slacks) if math.isnan(slack)] == [1, 4]
        assert slacks[0] == 0.0
        assert (got[0], got[1].hex(), got[2]) == (expected[0], expected[1].hex(), expected[2])
        assert expected[0] == 2 and expected[1] == 0.0 and by_rows[1] == 1.0 - math.sqrt(2.0)


class TestMarginCheck:
    def test_orthonormal_prototypes_never_misclassify_below_threshold(self):
        attrs = AttributeMatrix(values=np.eye(4), groups=((0, 4),))
        assert check_margin_theorem(attrs, c_h=1.0, trials=500, seed=0) == 0

    def test_random_unit_prototypes_hold(self):
        rng = np.random.default_rng(5)
        raw = rng.standard_normal((16, 12))
        values = raw / np.linalg.norm(raw, axis=0, keepdims=True)
        assert check_margin_theorem(values, c_h=0.7, trials=500, seed=1) == 0

    def test_perturbations_beyond_the_threshold_can_flip(self):
        # For two orthonormal prototypes the threshold radius (c_h/2) d^2/d_max
        # equals 1/sqrt(2) at c_h=1; pushing 1.5x farther along the rival
        # direction crosses the decision boundary.
        prototypes = np.eye(2)
        y = 0
        direction = (prototypes[:, 1] - prototypes[:, 0]) / np.sqrt(2.0)
        threshold = 0.5 * 2.0 / np.sqrt(2.0)
        a_hat = prototypes[:, y] + direction * (1.5 * threshold)
        scores = a_hat @ prototypes
        assert int(np.argmax(scores)) != y

    def test_requires_unit_prototypes(self):
        with pytest.raises(AssumptionError):
            check_margin_theorem(np.eye(3) * 2.0, c_h=1.0, trials=10)

    def test_refuses_duplicate_prototypes(self):
        values = np.eye(3)
        values[:, 2] = values[:, 1]
        with pytest.raises(AssumptionError):
            check_margin_theorem(values, c_h=1.0, trials=10)

    def test_requires_positive_contraction(self):
        with pytest.raises(AssumptionError):
            check_margin_theorem(np.eye(3), c_h=0.0, trials=10)


class TestClientAlignment:
    def test_exact_match_has_no_violations(self):
        n = 4
        rng = np.random.default_rng(6)
        gamma = rng.standard_normal((n, n))
        gamma = gamma + gamma.T
        targets = distill_targets(gamma, tau=2.0)
        attrs = AttributeMatrix(values=np.eye(n), groups=((0, n),))
        params = ModelParams(
            W_g=np.eye(n), b_g=np.zeros(n), W_h=np.zeros((n, n)), b_h=np.zeros(n)
        )
        labels = np.arange(n)
        assert check_client_alignment(params, gamma[labels], labels, attrs, targets) == 0

    def test_random_models_respect_the_derived_bound(self):
        # epsilon is the worst per-sample distillation loss, so the bound
        # follows from the two-distribution inequality for every sample.
        rng = np.random.default_rng(7)
        for seed in range(5):
            params = init_params(8, 5, num_seen=4, mode=ATTRIBUTE_BASED, seed=200 + seed)
            raw = rng.standard_normal((5, 6))
            values = raw / np.linalg.norm(raw, axis=0, keepdims=True)
            attrs = AttributeMatrix(values=values, groups=((0, 5),))
            gamma = rng.standard_normal((6, 6))
            targets = distill_targets(gamma + gamma.T, tau=4.0)
            features = rng.standard_normal((15, 8))
            labels = rng.integers(0, 6, size=15)
            assert check_client_alignment(params, features, labels, attrs, targets) == 0


class TestTheoryReport:
    def trained_instance(self):
        spec = SyntheticSpec(
            num_seen=6, num_unseen=2, d_a=6, d_v=9, samples_per_class=10, group_count=3
        )
        ds, attrs = generate_synthetic(spec, seed=0)
        train, _, _ = split_train_test(ds, seed=0)
        params = init_params(9, 6, num_seen=6, mode=ATTRIBUTE_BASED, seed=0)
        return params, train, attrs

    def test_constants_are_consistent(self):
        params, train, attrs = self.trained_instance()
        report = build_theory_report(params, train.features, train.labels, attrs)
        assert 0.0 <= report.c_h <= report.L_h
        assert report.delta_rec >= 0.0
        assert set(report.margins) == set(range(attrs.num_classes))
        for closest, farthest in report.margins.values():
            assert 0.0 < closest <= farthest
        assert report.epsilons.shape == (train.num_samples,)
        assert np.all(report.epsilons >= 0.0)
        assert report.lz.shape == (train.num_samples,)
        assert report.violations == {"left_inverse": 0, "attr_error": 0}
        assert report.refusals == ()

    def test_epsilons_are_the_errors_the_check_uses(self):
        # The report's per-sample prototype errors are the ones the
        # attribute-error check scores: the same differences through the
        # same row-norm kernel, bit for bit.
        params, samples, labels, attrs = random_instance(14, 256, 85, 60)
        report = build_theory_report(params, samples, labels, attrs)
        decoded = theory.forward_decode(params, attrs.values[:, labels].T)
        want = theory._row_norms(decoded - samples)
        assert [e.hex() for e in report.epsilons.tolist()] == [e.hex() for e in want.tolist()]

    def test_margins_equal_the_broadcast_distances(self):
        rng = np.random.default_rng(8)
        attrs = AttributeMatrix(values=rng.uniform(0.0, 1.0, (85, 50)), groups=((0, 85),))
        params = init_params(16, 85, num_seen=40, mode=ATTRIBUTE_BASED, seed=8)
        features = rng.standard_normal((30, 16))
        labels = rng.integers(0, 50, size=30)
        report = build_theory_report(params, features, labels, attrs)
        closest, farthest = broadcast_distances(attrs.values)
        assert report.margins == {
            y: (float(closest[y]), float(farthest[y])) for y in range(attrs.num_classes)
        }

    def test_decoder_spectrum_is_computed_once(self, monkeypatch):
        params, train, attrs = self.trained_instance()
        seen = []
        real = theory.spectral_bounds

        def counting(W, *args, **kwargs):
            seen.append(W)
            return real(W, *args, **kwargs)

        monkeypatch.setattr(theory, "spectral_bounds", counting)
        report = build_theory_report(params, train.features, train.labels, attrs)
        assert sum(W is params.W_h for W in seen) == 1
        assert report.violations == {"left_inverse": 0, "attr_error": 0}

    def test_each_bound_maps_the_rows_once(self, monkeypatch):
        # delta_rec, the left-inverse and the attribute-error checks share
        # one forward_attr of the rows and one forward_decode of its output;
        # epsilons and the attribute-error check share one decode of the
        # label prototypes.
        params, train, attrs = self.trained_instance()
        attr_calls, decoded = [], []
        real_attr, real_decode = theory.forward_attr, theory.forward_decode

        def counting_attr(p, v):
            attr_calls.append((v.shape, real_attr(p, v)))
            return attr_calls[-1][1]

        def counting_decode(p, a):
            decoded.append(a)
            return real_decode(p, a)

        monkeypatch.setattr(theory, "forward_attr", counting_attr)
        monkeypatch.setattr(theory, "forward_decode", counting_decode)
        report = build_theory_report(params, train.features, train.labels, attrs)
        assert [shape for shape, _ in attr_calls] == [train.features.shape]
        assert sum(a is attr_calls[0][1] for a in decoded) == 1
        assert len(decoded) == 2
        assert np.array_equal(decoded[1], attrs.values[:, train.labels].T)
        assert report.violations == {"left_inverse": 0, "attr_error": 0}

    def test_logit_scale_uses_the_largest_attribute_singular_value(self):
        linalg = pytest.importorskip("scipy.linalg")
        params, train, attrs = self.trained_instance()
        report = build_theory_report(params, train.features, train.labels, attrs)
        sigma_attr = linalg.svdvals(attrs.values)[0]
        expected = np.linalg.norm(train.features, axis=1) * sigma_attr
        np.testing.assert_allclose(report.lz, expected, rtol=1e-12, atol=0.0)

    # (d_a, classes): square, tall and wide tables, a single attribute (one
    # column of the class-by-attribute view), the smallest table an
    # AttributeMatrix accepts, and CUB's shape.
    @pytest.mark.parametrize("shape", [(6, 6), (10, 4), (4, 10), (1, 5), (1, 2), (312, 200)])
    def test_logit_scale_is_exact(self, shape):
        linalg = pytest.importorskip("scipy.linalg")
        d_a, classes = shape
        rng = np.random.default_rng(3)
        attrs = AttributeMatrix(values=rng.standard_normal(shape), groups=((0, d_a),))
        params = init_params(7, d_a, num_seen=1, mode=ATTRIBUTE_BASED, seed=3)
        features = rng.standard_normal((12, 7)) * rng.uniform(0.1, 10.0, size=(12, 1))
        labels = rng.integers(0, classes, size=12)
        report = build_theory_report(params, features, labels, attrs)
        expected = np.linalg.norm(features, axis=1) * linalg.svdvals(attrs.values)[0]
        np.testing.assert_allclose(report.lz, expected, rtol=1e-12, atol=0.0)

    def test_zero_decoder_turns_into_refusals(self):
        params, train, attrs = self.trained_instance()
        broken = ModelParams(
            W_g=params.W_g.copy(),
            b_g=params.b_g.copy(),
            W_h=np.zeros_like(params.W_h),
            b_h=params.b_h.copy(),
        )
        report = build_theory_report(broken, train.features, train.labels, attrs)
        assert len(report.refusals) == 2
        assert report.violations == {}

    def test_report_validation(self):
        with pytest.raises(AssumptionError):
            TheoryReport(
                c_h=2.0, L_h=1.0, delta_rec=0.0, margins={}, epsilons=np.zeros(1), lz=np.zeros(1)
            )
        with pytest.raises(AssumptionError):
            TheoryReport(
                c_h=0.5, L_h=1.0, delta_rec=-1.0, margins={}, epsilons=np.zeros(1), lz=np.zeros(1)
            )

    def test_attribute_free_params_are_refused(self):
        params = init_params(4, 3, num_seen=2, mode=ATTRIBUTE_FREE, seed=0)
        with pytest.raises(AssumptionError):
            build_theory_report(params, np.ones((2, 4)), np.array([0, 1]), None)

    def test_alignment_invariant_after_training(self):
        # After a distillation-weighted run, every client model must satisfy
        # the alignment bound computed from its own worst sample loss.
        spec = SyntheticSpec(
            num_seen=6, num_unseen=2, d_a=6, d_v=9, samples_per_class=10, group_count=3
        )
        ds, attrs = generate_synthetic(spec, seed=1)
        S = sample_covariance(attrs)
        sim = graphical_lasso(S)
        targets = distill_targets(sim.gamma, tau=4.0)
        cfg = TrainConfig(
            rounds=3,
            num_clients=2,
            batch_size=16,
            seed=1,
            distill=DistillConfig(tau=4.0, targets=targets),
            partition=PartitionSpec(scheme="pccd", num_clients=2, seed=1),
        )
        trace = run_simulation(ds, attrs, cfg)
        train, _, _ = split_train_test(ds, seed=1)
        assert (
            check_client_alignment(
                trace.final_params, train.features, train.labels, attrs, targets
            )
            == 0
        )


class TestCheckSuite:
    def test_all_six_checks_pass_at_small_scale(self):
        results = run_check_suite(trials=60, seed=0)
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
            assert isinstance(result, CheckResult)
            assert result.trials >= 60
            assert result.violations == 0
            assert result.max_slack <= 0.0

    @pytest.mark.parametrize("trials", (0, -5))
    def test_refuses_fewer_than_one_trial(self, trials):
        # With no trials every check would pass with 0 violations.
        prototypes = np.eye(3)
        calls = [
            lambda: run_check_suite(trials=trials),
            lambda: theory._pinsker_impl(trials, 10, 0),
            lambda: theory._mixture_impl(trials, 5, 8, 0),
            lambda: theory._kl_lipschitz_impl(trials, 8, 0.01, 0),
            lambda: theory._margin_impl(prototypes, 1.0, trials, 0),
            lambda: check_pinsker(trials=trials),
            lambda: check_mixture_convexity(trials=trials),
            lambda: check_kl_lipschitz(trials=trials),
            lambda: check_margin_theorem(prototypes, c_h=1.0, trials=trials),
        ]
        for call in calls:
            with pytest.raises(AssumptionError, match=f"trials >= 1, got {trials}"):
                call()

    @pytest.mark.parametrize("trials", (2.5, math.nan, math.inf))
    def test_refuses_a_trial_count_that_is_not_an_integer(self, trials):
        # NaN trials used to run no trial and report no violation.
        prototypes = np.eye(3)
        calls = [
            lambda: run_check_suite(trials=trials),
            lambda: check_pinsker(trials=trials),
            lambda: check_mixture_convexity(trials=trials),
            lambda: check_kl_lipschitz(trials=trials),
            lambda: check_margin_theorem(prototypes, c_h=1.0, trials=trials),
        ]
        message = rf"^trials must be an integer, got {trials}$"
        for call in calls:
            with pytest.raises(AssumptionError, match=message):
                call()

    @pytest.mark.parametrize("seed", (2.5, math.nan, math.inf))
    def test_refuses_a_seed_that_is_not_an_integer(self, seed):
        prototypes = np.eye(3)
        calls = [
            lambda: run_check_suite(trials=10, seed=seed),
            lambda: check_pinsker(trials=10, seed=seed),
            lambda: check_margin_theorem(prototypes, c_h=1.0, trials=10, seed=seed),
        ]
        for call in calls:
            with pytest.raises(AssumptionError, match=rf"^seed must be an integer, got {seed}$"):
                call()

    def test_whole_trials_and_seed_run_as_ints(self):
        got = run_check_suite(trials=2.0, seed=1.0)
        want = run_check_suite(trials=2, seed=1)
        assert [(r.trials, r.violations, r.max_slack) for r in got] == [
            (r.trials, r.violations, r.max_slack) for r in want
        ]
        assert got[0].trials == 2 and type(got[0].trials) is int
        assert check_pinsker(trials=2.0, seed=1.0) == check_pinsker(trials=2, seed=1)

    def test_rejects_a_negative_seed(self):
        with pytest.raises(AssumptionError, match=r"seed must be >= 0, got -3$"):
            run_check_suite(trials=10, seed=-3)
        with pytest.raises(AssumptionError, match=r"^seed must be >= 0, got -1$"):
            check_pinsker(trials=10, seed=-1)

    def test_deterministic_per_seed(self):
        a = run_check_suite(trials=40, seed=3)
        b = run_check_suite(trials=40, seed=3)
        assert [(r.trials, r.violations, r.max_slack) for r in a] == [
            (r.trials, r.violations, r.max_slack) for r in b
        ]
