"""The trial-array checks equal the per-trial loops they replaced, bit for bit.

The four per-trial functions below are the Pinsker, mixture-convexity,
KL-Lipschitz and margin checks as they ran one trial at a time, kept
verbatim (with the ``_kl`` they call) as the oracle, except that a NaN
slack counts as a violation.  Each comparison is on the
``(violations, worst)`` tuple, with the worst slack compared by
``float.hex`` so a last-bit difference or a sign of zero fails.
``suite_loops`` is the suite as it ran with one accumulate loop per
model-driven check, kept verbatim as the oracle of its draw order.
"""
from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedzsl import cli, theory
from fedzsl.dataset import AttributeMatrix
from fedzsl.model import ATTRIBUTE_BASED, init_params
from fedzsl.theory import (
    PROB_EPS,
    AssumptionError,
    _kl_lipschitz_impl,
    _margin_impl,
    _mixture_impl,
    _pinsker_impl,
    _random_unit_prototypes,
    _row_kl,
    run_check_suite,
    spectral_bounds,
)


def kl_loop(p: np.ndarray, q: np.ndarray) -> float:
    mask = p > 0.0
    with np.errstate(divide="ignore"):
        terms = p[mask] * np.log(p[mask] / q[mask])
    return float(terms.sum())


def pinsker_loop(trials: int, dim: int, seed: int) -> tuple[int, float]:
    if dim < 2:
        raise AssumptionError(f"pinsker check needs dim >= 2, got {dim}")
    rng = np.random.default_rng(seed)
    violations = 0
    worst = -math.inf
    for _ in range(trials):
        p = rng.dirichlet(np.ones(dim))
        q = rng.dirichlet(np.ones(dim))
        lhs = float(np.abs(p - q).sum())
        bound = math.sqrt(2.0 * kl_loop(p, q))
        slack = lhs - bound
        worst = max(worst, slack)
        if not slack <= PROB_EPS:  # a NaN slack is a violation
            violations += 1
    return violations, worst


def mixture_loop(trials: int, num_components: int, dim: int, seed: int) -> tuple[int, float]:
    if num_components < 2:
        raise AssumptionError(f"mixture check needs K >= 2, got {num_components}")
    if dim < 2:
        raise AssumptionError(f"mixture check needs dim >= 2, got {dim}")
    rng = np.random.default_rng(seed)
    violations = 0
    worst = -math.inf
    for _ in range(trials):
        components = rng.dirichlet(np.ones(dim), size=num_components)
        q = rng.dirichlet(np.ones(dim))
        alpha = rng.dirichlet(np.ones(num_components))
        mixture = alpha @ components
        lhs = kl_loop(mixture, q)
        rhs = 0.0  # left to right from 0.0, as _mixture_impl adds its terms
        for a, p in zip(alpha, components):
            rhs += float(a * kl_loop(p, q))
        slack = lhs - rhs
        worst = max(worst, slack)
        if not slack <= PROB_EPS:  # a NaN slack is a violation
            violations += 1
    return violations, worst


def kl_lipschitz_loop(trials: int, dim: int, floor: float, seed: int) -> tuple[int, float]:
    if dim < 2:
        raise AssumptionError(f"lipschitz check needs dim >= 2, got {dim}")
    if not 0.0 < floor < 1.0 / dim:
        raise AssumptionError(f"floor must lie in (0, 1/dim), got {floor} for dim {dim}")
    rng = np.random.default_rng(seed)
    scale = 1.0 - dim * floor
    violations = 0
    worst = -math.inf
    for _ in range(trials):
        r = floor + scale * rng.dirichlet(np.ones(dim))
        s = floor + scale * rng.dirichlet(np.ones(dim))
        q = floor + scale * rng.dirichlet(np.ones(dim))
        # The derivative of x -> KL(x||q) along the segment has coordinates
        # log(x_i/q_i) + 1, and |log| over a coordinate interval peaks at an
        # endpoint, so the endpoint maximum plus 1 is a valid constant.
        log_r = np.abs(np.log(r / q))
        log_s = np.abs(np.log(s / q))
        constant = float(np.maximum(log_r, log_s).max()) + 1.0
        lhs = abs(kl_loop(r, q) - kl_loop(s, q))
        rhs = constant * float(np.abs(r - s).sum())
        slack = lhs - rhs
        worst = max(worst, slack)
        if not slack <= PROB_EPS:  # a NaN slack is a violation
            violations += 1
    return violations, worst


def margin_loop(prototypes: np.ndarray, c_h: float, trials: int, seed: int) -> tuple[int, float]:
    d_a, num_classes = prototypes.shape
    if num_classes < 2:
        raise AssumptionError("margin check needs at least 2 prototypes")
    norms = np.linalg.norm(prototypes, axis=0)
    if np.max(np.abs(norms - 1.0)) > 1e-9:
        raise AssumptionError("margin check requires unit-normalized prototypes")
    if not (math.isfinite(c_h) and c_h > 0.0):
        raise AssumptionError(f"margin check needs c_h > 0, got {c_h}")
    min_dist, max_dist = theory._closest_and_farthest(prototypes)
    if np.min(min_dist) <= 0.0:
        raise AssumptionError("duplicate prototypes make the margin threshold zero")
    rng = np.random.default_rng(seed)
    violations = 0
    worst = -math.inf
    for _ in range(trials):
        y = int(rng.integers(num_classes))
        threshold = (c_h / 2.0) * min_dist[y] ** 2 / max_dist[y]
        radius = float(rng.uniform(0.0, 0.99 * threshold))
        direction = rng.standard_normal(d_a)
        direction /= np.linalg.norm(direction)
        a_hat = prototypes[:, y] + direction * (radius / c_h)
        scores = a_hat @ prototypes
        pred = int(np.argmax(scores))
        rival = float(np.max(np.delete(scores, y)))
        slack = rival - float(scores[y])
        worst = max(worst, slack)
        if pred != y:
            violations += 1
    return violations, worst


def bits(result: tuple[int, float]) -> tuple[int, str]:
    violations, worst = result
    assert isinstance(violations, int) and isinstance(worst, float)
    return violations, worst.hex()


def assert_same(got: tuple[int, float], want: tuple[int, float]) -> None:
    assert got == want
    assert bits(got) == bits(want)


TRIALS = (1, 2, 7, 37, 1000)
SEEDS = (0, 1, 2, 3)


@pytest.mark.parametrize("trials", TRIALS)
@pytest.mark.parametrize("dim", (2, 10, 16))
def test_pinsker_equals_the_trial_loop(dim, trials):
    for seed in SEEDS:
        assert_same(_pinsker_impl(trials, dim, seed), pinsker_loop(trials, dim, seed))


@pytest.mark.parametrize("trials", TRIALS)
@pytest.mark.parametrize("num_components,dim", ((5, 8), (2, 2), (3, 12), (9, 8)))
def test_mixture_equals_the_trial_loop(num_components, dim, trials):
    for seed in SEEDS:
        assert_same(
            _mixture_impl(trials, num_components, dim, seed),
            mixture_loop(trials, num_components, dim, seed),
        )


@pytest.mark.parametrize("trials", TRIALS)
@pytest.mark.parametrize("dim,floor", ((8, 0.01), (2, 0.2), (12, 0.05)))
def test_kl_lipschitz_equals_the_trial_loop(dim, floor, trials):
    for seed in SEEDS:
        assert_same(
            _kl_lipschitz_impl(trials, dim, floor, seed), kl_lipschitz_loop(trials, dim, floor, seed)
        )


@pytest.mark.parametrize("trials", TRIALS)
@pytest.mark.parametrize("d_a,num_classes", ((16, 12), (2, 3), (8, 5)))
def test_margin_equals_the_trial_loop(d_a, num_classes, trials):
    for seed in SEEDS:
        rng = np.random.default_rng(100 + seed)
        prototypes = _random_unit_prototypes(rng, d_a, num_classes, min_margin=0.3)
        c_h = float(rng.uniform(0.1, 2.0))
        assert_same(
            _margin_impl(prototypes, c_h, trials, seed), margin_loop(prototypes, c_h, trials, seed)
        )


def test_margin_counts_flips_beyond_the_threshold(monkeypatch):
    # Inflated closest distances push the radius past the margin on both
    # sides, so some trials misclassify and the rival beats the true score.
    real = theory._closest_and_farthest
    monkeypatch.setattr(theory, "_closest_and_farthest", lambda v: (5.0 * real(v)[0], real(v)[1]))
    prototypes = _random_unit_prototypes(np.random.default_rng(7), 6, 4, min_margin=0.3)
    got = _margin_impl(prototypes, 0.8, 200, 5)
    assert_same(got, margin_loop(prototypes, 0.8, 200, 5))
    assert 0 < got[0] < 200 and got[1] > 0.0


@st.composite
def check_cases(draw):
    """One of the four checks with drawn trials, seed and sizes."""
    kind = draw(st.sampled_from(["pinsker", "mixture", "kl_lipschitz", "margin"]))
    trials = draw(st.integers(1, 60))
    seed = draw(st.integers(0, 2**32 - 1))
    dim = draw(st.integers(2, 20))
    if kind == "pinsker":
        return (_pinsker_impl, pinsker_loop), (trials, dim, seed)
    if kind == "mixture":
        k = draw(st.integers(2, 12))  # 8 or more terms is where a row sum would regroup
        return (_mixture_impl, mixture_loop), (trials, k, dim, seed)
    if kind == "kl_lipschitz":
        floor = draw(st.floats(1e-6, 0.99)) / dim
        return (_kl_lipschitz_impl, kl_lipschitz_loop), (trials, dim, floor, seed)
    num_classes = draw(st.integers(2, 8))
    prototypes = _random_unit_prototypes(
        np.random.default_rng(seed), dim, num_classes, min_margin=0.05
    )
    c_h = draw(st.floats(1e-3, 10.0))
    return (_margin_impl, margin_loop), (prototypes, c_h, trials, seed)


@given(check_cases())
@settings(max_examples=150, deadline=None, derandomize=True)
def test_drawn_cases_equal_the_trial_loops(case):
    (impl, loop), args = case
    assert_same(impl(*args), loop(*args))


REAL_DEFAULT_RNG = np.random.default_rng


class ZeroingRng:
    """A generator whose Dirichlet draws have their small entries set to 0."""

    def __init__(self, seed):
        self._rng = REAL_DEFAULT_RNG(seed)

    def dirichlet(self, alpha, size=None):
        draws = self._rng.dirichlet(alpha, size)
        draws[draws < 0.08] = 0.0
        return draws

    def __getattr__(self, name):
        return getattr(self._rng, name)


class TestZeroEntries:
    def test_rows_with_zeros_equal_kl_per_row(self):
        rng = np.random.default_rng(0)
        p = rng.dirichlet(np.ones(9), size=(40, 3))
        q = rng.dirichlet(np.ones(9), size=40)[:, None, :]
        p[p < 0.05] = 0.0
        q = np.where(rng.random(q.shape) < 0.05, 0.0, q)  # q = 0 under p > 0 is infinite
        p[0, 0] = 0.0  # a row that is all zeros
        got = _row_kl(p, q)
        assert got.shape == (40, 3)
        want = [[kl_loop(p[i, k], q[i, 0]) for k in range(3)] for i in range(40)]
        assert [[v.hex() for v in row] for row in got.tolist()] == [
            [v.hex() for v in row] for row in want
        ]
        assert np.isinf(got).any() and (~(p > 0.0).all(axis=-1)).sum() > 40

    # A zeroed q entry under a positive p makes a KL infinite and some slacks
    # inf - inf, which both sides warn about.
    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    @pytest.mark.parametrize("trials", (1, 7, 200))
    def test_checks_with_zero_draws_equal_the_trial_loops(self, monkeypatch, trials):
        # Both sides draw from the same zeroing generator, so rows with
        # zero entries reach the fallback of the array form.
        monkeypatch.setattr(np.random, "default_rng", ZeroingRng)
        for seed in SEEDS:
            assert_same(_pinsker_impl(trials, 10, seed), pinsker_loop(trials, 10, seed))
            assert_same(_mixture_impl(trials, 3, 6, seed), mixture_loop(trials, 3, 6, seed))

    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    def test_nan_trials_are_violations(self, monkeypatch):
        # A zeroed q entry under a positive p makes 192 of these 200 slacks
        # inf - inf.  Each is a trial whose bound could not be evaluated, so
        # each counts as a violation; the worst slack still skips them.
        monkeypatch.setattr(np.random, "default_rng", ZeroingRng)
        violations, worst = _mixture_impl(200, 3, 6, 0)
        assert violations == 192
        assert math.isfinite(worst) and worst <= PROB_EPS


@pytest.fixture
def loop_suite(monkeypatch):
    """Run ``run_check_suite`` with the per-trial loops in place of the array checks."""

    def run(trials, seed):
        with monkeypatch.context() as patch:
            patch.setattr(theory, "_pinsker_impl", pinsker_loop)
            patch.setattr(theory, "_mixture_impl", mixture_loop)
            patch.setattr(theory, "_kl_lipschitz_impl", kl_lipschitz_loop)
            patch.setattr(theory, "_margin_impl", margin_loop)
            return run_check_suite(trials, seed)

    return run


def suite_loops(trials, seed):
    """``run_check_suite`` as it was with one accumulate loop per model-driven
    check, verbatim: each check's draws, in their order, from its own stream."""
    results = []
    v, worst = _pinsker_impl(trials, dim=10, seed=seed)
    results.append(theory.CheckResult("pinsker", trials, v, worst))
    v, worst = _mixture_impl(trials, num_components=5, dim=8, seed=seed + 1)
    results.append(theory.CheckResult("mixture_convexity", trials, v, worst))
    v, worst = _kl_lipschitz_impl(trials, dim=8, floor=0.01, seed=seed + 2)
    results.append(theory.CheckResult("kl_lipschitz", trials, v, worst))

    rng = np.random.default_rng(seed + 3)
    d_v, d_a = 8, 5
    total_pairs = 0
    violations = 0
    worst = -math.inf
    while total_pairs < trials:
        params = init_params(d_v, d_a, num_seen=4, mode=ATTRIBUTE_BASED, seed=int(rng.integers(2**63)))
        samples = rng.standard_normal((10, d_v))
        got_v, got_worst, pairs = theory._left_inverse_impl(params, samples, spectral_bounds(params.W_h))
        violations += got_v
        worst = max(worst, got_worst)
        total_pairs += pairs
    results.append(theory.CheckResult("left_inverse", total_pairs, violations, worst))

    rng = np.random.default_rng(seed + 4)
    total_samples = 0
    violations = 0
    worst = -math.inf
    while total_samples < trials:
        params = init_params(d_v, d_a, num_seen=4, mode=ATTRIBUTE_BASED, seed=int(rng.integers(2**63)))
        prototypes = _random_unit_prototypes(rng, d_a, num_classes=6, min_margin=0.3)
        attrs = AttributeMatrix(values=prototypes, groups=((0, d_a),))
        features = rng.standard_normal((40, d_v))
        labels = rng.integers(0, 6, size=40)
        got_v, got_worst, count = theory._attr_error_impl(
            params, features, labels, attrs, spectral_bounds(params.W_h)
        )
        violations += got_v
        worst = max(worst, got_worst)
        total_samples += count
    results.append(theory.CheckResult("attr_error", total_samples, violations, worst))

    rng = np.random.default_rng(seed + 5)
    per_set = 10
    total = 0
    violations = 0
    worst = -math.inf
    while total < trials:
        prototypes = _random_unit_prototypes(rng, d_a=16, num_classes=12, min_margin=0.3)
        c_h = float(rng.uniform(0.1, 2.0))
        got_v, got_worst = _margin_impl(prototypes, c_h, per_set, int(rng.integers(2**63)))
        violations += got_v
        worst = max(worst, got_worst)
        total += per_set
    results.append(theory.CheckResult("margin", total, violations, worst))
    return results


def suite_bits(results):
    return [(r.name, r.trials, r.violations, r.max_slack.hex()) for r in results]


@pytest.mark.parametrize("trials", (1, 37, 1000))
def test_one_trial_loop_keeps_every_draw(trials):
    # The table-driven loop draws each check's instances in the order of the
    # per-check loops it replaced, so every tuple is unchanged bit for bit.
    for seed in SEEDS:
        assert suite_bits(run_check_suite(trials, seed)) == suite_bits(suite_loops(trials, seed))


@pytest.mark.parametrize("seed", SEEDS)
def test_suite_equals_the_trial_loops(loop_suite, seed):
    want = loop_suite(1000, seed)
    got = run_check_suite(1000, seed)
    assert [(r.name, r.trials, r.violations, r.max_slack.hex()) for r in got] == [
        (r.name, r.trials, r.violations, r.max_slack.hex()) for r in want
    ]


@pytest.mark.parametrize("trials", (1, 37))
def test_check_table_is_unchanged(loop_suite, monkeypatch, capsys, trials):
    assert cli.main(["check", "--trials", str(trials), "--seed", "2"]) == 0
    got = capsys.readouterr().out
    monkeypatch.setattr(cli, "run_check_suite", loop_suite)
    assert cli.main(["check", "--trials", str(trials), "--seed", "2"]) == 0
    assert got == capsys.readouterr().out
