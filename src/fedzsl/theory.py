"""Executable checks of the guarantees behind the attribute pipeline.

Each check draws seeded random instances that satisfy the premises of one
inequality (probability-vector bounds, Lipschitz bounds on KL divergence,
left-inverse information preservation, attribute error bounds from
reconstruction quality, and margin preservation of prototype
classification) and counts violations, which are provably zero under the
stated premises.  The linear decoder makes the spectral constants exact,
so the instance quantities entering each bound are computed, never
assumed.

The model is evaluated only through ``forward_attr`` and ``forward_decode``.
The decoder's ``c_h`` and ``L_h`` come from power iteration in
``spectral_bounds``; the attribute table's largest singular value, which
scales the report's logit bound, is numpy's exact 2-norm.

The per-sample bounds take row-wise norms of exact differences, and
prototype distances are built one class at a time, so no d_a x C x C
temporary exists.  Row norms go through the same dot kernel as the 1-D
``np.linalg.norm``, so counts and worst slacks equal those of a loop over
single samples or pairs.

The pairwise left-inverse bound screens pairs instead of looping over
them.  Blocks of ``_PAIR_BLOCK`` rows are taken against every later row,
so memory is O(block x n).  Per block, each side's squared distances come
from one product, |x|^2 + |y|^2 - 2 x.y.  That Gram form cancels (on
CUB-shaped attribute tables its error reached 3e-8, thirty times
``GEOM_EPS``), so it never gives an answer, only an interval: each value
is widened by the dot-product error bound gamma_d (|x|^2 + |y|^2)
(Higham, Accuracy and Stability of Numerical Algorithms, 2002, section
3.1), and the slack's own rounded steps (square root, division by L_h,
the shift 2 delta / L_h, the difference) are monotone, so applied to the
ends they bound the slack the exact per-pair form computes.  A pair is
recomputed in that form (the differences, then ``_row_norms``) only when
its interval straddles ``GEOM_EPS`` or is not a number, or when its upper
end reaches the largest lower end seen so far.  The violation count and
the worst slack therefore equal the per-pair loop's bit for bit.  Nearly
equal rows get an interval clamped at zero and are recomputed whenever
its width could matter.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from fedzsl.dataset import AttributeMatrix
from fedzsl.glasso import DistillTargets
from fedzsl.model import ATTRIBUTE_BASED, ModelParams, forward_attr, forward_decode, init_params

DEFAULT_TRIALS = 1000

PROB_EPS = 1e-12
GEOM_EPS = 1e-9
ALIGN_EPS = 1e-6
RANK_EPS = 1e-12

_POWER_TOL = 1e-13
_POWER_MAX_ITER = 100_000

_PAIR_BLOCK = 256  # rows per block of the pair screen


class AssumptionError(ValueError):
    """A check's premise fails on the given instance; nothing was asserted."""


@dataclass
class CheckResult:
    """One row of the check suite: name, trials run, violations, worst slack."""

    name: str
    trials: int
    violations: int
    max_slack: float


@dataclass
class TheoryReport:
    """Instance constants and violation counters for one model and dataset."""

    c_h: float
    L_h: float
    delta_rec: float
    margins: dict[int, tuple[float, float]]
    epsilons: np.ndarray
    lz: np.ndarray
    violations: dict[str, int] = field(default_factory=dict)
    refusals: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if not 0.0 <= self.c_h <= self.L_h:
            raise AssumptionError(f"need 0 <= c_h <= L_h, got c_h={self.c_h}, L_h={self.L_h}")
        if self.delta_rec < 0.0:
            raise AssumptionError(f"delta_rec must be >= 0, got {self.delta_rec}")


def spectral_bounds(W: np.ndarray) -> tuple[float, float]:
    """Smallest and largest singular values of a matrix by power iteration.

    Iterates on W^T W for the largest eigenvalue, then on its spectral
    shift for the smallest, so no dense eigensolver is involved.  For a
    wide matrix the smallest value is that of the column map (0 when the
    columns are dependent), which is the constant the decoder bounds need.
    """
    W = np.asarray(W, dtype=np.float64)
    if W.ndim != 2 or W.shape[0] < 1 or W.shape[1] < 1:
        raise AssumptionError(f"spectral bounds need a nonempty matrix, got shape {W.shape}")
    gram = W.T @ W
    n = gram.shape[0]
    if n == 1:
        sigma = math.sqrt(float(gram[0, 0]))
        return sigma, sigma
    rng = np.random.default_rng(0)
    lam_max = _top_eigenvalue(gram, rng)
    shifted = lam_max * np.eye(n) - gram
    lam_gap = _top_eigenvalue(shifted, rng)
    lam_min = min(max(lam_max - lam_gap, 0.0), lam_max)
    return math.sqrt(max(lam_min, 0.0)), math.sqrt(max(lam_max, 0.0))


def _top_eigenvalue(G: np.ndarray, rng: np.random.Generator) -> float:
    v = rng.standard_normal(G.shape[0])
    v /= np.linalg.norm(v)
    eig = float(v @ G @ v)
    for _ in range(_POWER_MAX_ITER):
        w = G @ v
        norm_w = float(np.linalg.norm(w))
        if norm_w == 0.0:
            return 0.0
        v = w / norm_w
        new_eig = float(v @ G @ v)
        if abs(new_eig - eig) <= _POWER_TOL:
            return new_eig
        eig = new_eig
    return eig


def _kl(p: np.ndarray, q: np.ndarray) -> float:
    mask = p > 0.0
    with np.errstate(divide="ignore"):
        terms = p[mask] * np.log(p[mask] / q[mask])
    return float(terms.sum())


def _pinsker_impl(trials: int, dim: int, seed: int) -> tuple[int, float]:
    if dim < 2:
        raise AssumptionError(f"pinsker check needs dim >= 2, got {dim}")
    rng = np.random.default_rng(seed)
    violations = 0
    worst = -math.inf
    for _ in range(trials):
        p = rng.dirichlet(np.ones(dim))
        q = rng.dirichlet(np.ones(dim))
        lhs = float(np.abs(p - q).sum())
        bound = math.sqrt(2.0 * _kl(p, q))
        slack = lhs - bound
        worst = max(worst, slack)
        if slack > PROB_EPS:
            violations += 1
    return violations, worst


def check_pinsker(trials: int = DEFAULT_TRIALS, dim: int = 10, seed: int = 0) -> int:
    """Count violations of ||p - q||_1 <= sqrt(2 KL(p||q)) on random simplex pairs."""
    return _pinsker_impl(trials, dim, seed)[0]


def _mixture_impl(trials: int, num_components: int, dim: int, seed: int) -> tuple[int, float]:
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
        lhs = _kl(mixture, q)
        rhs = float(sum(a * _kl(p, q) for a, p in zip(alpha, components)))
        slack = lhs - rhs
        worst = max(worst, slack)
        if slack > PROB_EPS:
            violations += 1
    return violations, worst


def check_mixture_convexity(
    trials: int = DEFAULT_TRIALS, num_components: int = 5, dim: int = 8, seed: int = 0
) -> int:
    """Count violations of KL(sum a_k p_k || q) <= sum a_k KL(p_k || q)."""
    return _mixture_impl(trials, num_components, dim, seed)[0]


def _kl_lipschitz_impl(trials: int, dim: int, floor: float, seed: int) -> tuple[int, float]:
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
        lhs = abs(_kl(r, q) - _kl(s, q))
        rhs = constant * float(np.abs(r - s).sum())
        slack = lhs - rhs
        worst = max(worst, slack)
        if slack > PROB_EPS:
            violations += 1
    return violations, worst


def check_kl_lipschitz(
    trials: int = DEFAULT_TRIALS, dim: int = 8, floor: float = 0.01, seed: int = 0
) -> int:
    """Count violations of the segment-Lipschitz bound on KL over floored simplices."""
    return _kl_lipschitz_impl(trials, dim, floor, seed)[0]


def _reconstruction_errors(params: ModelParams, samples: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-row reconstruction error ``||h(g(v)) - v||`` and the predicted attributes ``g(v)``."""
    a_hat = forward_attr(params, samples)
    return np.linalg.norm(forward_decode(params, a_hat) - samples, axis=1), a_hat


def _row_norms(rows: np.ndarray) -> np.ndarray:
    """Euclidean norm of each row, equal bit for bit to ``np.linalg.norm(row)``.

    A 1 x d by d x 1 product per row runs the dot kernel that the 1-D norm
    runs; ``np.linalg.norm(rows, axis=1)`` sums the squares in another order.
    """
    return np.sqrt(np.matmul(rows[:, None, :], rows[:, :, None])[:, 0, 0])


def _distance_bounds(rows: np.ndarray, cols: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Floats ``low <= _row_norms(x - y) <= high`` for every row x and column row y.

    The squared distance comes from one product, G = |x|^2 + |y|^2 - 2 x.y.
    With M = |x|^2 + |y|^2 and u the unit roundoff, G is within
    (2d + 3) u M of the true value by the dot-product bound (Higham 2002,
    section 3.1) and Cauchy-Schwarz, and the exact form, which rounds each
    difference and sums the squares, within (d + 2) u of it relative, or
    (2d + 6) u M since G <= 2M.  ``4 (d + 8) eps M`` covers both twice over,
    the roundings that form the bounds included, and ``tiny`` covers
    underflow.  A distance that cancels to nothing makes ``low`` 0.  Square
    roots round correctly, so monotonically, and the bounds hold for the
    norms too.
    """
    d = rows.shape[1]
    tiny = 8 * (d + 8) * math.ulp(0.0)
    err = np.einsum("ij,ij->i", rows, rows)[:, None] + np.einsum("ij,ij->i", cols, cols)
    gram = rows @ cols.T
    gram *= -2.0
    gram += err
    err *= 4 * (d + 8) * np.finfo(np.float64).eps
    err += tiny
    high = gram + err
    gram -= err
    np.maximum(gram, 0.0, out=gram)
    return np.sqrt(gram, out=gram), np.sqrt(high, out=high)


@np.errstate(over="ignore", invalid="ignore")
def _slack_bounds(
    a_hat: np.ndarray, samples: np.ndarray, rows: slice, cols: slice, big: float, shift: float
) -> tuple[np.ndarray, np.ndarray]:
    """Bounds on the exact slack of every (row, col) pair; NaN where a bound overflowed."""
    a_low, a_high = _distance_bounds(a_hat[rows], a_hat[cols])
    low, high = _distance_bounds(samples[rows], samples[cols])
    # The slack is x / big - shift - a, rounded step by step; each step is
    # monotone, so the same steps on the bounds bound it.
    low /= big
    low -= shift
    low -= a_high
    high /= big
    high -= shift
    high -= a_low
    return low, high


def _pair_slacks(
    a_hat: np.ndarray, samples: np.ndarray, big: float, shift: float, i: np.ndarray, j: np.ndarray
) -> np.ndarray:
    """The exact slack of each pair (i, j): the differences, then one norm per row."""
    lhs = _row_norms(np.subtract(a_hat[i], a_hat[j]))
    rhs = _row_norms(np.subtract(samples[i], samples[j])) / big - shift
    return rhs - lhs


def _left_inverse_impl(
    params: ModelParams,
    samples: np.ndarray,
    bounds: tuple[float, float],
    reconstruction: tuple[np.ndarray, np.ndarray] | None = None,
) -> tuple[int, float, int]:
    if params.mode != ATTRIBUTE_BASED:
        raise AssumptionError("left-inverse check needs attribute-based params")
    samples = np.asarray(samples, dtype=np.float64)
    if samples.ndim != 2 or samples.shape[0] < 2:
        raise AssumptionError("left-inverse check needs at least 2 samples")
    _, big = bounds
    if big <= RANK_EPS:
        raise AssumptionError("decoder matrix is zero; the bound is undefined")
    if reconstruction is None:
        reconstruction = _reconstruction_errors(params, samples)
    errors, a_hat = reconstruction
    shift = 2.0 * float(errors.max()) / big
    n = samples.shape[0]
    violations = 0
    worst = -math.inf
    floor = -math.inf  # the largest lower bound so far, a floor under the final worst
    for start in range(0, n - 1, _PAIR_BLOCK):
        # Rows start..stop-1 against every later row j > i.
        stop = min(start + _PAIR_BLOCK, n - 1)
        rows, cols = slice(start, stop), slice(start + 1, n)
        low, high = _slack_bounds(a_hat, samples, rows, cols, big, shift)
        pairs = np.triu(np.ones(low.shape, dtype=bool))
        sure = low > GEOM_EPS
        sure &= pairs
        violations += int(np.count_nonzero(sure))
        # Pairs the bounds leave undecided, or whose bounds are not numbers.
        redo = ~(sure | (high <= GEOM_EPS))
        redo &= pairs
        i, j = np.nonzero(redo)
        exact = _pair_slacks(a_hat, samples, big, shift, start + i, start + 1 + j)
        violations += int(np.count_nonzero(exact > GEOM_EPS))
        low[i, j] = high[i, j] = exact
        # A NaN slack is never the worst, as in max(worst, slack) per pair.
        floor = max(floor, float(np.fmax.reduce(low, axis=None, where=pairs, initial=-math.inf)))
        # Only a pair whose upper bound reaches the floor can be the worst.
        i, j = np.nonzero((high >= floor) & pairs)
        if i.size:
            exact = _pair_slacks(a_hat, samples, big, shift, start + i, start + 1 + j)
            worst = max(worst, float(exact.max()))
    return violations, worst, n * (n - 1) // 2


def check_left_inverse_bound(params: ModelParams, samples: np.ndarray) -> int:
    """Count violations of the pairwise information-preservation bound.

    For every sample pair, the distance between predicted attribute vectors
    must be at least the feature distance shrunk by the decoder's largest
    singular value, minus twice the worst reconstruction error at the same
    scale.
    """
    return _left_inverse_impl(params, samples, spectral_bounds(params.W_h))[0]


def _attr_error_impl(
    params: ModelParams,
    features: np.ndarray,
    labels: np.ndarray,
    A: AttributeMatrix,
    bounds: tuple[float, float],
    reconstruction: tuple[np.ndarray, np.ndarray] | None = None,
) -> tuple[int, float, int]:
    if params.mode != ATTRIBUTE_BASED:
        raise AssumptionError("attribute error check needs attribute-based params")
    features = np.asarray(features, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    small, _ = bounds
    if small <= RANK_EPS:
        raise AssumptionError(
            "decoder is not injective (smallest singular value is 0); bound does not apply"
        )
    if reconstruction is None:
        reconstruction = _reconstruction_errors(params, features)
    errors, a_hat = reconstruction
    delta = float(errors.max())
    prototypes = A.values[:, labels].T
    decoded = forward_decode(params, prototypes)
    lhs = _row_norms(a_hat - prototypes)
    eps = _row_norms(decoded - features)
    slack = lhs - (eps + delta) / small
    return int(np.count_nonzero(slack > GEOM_EPS)), float(slack.max()), features.shape[0]


def check_attr_error_bound(
    params: ModelParams, features: np.ndarray, labels: np.ndarray, A: AttributeMatrix
) -> int:
    """Count violations of the per-sample attribute error bound.

    The distance from a sample's predicted attributes to its class
    prototype is bounded by the prototype's decoding error plus the worst
    reconstruction error, divided by the decoder's smallest singular value.
    """
    return _attr_error_impl(params, features, labels, A, spectral_bounds(params.W_h))[0]


def _closest_and_farthest(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
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


def _margin_impl(
    prototypes: np.ndarray, c_h: float, trials: int, seed: int
) -> tuple[int, float]:
    d_a, num_classes = prototypes.shape
    if num_classes < 2:
        raise AssumptionError("margin check needs at least 2 prototypes")
    norms = np.linalg.norm(prototypes, axis=0)
    if np.max(np.abs(norms - 1.0)) > 1e-9:
        raise AssumptionError("margin check requires unit-normalized prototypes")
    if not (math.isfinite(c_h) and c_h > 0.0):
        raise AssumptionError(f"margin check needs c_h > 0, got {c_h}")
    min_dist, max_dist = _closest_and_farthest(prototypes)
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


def check_margin_theorem(
    A: AttributeMatrix | np.ndarray, c_h: float, trials: int = DEFAULT_TRIALS, seed: int = 0
) -> int:
    """Count misclassifications of prototypes perturbed below the margin threshold.

    Per trial, a class prototype is perturbed along a random unit direction
    by strictly less than the class's margin threshold scaled by 1/c_h, and
    the dot-product argmax must still return that class.
    """
    values = A.values if isinstance(A, AttributeMatrix) else np.asarray(A, dtype=np.float64)
    return _margin_impl(values, c_h, trials, seed)[0]


def check_client_alignment(
    params: ModelParams,
    features: np.ndarray,
    labels: np.ndarray,
    A: AttributeMatrix,
    targets: DistillTargets,
) -> int:
    """Count violations of the per-sample alignment bound implied by distillation.

    With epsilon taken as the worst per-sample distillation loss value, every
    sample's predicted distribution must sit within sqrt(2*epsilon/tau^2) of
    its target row in L1 distance.
    """
    if params.mode != ATTRIBUTE_BASED:
        raise AssumptionError("alignment check needs attribute-based params")
    features = np.asarray(features, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    tau = targets.tau
    logits = forward_attr(params, features) @ A.values / tau
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
    bound = math.sqrt(2.0 * epsilon / (tau * tau)) + ALIGN_EPS
    return int(np.count_nonzero(lhs > bound))


def build_theory_report(
    params: ModelParams,
    features: np.ndarray,
    labels: np.ndarray,
    A: AttributeMatrix,
) -> TheoryReport:
    """Compute the instance constants and run the data-driven checks.

    Collects the decoder's spectral constants, the worst reconstruction
    error, per-class margin pairs (closest and farthest prototype
    distances), per-sample prototype decoding errors, and an informational
    per-sample logit scale (feature norm times the prototype matrix's
    largest singular value, computed exactly).
    """
    if params.mode != ATTRIBUTE_BASED:
        raise AssumptionError("theory report needs attribute-based params")
    features = np.asarray(features, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    small, big = spectral_bounds(params.W_h)
    # One model pass over the rows, shared by delta_rec and both checks.
    reconstruction = _reconstruction_errors(params, features)
    delta_rec = float(reconstruction[0].max())
    values = A.values
    closest, farthest = _closest_and_farthest(values)
    margins = {y: (float(closest[y]), float(farthest[y])) for y in range(A.num_classes)}
    decoded = forward_decode(params, values[:, labels].T)
    epsilons = np.linalg.norm(decoded - features, axis=1)
    lz = np.linalg.norm(features, axis=1) * float(np.linalg.norm(values, 2))
    violations: dict[str, int] = {}
    refusals: list[str] = []
    try:
        violations["left_inverse"] = _left_inverse_impl(
            params, features, (small, big), reconstruction
        )[0]
    except AssumptionError as exc:
        refusals.append(f"left_inverse: {exc}")
    try:
        violations["attr_error"] = _attr_error_impl(
            params, features, labels, A, (small, big), reconstruction
        )[0]
    except AssumptionError as exc:
        refusals.append(f"attr_error: {exc}")
    return TheoryReport(
        c_h=small,
        L_h=big,
        delta_rec=delta_rec,
        margins=margins,
        epsilons=epsilons,
        lz=lz,
        violations=violations,
        refusals=tuple(refusals),
    )


def _random_unit_prototypes(
    rng: np.random.Generator, d_a: int, num_classes: int, min_margin: float
) -> np.ndarray:
    for _ in range(1000):
        raw = rng.standard_normal((d_a, num_classes))
        values = raw / np.linalg.norm(raw, axis=0, keepdims=True)
        if float(_closest_and_farthest(values)[0].min()) >= min_margin:
            return values
    raise AssumptionError("could not draw a prototype set with the requested margin")


def run_check_suite(trials: int = DEFAULT_TRIALS, seed: int = 0) -> list[CheckResult]:
    """Run all six checks on seeded random instances and tabulate results.

    Model-driven checks draw fresh random models and samples until at least
    ``trials`` individual assertions have run.
    """
    results: list[CheckResult] = []
    v, worst = _pinsker_impl(trials, dim=10, seed=seed)
    results.append(CheckResult("pinsker", trials, v, worst))
    v, worst = _mixture_impl(trials, num_components=5, dim=8, seed=seed + 1)
    results.append(CheckResult("mixture_convexity", trials, v, worst))
    v, worst = _kl_lipschitz_impl(trials, dim=8, floor=0.01, seed=seed + 2)
    results.append(CheckResult("kl_lipschitz", trials, v, worst))

    rng = np.random.default_rng(seed + 3)
    d_v, d_a = 8, 5
    total_pairs = 0
    violations = 0
    worst = -math.inf
    while total_pairs < trials:
        params = init_params(d_v, d_a, num_seen=4, mode=ATTRIBUTE_BASED, seed=int(rng.integers(2**63)))
        samples = rng.standard_normal((10, d_v))
        got_v, got_worst, pairs = _left_inverse_impl(params, samples, spectral_bounds(params.W_h))
        violations += got_v
        worst = max(worst, got_worst)
        total_pairs += pairs
    results.append(CheckResult("left_inverse", total_pairs, violations, worst))

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
        got_v, got_worst, count = _attr_error_impl(
            params, features, labels, attrs, spectral_bounds(params.W_h)
        )
        violations += got_v
        worst = max(worst, got_worst)
        total_samples += count
    results.append(CheckResult("attr_error", total_samples, violations, worst))

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
    results.append(CheckResult("margin", total, violations, worst))
    return results
