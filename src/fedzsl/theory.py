"""Executable checks of the guarantees behind the attribute pipeline.

Each check draws seeded random instances that satisfy the premises of one
inequality (probability-vector bounds, Lipschitz bounds on KL divergence,
left-inverse information preservation, attribute error bounds from
reconstruction quality, and margin preservation of prototype
classification) and counts violations, which are provably zero under the
stated premises.  The linear decoder makes the spectral constants exact,
so the instance quantities entering each bound are computed, never
assumed.

The data-driven checks are array operations over exact differences: the
pairwise bound takes one row's distances to every later row per step (a
subtraction into a reused buffer, then one norm per row), the
per-sample bounds take row-wise norms, and prototype distances are built
one class at a time, so no d_a x C x C or n x n x d temporary exists.
Row norms go through the same dot kernel as the 1-D ``np.linalg.norm``,
so counts and worst slacks equal those of a loop over single pairs.
The Gram identity |a|^2 + |b|^2 - 2 a.b is avoided on purpose: on
CUB-shaped attribute tables its cancellation error reached 3e-8, thirty
times ``GEOM_EPS``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from fedzsl.dataset import AttributeMatrix
from fedzsl.glasso import DistillTargets
from fedzsl.model import ATTRIBUTE_BASED, ModelParams, init_params

DEFAULT_TRIALS = 1000

PROB_EPS = 1e-12
GEOM_EPS = 1e-9
ALIGN_EPS = 1e-6
RANK_EPS = 1e-12

_POWER_TOL = 1e-13
_POWER_MAX_ITER = 100_000


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


def spectral_bounds(W: np.ndarray, tol: float = _POWER_TOL, max_iter: int = _POWER_MAX_ITER) -> tuple[float, float]:
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
        value = max(float(gram[0, 0]), 0.0)
        sigma = math.sqrt(value)
        return sigma, sigma
    rng = np.random.default_rng(0)
    lam_max = _top_eigenvalue(gram, rng, tol, max_iter)
    shifted = lam_max * np.eye(n) - gram
    lam_gap = _top_eigenvalue(shifted, rng, tol, max_iter)
    lam_min = min(max(lam_max - lam_gap, 0.0), lam_max)
    return math.sqrt(max(lam_min, 0.0)), math.sqrt(max(lam_max, 0.0))


def _top_eigenvalue(G: np.ndarray, rng: np.random.Generator, tol: float, max_iter: int) -> float:
    v = rng.standard_normal(G.shape[0])
    v /= np.linalg.norm(v)
    eig = float(v @ G @ v)
    for _ in range(max_iter):
        w = G @ v
        norm_w = float(np.linalg.norm(w))
        if norm_w == 0.0:
            return 0.0
        v = w / norm_w
        new_eig = float(v @ G @ v)
        if abs(new_eig - eig) <= tol:
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


def _reconstruction_errors(params: ModelParams, samples: np.ndarray) -> np.ndarray:
    a_hat = samples @ params.W_g.T + params.b_g
    recon = a_hat @ params.W_h.T + params.b_h
    return np.linalg.norm(recon - samples, axis=1)


def _row_norms(rows: np.ndarray) -> np.ndarray:
    """Euclidean norm of each row, equal bit for bit to ``np.linalg.norm(row)``.

    A 1 x d by d x 1 product per row runs the dot kernel that the 1-D norm
    runs; ``np.linalg.norm(rows, axis=1)`` sums the squares in another order.
    """
    return np.sqrt(np.matmul(rows[:, None, :], rows[:, :, None])[:, 0, 0])


def _left_inverse_impl(
    params: ModelParams, samples: np.ndarray, bounds: tuple[float, float]
) -> tuple[int, float, int]:
    if params.mode != ATTRIBUTE_BASED:
        raise AssumptionError("left-inverse check needs attribute-based params")
    samples = np.asarray(samples, dtype=np.float64)
    if samples.ndim != 2 or samples.shape[0] < 2:
        raise AssumptionError("left-inverse check needs at least 2 samples")
    _, big = bounds
    if big <= RANK_EPS:
        raise AssumptionError("decoder matrix is zero; the bound is undefined")
    delta = float(_reconstruction_errors(params, samples).max())
    a_hat = samples @ params.W_g.T + params.b_g
    n = samples.shape[0]
    a_buf = np.empty_like(a_hat)
    x_buf = np.empty_like(samples)
    violations = 0
    worst = -math.inf
    for i in range(n - 1):
        # The pairs (i, j), j > i, as rows i+1.. subtracted from row i.
        a_diff = np.subtract(a_hat[i], a_hat[i + 1 :], out=a_buf[: n - i - 1])
        x_diff = np.subtract(samples[i], samples[i + 1 :], out=x_buf[: n - i - 1])
        lhs = _row_norms(a_diff)
        rhs = _row_norms(x_diff) / big - 2.0 * delta / big
        slack = rhs - lhs
        worst = max(worst, float(slack.max()))
        violations += int(np.count_nonzero(slack > GEOM_EPS))
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
    delta = float(_reconstruction_errors(params, features).max())
    a_hat = features @ params.W_g.T + params.b_g
    prototypes = A.values[:, labels].T
    decoded = prototypes @ params.W_h.T + params.b_h
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
    logits = (features @ params.W_g.T + params.b_g) @ A.values / tau
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
    largest singular value).
    """
    if params.mode != ATTRIBUTE_BASED:
        raise AssumptionError("theory report needs attribute-based params")
    features = np.asarray(features, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    small, big = spectral_bounds(params.W_h)
    delta_rec = float(_reconstruction_errors(params, features).max())
    values = A.values
    closest, farthest = _closest_and_farthest(values)
    margins = {y: (float(closest[y]), float(farthest[y])) for y in range(A.num_classes)}
    decoded = values[:, labels].T @ params.W_h.T + params.b_h
    epsilons = np.linalg.norm(decoded - features, axis=1)
    _, sigma_attr = spectral_bounds(values)
    lz = np.linalg.norm(features, axis=1) * sigma_attr
    violations: dict[str, int] = {}
    refusals: list[str] = []
    try:
        violations["left_inverse"] = _left_inverse_impl(params, features, (small, big))[0]
    except AssumptionError as exc:
        refusals.append(f"left_inverse: {exc}")
    try:
        violations["attr_error"] = _attr_error_impl(params, features, labels, A, (small, big))[0]
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
