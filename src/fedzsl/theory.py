"""Executable checks of the guarantees behind the attribute pipeline.

Each check draws seeded random instances that satisfy the premises of one
inequality (probability-vector bounds, Lipschitz bounds on KL divergence,
left-inverse information preservation, attribute error bounds from
reconstruction quality, and margin preservation of prototype
classification) and counts violations, which are provably zero under the
stated premises.  The linear decoder makes the spectral constants exact,
so the instance quantities entering each bound are computed, never
assumed.

The model is evaluated only through ``forward_attr``, ``forward_decode``
and ``compatibility_logits``.  The decoder's ``c_h`` and ``L_h`` come from
power iteration in ``spectral_bounds``; the attribute table's largest
singular value, which scales the report's logit bound, is numpy's exact
2-norm.

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

The Pinsker, KL-Lipschitz, mixture-convexity and margin checks run each
trial's arithmetic once over arrays of all trials, and give the same
violation count and worst slack, bit for bit, as a loop over single
trials.  The random draws keep their per-trial order: Dirichlet fills the
rows of one ``size=(trials, k)`` call in the order of k calls per trial,
while the mixture's weights and the margin's class, radius and direction
are still drawn one trial at a time.  Row-wise KL and L1 sums reduce over
the last axis, which sums each row in the order of the 1-D sum; a row
with a zero ``p`` entry goes through ``_kl``, whose compacted sum is
grouped differently.  The mixture's weighted sum adds one column at a
time from 0.0, as Python's ``sum`` adds, and the margin's direction norms
and 1 x d_a score products use the same kernels as the 1-D calls.

Every check but the margin theorem's, which counts argmax flips, scores
its slacks one way, in ``_score``: a slack counts as a violation unless it
is at most the check's tolerance, so a NaN slack, a bound that could not
be evaluated, is a violation and never a pass.  The worst slack skips
NaN, as ``max(worst, slack)`` does.  A check refuses
fewer than one trial, which would pass without testing anything.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from fedzsl.dataset import AttributeMatrix, _as_ids, _as_int
from fedzsl.glasso import DistillTargets
from fedzsl.model import (
    ATTRIBUTE_BASED, ModelParams, compatibility_logits, forward_attr, forward_decode, init_params
)

DEFAULT_TRIALS = 1000

PROB_EPS = 1e-12
GEOM_EPS = 1e-9
ALIGN_EPS = 1e-6
RANK_EPS = 1e-12

_POWER_TOL = 1e-13
_POWER_MAX_ITER = 100_000

_PAIR_BLOCK = 256  # rows per block of the pair screen
_DISTANCE_BYTES = 4 << 20  # bound on _closest_and_farthest's difference block


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


def _row_kl(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """``_kl`` of each row pair along the last axis, equal to it bit for bit.

    A row whose ``p`` is positive everywhere sums the same terms in the
    same pairwise order as ``_kl``; any other row goes through ``_kl``,
    since compacting it to its support regroups that sum.
    """
    q = np.broadcast_to(q, p.shape)
    with np.errstate(divide="ignore", invalid="ignore"):
        kl = (p * np.log(p / q)).sum(axis=-1)
    for idx in zip(*np.nonzero(~(p > 0.0).all(axis=-1))):
        kl[idx] = _kl(p[idx], q[idx])
    return kl


def _worst(slack: np.ndarray) -> float:
    """The largest slack; a NaN slack is skipped, as ``max(worst, slack)`` skips it."""
    return float(np.fmax.reduce(slack, initial=-math.inf))


def _score(slack: np.ndarray, eps: float) -> tuple[int, float]:
    """Violations and the worst slack: every slack not at most ``eps`` violates, NaN included."""
    return int(np.count_nonzero(~(slack <= eps))), _worst(slack)


def _trials_and_seed(trials: int, seed: int) -> tuple[int, int]:
    # A check's trial count and seed as ints: 2.0 gives 2, while 2.5, NaN and
    # inf are refused, as are fewer than one trial and a negative seed.
    trials = _as_int(trials, "trials", AssumptionError)
    if trials < 1:
        raise AssumptionError(f"a check needs trials >= 1, got {trials}")
    return trials, _as_int(seed, "seed", AssumptionError, least=0)


def _pinsker_impl(trials: int, dim: int, seed: int) -> tuple[int, float]:
    trials, seed = _trials_and_seed(trials, seed)
    if dim < 2:
        raise AssumptionError(f"pinsker check needs dim >= 2, got {dim}")
    rng = np.random.default_rng(seed)
    draws = rng.dirichlet(np.ones(dim), size=(trials, 2))
    p, q = draws[:, 0], draws[:, 1]
    lhs = np.abs(p - q).sum(axis=-1)
    slack = lhs - np.sqrt(2.0 * _row_kl(p, q))
    return _score(slack, PROB_EPS)


def check_pinsker(trials: int = DEFAULT_TRIALS, dim: int = 10, seed: int = 0) -> int:
    """Count violations of ||p - q||_1 <= sqrt(2 KL(p||q)) on random simplex pairs."""
    return _pinsker_impl(trials, dim, seed)[0]


def _mixture_impl(trials: int, num_components: int, dim: int, seed: int) -> tuple[int, float]:
    trials, seed = _trials_and_seed(trials, seed)
    if num_components < 2:
        raise AssumptionError(f"mixture check needs K >= 2, got {num_components}")
    if dim < 2:
        raise AssumptionError(f"mixture check needs dim >= 2, got {dim}")
    rng = np.random.default_rng(seed)
    # Per trial, the K components and q, then the weights: the draw order
    # of separate component, q and weight calls.
    draws = np.empty((trials, num_components + 1, dim))
    alpha = np.empty((trials, num_components))
    mixture = np.empty((trials, dim))
    for t in range(trials):
        draws[t] = components = rng.dirichlet(np.ones(dim), size=num_components + 1)
        alpha[t] = weights = rng.dirichlet(np.ones(num_components))
        mixture[t] = weights @ components[:num_components]
    q = draws[:, num_components]
    kl = _row_kl(draws[:, :num_components], q[:, None])
    # sum(a_k KL_k) adds left to right from 0; a row sum would regroup it.
    rhs = np.zeros(trials)
    for k in range(num_components):
        rhs += alpha[:, k] * kl[:, k]
    slack = _row_kl(mixture, q) - rhs
    return _score(slack, PROB_EPS)


def check_mixture_convexity(
    trials: int = DEFAULT_TRIALS, num_components: int = 5, dim: int = 8, seed: int = 0
) -> int:
    """Count violations of KL(sum a_k p_k || q) <= sum a_k KL(p_k || q)."""
    return _mixture_impl(trials, num_components, dim, seed)[0]


def _kl_lipschitz_impl(trials: int, dim: int, floor: float, seed: int) -> tuple[int, float]:
    trials, seed = _trials_and_seed(trials, seed)
    if dim < 2:
        raise AssumptionError(f"lipschitz check needs dim >= 2, got {dim}")
    if not 0.0 < floor < 1.0 / dim:
        raise AssumptionError(f"floor must lie in (0, 1/dim), got {floor} for dim {dim}")
    rng = np.random.default_rng(seed)
    scale = 1.0 - dim * floor
    points = floor + scale * rng.dirichlet(np.ones(dim), size=(trials, 3))
    r, s, q = points[:, 0], points[:, 1], points[:, 2]
    # The derivative of x -> KL(x||q) along the segment has coordinates
    # log(x_i/q_i) + 1, and |log| over a coordinate interval peaks at an
    # endpoint, so the endpoint maximum plus 1 is a valid constant.
    log_r = np.abs(np.log(r / q))
    log_s = np.abs(np.log(s / q))
    constant = np.maximum(log_r, log_s).max(axis=-1) + 1.0
    lhs = np.abs(_row_kl(r, q) - _row_kl(s, q))
    slack = lhs - constant * np.abs(r - s).sum(axis=-1)
    return _score(slack, PROB_EPS)


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
        violations += _score(exact, GEOM_EPS)[0]
        low[i, j] = high[i, j] = exact
        # A NaN slack is never the worst, as in max(worst, slack) per pair.
        floor = max(floor, float(np.fmax.reduce(low, axis=None, where=pairs, initial=-math.inf)))
        # Only a pair whose upper bound reaches the floor can be the worst.
        i, j = np.nonzero((high >= floor) & pairs)
        if i.size:
            exact = _pair_slacks(a_hat, samples, big, shift, start + i, start + 1 + j)
            worst = max(worst, _worst(exact))
    return violations, worst, n * (n - 1) // 2


def check_left_inverse_bound(params: ModelParams, samples: np.ndarray) -> int:
    """Count violations of the pairwise information-preservation bound.

    For every sample pair, the distance between predicted attribute vectors
    must be at least the feature distance shrunk by the decoder's largest
    singular value, minus twice the worst reconstruction error at the same
    scale.
    """
    return _left_inverse_impl(params, samples, spectral_bounds(params.W_h))[0]


def _class_ids(labels: np.ndarray, num_classes: int) -> np.ndarray:
    # The labels as int64 class ids, each in [0, num_classes); the first
    # that is not is named.
    ids = _as_ids(labels, "labels", AssumptionError)
    bad = (ids < 0) | (ids >= num_classes)
    if np.any(bad):
        raise AssumptionError(
            f"labels must lie in [0, {num_classes}), got {ids.flat[np.argmax(bad)]}"
        )
    return ids


def _attr_error_impl(
    params: ModelParams,
    features: np.ndarray,
    labels: np.ndarray,
    A: AttributeMatrix,
    bounds: tuple[float, float],
    reconstruction: tuple[np.ndarray, np.ndarray] | None = None,
    epsilons: np.ndarray | None = None,
) -> tuple[int, float, int]:
    if params.mode != ATTRIBUTE_BASED:
        raise AssumptionError("attribute error check needs attribute-based params")
    features = np.asarray(features, dtype=np.float64)
    labels = _class_ids(labels, A.num_classes)
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
    if epsilons is None:
        epsilons = _row_norms(forward_decode(params, prototypes) - features)
    slack = _row_norms(a_hat - prototypes) - (epsilons + delta) / small
    return *_score(slack, GEOM_EPS), features.shape[0]


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

    Built a block of columns at a time in one d x block x C difference
    array of at most ``_DISTANCE_BYTES``.  Each distance row equals the
    matching row of ``np.linalg.norm(values[:, :, None] - values[:, None, :],
    axis=0)`` bit for bit: the same differences, squared, summed over axis 0
    in the same order, then square-rooted.
    """
    d, num = values.shape
    closest = np.empty(num)
    farthest = np.empty(num)
    step = min(num, max(1, _DISTANCE_BYTES // (8 * d * num)))
    work = np.empty((d, step, num))
    for start in range(0, num, step):
        stop = min(start + step, num)
        diffs = work[:, : stop - start]
        np.subtract(values[:, start:stop, None], values[:, None, :], out=diffs)
        np.multiply(diffs, diffs, out=diffs)
        dist = np.add.reduce(diffs, axis=0)
        np.sqrt(dist, out=dist)
        farthest[start:stop] = dist.max(axis=1)
        dist[np.arange(stop - start), np.arange(start, stop)] = math.inf
        closest[start:stop] = dist.min(axis=1)
    return closest, farthest


def _margin_impl(
    prototypes: np.ndarray, c_h: float, trials: int, seed: int
) -> tuple[int, float]:
    trials, seed = _trials_and_seed(trials, seed)
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
    ys = np.empty(trials, dtype=np.int64)
    radii = np.empty(trials)
    directions = np.empty((trials, d_a))
    for t in range(trials):
        y = int(rng.integers(num_classes))
        threshold = (c_h / 2.0) * min_dist[y] ** 2 / max_dist[y]
        ys[t] = y
        radii[t] = rng.uniform(0.0, 0.99 * threshold)
        directions[t] = rng.standard_normal(d_a)
    directions /= _row_norms(directions)[:, None]
    a_hat = prototypes[:, ys].T + directions * (radii / c_h)[:, None]
    # One 1 x d_a by d_a x C product per trial, as the per-trial a_hat @ prototypes.
    scores = np.matmul(a_hat[:, None, :], prototypes)[:, 0, :]
    rows = np.arange(trials)
    own = scores[rows, ys]
    violations = int(np.count_nonzero(np.argmax(scores, axis=1) != ys))
    scores[rows, ys] = -math.inf
    slack = scores.max(axis=1) - own
    return violations, _worst(slack)


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
    labels = _class_ids(labels, A.num_classes)
    tau = targets.tau
    logits = compatibility_logits(forward_attr(params, features), A, range(A.num_classes)) / tau
    shifted = logits - logits.max(axis=1, keepdims=True)
    probs = np.exp(shifted)
    probs /= probs.sum(axis=1, keepdims=True)
    rows = targets.probs[labels]
    epsilon = float((tau * tau * _row_kl(rows, probs)).max())
    lhs = np.abs(probs - rows).sum(axis=1)
    bound = math.sqrt(2.0 * epsilon / (tau * tau)) + ALIGN_EPS
    return _score(lhs - bound, 0.0)[0]


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
    # Raised here, not recorded as a check's refusal below.
    labels = _class_ids(labels, A.num_classes)
    small, big = spectral_bounds(params.W_h)
    # One model pass over the rows, shared by delta_rec and both checks.
    reconstruction = _reconstruction_errors(params, features)
    delta_rec = float(reconstruction[0].max())
    values = A.values
    closest, farthest = _closest_and_farthest(values)
    margins = {y: (float(closest[y]), float(farthest[y])) for y in range(A.num_classes)}
    # The per-sample prototype errors, computed once for the report and the attr_error check.
    epsilons = _row_norms(forward_decode(params, values[:, labels].T) - features)
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
            params, features, labels, A, (small, big), reconstruction, epsilons
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

    Each check is a draw that returns (violations, worst slack, assertions
    run), repeated until at least ``trials`` assertions have run: one draw
    covers every trial of a probability check, while the model-driven
    checks draw fresh random models and samples, each from its own stream.
    """
    trials, seed = _trials_and_seed(trials, seed)
    d_v, d_a = 8, 5
    li_rng, ae_rng, mg_rng = (np.random.default_rng(seed + k) for k in (3, 4, 5))

    def model(rng: np.random.Generator) -> ModelParams:
        return init_params(d_v, d_a, num_seen=4, mode=ATTRIBUTE_BASED, seed=int(rng.integers(2**63)))

    def left_inverse() -> tuple[int, float, int]:
        params = model(li_rng)
        samples = li_rng.standard_normal((10, d_v))
        return _left_inverse_impl(params, samples, spectral_bounds(params.W_h))

    def attr_error() -> tuple[int, float, int]:
        params = model(ae_rng)
        prototypes = _random_unit_prototypes(ae_rng, d_a, num_classes=6, min_margin=0.3)
        attrs = AttributeMatrix(values=prototypes, groups=((0, d_a),))
        features = ae_rng.standard_normal((40, d_v))
        labels = ae_rng.integers(0, 6, size=40)
        return _attr_error_impl(params, features, labels, attrs, spectral_bounds(params.W_h))

    def margin() -> tuple[int, float, int]:
        per_set = 10
        prototypes = _random_unit_prototypes(mg_rng, d_a=16, num_classes=12, min_margin=0.3)
        c_h = float(mg_rng.uniform(0.1, 2.0))
        return *_margin_impl(prototypes, c_h, per_set, int(mg_rng.integers(2**63))), per_set

    checks = (
        ("pinsker", lambda: (*_pinsker_impl(trials, 10, seed), trials)),
        ("mixture_convexity", lambda: (*_mixture_impl(trials, 5, 8, seed + 1), trials)),
        ("kl_lipschitz", lambda: (*_kl_lipschitz_impl(trials, 8, 0.01, seed + 2), trials)),
        ("left_inverse", left_inverse),
        ("attr_error", attr_error),
        ("margin", margin),
    )
    results: list[CheckResult] = []
    for name, draw in checks:
        total, violations, worst = 0, 0, -math.inf
        while total < trials:
            got_v, got_worst, count = draw()
            total += count
            violations += got_v
            worst = max(worst, got_worst)
        results.append(CheckResult(name, total, violations, worst))
    return results
