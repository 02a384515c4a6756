"""Local training losses with exact analytic gradients.

``joint_loss`` is the one attribute-based objective, a weighted sum of four
terms: a semantic cross-entropy over class prototypes, an attribute
decorrelation penalty of unsquared per-group norms, a temperature-scaled KL
pull toward class-similarity targets, and a bilateral reconstruction term
tying the decoder back to the input features.  A single term is
``joint_loss`` with only its ``AblationFlags`` flag on, at unit weight.
``ce_loss_attribute_free`` serves the attribute-free baseline.  Both
cross-entropies, the semantic one and the baseline's, run one kernel,
``_sce_core``: it returns the logit gradient, and each caller carries it
through its own product (onto ``a_hat`` or onto the head).  Every loss
reduces by batch mean and reports gradients for each tensor trainable in
the parameter mode, zero-filled when a tensor does not participate.  With
``grads=False`` both losses run the same forward arithmetic, skip every
backward product, and report no gradients; the total and terms are
bit-identical to the gradient-computing call.

The kernels allocate little: each elementwise step writes into an array
the kernel already owns, and the row-local softmax, KL and decorrelation
work runs over blocks of at most ``_ROW_BLOCK`` rows, so the full-split
global loss holds block-sized temporaries and a training batch is one
block.  Three rules keep every result bit-identical to whole-array code.
Matrix products are never split by rows: OpenBLAS blocks and orders its
sums by the shape of the call, so a product over a block of rows need not
round as the same rows of the whole product do.  Per-row values (the
log-probabilities at the labels, the KL row sums, the group norms) are
written into full-length vectors and each is reduced once: numpy sums by
pairwise recursion over the whole vector, and adding per-block partial
sums would group the additions differently.  Reductions in C follow
numpy's pairwise order and are checked at load.

The elementwise passes and reductions of each term, and ``LossReport``'s
finiteness scan, run in the compiled library (``fedzsl._kernels``) a few
calls per row block: before ``exp``, between ``exp`` and ``log``, and
after ``log``.  ``joint_loss``'s weighted sum of the term gradients stays
numpy: done in C it measured slower at both benchmark batch shapes.  Matrix products and numpy's
``exp`` and ``log`` stay numpy calls on whole contiguous blocks, whose bits
do not depend on an element's position.  Each compiled path performs its
numpy body's IEEE operations in the same order; the numpy body runs
instead, per call, when the library is missing, when its reductions did
not match numpy's at load, or when an input is not an array the kernels
take (``_kernels.fits``: non-empty, aligned, C-contiguous float64, int64
for labels; float32 features, as ``features.bin`` loads them, are widened
in C exactly as numpy widens them).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from fedzsl import _kernels
from fedzsl.dataset import AttributeMatrix, _as_features, _as_ids
from fedzsl.glasso import DistillTargets
from fedzsl.model import (
    ATTRIBUTE_BASED,
    ATTRIBUTE_FREE,
    ModelParams,
    forward_attr,
    forward_decode,
    forward_head,
)

DEFAULT_TAU = 4.0
DEFAULT_W_BC = 0.1
DEFAULT_W_KL = 10.0
DEFAULT_W_AD = 0.3

ZERO_NORM_EPS = 1e-12

# Rows per block of the row-local softmax, KL and decorrelation work.  A
# training batch fits in one block; the full-split global loss walks the
# split block by block, so those temporaries stay block-sized.
_ROW_BLOCK = 256

SCE = "sce"
BC = "bc"
KL = "kl"
AD = "ad"
CE = "ce"


class LossError(ValueError):
    """Invalid loss inputs (shape, label, or mode mismatches)."""


class NonFiniteLossError(LossError):
    """A loss value or gradient came out non-finite."""


@dataclass
class LossWeights:
    """Weights of the joint objective, keyed by loss name; the sce weight is fixed at 1."""

    w_bc: float = DEFAULT_W_BC
    w_kl: float = DEFAULT_W_KL
    w_ad: float = DEFAULT_W_AD

    def __post_init__(self) -> None:
        for name in ("w_bc", "w_kl", "w_ad"):
            value = float(getattr(self, name))
            if not (math.isfinite(value) and value >= 0.0):
                raise LossError(f"{name} must be finite and >= 0, got {value}")
            setattr(self, name, value)


@dataclass
class AblationFlags:
    """Per-term enable switches for the joint objective."""

    sce: bool = True
    bc: bool = True
    kl: bool = True
    ad: bool = True


@dataclass
class DistillConfig:
    """Distillation temperature and the precomputed target rows.

    ``log_targets`` caches ``log`` of every target row with its zero
    entries read as 1 (so they log to 0); the KL term gathers its rows
    instead of taking the logarithm at every step.
    """

    tau: float
    targets: DistillTargets
    log_targets: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        self.tau = float(self.tau)
        if self.tau != self.targets.tau:
            raise LossError(
                f"tau ({self.tau}) must match targets.tau ({self.targets.tau})"
            )
        probs = self.targets.probs
        self.log_targets = np.log(np.where(probs > 0.0, probs, 1.0))


@dataclass
class LossReport:
    """Scalar loss, per-term contributions, and named gradient arrays."""

    total: float
    terms: dict[str, float]
    grads: dict[str, np.ndarray]

    def __post_init__(self) -> None:
        self.total = float(self.total)
        if not math.isfinite(self.total):
            raise NonFiniteLossError(f"loss total is non-finite ({self.total})")
        for name, value in self.terms.items():
            if not math.isfinite(value):
                raise NonFiniteLossError(f"loss term '{name}' is non-finite ({value})")
        for name, grad in self.grads.items():
            if not _all_finite(grad):
                raise NonFiniteLossError(f"gradient for '{name}' is non-finite")


def _all_finite(grad: np.ndarray) -> bool:
    # Whether every entry of grad is finite: one compiled pass, or in numpy
    # a sum, since a finite sum proves every entry finite (any NaN or
    # infinity would carry into it), and only a non-finite sum, which may
    # also come from finite entries that overflow, needs the entrywise scan.
    kernels = _loss_kernels((grad,), ())
    if kernels is not None:
        return bool(kernels.all_finite(grad.size, _kernels.address(grad)))
    with np.errstate(over="ignore", invalid="ignore"):
        return math.isfinite(np.add.reduce(grad, axis=None)) or bool(np.all(np.isfinite(grad)))


def _as_batch(
    features: np.ndarray, labels: np.ndarray, d_v: int, loss_name: str
) -> tuple[np.ndarray, np.ndarray]:
    # The features as a (B, d_v) batch and the labels as one per row.
    v = _as_features(features)
    if v.ndim != 2 or v.shape[1] != d_v:
        raise LossError(f"features must have shape (B, {d_v}), got {v.shape}")
    if v.shape[0] < 1:
        raise LossError("batch must contain at least one sample")
    y = _as_ids(labels, f"{loss_name}: labels", LossError)
    if y.shape != (v.shape[0],):
        raise LossError(f"{loss_name}: labels must have shape ({v.shape[0]},), got {y.shape}")
    return v, y


def _require_mode(params: ModelParams, mode: str, loss_name: str) -> None:
    if params.mode != mode:
        raise LossError(f"{loss_name} requires {mode} params, got {params.mode}")


def _row_blocks(rows: int):
    # (start, stop) of each block of at most _ROW_BLOCK rows.
    for start in range(0, rows, _ROW_BLOCK):
        yield start, min(start + _ROW_BLOCK, rows)


def _log_softmax(logits: np.ndarray, out: np.ndarray) -> np.ndarray:
    # Row-wise log-softmax written into ``out``, which may be ``logits``.
    np.subtract(logits, logits.max(axis=1, keepdims=True), out=out)
    out -= np.log(np.exp(out).sum(axis=1, keepdims=True))
    return out


def _sce_core(
    scores: np.ndarray, positions: np.ndarray, grads: bool
) -> tuple[float, np.ndarray | None]:
    # Cross-entropy of softmax(scores) at the label and, with gradients, the
    # logit gradient, which each caller carries through its own product.
    # ``scores`` is left as it is for the KL term.  The log-softmax of each
    # block is written into its rows of d_logits and turned into the logit
    # gradient there.
    kernels = _loss_kernels((scores,), (positions,))
    if kernels is not None:
        return _sce_compiled(kernels, scores, positions, grads)
    batch, classes = scores.shape
    picked = np.empty(batch)
    if grads:
        d_logits = np.empty_like(scores)
    else:
        work = np.empty((min(batch, _ROW_BLOCK), classes))
    for start, stop in _row_blocks(batch):
        rows = np.arange(stop - start)
        labels = positions[start:stop]
        out = d_logits[start:stop] if grads else work[: stop - start]
        log_probs = _log_softmax(scores[start:stop], out)
        picked[start:stop] = log_probs[rows, labels]
        if grads:
            np.exp(log_probs, out=log_probs)
            log_probs[rows, labels] -= 1.0
            log_probs /= batch
    return float(-picked.mean()), d_logits if grads else None


def _sce_compiled(
    kernels: _kernels.Kernels, scores: np.ndarray, positions: np.ndarray, grads: bool
) -> tuple[float, np.ndarray | None]:
    # _sce_core's numpy body, stage by stage: per block, the shift by the row
    # maximum, numpy's exp, the row sums, numpy's log, the log-probabilities
    # and their entries at the labels, and with gradients numpy's exp and
    # the logit gradient.  One work array holds the log-probabilities (the
    # whole d_logits with gradients, else one block), a block of
    # exponentials, its row sums and the picked entries.
    batch, classes = scores.shape
    block = min(batch, _ROW_BLOCK)
    out_rows = batch if grads else block
    work = np.empty((out_rows + block) * classes + block + batch)
    out = work[: out_rows * classes].reshape(out_rows, classes)
    exps = work[out_rows * classes : (out_rows + block) * classes].reshape(block, classes)
    log_sums = work[(out_rows + block) * classes : (out_rows + block) * classes + block]
    at = _kernels.address(work)
    exps_at = at + 8 * out_rows * classes
    sums_at = exps_at + 8 * block * classes
    picked_at = sums_at + 8 * block
    scores_at, labels_at = _kernels.address(scores), _kernels.address(positions)
    for start, stop in _row_blocks(batch):
        rows = stop - start
        first = start if grads else 0
        log_probs = out[first : first + rows]
        probs_at = at + 8 * first * classes
        kernels.softmax_shift(rows, classes, scores_at + 8 * start * classes, probs_at, 1.0)
        np.exp(log_probs, out=exps[:rows])
        kernels.row_sums(rows, classes, exps_at, sums_at)
        np.log(log_sums[:rows], out=log_sums[:rows])
        total = kernels.sce_rows(
            rows, classes, probs_at, sums_at, labels_at + 8 * start, picked_at, start, batch
        )
        if grads:
            np.exp(log_probs, out=log_probs)
            kernels.sce_grad(rows, classes, probs_at, labels_at + 8 * start, batch)
    return -(total / batch), out if grads else None


def _ad_core(
    a_hat: np.ndarray, groups: tuple[tuple[int, int], ...], grads: bool
) -> tuple[float, np.ndarray | None]:
    # Sum of unsquared group norms per sample; the gradient of each group is
    # its unit direction, taken as 0 below the zero-norm threshold.  One
    # elementwise square per row block serves every group; each group's row
    # sums and their square roots are the ones np.linalg.norm(block, axis=1)
    # computes.
    kernels = _loss_kernels((a_hat,), ())
    if kernels is not None and _group_bounds(groups)[2] <= a_hat.shape[1]:
        return _ad_compiled(kernels, a_hat, groups, grads)
    batch = a_hat.shape[0]
    norms = np.empty((len(groups), batch))
    squares = np.empty((min(batch, _ROW_BLOCK), a_hat.shape[1]))
    for start, stop in _row_blocks(batch):
        block = a_hat[start:stop]
        square = np.multiply(block, block, out=squares[: stop - start])
        for k, (first, end) in enumerate(groups):
            np.add.reduce(square[:, first:end], axis=1, out=norms[k, start:stop])
    np.sqrt(norms, out=norms)
    # Group totals are added one at a time in Python floats, as before;
    # builtin sum() compensates its rounding on Python 3.12 and later.
    total = 0.0
    for group_total in norms.sum(axis=1).tolist():
        total += group_total
    if not grads:
        return total / batch, None
    safe = norms >= ZERO_NORM_EPS
    all_safe = bool(safe.all())
    if not all_safe:
        norms[~safe] = 1.0
    grad = np.empty_like(a_hat)
    for k, (first, end) in enumerate(groups):
        np.divide(a_hat[:, first:end], norms[k][:, None], out=grad[:, first:end])
        if not all_safe:
            grad[~safe[k], first:end] = 0.0
    grad /= batch
    return total / batch, grad


def _ad_compiled(
    kernels: _kernels.Kernels, a_hat: np.ndarray, groups: tuple[tuple[int, int], ...], grads: bool
) -> tuple[float, np.ndarray | None]:
    # _ad_core's numpy body in one call over the whole batch.  One work
    # array holds the gradient, when asked for, and the group norms.
    batch, d_a = a_hat.shape
    # ``bounds`` keeps the array that ``bounds_at`` points into alive for the
    # call: the cache of _group_bounds may drop its entry meanwhile.
    bounds, bounds_at, _ = _group_bounds(groups)
    size = batch * d_a if grads else 0
    work = np.empty(size + len(groups) * batch)
    at = _kernels.address(work)
    total = kernels.ad(
        batch,
        d_a,
        _kernels.address(a_hat),
        len(groups),
        bounds_at,
        at + 8 * size,
        at if grads else None,
        ZERO_NORM_EPS,
    )
    return total / batch, work[:size].reshape(batch, d_a) if grads else None


@functools.lru_cache(maxsize=8)
def _group_bounds(groups: tuple[tuple[int, int], ...]) -> tuple[np.ndarray, int, int]:
    # The groups' (first, end) pairs as one int64 array, its address (valid
    # while a caller holds the array), and the columns the compiled pass may
    # read: every group's end when the groups are in range, else a bound no
    # row reaches, so a bad group takes the numpy body and its error.
    bounds = np.array(groups, dtype=np.int64).reshape(-1)
    in_range = bounds.size and (bounds[::2] >= 0).all() and (bounds[::2] <= bounds[1::2]).all()
    reach = int(bounds.max()) if in_range else np.iinfo(np.int64).max
    return bounds, _kernels.address(bounds), reach


def _kl_core(
    scores: np.ndarray,
    prototypes: np.ndarray,
    targets: np.ndarray,
    log_targets: np.ndarray,
    labels: np.ndarray,
    tau: float,
    grads: bool,
) -> tuple[float, np.ndarray | None]:
    # tau^2-scaled KL(target || softmax(z/tau)) per sample, meaned over the
    # batch; d/dz is tau * (softmax - target) / B.  Overwrites ``scores``
    # with the log-probabilities block by block, and gathers each block's
    # target rows (and their cached logarithms) by label.
    kernels = _loss_kernels((scores, targets, log_targets), (labels,))
    if kernels is not None and targets.shape[1] == scores.shape[1] == log_targets.shape[1]:
        return _kl_compiled(kernels, scores, prototypes, targets, log_targets, labels, tau, grads)
    batch = scores.shape[0]
    row_sums = np.empty(batch)
    d_logits = np.empty_like(scores) if grads else None
    for start, stop in _row_blocks(batch):
        log_probs = scores[start:stop]
        log_probs /= tau
        _log_softmax(log_probs, log_probs)
        target_rows = targets[labels[start:stop]]
        contributions = log_targets[labels[start:stop]]
        with np.errstate(divide="ignore", invalid="ignore"):
            contributions -= log_probs
            contributions *= target_rows
        zero = target_rows == 0.0
        if zero.any():
            contributions[zero] = 0.0
        np.add.reduce(contributions, axis=1, out=row_sums[start:stop])
        if grads:
            d_block = np.exp(log_probs, out=d_logits[start:stop])
            d_block -= target_rows
            d_block *= tau
            d_block /= batch
    value = float(tau * tau * row_sums.mean())
    if not grads:
        return value, None
    return value, d_logits @ prototypes.T


def _kl_compiled(
    kernels: _kernels.Kernels,
    scores: np.ndarray,
    prototypes: np.ndarray,
    targets: np.ndarray,
    log_targets: np.ndarray,
    labels: np.ndarray,
    tau: float,
    grads: bool,
) -> tuple[float, np.ndarray | None]:
    # _kl_core's numpy body, stage by stage: per block, the division by tau
    # and the shift by the row maximum, numpy's exp, the row sums, numpy's
    # log, the log-probabilities with each row's KL sum, and with gradients
    # numpy's exp and the logit gradient.  One work array holds d_logits,
    # with gradients, a block of exponentials (then of KL contributions),
    # its row sums and the KL row sums.
    batch, classes = scores.shape
    block = min(batch, _ROW_BLOCK)
    size = batch * classes if grads else 0
    work = np.empty(size + block * classes + block + batch)
    d_logits = work[:size].reshape(batch, classes) if grads else None
    exps = work[size : size + block * classes].reshape(block, classes)
    log_sums = work[size + block * classes : size + block * classes + block]
    d_at = _kernels.address(work)
    exps_at = d_at + 8 * size
    sums_at = exps_at + 8 * block * classes
    row_sums_at = sums_at + 8 * block
    scores_at, labels_at = _kernels.address(scores), _kernels.address(labels)
    targets_at, log_targets_at = _kernels.address(targets), _kernels.address(log_targets)
    for start, stop in _row_blocks(batch):
        rows = stop - start
        log_probs = scores[start:stop]
        probs_at = scores_at + 8 * start * classes
        kernels.softmax_shift(rows, classes, probs_at, probs_at, tau)
        np.exp(log_probs, out=exps[:rows])
        kernels.row_sums(rows, classes, exps_at, sums_at)
        np.log(log_sums[:rows], out=log_sums[:rows])
        total = kernels.kl_rows(
            rows,
            classes,
            probs_at,
            sums_at,
            targets_at,
            log_targets_at,
            labels_at + 8 * start,
            exps_at,
            row_sums_at,
            start,
            batch,
        )
        if grads:
            np.exp(log_probs, out=d_logits[start:stop])
            kernels.kl_grad(
                rows,
                classes,
                d_at + 8 * start * classes,
                targets_at,
                labels_at + 8 * start,
                tau,
                batch,
            )
    value = tau * tau * (total / batch)
    if not grads:
        return value, None
    return value, d_logits @ prototypes.T


def _bc_core(
    a_hat: np.ndarray, v: np.ndarray, params: ModelParams, grads: bool
) -> tuple[float, np.ndarray | None, np.ndarray | None, np.ndarray | None]:
    # Reconstruction residual r_i = h(a_hat_i) - v_i, reduced as the mean
    # squared norm.  The residual becomes its own square (loss only) or its
    # gradient in place.
    batch = a_hat.shape[0]
    residual = forward_decode(params, a_hat)
    kernels = _loss_kernels((residual,), ())
    if (
        kernels is not None
        and v.dtype in _FEATURE_DTYPES
        and v.shape == residual.shape
        and _kernels.fits(v.dtype, v)
    ):
        value, d_b_h = _bc_compiled(kernels, residual, v, grads)
        if not grads:
            return value, None, None, None
    else:
        residual -= v
        if not grads:
            residual *= residual
            return float(residual.sum() / batch), None, None, None
        value = float((residual * residual).sum() / batch)
        residual *= 2.0
        residual /= batch
        d_b_h = residual.sum(axis=0)
    d_W_h = residual.T @ a_hat
    d_a_hat = residual @ params.W_h
    return value, d_a_hat, d_W_h, d_b_h


def _bc_compiled(
    kernels: _kernels.Kernels, residual: np.ndarray, v: np.ndarray, grads: bool
) -> tuple[float, np.ndarray | None]:
    # _bc_core's numpy body in one call: the subtraction (float32 features
    # are widened exactly), the sum of squares and, with gradients, the
    # residual's scaling and its column sums, b_h's gradient.
    batch, d_v = residual.shape
    d_b_h = np.empty(d_v) if grads else None
    total = kernels.bc(
        batch,
        d_v,
        _kernels.address(residual),
        _kernels.address(v),
        v.dtype == np.float32,
        _kernels.address(d_b_h) if grads else None,
    )
    return total / batch, d_b_h


_FEATURE_DTYPES = (np.dtype(np.float32), _kernels.FLOAT64)


def _loss_kernels(
    floats: tuple[np.ndarray, ...], ints: tuple[np.ndarray, ...]
) -> _kernels.Kernels | None:
    # The compiled kernels, when they are built, their reductions match
    # numpy's in this process, and the kernels take ``floats`` as float64
    # and ``ints`` as int64 arrays (``_kernels.fits``); else None, and the
    # caller runs its numpy body.  Labels index rows without a bounds check
    # in C: joint_loss and ce_loss_attribute_free check them against the
    # classes before any core runs.
    kernels = _kernels.compiled()
    if kernels is None or not kernels.pairwise:
        return None
    if _kernels.fits(_kernels.FLOAT64, *floats) and _kernels.fits(_kernels.INT64, *ints):
        return kernels
    return None


def _label_positions(labels: np.ndarray, candidates: list[int], loss_name: str) -> np.ndarray:
    mapping = {c: i for i, c in enumerate(candidates)}
    positions = np.empty(labels.shape[0], dtype=np.int64)
    for i, y in enumerate(labels):
        pos = mapping.get(int(y))
        if pos is None:
            raise LossError(f"{loss_name}: label {int(y)} is not among the candidate classes")
        positions[i] = pos
    return positions


def ce_loss_attribute_free(
    params: ModelParams,
    features: np.ndarray,
    labels: np.ndarray,
    seen_classes: tuple[int, ...] | list[int],
    grads: bool = True,
) -> LossReport:
    """Plain softmax cross-entropy of the linear head over the seen classes.

    Head row ``i`` scores the ``i``-th smallest seen class id; labels are
    mapped through that ordering.  ``grads=False`` returns the same value
    with an empty ``grads``.
    """
    _require_mode(params, ATTRIBUTE_FREE, "ce_loss_attribute_free")
    v, labels = _as_batch(features, labels, params.d_v, "ce_loss_attribute_free")
    seen_ids = _as_ids(list(seen_classes), "ce_loss_attribute_free: seen_classes", LossError)
    seen = sorted(seen_ids.tolist())
    if params.W_c.shape[0] != len(seen):
        raise LossError(
            f"head covers {params.W_c.shape[0]} classes but {len(seen)} seen classes given"
        )
    positions = _label_positions(labels, seen, "ce_loss_attribute_free")
    logits = forward_head(params, v)
    value, d_logits = _sce_core(logits, positions, grads)
    gradients = {"W_c": d_logits.T @ v, "b_c": d_logits.sum(axis=0)} if grads else {}
    return LossReport(total=value, terms={CE: value}, grads=gradients)


def joint_loss(
    params: ModelParams,
    features: np.ndarray,
    labels: np.ndarray,
    A: AttributeMatrix,
    distill: DistillConfig | None,
    weights: LossWeights,
    ablation: AblationFlags | None = None,
    grads: bool = True,
) -> LossReport:
    """Weighted sum of the enabled attribute-based terms.

    This is the one local objective: a single term is this call with
    ``ablation`` enabling only that term and its weight at 1.  A term
    disabled by flag or by zero weight is skipped entirely, so both routes
    produce bit-identical results.  The cross-entropy candidates are always
    all classes of ``A``, and the decorrelation groups are ``A.groups``.
    ``distill`` may be None only when the KL term is disabled.

    ``grads=False`` evaluates the loss only, as the per-round global loss
    does: the forward arithmetic is the same code in the same order, so
    ``total`` and ``terms`` are bit-identical to the default call, while
    every backward product is skipped and ``grads`` comes back empty.  The
    finiteness checks on ``total`` and each term still apply.
    """
    _require_mode(params, ATTRIBUTE_BASED, "joint_loss")
    v, labels = _as_batch(features, labels, params.d_v, "joint_loss")
    ablation = ablation or AblationFlags()
    n = A.num_classes
    if A.d_a != params.d_a:
        raise LossError(f"joint_loss: attributes have d_a {A.d_a}, params have {params.d_a}")
    if labels.min() < 0 or labels.max() >= n:
        raise LossError("joint_loss: a label is outside the attribute matrix classes")
    kl_on = ablation.kl and weights.w_kl > 0.0
    if kl_on:
        if distill is None:
            raise LossError("joint_loss: KL term enabled but no distill config given")
        if distill.targets.probs.shape != (n, n):
            raise LossError(
                f"targets must cover all {n} classes with shape ({n}, {n}), "
                f"got {distill.targets.probs.shape}"
            )
    a_hat = forward_attr(params, v)
    # SCE and KL share one class-score product; KL scales it in place, so
    # it runs right after SCE has read it, and the scores are released
    # before BC allocates its residual.  The terms are still entered, and
    # their gradients summed, in the order SCE, BC, KL, AD.
    scores = a_hat @ A.values if ablation.sce or kl_on else None
    d_a_hat_total = np.zeros_like(a_hat) if grads else None
    terms: dict[str, float] = {}
    d_W_h = d_b_h = None
    if ablation.sce:
        value, d_logits = _sce_core(scores, labels, grads)
        terms[SCE] = value
        if grads:
            d_a_hat_total += d_logits @ A.values.T
        del d_logits
    if kl_on:
        kl_value, d_a_hat_kl = _kl_core(
            scores,
            A.values,
            distill.targets.probs,
            distill.log_targets,
            labels,
            distill.tau,
            grads,
        )
    del scores
    if ablation.bc and weights.w_bc > 0.0:
        value, d_a_hat, d_W_h, d_b_h = _bc_core(a_hat, v, params, grads)
        terms[BC] = weights.w_bc * value
        if grads:
            # Every term returns fresh gradient arrays, so they are weighted
            # in place: w * x and x * w are the same IEEE product.
            d_a_hat *= weights.w_bc
            d_a_hat_total += d_a_hat
            d_W_h *= weights.w_bc
            d_b_h *= weights.w_bc
    if kl_on:
        terms[KL] = weights.w_kl * kl_value
        if grads:
            d_a_hat_kl *= weights.w_kl
            d_a_hat_total += d_a_hat_kl
    if ablation.ad and weights.w_ad > 0.0:
        value, d_a_hat = _ad_core(a_hat, A.groups, grads)
        terms[AD] = weights.w_ad * value
        if grads:
            d_a_hat *= weights.w_ad
            d_a_hat_total += d_a_hat
    gradients: dict[str, np.ndarray] = {}
    if grads:
        # W_h and b_h are zero-filled only when no term wrote them.
        gradients = {
            "W_g": d_a_hat_total.T @ v,
            "b_g": d_a_hat_total.sum(axis=0),
            "W_h": np.zeros_like(params.W_h) if d_W_h is None else d_W_h,
            "b_h": np.zeros_like(params.b_h) if d_b_h is None else d_b_h,
        }
    # Left to right from 0.0: builtin sum() compensates its rounding on 3.12+.
    total = 0.0
    for value in terms.values():
        total += value
    return LossReport(total=total, terms=terms, grads=gradients)
