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
block.  Two rules keep every result bit-identical to whole-array code.
Matrix products are never split by rows: OpenBLAS blocks and orders its
sums by the shape of the call, so a product over a block of rows need not
round as the same rows of the whole product do.  Per-row values (the
log-probabilities at the labels, the KL row sums, the group norms) are
written into full-length vectors and each is reduced once: numpy sums by
pairwise recursion over the whole vector, and adding per-block partial
sums would group the additions differently.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

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
        # A finite sum proves every entry finite, as any NaN or infinity
        # would carry into it; only a non-finite sum, which may also come
        # from finite entries that overflow, needs the entrywise scan.
        with np.errstate(over="ignore", invalid="ignore"):
            for name, grad in self.grads.items():
                if math.isfinite(np.add.reduce(grad, axis=None)):
                    continue
                if not np.all(np.isfinite(grad)):
                    raise NonFiniteLossError(f"gradient for '{name}' is non-finite")


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


def _ad_core(
    a_hat: np.ndarray, groups: tuple[tuple[int, int], ...], grads: bool
) -> tuple[float, np.ndarray | None]:
    # Sum of unsquared group norms per sample; the gradient of each group is
    # its unit direction, taken as 0 below the zero-norm threshold.  One
    # elementwise square per row block serves every group; each group's row
    # sums and their square roots are the ones np.linalg.norm(block, axis=1)
    # computes.
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


def _bc_core(
    a_hat: np.ndarray, v: np.ndarray, params: ModelParams, grads: bool
) -> tuple[float, np.ndarray | None, np.ndarray | None, np.ndarray | None]:
    # Reconstruction residual r_i = h(a_hat_i) - v_i, reduced as the mean
    # squared norm.  The residual becomes its own square (loss only) or its
    # gradient in place.
    batch = a_hat.shape[0]
    residual = forward_decode(params, a_hat)
    residual -= v
    if not grads:
        residual *= residual
        return float(residual.sum() / batch), None, None, None
    value = float((residual * residual).sum() / batch)
    residual *= 2.0
    residual /= batch
    d_W_h = residual.T @ a_hat
    d_b_h = residual.sum(axis=0)
    d_a_hat = residual @ params.W_h
    return value, d_a_hat, d_W_h, d_b_h


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
    if np.any(labels < 0) or np.any(labels >= n):
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
