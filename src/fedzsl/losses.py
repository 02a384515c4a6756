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
``grads=False`` both losses run the same forward arithmetic a block of
rows at a time, skip every backward product, and report no gradients; the
total and terms are bit-identical to the gradient-computing call under one
BLAS thread.

Losses with gradients run in a ``StepWorkspace``: every array the step
writes (the gathered batch, ``a_hat``, the class scores, each term's work
arrays, ``a_hat``'s gradient and the parameter gradients) is allocated
once, 64-byte aligned, and the address of each is bound once.  Local
training builds one per client and takes every step in it: each product
goes into its array through ``np.matmul(..., out=)``, which writes the
bits of ``@``, and a short last batch uses the leading rows of each array.
So a step allocates nothing, and nothing is looked up or checked per step
save the finiteness of the total, each term and every gradient.  The
public ``joint_loss`` and ``ce_loss_attribute_free`` build a one-shot
workspace, so there is one code path.  Each term body, and each compiled
row kernel, takes the rows it is given in one pass: it writes their
per-row values into the vector it is given and returns its term over
those rows.  Only the forward-only loss splits rows into blocks.

The forward-only loss (``grads=False``, the per-round global loss over the
whole training split) takes its products too over blocks of
``_ROW_BLOCK`` rows, so it never holds an array over all rows x d_a,
classes or d_v.  Three rules keep every result bit-identical to
whole-array code.  Matrix products are split by rows only into blocks of
256 (``_ROW_BLOCK``) or more rows, and only under one BLAS thread, which
``fedzsl.run_simulation`` pins: OpenBLAS blocks and orders its sums by the
shape of the call, and a block of that many rows rounds as the same rows
of the whole product do, where a smaller one need not.  That was checked
only on OpenBLAS 0.3.31's SkylakeX kernels, at the benchmark shapes, at
d_v 2048 and at narrow shapes down to d_a 6, d_v 8; under more BLAS
threads, or another BLAS, the forward-only loss may differ from the
gradient-computing call in its last bits.  Each block hands the term
bodies its slice of a full-length vector of per-row values (the
log-probabilities at the labels, the KL row sums; the group norms go into
a block-sized groups x rows array, copied into the full one), and the
term a body returns for the block is not read.  Once every block is in,
the scoring reduces each full vector once, by the numpy bodies' own
expressions (``_sce_value``, ``_kl_value``, ``_ad_value``): numpy sums by
pairwise recursion over the whole vector, and adding per-block partial
sums would group the additions differently.  BC's sum of squares over all
rows x d_v values is reduced the same way (``_SquareSum``): each block
writes the sums of the pairwise recursion's leaves that lie wholly inside
it into a compiled table, and its squares of the at most two leaves it
shares with a neighbouring block beside it, and one call adds the leaves
up the recursion once every block is in; on the numpy bodies, each block
writes its squares into one full-length vector reduced once.  Reductions
in C follow numpy's pairwise order and are checked at load.  Since no
value depends on the order the blocks run in, the calling thread and one
more take them, every block alike, as each comes free (``_map_blocks``),
and the evaluation's predictions run the same way.

The elementwise passes and reductions of each term, and a step's
finiteness scan of its gradients, run in the compiled library
(``fedzsl._kernels``) a few calls per term: before ``exp``, between
``exp`` and ``log``, and after ``log``.  The weighted sum of the term
gradients stays numpy: done in C it measured slower at both benchmark
batch shapes.  Matrix products
and numpy's ``exp`` and ``log`` stay numpy calls on whole contiguous
blocks, whose bits do not depend on an element's position.  Each compiled
path performs its numpy body's IEEE operations in the same order.  Whether
the compiled paths or the numpy bodies run depends on the process alone
(``_loss_kernels``, asked once per workspace and once per forward-only
call, never per kernel call): the numpy bodies run when the library is
missing or its reductions did not match numpy's at load.  Every array the
kernels read is in a layout they take (``_kernels.fits``): the losses
allocate their work arrays, ``_as_batch`` requires the features and
labels C-contiguous, and ``DistillTargets`` its table.  The step
workspace widens float32 features, as ``features.bin`` loads them, into
its own float64 batch, which changes no bit: numpy widens them exactly
before any product.
"""

from __future__ import annotations

import contextvars
import functools
import math
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from fedzsl import _kernels
from fedzsl.dataset import AttributeMatrix, _as_features, _as_ids
from fedzsl.glasso import DistillTargets
from fedzsl.model import (
    ATTRIBUTE_BASED,
    ATTRIBUTE_FREE,
    ModelParams,
    OptState,
    _affine_rows,
    _bound_update,
    _check_update,
    _numpy_update,
    forward_attr,
    forward_decode,
    forward_head,
)

DEFAULT_TAU = 4.0
DEFAULT_W_BC = 0.1
DEFAULT_W_KL = 10.0
DEFAULT_W_AD = 0.3

ZERO_NORM_EPS = 1e-12

# Rows per block of the forward-only loss (joint_loss with grads=False) and
# the evaluation: they take their products and terms this many rows at a
# time, a tail of fewer rows joining the block before it (_forward_blocks),
# so their temporaries stay block-sized.
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
        _require_finite(
            self.total, self.terms, ((name, _finite_numpy(g)) for name, g in self.grads.items())
        )


def _require_finite(total: float, terms: dict[str, float], finite_grads) -> None:
    # Raises NonFiniteLossError for the first of the total, the terms and the
    # gradients that is not finite.  ``finite_grads`` yields (name, whether
    # every entry is finite) and is read only up to the first that is not.
    if not math.isfinite(total):
        raise NonFiniteLossError(f"loss total is non-finite ({total})")
    for name, value in terms.items():
        if not math.isfinite(value):
            raise NonFiniteLossError(f"loss term '{name}' is non-finite ({value})")
    for name, finite in finite_grads:
        if not finite:
            raise NonFiniteLossError(f"gradient for '{name}' is non-finite")


def _finite_numpy(grad: np.ndarray) -> bool:
    # A sum, since a finite sum proves every entry finite (any NaN or
    # infinity would carry into it), and only a non-finite sum, which may
    # also come from finite entries that overflow, needs the entrywise scan.
    with np.errstate(over="ignore", invalid="ignore"):
        return math.isfinite(np.add.reduce(grad, axis=None)) or bool(np.all(np.isfinite(grad)))


def _as_batch(
    features: np.ndarray, labels: np.ndarray, d_v: int, loss_name: str
) -> tuple[np.ndarray, np.ndarray]:
    # The features as a C-contiguous (B, d_v) batch and the labels as one
    # int64 per row, in the layout the kernels take.
    v = _as_features(features)
    if v.ndim != 2 or v.shape[1] != d_v:
        raise LossError(f"features must have shape (B, {d_v}), got {v.shape}")
    if v.shape[0] < 1:
        raise LossError("batch must contain at least one sample")
    y = _as_ids(labels, f"{loss_name}: labels", LossError)
    if y.shape != (v.shape[0],):
        raise LossError(f"{loss_name}: labels must have shape ({v.shape[0]},), got {y.shape}")
    return np.require(v, requirements="CA"), np.require(y, requirements="CA")


def _require_mode(params: ModelParams, mode: str, loss_name: str) -> None:
    if params.mode != mode:
        raise LossError(f"{loss_name} requires {mode} params, got {params.mode}")


def _aligned(shape: int | tuple[int, ...], dtype=np.float64) -> np.ndarray:
    # An uninitialized C-contiguous array whose first element sits on a
    # 64-byte boundary, carved out of a byte buffer that it keeps alive.
    dtype = np.dtype(dtype)
    nbytes = math.prod(shape if isinstance(shape, tuple) else (shape,)) * dtype.itemsize
    raw = np.empty(nbytes + 64, dtype=np.uint8)
    start = -raw.ctypes.data % 64
    return raw[start : start + nbytes].view(dtype).reshape(shape)


def _log_softmax(logits: np.ndarray, out: np.ndarray) -> np.ndarray:
    # Row-wise log-softmax written into ``out``, which may be ``logits``.
    np.subtract(logits, logits.max(axis=1, keepdims=True), out=out)
    out -= np.log(np.exp(out).sum(axis=1, keepdims=True))
    return out


class _SoftmaxWork:
    """The work arrays of one softmax term, 64-byte aligned, with their addresses.

    For up to ``rows`` rows of ``classes`` values: ``out`` holds SCE's
    log-probabilities, which become its logit gradient, or KL's logit
    gradient (no rows without ``out``, as KL without gradients needs none).
    The numpy bodies use ``out`` alone; for the ``compiled`` ones ``exps``
    holds the exponentials (then KL's contributions) and ``log_sums`` their
    row sums, and the addresses are bound.
    """

    __slots__ = ("out", "exps", "log_sums", "out_at", "exps_at", "sums_at")

    def __init__(self, rows: int, classes: int, compiled: bool, out: bool = True) -> None:
        out_rows = rows if out else 0
        if not compiled:
            self.out = _aligned((out_rows, classes))
            return
        work = _aligned((out_rows + rows) * classes + rows)
        self.out = work[: out_rows * classes].reshape(out_rows, classes)
        self.exps = work[out_rows * classes : (out_rows + rows) * classes].reshape(rows, classes)
        self.log_sums = work[(out_rows + rows) * classes :]
        self.out_at = _kernels.address(work)
        self.exps_at = self.out_at + 8 * out_rows * classes
        self.sums_at = self.exps_at + 8 * rows * classes


def _sce_value(picked: np.ndarray) -> float:
    # The cross-entropy from the log-probabilities at the labels: their negated mean.
    return float(-picked.mean())


def _kl_value(row_sums: np.ndarray, tau: float) -> float:
    # The KL term from each row's KL sum: tau^2 times their mean.
    return float(tau * tau * row_sums.mean())


def _ad_value(norms: np.ndarray) -> float:
    # The decorrelation term from the group norms (groups x rows): each
    # group's sum, added one at a time in Python floats (builtin sum()
    # compensates its rounding on Python 3.12 and later), over the rows.
    total = 0.0
    for group_total in norms.sum(axis=1).tolist():
        total += group_total
    return total / norms.shape[1]


def _sce_core(
    kernels: _kernels.Kernels | None,
    scores: np.ndarray,
    positions: np.ndarray,
    grads: bool,
    picked: np.ndarray | None = None,
) -> tuple[float, np.ndarray | None]:
    # Cross-entropy of softmax(scores) at the label and, with gradients, the
    # logit gradient, which each caller carries through its own product;
    # compiled (_sce_compiled) when ``kernels`` is given, else _sce_numpy.
    # ``scores`` is left as it is for the KL term.  The log-probabilities at
    # the labels go into ``picked``, one per row (a vector of its own by
    # default).
    batch, classes = scores.shape
    if picked is None:
        picked = np.empty(batch)
    work = _SoftmaxWork(batch, classes, kernels is not None)
    if kernels is None:
        return _sce_numpy(work, scores, positions, grads, picked)
    at = _kernels.address
    return _sce_compiled(kernels, work, scores, at(scores), at(positions), grads, at(picked))


def _sce_numpy(
    work: _SoftmaxWork,
    scores: np.ndarray,
    positions: np.ndarray,
    grads: bool,
    picked: np.ndarray,
) -> tuple[float, np.ndarray | None]:
    # The log-softmax is written into work.out and turned into the logit
    # gradient there.
    batch = scores.shape[0]
    rows = np.arange(batch)
    log_probs = _log_softmax(scores, work.out[:batch])
    picked[:] = log_probs[rows, positions]
    if grads:
        np.exp(log_probs, out=log_probs)
        log_probs[rows, positions] -= 1.0
        log_probs /= batch
    return _sce_value(picked), log_probs if grads else None


def _sce_compiled(
    kernels: _kernels.Kernels,
    work: _SoftmaxWork,
    scores: np.ndarray,
    scores_at: int,
    labels_at: int,
    grads: bool,
    picked_at: int,
) -> tuple[float, np.ndarray | None]:
    # _sce_numpy, stage by stage: the shift by the row maximum, numpy's exp,
    # the row sums, numpy's log, the log-probabilities and their entries at
    # the labels, and with gradients numpy's exp and the logit gradient.
    # ``*_at`` are the addresses of scores, the labels and picked.
    batch, classes = scores.shape
    log_probs, log_sums = work.out[:batch], work.log_sums[:batch]
    kernels.softmax_shift(batch, classes, scores_at, work.out_at, 1.0)
    np.exp(log_probs, out=work.exps[:batch])
    kernels.row_sums(batch, classes, work.exps_at, work.sums_at)
    np.log(log_sums, out=log_sums)
    total = kernels.sce_rows(batch, classes, work.out_at, work.sums_at, labels_at, picked_at)
    if grads:
        np.exp(log_probs, out=log_probs)
        kernels.sce_grad(batch, classes, work.out_at, labels_at)
    return -(total / batch), log_probs if grads else None


def _ad_core(
    kernels: _kernels.Kernels | None,
    a_hat: np.ndarray,
    groups: tuple[tuple[int, int], ...],
    grads: bool,
    norms: np.ndarray | None = None,
) -> tuple[float, np.ndarray | None]:
    # Sum of unsquared group norms per sample; the gradient of each group is
    # its unit direction, taken as 0 below the zero-norm threshold.
    # Compiled (_ad_compiled) when ``kernels`` is given, else _ad_numpy.  The
    # norms go into ``norms`` (groups x rows, an array of its own by
    # default).
    batch, d_a = a_hat.shape
    if norms is None:
        norms = np.empty((len(groups), batch))
    grad = np.empty((batch, d_a)) if grads else None
    if kernels is None:
        return _ad_numpy(a_hat, groups, norms, grad)
    # ``bounds`` keeps the array that ``bounds_at`` points into alive for the call.
    bounds, bounds_at = _group_bounds(groups)
    at = _kernels.address
    value = _ad_compiled(
        kernels, batch, d_a, at(a_hat), len(groups), bounds_at, at(norms),
        at(grad) if grads else None,
    )
    return value, grad


def _ad_numpy(
    a_hat: np.ndarray,
    groups: tuple[tuple[int, int], ...],
    norms: np.ndarray,
    grad: np.ndarray | None,
) -> tuple[float, np.ndarray | None]:
    # One elementwise square serves every group; each group's row sums and
    # their square roots are the ones np.linalg.norm(a_hat, axis=1)
    # computes.  The gradient, when ``grad`` is given, is written into it.
    batch = a_hat.shape[0]
    square = a_hat * a_hat
    for k, (begin, end) in enumerate(groups):
        norm = norms[k]
        np.add.reduce(square[:, begin:end], axis=1, out=norm)
        np.sqrt(norm, out=norm)
    value = _ad_value(norms)
    if grad is None:
        return value, None
    safe = norms >= ZERO_NORM_EPS
    all_safe = bool(safe.all())
    if not all_safe:
        norms[~safe] = 1.0
    for k, (begin, end) in enumerate(groups):
        np.divide(a_hat[:, begin:end], norms[k][:, None], out=grad[:, begin:end])
        if not all_safe:
            grad[~safe[k], begin:end] = 0.0
    grad /= batch
    return value, grad


def _ad_compiled(
    kernels: _kernels.Kernels,
    rows: int,
    d_a: int,
    a_hat_at: int,
    groups: int,
    bounds_at: int,
    norms_at: int,
    grad_at: int | None,
) -> float:
    # _ad_numpy in one call over a_hat's rows, through the addresses of
    # a_hat, the groups' bounds, the norms (groups x rows) and the gradient
    # (or None).
    total = kernels.ad(rows, d_a, a_hat_at, groups, bounds_at, norms_at, grad_at, ZERO_NORM_EPS)
    return total / rows


def _group_bounds(groups: tuple[tuple[int, int], ...]) -> tuple[np.ndarray, int]:
    # The groups' (first, end) pairs as one int64 array and its address,
    # valid while the caller holds the array.  AttributeMatrix checks that
    # the groups partition its d_a columns.
    bounds = np.array(groups, dtype=np.int64).reshape(-1)
    return bounds, _kernels.address(bounds)


def _kl_core(
    kernels: _kernels.Kernels | None,
    scores: np.ndarray,
    targets: np.ndarray,
    log_targets: np.ndarray,
    labels: np.ndarray,
    tau: float,
    grads: bool,
    row_sums: np.ndarray | None = None,
) -> tuple[float, np.ndarray | None]:
    # tau^2-scaled KL(target || softmax(z/tau)) per sample, meaned over the
    # batch, and with gradients its logit gradient, tau * (softmax -
    # target) / B, which the caller carries through its product; compiled
    # (_kl_compiled) when ``kernels`` is given, else _kl_numpy.  Overwrites
    # ``scores`` with the log-probabilities.  Each row's KL sum goes into
    # ``row_sums`` (a vector of its own by default).
    batch, classes = scores.shape
    if row_sums is None:
        row_sums = np.empty(batch)
    work = _SoftmaxWork(batch, classes, kernels is not None, out=grads)
    if kernels is None:
        return _kl_numpy(work, scores, targets, log_targets, labels, tau, grads, row_sums)
    at = _kernels.address
    return _kl_compiled(
        kernels, work, scores, at(scores), at(targets), at(log_targets), at(labels), tau, grads,
        at(row_sums),
    )


def _kl_numpy(
    work: _SoftmaxWork,
    scores: np.ndarray,
    targets: np.ndarray,
    log_targets: np.ndarray,
    labels: np.ndarray,
    tau: float,
    grads: bool,
    row_sums: np.ndarray,
) -> tuple[float, np.ndarray | None]:
    # Gathers the target rows (and their cached logarithms) by label; the
    # logit gradient goes into work.out.
    batch = scores.shape[0]
    log_probs = scores
    log_probs /= tau
    _log_softmax(log_probs, log_probs)
    target_rows = targets[labels]
    contributions = log_targets[labels]
    with np.errstate(divide="ignore", invalid="ignore"):
        contributions -= log_probs
        contributions *= target_rows
    zero = target_rows == 0.0
    if zero.any():
        contributions[zero] = 0.0
    np.add.reduce(contributions, axis=1, out=row_sums)
    d_logits = None
    if grads:
        d_logits = np.exp(log_probs, out=work.out[:batch])
        d_logits -= target_rows
        d_logits *= tau
        d_logits /= batch
    return _kl_value(row_sums, tau), d_logits


def _kl_compiled(
    kernels: _kernels.Kernels,
    work: _SoftmaxWork,
    scores: np.ndarray,
    scores_at: int,
    targets_at: int,
    log_targets_at: int,
    labels_at: int,
    tau: float,
    grads: bool,
    row_sums_at: int,
) -> tuple[float, np.ndarray | None]:
    # _kl_numpy, stage by stage: the division by tau and the shift by the
    # row maximum, numpy's exp, the row sums, numpy's log, the
    # log-probabilities with each row's KL sum, and with gradients numpy's
    # exp and the logit gradient.  ``*_at`` are the arrays' addresses.
    batch, classes = scores.shape
    log_sums = work.log_sums[:batch]
    kernels.softmax_shift(batch, classes, scores_at, scores_at, tau)
    np.exp(scores, out=work.exps[:batch])
    kernels.row_sums(batch, classes, work.exps_at, work.sums_at)
    np.log(log_sums, out=log_sums)
    total = kernels.kl_rows(
        batch, classes, scores_at, work.sums_at, targets_at, log_targets_at, labels_at,
        work.exps_at, row_sums_at,
    )
    d_logits = None
    if grads:
        d_logits = np.exp(scores, out=work.out[:batch])
        kernels.kl_grad(batch, classes, work.out_at, targets_at, labels_at, tau)
    return tau * tau * (total / batch), d_logits


def _bc_numpy(residual: np.ndarray, v: np.ndarray, d_b: np.ndarray) -> float:
    # The reconstruction term from the decoder's output r = h(a_hat): the
    # mean squared norm of r - v.  The residual becomes its gradient in
    # place, and its column sums, b_h's gradient, go into ``d_b``.
    batch = residual.shape[0]
    residual -= v
    value = float((residual * residual).sum() / batch)
    residual *= 2.0
    residual /= batch
    np.add.reduce(residual, axis=0, out=d_b)
    return value


def _bc_compiled(
    kernels: _kernels.Kernels,
    rows: int,
    d_v: int,
    residual_at: int,
    v_at: int,
    v_f32: bool,
    d_b_at: int,
) -> float:
    # _bc_numpy in one call, through the addresses of the residual, the
    # features (float32 ones widened exactly) and b_h's gradient.
    return kernels.bc(rows, d_v, residual_at, v_at, v_f32, d_b_at) / rows


class _SquareSum:
    """The sum of squares of a split's reconstruction residual, taken block by block in any order.

    The sum is ``np.add.reduce`` over all rows x d_v squares, as one call
    over the whole residual takes it.  ``add`` takes a block of
    ``_forward_blocks(rows)``, on any thread: it subtracts the block's
    features from its residual and writes the squares, into the compiled
    leaf table when ``kernels`` is given (``_kernels.leaf_table``), else
    into one full-length vector.  ``total`` returns the sum once every block
    is in.
    """

    def __init__(self, kernels: _kernels.Kernels | None, rows: int, d_v: int) -> None:
        self._kernels = kernels
        self._d_v = d_v
        n = rows * d_v
        if kernels is not None:
            stride = _ROW_BLOCK * d_v
            last, self._table = _kernels.leaf_table(n, stride)
            self._layout = (n, stride, last)
        else:
            self._squares = np.empty(n)

    def add(self, start: int, residual: np.ndarray, v: np.ndarray) -> None:
        # The block whose first row is ``start``: its residual and features.
        first = start * self._d_v
        if self._kernels is not None:
            self._kernels.bc_leaves(
                *self._layout,
                first,
                residual.size,
                _kernels.address(residual),
                _kernels.address(v),
                v.dtype == np.float32,
                _kernels.address(self._table),
            )
        else:
            residual -= v
            block = self._squares[first : first + residual.size].reshape(residual.shape)
            np.multiply(residual, residual, out=block)

    def total(self) -> float:
        if self._kernels is not None:
            return self._kernels.leaf_sum(*self._layout, _kernels.address(self._table))
        return np.add.reduce(self._squares)


def _loss_kernels() -> _kernels.Kernels | None:
    # The compiled kernels, when they are built and their reductions match
    # numpy's in this process; else None, and the numpy bodies run.  Each
    # workspace and each forward-only call asks once.  Every array the
    # kernels read is one the losses allocated or one in a layout they take
    # (``_kernels.fits``): _as_batch requires the features and labels
    # C-contiguous, and DistillTargets the target table.  Labels index rows
    # without a bounds check in C: the losses check them against the
    # classes before any core runs.
    kernels = _kernels.compiled()
    return kernels if kernels is not None and kernels.pairwise else None


def loss_kernels() -> str:
    """Which loss bodies every workspace and forward-only call runs: ``"compiled"`` or ``"numpy"``.

    The first call builds the library if it has not been tried yet.
    """
    return "numpy" if _loss_kernels() is None else "compiled"


def _label_positions(labels: np.ndarray, candidates: list[int], loss_name: str) -> np.ndarray:
    mapping = {c: i for i, c in enumerate(candidates)}
    positions = np.empty(labels.shape[0], dtype=np.int64)
    for i, y in enumerate(labels):
        pos = mapping.get(int(y))
        if pos is None:
            raise LossError(f"{loss_name}: label {int(y)} is not among the candidate classes")
        positions[i] = pos
    return positions


def _joint_inputs(
    params: ModelParams,
    features: np.ndarray,
    labels: np.ndarray,
    A: AttributeMatrix,
    distill: DistillConfig | None,
    weights: LossWeights,
    ablation: AblationFlags | None,
) -> tuple[np.ndarray, np.ndarray, dict[str, bool]]:
    # joint_loss's checks: the features and labels as _as_batch gives them,
    # and which terms are on.
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
    on = {
        SCE: ablation.sce,
        BC: ablation.bc and weights.w_bc > 0.0,
        KL: kl_on,
        AD: ablation.ad and weights.w_ad > 0.0,
    }
    return v, labels, on


def _free_inputs(
    params: ModelParams,
    features: np.ndarray,
    labels: np.ndarray,
    seen_classes: tuple[int, ...] | list[int],
) -> tuple[np.ndarray, np.ndarray]:
    # ce_loss_attribute_free's checks: the features as _as_batch gives them
    # and each label's position among the sorted seen classes.
    _require_mode(params, ATTRIBUTE_FREE, "ce_loss_attribute_free")
    v, labels = _as_batch(features, labels, params.d_v, "ce_loss_attribute_free")
    seen_ids = _as_ids(list(seen_classes), "ce_loss_attribute_free: seen_classes", LossError)
    seen = sorted(seen_ids.tolist())
    if params.W_c.shape[0] != len(seen):
        raise LossError(
            f"head covers {params.W_c.shape[0]} classes but {len(seen)} seen classes given"
        )
    return v, _label_positions(labels, seen, "ce_loss_attribute_free")


class StepWorkspace:
    """The arrays of the local step for one client, allocated once, with their addresses bound once.

    Built over all of a client's ``features`` and ``labels`` for batches of
    up to ``rows`` rows (all of them by default): ``joint_loss``'s objective
    for attribute-based ``params`` (with ``A``, ``distill``, ``weights`` and
    ``ablation``), else ``ce_loss_attribute_free``'s (with ``seen``).  It
    checks its inputs once, as those functions do, every label of the
    client included, and chooses once between the compiled kernels and the
    numpy bodies (``_loss_kernels``).

    ``loss(batch)`` gathers the rows ``batch`` (indices into ``features``,
    each in range, as a slice of a permutation is; None takes every row in
    order), computes the loss and writes every gradient into ``grads``
    (tensor name -> array, in ``params.trainable_names()`` order); it
    returns the total and the weighted terms.  ``step(batch)`` does that,
    raises ``NonFiniteLossError`` if the total, a term or a gradient is not
    finite, and then applies one momentum SGD update to ``params`` in place
    with ``opt`` (``fedzsl.model.sgd_step``'s update, whose compiled calls
    are bound here once); it returns the total.  ``params``' and ``opt``'s
    arrays are updated in place and must not be replaced while the
    workspace is in use.  A batch of fewer rows uses the leading rows of
    each array, which stay C-contiguous, and the results are the bits of
    ``joint_loss`` and ``sgd_step`` on the same rows.
    """

    def __init__(
        self,
        params: ModelParams,
        features: np.ndarray,
        labels: np.ndarray,
        rows: int | None = None,
        *,
        A: AttributeMatrix | None = None,
        distill: DistillConfig | None = None,
        weights: LossWeights | None = None,
        ablation: AblationFlags | None = None,
        seen: tuple[int, ...] | list[int] = (),
        opt: OptState | None = None,
    ) -> None:
        self._joint = params.mode == ATTRIBUTE_BASED
        if self._joint:
            v, self._labels, on = _joint_inputs(
                params, features, labels, A, distill, weights, ablation
            )
            classes = A.num_classes
            targets = (distill.targets.probs, distill.log_targets) if on[KL] else ()
        else:
            v, self._labels = _free_inputs(params, features, labels, seen)
            on = {SCE: True, BC: False, KL: False, AD: False}
            classes = params.W_c.shape[0]
            targets = ()
        self.rows = rows = v.shape[0] if rows is None else min(rows, v.shape[0])
        d_v, d_a = params.d_v, params.d_a
        self._features = v
        self._v32 = None  # float32 features' gathered rows, allocated by the first gather
        self._on = on
        k = self._kernels = _loss_kernels()
        at = _kernels.address
        self._v = _aligned((rows, d_v))
        self._y = _aligned(rows, np.int64)
        self._scores = _aligned((rows, classes)) if on[SCE] or on[KL] else None
        self._sce_work = _SoftmaxWork(rows, classes, k is not None) if on[SCE] else None
        self._picked = _aligned(rows) if on[SCE] else None
        self.grads = {}
        if self._joint:
            self._A, self._A_T = A.values, A.values.T
            self._params = params
            self._weights = weights
            self._a_hat = _aligned((rows, d_a))
            self._total = _aligned((rows, d_a))
            self._term = _aligned((rows, d_a))
            self._kl_work = _SoftmaxWork(rows, classes, k is not None) if on[KL] else None
            self._kl_rows = _aligned(rows) if on[KL] else None
            self._residual = _aligned((rows, d_v)) if on[BC] else None
            self._groups = A.groups
            self._norms = _aligned(len(A.groups) * rows) if on[AD] else None
            shapes = {"W_g": (d_a, d_v), "b_g": (d_a,), "W_h": (d_v, d_a), "b_h": (d_v,)}
            if on[KL]:
                self._tau = distill.tau
                self._targets, self._log_targets = targets
        else:
            self._params = params
            shapes = {"W_c": params.W_c.shape, "b_c": params.b_c.shape}
        for name, shape in shapes.items():
            self.grads[name] = _aligned(shape)
        if self._joint and not on[BC]:
            # W_h and b_h are zero-filled when no term writes them.
            self.grads["W_h"].fill(0.0)
            self.grads["b_h"].fill(0.0)
        if k is not None:
            self._v_at, self._y_at = at(self._v), at(self._y)
            if self._scores is not None:
                self._scores_at = at(self._scores)
            if on[SCE]:
                self._picked_at = at(self._picked)
            if self._joint:
                self._a_hat_at, self._term_at = at(self._a_hat), at(self._term)
                if on[KL]:
                    self._kl_rows_at = at(self._kl_rows)
                    self._targets_at, self._log_targets_at = at(targets[0]), at(targets[1])
                if on[BC]:
                    self._residual_at, self._d_b_h_at = at(self._residual), at(self.grads["b_h"])
                if on[AD]:
                    # The bounds array is held here, so its address stays valid.
                    self._bounds, self._bounds_at = _group_bounds(A.groups)
                    self._norms_at = at(self._norms)
            self._scans = [(name, grad.size, at(grad)) for name, grad in self.grads.items()]
        self._opt = opt
        if opt is not None:
            _check_update(params, self.grads, opt, check_finite=False)
            tensors = params.tensors()
            self._updates = [
                (
                    _bound_update(k, tensors[name], grad, opt.buffers[name], opt),
                    tensors[name],
                    grad,
                    opt.buffers[name],
                    name,
                )
                for name, grad in self.grads.items()
            ]

    def loss(self, batch: np.ndarray | None = None) -> tuple[float, dict[str, float]]:
        """Gathers ``batch`` and computes the loss and gradients; returns the total and terms."""
        if batch is None:
            b = self._features.shape[0]
            np.copyto(self._v[:b], self._features)
            np.copyto(self._y[:b], self._labels)
        else:
            b = batch.size
            if self._features.dtype == np.float32:
                if self._v32 is None:
                    self._v32 = _aligned(self._v.shape, np.float32)
                np.take(self._features, batch, axis=0, out=self._v32[:b], mode="clip")
                np.copyto(self._v[:b], self._v32[:b])
            else:
                np.take(self._features, batch, axis=0, out=self._v[:b], mode="clip")
            np.take(self._labels, batch, out=self._y[:b], mode="clip")
        if self._joint:
            return _weighted(self._joint_terms(b), self._weights)
        value = self._free_term(b)
        return value, {CE: value}

    def step(self, batch: np.ndarray) -> float:
        """One local step on the rows ``batch``: the loss, its checks and the SGD update."""
        total, terms = self.loss(batch)
        _require_finite(total, terms, self._finite_grads())
        opt = self._opt
        for bound, tensor, grad, buf, name in self._updates:
            if bound is not None:
                self._kernels.sgd_step(*bound)
            else:
                _numpy_update(tensor, grad, buf, opt, name)
        return total

    def _finite_grads(self):
        # (name, whether every entry is finite) for each gradient, in order.
        k = self._kernels
        if k is None:
            for name, grad in self.grads.items():
                yield name, _finite_numpy(grad)
        else:
            for name, size, grad_at in self._scans:
                yield name, bool(k.all_finite(size, grad_at))

    def _sce(self, b: int, scores: np.ndarray) -> tuple[float, np.ndarray]:
        # SCE over the batch's b rows of scores: the value and the logit gradient.
        y = self._y[:b]
        if self._kernels is None:
            return _sce_numpy(self._sce_work, scores, y, True, self._picked[:b])
        return _sce_compiled(
            self._kernels, self._sce_work, scores, self._scores_at, self._y_at, True,
            self._picked_at,
        )

    def _free_term(self, b: int) -> float:
        # ce_loss_attribute_free's value; W_c's and b_c's gradients.
        params, v = self._params, self._v[:b]
        logits = _affine_rows(params.W_c, params.b_c, v, self._scores[:b])
        value, d_logits = self._sce(b, logits)
        np.matmul(d_logits.T, v, out=self.grads["W_c"])
        np.add.reduce(d_logits, axis=0, out=self.grads["b_c"])
        return value

    def _joint_terms(self, b: int) -> dict[str, float]:
        # joint_loss's unweighted terms; every gradient.  The terms are
        # entered, and their a_hat gradients summed into ``total`` (zero-
        # filled, so a -0.0 sum is +0.0), in the order SCE, BC, KL, AD.  SCE
        # and KL share one class-score product, which KL scales in place, so
        # it runs right after SCE has read it; its logit gradient waits in
        # its work array until BC is summed.
        k, on, weights, grads = self._kernels, self._on, self._weights, self.grads
        params = self._params
        v, total, term, y = self._v[:b], self._total[:b], self._term[:b], self._y[:b]
        a_hat = _affine_rows(params.W_g, params.b_g, v, self._a_hat[:b])
        if self._scores is not None:
            scores = self._scores[:b]
            np.matmul(a_hat, self._A, out=scores)
        total.fill(0.0)
        values: dict[str, float] = {}
        if on[SCE]:
            values[SCE], d_logits = self._sce(b, scores)
            np.matmul(d_logits, self._A_T, out=term)
            total += term
        if on[KL]:
            if k is None:
                kl_value, d_kl = _kl_numpy(
                    self._kl_work, scores, self._targets, self._log_targets, y, self._tau, True,
                    self._kl_rows[:b],
                )
            else:
                kl_value, d_kl = _kl_compiled(
                    k, self._kl_work, scores, self._scores_at, self._targets_at,
                    self._log_targets_at, self._y_at, self._tau, True, self._kl_rows_at,
                )
        if on[BC]:
            residual = _affine_rows(params.W_h, params.b_h, a_hat, self._residual[:b])
            d_W_h, d_b_h = grads["W_h"], grads["b_h"]
            if k is None:
                values[BC] = _bc_numpy(residual, v, d_b_h)
            else:
                values[BC] = _bc_compiled(
                    k, b, v.shape[1], self._residual_at, self._v_at, False, self._d_b_h_at
                )
            np.matmul(residual.T, a_hat, out=d_W_h)
            np.matmul(residual, params.W_h, out=term)
            # w * x and x * w are the same IEEE product.
            term *= weights.w_bc
            total += term
            d_W_h *= weights.w_bc
            d_b_h *= weights.w_bc
        if on[KL]:
            values[KL] = kl_value
            np.matmul(d_kl, self._A_T, out=term)
            term *= weights.w_kl
            total += term
        if on[AD]:
            groups = self._groups
            if k is None:
                norms = self._norms[: len(groups) * b].reshape(len(groups), b)
                values[AD], _ = _ad_numpy(a_hat, groups, norms, term)
            else:
                values[AD] = _ad_compiled(
                    k, b, a_hat.shape[1], self._a_hat_at, len(groups), self._bounds_at,
                    self._norms_at, self._term_at,
                )
            term *= weights.w_ad
            total += term
        np.matmul(total.T, v, out=grads["W_g"])
        np.add.reduce(total, axis=0, out=grads["b_g"])
        return values


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
    with an empty ``grads``, walking the rows in blocks as ``joint_loss``
    does.  With gradients the call runs in a one-shot ``StepWorkspace``, so
    the arrays it returns are its own.
    """
    if grads:
        work = StepWorkspace(params, features, labels, seen=seen_classes)
        total, terms = work.loss()
        return LossReport(total=total, terms=terms, grads=work.grads)
    v, positions = _free_inputs(params, features, labels, seen_classes)
    # Block by block, as joint_loss's forward-only path runs.
    kernels = _loss_kernels()
    picked = np.empty(v.shape[0])

    def run(start: int, stop: int) -> None:
        logits = forward_head(params, v[start:stop])
        _sce_core(kernels, logits, positions[start:stop], False, picked[start:stop])

    _map_blocks(v.shape[0], run)
    value = _sce_value(picked)
    return LossReport(total=value, terms={CE: value}, grads={})


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
    ``distill`` may be None only when the KL term is disabled.  With
    gradients the call runs in a one-shot ``StepWorkspace``, the one code
    path of local training, so the arrays it returns are its own.

    ``grads=False`` evaluates the loss only, as the per-round global loss
    does, and skips every backward product; ``grads`` comes back empty.  It
    walks the rows in blocks of ``_ROW_BLOCK`` rows (a shorter tail joins
    the block before it), so no array over all rows x
    d_a, classes or d_v is ever held: each block's products, and the
    per-row values of its terms written into full-length vectors, are
    those of the whole batch, and each vector is reduced once, so
    ``total`` and ``terms`` are bit-identical to the default call under
    one BLAS thread (see the module docstring).  The calling thread and one
    more run the blocks.  The finiteness checks on ``total`` and each term
    still apply.
    """
    if grads:
        work = StepWorkspace(
            params, features, labels, A=A, distill=distill, weights=weights, ablation=ablation
        )
        total, terms = work.loss()
        return LossReport(total=total, terms=terms, grads=work.grads)
    v, labels, on = _joint_inputs(params, features, labels, A, distill, weights, ablation)
    total, terms = _weighted(_forward_terms(params, v, labels, A, distill, on), weights)
    return LossReport(total=total, terms=terms, grads={})


def _weighted(
    values: dict[str, float], weights: LossWeights
) -> tuple[float, dict[str, float]]:
    # The weighted terms, in the order SCE, BC, KL, AD, and their total,
    # added left to right from 0.0: builtin sum() compensates its rounding
    # on 3.12+.
    scale = {SCE: 1.0, BC: weights.w_bc, KL: weights.w_kl, AD: weights.w_ad}
    terms = {name: values[name] if name == SCE else scale[name] * values[name]
             for name in (SCE, BC, KL, AD) if name in values}
    total = 0.0
    for value in terms.values():
        total += value
    return total, terms


def _forward_blocks(rows: int):
    # (start, stop) of each block of the forward-only loss: _ROW_BLOCK rows,
    # save that a shorter tail joins the block before it, so every block of
    # a batch of more than one has at least _ROW_BLOCK rows.  No rows are
    # one empty block.
    start = 0
    while True:
        stop = start + _ROW_BLOCK
        if rows - stop < _ROW_BLOCK:
            stop = rows
        yield start, stop
        if stop == rows:
            return
        start = stop


def _forward_terms(
    params: ModelParams,
    v: np.ndarray,
    labels: np.ndarray,
    A: AttributeMatrix,
    distill: DistillConfig | None,
    on: dict[str, bool],
) -> dict[str, float]:
    # joint_loss's unweighted terms without gradients, block by block: each
    # block's per-row values go into full-length vectors (the value each
    # core returns for the block is not read), its reconstruction residual's
    # squares into a _SquareSum, and each is reduced once every block is
    # in.  The compiled-or-numpy choice is made once, here.
    rows = v.shape[0]
    kernels = _loss_kernels()
    groups = A.groups
    picked = np.empty(rows) if on[SCE] else None
    kl_rows = np.empty(rows) if on[KL] else None
    squares = _SquareSum(kernels, rows, params.d_v) if on[BC] else None
    norms = np.empty((len(groups), rows)) if on[AD] else None

    def run(start: int, stop: int) -> None:
        block_labels = labels[start:stop]
        a_hat = forward_attr(params, v[start:stop])
        if on[SCE] or on[KL]:
            scores = a_hat @ A.values
            if on[SCE]:
                _sce_core(kernels, scores, block_labels, False, picked[start:stop])
            if on[KL]:
                _kl_core(
                    kernels, scores, distill.targets.probs, distill.log_targets, block_labels,
                    distill.tau, False, kl_rows[start:stop],
                )
            del scores
        if on[AD]:
            # The block's norms, groups x its rows, then their columns of ``norms``.
            block_norms = np.empty((len(groups), stop - start))
            _ad_core(kernels, a_hat, groups, False, block_norms)
            norms[:, start:stop] = block_norms
        if on[BC]:
            squares.add(start, forward_decode(params, a_hat), v[start:stop])

    _map_blocks(rows, run)
    found = {}
    if on[SCE]:
        found[SCE] = _sce_value(picked)
    if on[BC]:
        found[BC] = float(squares.total() / rows)
    if on[KL]:
        found[KL] = _kl_value(kl_rows, distill.tau)
    if on[AD]:
        found[AD] = _ad_value(norms)
    return found


@functools.cache
def _lane() -> ThreadPoolExecutor:
    # The second thread of _map_blocks, started by its first use and kept:
    # a thread started per call took about 0.35 ms more per call (the start,
    # and OpenBLAS setting up for a new thread's first product).
    return ThreadPoolExecutor(max_workers=1, thread_name_prefix="fedzsl-blocks")


def _map_blocks(rows: int, run) -> None:
    # Calls run(start, stop) for each of _forward_blocks(rows).  This thread
    # and the lane thread (in a copy of this thread's context, np.errstate
    # among it) each take the next block as they come free; no block is
    # taken once one has failed, so every block before a failed one has run.
    # A single block runs here.  The lane is done with the call before it
    # returns or raises, and the error of the lowest-index failed block is
    # raised.
    blocks = list(_forward_blocks(rows))
    if len(blocks) == 1:
        run(*blocks[0])
        return
    gate = threading.Lock()
    order = iter(range(len(blocks)))
    errors: dict[int, BaseException] = {}

    def work() -> None:
        while True:
            with gate:
                index = None if errors else next(order, None)
            if index is None:
                return
            try:
                run(*blocks[index])
            except BaseException as exc:  # raised on the calling thread
                with gate:
                    errors[index] = exc

    _kernels.compiled()  # built, if at all, before two threads ask for it
    helper = _lane().submit(contextvars.copy_context().run, work)
    try:
        work()
    finally:
        if not helper.cancel():
            helper.result()
    if errors:
        raise errors[min(errors)]
