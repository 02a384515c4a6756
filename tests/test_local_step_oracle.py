"""The local step against its previous implementation, bit for bit.

The functions defined at the top of this file are the earlier code, kept
verbatim as the oracle: ``LossReport`` scanning every gradient entry for
finiteness, ``sgd_step`` with its expression-form temporaries, the input
checks ``_as_batch``, ``_require_mode`` and ``_label_positions``,
``_log_softmax``, ``_sce_core`` and ``_bc_core`` allocating a fresh array
at every elementwise step over the whole batch, ``_ad_core`` with a norm
call per group, ``_kl_core`` taking the logarithm of the target rows at
every step, ``joint_loss`` and
``ce_loss_attribute_free`` zero-filling every gradient before the terms
overwrite them, and the ``ClientUpdate``, ``local_train`` and ``aggregate``
that stored both ``delta`` and ``trained``.  Inside them the bare names
resolve to these copies; the current code is reached through its modules
(``fed.local_train``, ``losses.joint_loss``, ``model.sgd_step``).  The
current code performs the same IEEE operations in the same order, so every
comparison is on ``tobytes()``, never within a tolerance.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import pytest

from fedzsl import fed, losses, model
from fedzsl.dataset import (
    AttributeMatrix,
    FeatureDataset,
    SyntheticSpec,
    generate_synthetic,
    split_train_test,
)
from fedzsl.fed import FedError, TrainConfig, TrainingDivergedError
from fedzsl.glasso import DistillTargets, distill_targets, graphical_lasso, sample_covariance
from fedzsl.losses import (
    AD,
    BC,
    CE,
    KL,
    SCE,
    ZERO_NORM_EPS,
    AblationFlags,
    DistillConfig,
    LossError,
    LossWeights,
    NonFiniteLossError,
)
from fedzsl.model import (
    ATTRIBUTE_BASED,
    ATTRIBUTE_FREE,
    ModelError,
    ModelParams,
    OptState,
    init_opt_state,
    init_params,
)
from fedzsl.partition import PartitionSpec, partition, sample_clients

# ---- the oracle: earlier code, verbatim -------------------------------------

# The earlier code read the scale of a client's movement from
# ``cfg.delta_scale``; that setting is retired at the one value a run now uses.
DELTA_SCALE = 1.0


def sgd_step(params: ModelParams, grads: dict[str, np.ndarray], opt: OptState) -> ModelParams:
    """One momentum SGD update, in place; returns the mutated params.

    Per tensor: g' = grad + weight_decay * param; buf = momentum * buf + g';
    param -= learning_rate * buf.
    """
    tensors = params.tensors()
    for name, grad in grads.items():
        if name not in tensors:
            raise ModelError(f"gradient for unknown tensor '{name}'")
        if name not in params.trainable_names():
            raise ModelError(f"tensor '{name}' is not trainable in {params.mode} mode")
        if not np.all(np.isfinite(grad)):
            raise ModelError(f"non-finite gradient for {name}")
        tensor = tensors[name]
        if grad.shape != tensor.shape:
            raise ModelError(
                f"gradient shape {grad.shape} does not match {name} shape {tensor.shape}"
            )
        buf = opt.buffers.get(name)
        if buf is None:
            raise ModelError(f"optimizer state has no buffer for {name}")
        adjusted = grad + opt.weight_decay * tensor
        buf *= opt.momentum
        buf += adjusted
        tensor -= opt.learning_rate * buf
    return params


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
            if not np.all(np.isfinite(grad)):
                raise NonFiniteLossError(f"gradient for '{name}' is non-finite")


def _as_batch(features: np.ndarray, d_v: int) -> np.ndarray:
    v = np.asarray(features, dtype=np.float64)
    if v.ndim != 2 or v.shape[1] != d_v:
        raise LossError(f"features must have shape (B, {d_v}), got {v.shape}")
    if v.shape[0] < 1:
        raise LossError("batch must contain at least one sample")
    return v


def _require_mode(params: ModelParams, mode: str, loss_name: str) -> None:
    if params.mode != mode:
        raise LossError(f"{loss_name} requires {mode} params, got {params.mode}")


def _label_positions(labels: np.ndarray, candidates: list[int], loss_name: str) -> np.ndarray:
    mapping = {c: i for i, c in enumerate(candidates)}
    positions = np.empty(labels.shape[0], dtype=np.int64)
    for i, y in enumerate(labels):
        pos = mapping.get(int(y))
        if pos is None:
            raise LossError(f"{loss_name}: label {int(y)} is not among the candidate classes")
        positions[i] = pos
    return positions


def _log_softmax(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max(axis=1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))


def _sce_core(
    scores: np.ndarray, positions: np.ndarray, prototypes: np.ndarray, grads: bool
) -> tuple[float, np.ndarray | None]:
    # Cross-entropy of softmax(scores) at the label; scores = a_hat @ prototypes.
    batch = scores.shape[0]
    log_probs = _log_softmax(scores)
    value = float(-log_probs[np.arange(batch), positions].mean())
    if not grads:
        return value, None
    d_logits = np.exp(log_probs)
    d_logits[np.arange(batch), positions] -= 1.0
    d_logits /= batch
    return value, d_logits @ prototypes.T


def _bc_core(
    a_hat: np.ndarray,
    v: np.ndarray,
    params: ModelParams,
    grads: bool,
) -> tuple[float, np.ndarray | None, np.ndarray | None, np.ndarray | None]:
    # Reconstruction residual r_i = h(a_hat_i) - v_i, reduced as mean squared norm.
    batch = a_hat.shape[0]
    residual = a_hat @ params.W_h.T + params.b_h - v
    value = float((residual * residual).sum() / batch)
    if not grads:
        return value, None, None, None
    d_residual = 2.0 * residual / batch
    d_W_h = d_residual.T @ a_hat
    d_b_h = d_residual.sum(axis=0)
    d_a_hat = d_residual @ params.W_h
    return value, d_a_hat, d_W_h, d_b_h


def _zero_grads(params: ModelParams) -> dict[str, np.ndarray]:
    tensors = params.tensors()
    return {name: np.zeros_like(tensors[name]) for name in params.trainable_names()}


def _ad_core(
    a_hat: np.ndarray, groups: tuple[tuple[int, int], ...], grads: bool
) -> tuple[float, np.ndarray | None]:
    # Sum of unsquared group norms per sample; the gradient of each group is
    # its unit direction, taken as 0 below the zero-norm threshold.
    batch = a_hat.shape[0]
    grad = np.zeros_like(a_hat) if grads else None
    total = 0.0
    for start, end in groups:
        block = a_hat[:, start:end]
        norms = np.linalg.norm(block, axis=1)
        total += float(norms.sum())
        if grads:
            safe = norms >= ZERO_NORM_EPS
            scale = np.where(safe, norms, 1.0)
            grad[:, start:end] = np.where(safe[:, None], block / scale[:, None], 0.0)
    return total / batch, (grad / batch if grads else None)


def _kl_core(
    scores: np.ndarray,
    prototypes: np.ndarray,
    target_rows: np.ndarray,
    tau: float,
    grads: bool,
) -> tuple[float, np.ndarray | None]:
    # tau^2-scaled KL(target || softmax(z/tau)) per sample, meaned over the
    # batch; d/dz is tau * (softmax - target) / B.  Divides ``scores`` by tau
    # in place, so no second class-score array is live at the peak.
    batch = scores.shape[0]
    scores /= tau
    log_probs = _log_softmax(scores)
    mask = target_rows > 0.0
    with np.errstate(divide="ignore", invalid="ignore"):
        contributions = np.where(mask, target_rows * (np.log(np.where(mask, target_rows, 1.0)) - log_probs), 0.0)
    value = float(tau * tau * contributions.sum(axis=1).mean())
    if not grads:
        return value, None
    d_logits = tau * (np.exp(log_probs) - target_rows) / batch
    return value, d_logits @ prototypes.T


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
    v = _as_batch(features, params.d_v)
    labels = np.asarray(labels, dtype=np.int64)
    seen = sorted(int(c) for c in seen_classes)
    if params.W_c.shape[0] != len(seen):
        raise LossError(
            f"head covers {params.W_c.shape[0]} classes but {len(seen)} seen classes given"
        )
    positions = _label_positions(labels, seen, "ce_loss_attribute_free")
    batch = v.shape[0]
    logits = v @ params.W_c.T + params.b_c
    log_probs = _log_softmax(logits)
    value = float(-log_probs[np.arange(batch), positions].mean())
    if not grads:
        return LossReport(total=value, terms={CE: value}, grads={})
    d_logits = np.exp(log_probs)
    d_logits[np.arange(batch), positions] -= 1.0
    d_logits /= batch
    gradients = _zero_grads(params)
    gradients["W_c"] = d_logits.T @ v
    gradients["b_c"] = d_logits.sum(axis=0)
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
    v = _as_batch(features, params.d_v)
    labels = np.asarray(labels, dtype=np.int64)
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
    a_hat = v @ params.W_g.T + params.b_g
    # SCE and KL share one class-score product; KL scales it in place, so
    # it must run after SCE has read it.
    scores = a_hat @ A.values if ablation.sce or kl_on else None
    d_a_hat_total = np.zeros_like(a_hat) if grads else None
    terms: dict[str, float] = {}
    gradients = _zero_grads(params) if grads else {}
    if ablation.sce:
        value, d_a_hat = _sce_core(scores, labels, A.values, grads)
        terms[SCE] = value
        if grads:
            d_a_hat_total += d_a_hat
        del d_a_hat  # not held through BC's peak, where the scores stay live
    if ablation.bc and weights.w_bc > 0.0:
        value, d_a_hat, d_W_h, d_b_h = _bc_core(a_hat, v, params, grads)
        terms[BC] = weights.w_bc * value
        if grads:
            d_a_hat_total += weights.w_bc * d_a_hat
            gradients["W_h"] = weights.w_bc * d_W_h
            gradients["b_h"] = weights.w_bc * d_b_h
    if kl_on:
        value, d_a_hat = _kl_core(
            scores, A.values, distill.targets.probs[labels], distill.tau, grads
        )
        terms[KL] = weights.w_kl * value
        if grads:
            d_a_hat_total += weights.w_kl * d_a_hat
    if ablation.ad and weights.w_ad > 0.0:
        value, d_a_hat = _ad_core(a_hat, A.groups, grads)
        terms[AD] = weights.w_ad * value
        if grads:
            d_a_hat_total += weights.w_ad * d_a_hat
    if grads:
        gradients["W_g"] = d_a_hat_total.T @ v
        gradients["b_g"] = d_a_hat_total.sum(axis=0)
    total = 0.0  # left to right from 0.0, as on every Python version
    for value in terms.values():
        total += value
    return LossReport(total=total, terms=terms, grads=gradients)


@dataclass
class ClientUpdate:
    """One client's scaled parameter movement plus its weighting metadata."""

    client_id: int
    delta: dict[str, np.ndarray]
    num_local_classes: int
    mean_local_loss: float
    # The locally trained tensors and the scale used to form delta; kept so
    # aggregation can copy them verbatim when the scaling provably collapses.
    beta: float = 1.0
    trained: dict[str, np.ndarray] | None = None

    def __post_init__(self) -> None:
        self.client_id = int(self.client_id)
        self.num_local_classes = int(self.num_local_classes)
        self.mean_local_loss = float(self.mean_local_loss)
        if self.client_id < 0:
            raise FedError(f"client_id must be >= 0, got {self.client_id}")
        if self.num_local_classes < 1:
            raise FedError(f"num_local_classes must be >= 1, got {self.num_local_classes}")
        if not math.isfinite(self.mean_local_loss):
            raise FedError(f"mean_local_loss must be finite, got {self.mean_local_loss}")


def _local_loss(
    params: ModelParams,
    features: np.ndarray,
    labels: np.ndarray,
    A: AttributeMatrix,
    cfg: TrainConfig,
    seen: tuple[int, ...],
    grads: bool = True,
):
    if cfg.mode == ATTRIBUTE_BASED:
        return joint_loss(
            params,
            features,
            labels,
            A,
            cfg.distill,
            cfg.weights,
            ablation=cfg.ablation,
            grads=grads,
        )
    return ce_loss_attribute_free(params, features, labels, seen, grads=grads)


def local_train(
    global_params: ModelParams,
    client_data: FeatureDataset,
    A: AttributeMatrix,
    cfg: TrainConfig,
    round_index: int,
    client_id: int,
) -> ClientUpdate:
    """Run the local epochs on one client and return its scaled delta.

    The shuffle RNG is keyed by (seed, round, client), so the update is a
    pure function of the broadcast parameters and the client's data,
    independent of execution order.  The last partial minibatch is kept.
    """
    n = client_data.num_samples
    params = global_params.clone()
    opt = init_opt_state(params, cfg.local_lr, cfg.momentum, cfg.weight_decay)
    rng = np.random.default_rng([cfg.seed, round_index, client_id])
    seen = client_data.split.seen
    loss_sum = 0.0
    steps = 0
    for epoch in range(cfg.local_epochs):
        order = rng.permutation(n)
        for start in range(0, n, cfg.batch_size):
            batch = order[start : start + cfg.batch_size]
            try:
                report = _local_loss(
                    params, client_data.features[batch], client_data.labels[batch], A, cfg, seen
                )
            except NonFiniteLossError as exc:
                raise TrainingDivergedError(
                    f"client {client_id} diverged at round {round_index}, "
                    f"epoch {epoch}, step {steps}: {exc}"
                ) from exc
            sgd_step(params, report.grads, opt)
            loss_sum += report.total
            steps += 1
    global_tensors = global_params.tensors()
    local_tensors = params.tensors()
    delta = {
        name: DELTA_SCALE * (local_tensors[name] - global_tensors[name])
        for name in global_params.trainable_names()
    }
    # params is this call's private clone, so its arrays can be handed over.
    trained = {name: local_tensors[name] for name in global_params.trainable_names()}
    return ClientUpdate(
        client_id=client_id,
        delta=delta,
        num_local_classes=len(np.unique(client_data.labels)),
        mean_local_loss=loss_sum / steps,
        beta=DELTA_SCALE,
        trained=trained,
    )


def aggregate(
    global_params: ModelParams, updates: list[ClientUpdate], server_lr: float
) -> ModelParams:
    """Fold client deltas into the global model, weighted by local class counts.

    w_next = w + server_lr * sum_k (n_k / sum_j n_j) * delta_k, accumulated
    in ascending client-id order.  When the scaling provably collapses to
    copying a single client's trained parameters (one update, server_lr,
    beta, and the coefficient all exactly 1), those tensors are copied
    verbatim so the equality is exact rather than within float round-off.
    """
    if not updates:
        raise FedError("aggregate needs at least one client update")
    server_lr = float(server_lr)
    if not (math.isfinite(server_lr) and server_lr > 0.0):
        raise FedError(f"server_lr must be finite and > 0, got {server_lr}")
    ordered = sorted(updates, key=lambda u: u.client_id)
    ids = [u.client_id for u in ordered]
    if len(set(ids)) != len(ids):
        raise FedError(f"duplicate client ids in updates: {ids}")
    names = global_params.trainable_names()
    tensors = global_params.tensors()
    for update in ordered:
        for name in names:
            if name not in update.delta:
                raise FedError(f"client {update.client_id} update is missing tensor '{name}'")
            if update.delta[name].shape != tensors[name].shape:
                raise FedError(
                    f"client {update.client_id} delta '{name}' has shape "
                    f"{update.delta[name].shape}, expected {tensors[name].shape}"
                )
    total = sum(u.num_local_classes for u in ordered)
    new_params = global_params.clone()
    new_tensors = new_params.tensors()
    only = ordered[0]
    if (
        len(ordered) == 1
        and server_lr == 1.0
        and only.beta == 1.0
        and only.trained is not None
    ):
        for name in names:
            np.copyto(new_tensors[name], only.trained[name])
        return new_params
    for name in names:
        acc = np.zeros_like(new_tensors[name])
        for update in ordered:
            acc += (update.num_local_classes / total) * update.delta[name]
        new_tensors[name] += server_lr * acc
    return new_params


# ---- the comparisons --------------------------------------------------------

# Each configuration: TrainConfig overrides.  "zero_norm_ad_group" trains from
# parameters whose first attribute group predicts exactly zero for every row.
CONFIGS = {
    "full": {},
    "bc_off": {"ablation": AblationFlags(bc=False)},
    "ad_only": {"ablation": AblationFlags(sce=False, bc=False, kl=False)},
    "zero_norm_ad_group": {},
    # Target rows with zero entries, so the KL term masks them (see make_cfg).
    "zero_targets": {},
    "attribute_free": {"mode": ATTRIBUTE_FREE},
    "half_scales": {"server_lr": 0.5},
    # Scales that are not powers of two round, so the order of the products shows.
    "odd_scales": {"server_lr": 0.3},
    "one_client": {
        "num_clients": 1,
        "partition": PartitionSpec(scheme="iid", num_clients=1, seed=0),
    },
}


@pytest.fixture(scope="module")
def problem():
    # Groups of 13-14 columns and a 320-row split, so row sums take numpy's
    # unrolled path and full-split sums its pairwise recursion.
    spec = SyntheticSpec(
        num_seen=8, num_unseen=2, d_a=40, d_v=12, samples_per_class=50, group_count=3
    )
    ds, attrs = generate_synthetic(spec, seed=5)
    sim = graphical_lasso(sample_covariance(attrs))
    distill = DistillConfig(tau=4.0, targets=distill_targets(sim.gamma, tau=4.0))
    train, _, _ = split_train_test(ds, 0)
    return ds, attrs, distill, train


def make_cfg(distill, name: str) -> TrainConfig:
    base = dict(
        rounds=2,
        num_clients=3,
        local_epochs=2,
        batch_size=16,
        local_lr=0.02,
        seed=0,
        distill=distill,
        partition=PartitionSpec(scheme="pccd", num_clients=3, seed=0),
    )
    base.update(CONFIGS[name])
    if name == "zero_targets":
        base["distill"] = with_zero_targets(distill)
    return TrainConfig(**base)


def with_zero_targets(distill: DistillConfig) -> DistillConfig:
    # Every third entry of each row zeroed and the rest renormalized; the
    # first row is one-hot, so its only log-target is log(1).
    probs = distill.targets.probs.copy()
    probs[:, ::3] = 0.0
    probs[0] = 0.0
    probs[0, 1] = 1.0
    probs /= probs.sum(axis=1, keepdims=True)
    return DistillConfig(tau=distill.tau, targets=DistillTargets(probs, distill.tau))


# Configurations that zero the first feature row as well as the first
# attribute group's weights, so norms fall below ZERO_NORM_EPS.
ZERO_ROW_CONFIGS = ("zero_norm_ad_group",)


def start_params(cfg: TrainConfig, train, attrs, name: str) -> ModelParams:
    params = init_params(train.d_v, attrs.d_a, len(train.split.seen), cfg.mode, seed=1)
    if name in ZERO_ROW_CONFIGS:
        start, end = attrs.groups[0]
        params.W_g[start:end] = 0.0
        assert np.all(params.b_g == 0.0)
    return params


def hexes(values: dict[str, float]) -> list[tuple[str, str]]:
    return [(name, float(v).hex()) for name, v in values.items()]


def assert_same_report(new: LossReport, old: LossReport) -> None:
    assert float(new.total).hex() == float(old.total).hex()
    assert hexes(new.terms) == hexes(old.terms)
    assert list(new.grads) == list(old.grads)
    for name, grad in old.grads.items():
        assert new.grads[name].dtype == grad.dtype, name
        assert new.grads[name].shape == grad.shape, name
        assert new.grads[name].tobytes() == grad.tobytes(), name


def assert_same_tensors(new: dict[str, np.ndarray], old: dict[str, np.ndarray]) -> None:
    assert list(new) == list(old)
    for name, tensor in old.items():
        assert new[name].tobytes() == tensor.tobytes(), name


@pytest.mark.parametrize("rows", [1, 16, None])
@pytest.mark.parametrize("grads", [True, False])
@pytest.mark.parametrize("name", list(CONFIGS))
def test_loss_reports_match(problem, name, grads, rows):
    ds, attrs, distill, train = problem
    cfg = make_cfg(distill, name)
    params = start_params(cfg, train, attrs, name)
    features = train.features[:rows].copy()
    labels = train.labels[:rows]
    if name in ZERO_ROW_CONFIGS:
        # Every group of the first row has zero norm too, and with b_h = 0
        # so does its reconstruction residual.
        features[0] = 0.0
    new = fed._local_loss(params, features, labels, attrs, cfg, train.split.seen, grads=grads)
    old = _local_loss(params, features, labels, attrs, cfg, train.split.seen, grads=grads)
    assert_same_report(new, old)


# Row counts around the loss kernels' row block: one short of it, exactly
# one block, one past it, two blocks and a remainder, and the whole split.
BLOCK_ROWS = losses._ROW_BLOCK


@pytest.fixture(scope="module")
def block_problem():
    spec = SyntheticSpec(
        num_seen=8, num_unseen=2, d_a=40, d_v=12, samples_per_class=110, group_count=3
    )
    ds, attrs = generate_synthetic(spec, seed=6)
    sim = graphical_lasso(sample_covariance(attrs))
    distill = DistillConfig(tau=4.0, targets=distill_targets(sim.gamma, tau=4.0))
    train, _, _ = split_train_test(ds, 0)
    assert train.num_samples > 2 * BLOCK_ROWS + 3
    return ds, attrs, distill, train


@pytest.mark.parametrize(
    "rows", [BLOCK_ROWS - 1, BLOCK_ROWS, BLOCK_ROWS + 1, 2 * BLOCK_ROWS + 3, None]
)
@pytest.mark.parametrize("grads", [True, False])
@pytest.mark.parametrize("name", list(CONFIGS))
def test_loss_reports_match_across_row_blocks(block_problem, name, grads, rows):
    test_loss_reports_match(block_problem, name, grads, rows)


def test_zero_norm_configuration_reaches_the_threshold(problem):
    ds, attrs, distill, train = problem
    start, end = attrs.groups[0]
    for name in ZERO_ROW_CONFIGS:
        params = start_params(make_cfg(distill, name), train, attrs, name)
        features = train.features[:16].copy()
        a_hat = model.forward_attr(params, features)
        assert np.all(np.linalg.norm(a_hat[:, start:end], axis=1) < ZERO_NORM_EPS)
        features[0] = 0.0
        a_hat = model.forward_attr(params, features)
        residual = a_hat @ params.W_h.T + params.b_h - features
        assert np.all(residual[0] == 0.0)


def test_zero_targets_configuration_has_zero_entries(problem):
    ds, attrs, distill, train = problem
    probs = make_cfg(distill, "zero_targets").distill.targets.probs
    assert np.all(np.any(probs == 0.0, axis=1))


def test_ad_core_matches_with_partial_zero_rows():
    # Some rows zero in some groups only, at widths 1-9 and 130 rows.
    rng = np.random.default_rng(11)
    groups = ((0, 1), (1, 4), (4, 13), (13, 20))
    a_hat = rng.standard_normal((130, 20))
    a_hat[::3, 1:4] = 0.0
    a_hat[5, :] = 0.0
    a_hat[7, 13:20] = 1e-13
    for grads in (True, False):
        new_value, new_grad = losses._ad_core(a_hat, groups, grads)
        old_value, old_grad = _ad_core(a_hat, groups, grads)
        assert new_value.hex() == old_value.hex()
        if grads:
            assert new_grad.tobytes() == old_grad.tobytes()
        else:
            assert new_grad is None and old_grad is None


@pytest.mark.parametrize("check_finite", [True, False])
def test_sgd_steps_match(check_finite):
    rng = np.random.default_rng(4)
    params = init_params(7, 5, num_seen=3, mode=ATTRIBUTE_BASED, seed=4)
    twin = params.clone()
    new_opt = init_opt_state(params, 0.05, 0.9, 1e-3)
    old_opt = init_opt_state(twin, 0.05, 0.9, 1e-3)
    for _ in range(6):
        grads = {name: rng.standard_normal(t.shape) for name, t in params.tensors().items()}
        model.sgd_step(params, grads, new_opt, check_finite=check_finite)
        sgd_step(twin, grads, old_opt)
        assert_same_tensors(params.tensors(), twin.tensors())
        assert_same_tensors(new_opt.buffers, old_opt.buffers)


@pytest.mark.parametrize("name", list(CONFIGS))
def test_local_training_matches(problem, name):
    ds, attrs, distill, train = problem
    cfg = make_cfg(distill, name)
    params = start_params(cfg, train, attrs, name)
    part = partition(train, cfg.partition)
    for client_id, rows in enumerate(part.assignments):
        data = train.subset(rows)
        new = fed.local_train(params, data, attrs, cfg, round_index=1, client_id=client_id)
        old = local_train(params, data, attrs, cfg, round_index=1, client_id=client_id)
        assert_same_tensors(new.trained, old.trained)
        assert float(new.mean_local_loss).hex() == float(old.mean_local_loss).hex()
        first = params.trainable_names()[0]  # W_g or W_c: trained in every configuration
        assert np.any(new.trained[first] != params.tensors()[first])


@pytest.mark.parametrize("name", list(CONFIGS))
def test_aggregate_matches(problem, name):
    ds, attrs, distill, train = problem
    cfg = make_cfg(distill, name)
    params = start_params(cfg, train, attrs, name)
    part = partition(train, cfg.partition)
    new_updates, old_updates = [], []
    for client_id, rows in enumerate(part.assignments):
        data = train.subset(rows)
        new_updates.append(fed.local_train(params, data, attrs, cfg, 0, client_id))
        old_updates.append(local_train(params, data, attrs, cfg, 0, client_id))
    new = fed.aggregate(params, new_updates[::-1], cfg.server_lr)
    old = aggregate(params, old_updates, cfg.server_lr)
    assert_same_tensors(new.tensors(), old.tensors())
    if name == "one_client":
        assert_same_tensors(
            {n: new.tensors()[n] for n in new.trainable_names()}, new_updates[0].trained
        )


def oracle_simulation(ds, attrs, cfg: TrainConfig):
    # run_simulation's training loop over the oracle local_train/aggregate,
    # with each round's global loss (the oracle joint_loss, forward only)
    # and client-loss mean and standard deviation as float.hex strings.
    train, _, _ = split_train_test(ds, cfg.seed)
    part = partition(train, cfg.partition)
    client_data = [train.subset(idx) for idx in part.assignments]
    params = init_params(
        train.d_v, attrs.d_a, num_seen=len(train.split.seen), mode=cfg.mode, seed=cfg.seed
    )
    rounds = []
    for round_index in range(cfg.rounds):
        chosen = sample_clients(cfg.num_clients, cfg.sample_fraction, round_index, cfg.seed)
        updates = [
            local_train(params, client_data[k], attrs, cfg, round_index, k) for k in chosen
        ]
        params = aggregate(params, updates, cfg.server_lr)
        global_loss = _local_loss(
            params, train.features, train.labels, attrs, cfg, train.split.seen, grads=False
        ).total
        client_losses = np.array(
            [u.mean_local_loss for u in sorted(updates, key=lambda u: u.client_id)]
        )
        rounds.append(
            (
                float(global_loss).hex(),
                float(client_losses.mean()).hex(),
                float(client_losses.std()).hex(),
            )
        )
    return params, rounds


@pytest.mark.parametrize(
    "name", ["full", "attribute_free", "half_scales", "odd_scales", "one_client"]
)
def test_simulation_matches(problem, name):
    ds, attrs, distill, _ = problem
    cfg = make_cfg(distill, name)
    trace = fed.run_simulation(ds, attrs, cfg)
    old_params, old_rounds = oracle_simulation(ds, attrs, cfg)
    assert_same_tensors(trace.final_params.tensors(), old_params.tensors())
    new_rounds = [
        (row.global_loss.hex(), row.client_loss_mean.hex(), row.client_loss_std.hex())
        for row in trace
    ]
    assert new_rounds == old_rounds
