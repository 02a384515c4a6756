"""Federated simulation: client sampling, local training, weighted aggregation.

One round broadcasts the global model to a seeded sample of clients, runs
local epochs of minibatch SGD on each, and folds each client's parameter
movement back with class-count weights and one server learning rate.  Every
random draw is keyed by (seed, round, client) so the result is independent
of scheduling order and thread count.
"""

from __future__ import annotations

import contextvars
import math
from concurrent.futures import ThreadPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass, field

import numpy as np

from fedzsl import _blas
from fedzsl.dataset import AttributeMatrix, FeatureDataset, _as_int, split_train_test
from fedzsl.evaluation import evaluate
from fedzsl.losses import (
    AblationFlags,
    DistillConfig,
    LossWeights,
    NonFiniteLossError,
    StepWorkspace,
    ce_loss_attribute_free,
    joint_loss,
)
from fedzsl.model import (
    ATTRIBUTE_BASED,
    DEFAULT_LEARNING_RATE,
    DEFAULT_MOMENTUM,
    DEFAULT_WEIGHT_DECAY,
    MODES,
    ModelParams,
    init_opt_state,
    init_params,
    # Not called here: local steps update through StepWorkspace.  Kept at the
    # name perfbench/tracing.py wraps, so that its hook still resolves.
    sgd_step,  # noqa: F401
)
from fedzsl.partition import ClientPartition, PartitionSpec, partition, sample_clients

DEFAULT_ROUNDS = 100
DEFAULT_NUM_CLIENTS = 10
DEFAULT_LOCAL_EPOCHS = 2
DEFAULT_BATCH_SIZE = 64
DEFAULT_SERVER_LR = 1.0
DEFAULT_SAMPLE_FRACTION = 1.0
DEFAULT_EVAL_EVERY = 1

METRICS_HEADER = "round,acc_c,acc_u,acc_s,acc_h,global_loss,client_loss_mean,client_loss_std"


class FedError(ValueError):
    """Invalid federated configuration or aggregation input."""


class TrainingDivergedError(RuntimeError):
    """A loss became non-finite; the message names the client, round, and step."""


@dataclass
class TrainConfig:
    """Everything one simulation run depends on (besides the dataset)."""

    rounds: int = DEFAULT_ROUNDS
    num_clients: int = DEFAULT_NUM_CLIENTS
    local_epochs: int = DEFAULT_LOCAL_EPOCHS
    batch_size: int = DEFAULT_BATCH_SIZE
    local_lr: float = DEFAULT_LEARNING_RATE
    server_lr: float = DEFAULT_SERVER_LR
    sample_fraction: float = DEFAULT_SAMPLE_FRACTION
    seed: int = 0
    weights: LossWeights = field(default_factory=LossWeights)
    distill: DistillConfig | None = None
    mode: str = ATTRIBUTE_BASED
    ablation: AblationFlags = field(default_factory=AblationFlags)
    partition: PartitionSpec = field(
        default_factory=lambda: PartitionSpec(scheme="pccd", num_clients=DEFAULT_NUM_CLIENTS)
    )
    eval_every: int = DEFAULT_EVAL_EVERY
    momentum: float = DEFAULT_MOMENTUM
    weight_decay: float = DEFAULT_WEIGHT_DECAY

    def __post_init__(self) -> None:
        for name in ("rounds", "num_clients", "local_epochs", "batch_size", "eval_every", "seed"):
            least = 0 if name == "seed" else 1
            setattr(self, name, _as_int(getattr(self, name), name, FedError, least))
        for name in ("local_lr", "server_lr", "sample_fraction", "momentum", "weight_decay"):
            setattr(self, name, float(getattr(self, name)))
        if not (math.isfinite(self.local_lr) and self.local_lr >= 0.0):
            raise FedError(f"local_lr must be finite and >= 0, got {self.local_lr}")
        if not (math.isfinite(self.server_lr) and self.server_lr > 0.0):
            raise FedError(f"server_lr must be finite and > 0, got {self.server_lr}")
        if not 0.0 < self.sample_fraction <= 1.0:
            raise FedError(f"sample_fraction must lie in (0, 1], got {self.sample_fraction}")
        if not 0.0 <= self.momentum < 1.0:
            raise FedError(f"momentum must lie in [0, 1), got {self.momentum}")
        if self.weight_decay < 0.0 or not math.isfinite(self.weight_decay):
            raise FedError(f"weight_decay must be finite and >= 0, got {self.weight_decay}")
        if self.mode not in MODES:
            raise FedError(f"mode must be one of {MODES}, got '{self.mode}'")
        if self.partition.num_clients != self.num_clients:
            raise FedError(
                f"partition spec is for {self.partition.num_clients} clients "
                f"but num_clients is {self.num_clients}"
            )

    @property
    def kl_enabled(self) -> bool:
        """Whether the distillation term participates (flag and weight agree)."""
        return self.mode == ATTRIBUTE_BASED and self.ablation.kl and self.weights.w_kl > 0.0


@dataclass
class ClientUpdate:
    """One client's locally trained tensors plus its weighting metadata.

    An update holds one array per trainable tensor: the trained values
    themselves.  The movement ``trained - global`` is formed by
    :func:`aggregate` against the global model it was trained from, so no
    delta array is stored.
    """

    client_id: int
    trained: dict[str, np.ndarray]
    num_local_classes: int
    mean_local_loss: float

    def __post_init__(self) -> None:
        self.client_id = _as_int(self.client_id, "client_id", FedError)
        self.num_local_classes = _as_int(self.num_local_classes, "num_local_classes", FedError)
        self.mean_local_loss = float(self.mean_local_loss)
        if self.client_id < 0:
            raise FedError(f"client_id must be >= 0, got {self.client_id}")
        if self.num_local_classes < 1:
            raise FedError(f"num_local_classes must be >= 1, got {self.num_local_classes}")
        if not math.isfinite(self.mean_local_loss):
            raise FedError(f"mean_local_loss must be finite, got {self.mean_local_loss}")


@dataclass
class RoundMetrics:
    """One row of the training trace; accuracy fields are None off-cadence."""

    round_index: int
    acc_c: float | None
    acc_u: float | None
    acc_s: float | None
    acc_h: float | None
    global_loss: float
    client_loss_mean: float
    client_loss_std: float


class SimulationTrace(list):
    """RoundMetrics list that also carries the final model and the partition."""

    final_params: ModelParams | None = None
    client_partition: ClientPartition | None = None


def _local_loss(
    params: ModelParams,
    features: np.ndarray,
    labels: np.ndarray,
    A: AttributeMatrix,
    cfg: TrainConfig,
    seen: tuple[int, ...],
):
    # The global loss: the run's objective over the rows, without gradients.
    if cfg.mode == ATTRIBUTE_BASED:
        return joint_loss(
            params,
            features,
            labels,
            A,
            cfg.distill,
            cfg.weights,
            ablation=cfg.ablation,
            grads=False,
        )
    return ce_loss_attribute_free(params, features, labels, seen, grads=False)


def local_train(
    global_params: ModelParams,
    client_data: FeatureDataset,
    A: AttributeMatrix,
    cfg: TrainConfig,
    round_index: int,
    client_id: int,
) -> ClientUpdate:
    """Run the local epochs on one client and return its trained tensors.

    The update holds no scale; :func:`aggregate` applies ``server_lr``.  The
    shuffle RNG is keyed by (seed, round, client), so the update is a pure
    function of the broadcast parameters and the client's data, independent
    of execution order.  The last partial minibatch is kept.
    """
    n = client_data.num_samples
    params = global_params.clone()
    opt = init_opt_state(params, cfg.local_lr, cfg.momentum, cfg.weight_decay)
    rng = np.random.default_rng([cfg.seed, round_index, client_id])
    # One workspace for the client's steps, released when this call returns,
    # so none is alive while the round is scored.
    work = StepWorkspace(
        params,
        client_data.features,
        client_data.labels,
        cfg.batch_size,
        A=A,
        distill=cfg.distill,
        weights=cfg.weights,
        ablation=cfg.ablation,
        seen=client_data.split.seen,
        opt=opt,
    )
    loss_sum = 0.0
    steps = 0
    for epoch in range(cfg.local_epochs):
        order = rng.permutation(n)
        for start in range(0, n, cfg.batch_size):
            try:
                loss_sum += work.step(order[start : start + cfg.batch_size])
            except NonFiniteLossError as exc:
                raise TrainingDivergedError(
                    f"client {client_id} diverged at round {round_index}, "
                    f"epoch {epoch}, step {steps}: {exc}"
                ) from exc
            steps += 1
    # params is this call's private clone, so its arrays can be handed over.
    local_tensors = params.tensors()
    return ClientUpdate(
        client_id=client_id,
        trained={name: local_tensors[name] for name in global_params.trainable_names()},
        num_local_classes=len(np.unique(client_data.labels)),
        mean_local_loss=loss_sum / steps,
    )


def aggregate(
    global_params: ModelParams, updates: list[ClientUpdate], server_lr: float
) -> ModelParams:
    """Fold client updates into the global model, weighted by local class counts.

    w_next = w + server_lr * sum_k (n_k / sum_j n_j) * (trained_k - w), with
    ``server_lr`` the step's only scale, accumulated in ascending client-id
    order.  Each term is formed per tensor in one reused work array, in that
    order of operations.  When the step provably collapses to copying a
    single client's trained parameters (one update, so a coefficient of
    exactly 1, and server_lr exactly 1), those tensors are copied verbatim
    so the equality is exact rather than within float round-off.
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
            if name not in update.trained:
                raise FedError(f"client {update.client_id} update is missing tensor '{name}'")
            if update.trained[name].shape != tensors[name].shape:
                raise FedError(
                    f"client {update.client_id} trained '{name}' has shape "
                    f"{update.trained[name].shape}, expected {tensors[name].shape}"
                )
    total = sum(u.num_local_classes for u in ordered)
    new_params = global_params.clone()
    new_tensors = new_params.tensors()
    if len(ordered) == 1 and server_lr == 1.0:
        for name in names:
            np.copyto(new_tensors[name], ordered[0].trained[name])
        return new_params
    for name in names:
        base = tensors[name]
        acc = np.zeros_like(base)
        work = np.empty_like(base)
        for update in ordered:
            np.subtract(update.trained[name], base, out=work)
            work *= update.num_local_classes / total
            acc += work
        acc *= server_lr
        new_tensors[name] += acc
    return new_params


def metrics_to_csv(rows: list[RoundMetrics]) -> str:
    """Render the metric trace as CSV text; absent metrics stay empty fields."""

    def cell(value: float | None) -> str:
        return "" if value is None else repr(float(value))

    lines = [METRICS_HEADER]
    for row in rows:
        lines.append(
            ",".join(
                [
                    str(row.round_index),
                    cell(row.acc_c),
                    cell(row.acc_u),
                    cell(row.acc_s),
                    cell(row.acc_h),
                    cell(row.global_loss),
                    cell(row.client_loss_mean),
                    cell(row.client_loss_std),
                ]
            )
        )
    return "\n".join(lines) + "\n"


def run_simulation(
    ds: FeatureDataset, A: AttributeMatrix, cfg: TrainConfig, threads: int = 1
) -> SimulationTrace:
    """Run the full simulation and return the round-by-round metric trace.

    Splits the dataset, partitions the training rows, and iterates rounds:
    sample clients, train them (in one thread pool for the whole run when
    ``threads`` > 1), aggregate in id order, then score the
    post-aggregation model: a forward-only loss over the training split
    every round, accuracy metrics every ``eval_every`` rounds and on the
    final round.  The returned trace also carries ``final_params`` and
    ``client_partition``.

    OpenBLAS runs one thread for the whole run (``fedzsl._blas``), whatever
    ``threads`` is, so the output depends on the seed alone: the
    forward-only loss and the evaluation split their products by rows only
    in blocks of 256 or more rows, which under one BLAS thread give the
    whole products' bits, and share the blocks between the calling thread
    and one more.

    A round holds only what it still needs: a client's rows are copied out
    of the training split for its own :func:`local_train` call, and the
    updates are released once aggregated, before the round is scored.
    """
    threads = _as_int(threads, "threads", FedError, least=1)
    if cfg.kl_enabled and cfg.distill is None:
        raise FedError(
            "the distillation term is enabled; precompute targets and set cfg.distill"
        )
    train, test_seen, test_unseen = split_train_test(ds, cfg.seed)
    part = partition(train, cfg.partition)
    params = init_params(
        train.d_v, A.d_a, num_seen=len(train.split.seen), mode=cfg.mode, seed=cfg.seed
    )
    trace = SimulationTrace()
    trace.client_partition = part
    # One thread trains inline: on a 2-core host a one-worker pool raised the CUB-shaped benchmark's
    # peak RSS 110 -> 126 MB (cause not measured) and the AwA-shaped work by 3-4%.
    with (
        _blas.one_thread(),
        ThreadPoolExecutor(max_workers=threads) if threads > 1 else nullcontext() as pool,
    ):
        for round_index in range(cfg.rounds):
            chosen = sample_clients(cfg.num_clients, cfg.sample_fraction, round_index, cfg.seed)

            def train_one(client_id: int) -> ClientUpdate:
                client_data = train.subset(part.assignments[client_id])
                return local_train(params, client_data, A, cfg, round_index, client_id)

            if pool is not None:
                # Each client runs in a copy of the caller's context
                # (np.errstate among it), as it would inline.
                contexts = [contextvars.copy_context() for _ in chosen]
                updates = list(pool.map(lambda c, k: c.run(train_one, k), contexts, chosen))
            else:
                updates = [train_one(k) for k in chosen]
            params = aggregate(params, updates, cfg.server_lr)
            losses = np.array(
                [u.mean_local_loss for u in sorted(updates, key=lambda u: u.client_id)]
            )
            # The trained tensors are folded in; none is held through the
            # global loss and the evaluation.
            del updates
            try:
                global_loss = _local_loss(
                    params, train.features, train.labels, A, cfg, train.split.seen
                ).total
            except NonFiniteLossError as exc:
                raise TrainingDivergedError(
                    f"global loss non-finite after round {round_index}: {exc}"
                ) from exc
            is_eval = (round_index + 1) % cfg.eval_every == 0 or round_index == cfg.rounds - 1
            acc_c = acc_u = acc_s = acc_h = None
            if is_eval:
                scored = evaluate(params, test_seen, test_unseen, A, train.split)
                acc_c, acc_u, acc_s, acc_h = scored.acc_c, scored.acc_u, scored.acc_s, scored.acc_h
            trace.append(
                RoundMetrics(
                    round_index=round_index,
                    acc_c=acc_c,
                    acc_u=acc_u,
                    acc_s=acc_s,
                    acc_h=acc_h,
                    global_loss=global_loss,
                    client_loss_mean=float(losses.mean()),
                    client_loss_std=float(losses.std()),
                )
            )
    trace.final_params = params
    return trace
