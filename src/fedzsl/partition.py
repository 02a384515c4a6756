"""Client data partitioning schemes and per-round client sampling.

Three schemes distribute training samples across ``K`` simulated clients:
``iid`` splits every class as evenly as possible, ``dirichlet`` draws
per-class client proportions from a symmetric Dirichlet, and ``pccd``
(pairwise class-disjoint) deals whole classes to clients so no two
clients share a class.  A local-data ratio optionally truncates each
client's per-class sample lists to a seeded subsample.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from fedzsl.dataset import FeatureDataset, _as_int

IID = "iid"
DIRICHLET = "dirichlet"
PCCD = "pccd"
SCHEMES = (IID, DIRICHLET, PCCD)

MAX_PARTITION_ATTEMPTS = 100


class PartitionError(ValueError):
    """Partitioning failed or a partition parameter is invalid."""


@dataclass
class PartitionSpec:
    """Parameters of a client data partition."""

    scheme: str
    num_clients: int
    alpha: float | None = None
    local_data_ratio: float = 1.0
    seed: int = 0

    def __post_init__(self) -> None:
        if self.scheme not in SCHEMES:
            raise PartitionError(f"scheme must be one of {SCHEMES}, got '{self.scheme}'")
        self.num_clients = _as_int(self.num_clients, "num_clients", PartitionError, least=1)
        if self.scheme == DIRICHLET:
            if self.alpha is None:
                raise PartitionError("dirichlet scheme requires alpha")
            self.alpha = float(self.alpha)
            if not (math.isfinite(self.alpha) and self.alpha > 0.0):
                raise PartitionError(f"alpha must be finite and positive, got {self.alpha}")
        self.local_data_ratio = float(self.local_data_ratio)
        if not 0.0 < self.local_data_ratio <= 1.0:
            raise PartitionError(
                f"local_data_ratio must lie in (0, 1], got {self.local_data_ratio}"
            )
        self.seed = _as_int(self.seed, "seed", PartitionError, least=0)


@dataclass
class ClientPartition:
    """Per-client sample assignments and the classes each client holds."""

    assignments: tuple[np.ndarray, ...]
    local_classes: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        self.assignments = tuple(
            np.sort(np.asarray(idx, dtype=np.int64)) for idx in self.assignments
        )
        self.local_classes = tuple(
            tuple(sorted(int(c) for c in classes)) for classes in self.local_classes
        )
        if len(self.assignments) != len(self.local_classes):
            raise PartitionError("assignments and local_classes disagree on client count")
        for k, idx in enumerate(self.assignments):
            if idx.size == 0:
                raise PartitionError(f"client {k} has no samples")
        merged = np.concatenate(self.assignments)
        if np.unique(merged).size != merged.size:
            raise PartitionError("a sample index is assigned to more than one client")

    @property
    def num_clients(self) -> int:
        """Number of clients."""
        return len(self.assignments)

    def class_counts(self, k: int) -> int:
        """Number of distinct classes held by client ``k``."""
        return len(self.local_classes[k])


def _deal_iid(
    rng: np.random.Generator, labels: np.ndarray, num_clients: int
) -> list[list[np.ndarray]]:
    per_client: list[list[np.ndarray]] = [[] for _ in range(num_clients)]
    client_order = rng.permutation(num_clients)
    pointer = 0
    for c in np.unique(labels):
        idx = rng.permutation(np.flatnonzero(labels == c))
        base, extra = divmod(idx.size, num_clients)
        counts = np.full(num_clients, base, dtype=np.int64)
        # Leftover samples rotate through a seeded client order so no client
        # systematically collects every class's remainder.
        for j in range(extra):
            counts[client_order[(pointer + j) % num_clients]] += 1
        pointer = (pointer + extra) % num_clients
        for k, chunk in enumerate(np.split(idx, np.cumsum(counts)[:-1])):
            if chunk.size:
                per_client[k].append(chunk)
    return per_client


def _deal_dirichlet(
    rng: np.random.Generator, labels: np.ndarray, num_clients: int, alpha: float
) -> list[list[np.ndarray]]:
    per_client: list[list[np.ndarray]] = [[] for _ in range(num_clients)]
    for c in np.unique(labels):
        idx = rng.permutation(np.flatnonzero(labels == c))
        proportions = rng.dirichlet(np.full(num_clients, alpha))
        cuts = (np.cumsum(proportions)[:-1] * idx.size).astype(np.int64)
        for k, chunk in enumerate(np.split(idx, cuts)):
            if chunk.size:
                per_client[k].append(chunk)
    return per_client


def _deal_pccd(
    rng: np.random.Generator, labels: np.ndarray, seen: tuple[int, ...], num_clients: int
) -> list[list[np.ndarray]]:
    present = set(int(c) for c in np.unique(labels))
    stray = sorted(present - set(seen))
    if stray:
        raise PartitionError(
            f"pccd requires every training label to be a seen class; found {stray}"
        )
    per_client: list[list[np.ndarray]] = [[] for _ in range(num_clients)]
    order = rng.permutation(len(seen))
    for position, class_slot in enumerate(order):
        k = position % num_clients
        c = seen[class_slot]
        idx = np.flatnonzero(labels == c)
        if idx.size:
            per_client[k].append(idx)
    return per_client


def _truncate(
    rng: np.random.Generator,
    per_client: list[list[np.ndarray]],
    labels: np.ndarray,
    ratio: float,
) -> list[np.ndarray]:
    kept: list[np.ndarray] = []
    for chunks in per_client:
        if not chunks:
            kept.append(np.empty(0, dtype=np.int64))
            continue
        client_idx = np.sort(np.concatenate(chunks))
        if ratio >= 1.0:
            kept.append(client_idx)
            continue
        parts: list[np.ndarray] = []
        # Each (client, class) cell keeps ceil(ratio * count) samples so every
        # class a client owns survives truncation.
        for c in np.unique(labels[client_idx]):
            cell = client_idx[labels[client_idx] == c]
            keep = math.ceil(ratio * cell.size)
            parts.append(np.sort(rng.permutation(cell)[:keep]))
        kept.append(np.sort(np.concatenate(parts)))
    return kept


def partition(train: FeatureDataset, spec: PartitionSpec) -> ClientPartition:
    """Distribute training samples across clients per the chosen scheme.

    Deterministic in ``spec.seed``.  If some client ends up with zero
    samples the partition is re-drawn with an incremented seed, up to
    ``MAX_PARTITION_ATTEMPTS`` times, so every client can contribute a
    weighted update.
    """
    labels = train.labels
    seen = train.split.seen
    if spec.scheme == PCCD and spec.num_clients > len(seen):
        raise PartitionError(
            f"pccd needs num_clients <= |seen classes|; got {spec.num_clients} clients "
            f"for {len(seen)} seen classes"
        )
    for attempt in range(MAX_PARTITION_ATTEMPTS):
        rng = np.random.default_rng(spec.seed + attempt)
        if spec.scheme == IID:
            per_client = _deal_iid(rng, labels, spec.num_clients)
        elif spec.scheme == DIRICHLET:
            per_client = _deal_dirichlet(rng, labels, spec.num_clients, float(spec.alpha))
        else:
            per_client = _deal_pccd(rng, labels, seen, spec.num_clients)
        kept = _truncate(rng, per_client, labels, spec.local_data_ratio)
        if all(idx.size > 0 for idx in kept):
            local_classes = tuple(
                tuple(int(c) for c in np.unique(labels[idx])) for idx in kept
            )
            return ClientPartition(assignments=tuple(kept), local_classes=local_classes)
    raise PartitionError(
        f"a client received no samples in {MAX_PARTITION_ATTEMPTS} partition attempts"
    )


def sample_clients(num_clients: int, fraction: float, round_index: int, seed: int) -> tuple[int, ...]:
    """Sample ``ceil(fraction * num_clients)`` distinct client ids for a round.

    The product is taken exactly on the fraction's shortest decimal form, so
    ``0.28`` of 25 clients is 7, not the 8 that float rounding gives.
    Deterministic in ``(seed, round_index)``; different rounds draw
    independently.  Returns ids sorted ascending.
    """
    if not 0.0 < fraction <= 1.0:
        raise PartitionError(f"fraction must lie in (0, 1], got {fraction}")
    num_clients = _as_int(num_clients, "num_clients", PartitionError, least=1)
    round_index = _as_int(round_index, "round_index", PartitionError, least=0)
    seed = _as_int(seed, "seed", PartitionError, least=0)
    count = math.ceil(Fraction(repr(float(fraction))) * num_clients)
    if count == num_clients:
        return tuple(range(num_clients))
    rng = np.random.default_rng([seed, round_index])
    chosen = rng.choice(num_clients, size=count, replace=False)
    return tuple(sorted(int(k) for k in chosen))


def partition_summary(part: ClientPartition, labels: np.ndarray) -> list[tuple[int, int, int]]:
    """Rows of ``(client_id, class_id, count)`` for every held class."""
    labels = np.asarray(labels, dtype=np.int64)
    rows: list[tuple[int, int, int]] = []
    for k, idx in enumerate(part.assignments):
        classes, counts = np.unique(labels[idx], return_counts=True)
        for c, n in zip(classes, counts):
            rows.append((k, int(c), int(n)))
    return rows
