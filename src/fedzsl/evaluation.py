"""Per-class top-1 accuracy, harmonic mean, and candidate-restricted prediction.

Classification scores a sample's predicted attributes against the
prototypes of a candidate class set; accuracy is averaged per class
(macro), never per sample, and the generalized setting evaluates seen and
unseen test sets against the union of all classes.  The attribute-free
baseline predicts through its linear head and therefore reports only
seen-class accuracy.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from fedzsl.dataset import AttributeMatrix, ClassSplit, FeatureDataset, _as_ids
from fedzsl.losses import _map_blocks
from fedzsl.model import (
    ATTRIBUTE_BASED,
    ATTRIBUTE_FREE,
    ModelParams,
    forward_attr,
    forward_head,
)


class EvalError(ValueError):
    """Invalid evaluation inputs."""


@dataclass
class Metrics:
    """Accuracy percentages; unseen-facing fields are None in attribute-free mode."""

    acc_c: float | None
    acc_u: float | None
    acc_s: float
    acc_h: float | None

    def __post_init__(self) -> None:
        for name in ("acc_c", "acc_u", "acc_s", "acc_h"):
            value = getattr(self, name)
            if value is None:
                continue
            value = float(value)
            if not (math.isfinite(value) and 0.0 <= value <= 100.0):
                raise EvalError(f"{name} must lie in [0, 100], got {value}")
            setattr(self, name, value)
        if self.acc_s is None:
            raise EvalError("acc_s is required in every mode")


def _predict_scores(scores: np.ndarray, candidates: np.ndarray | None) -> np.ndarray:
    # argmax returns the first maximum, so ascending candidate order breaks
    # ties toward the smallest class id.  Without candidates, the positions.
    best = np.argmax(scores, axis=1)
    return best if candidates is None else candidates[best]


def _predict_each(
    params: ModelParams,
    v: np.ndarray,
    A: AttributeMatrix,
    candidate_sets: list[tuple[int, ...] | list[int]],
) -> list[np.ndarray]:
    # Each candidate set takes its columns, row-ordered so argmax needs no
    # copy, from one product against the whole table: one pass per test set,
    # taken in blocks of rows (see _predict_blocks).
    if params.mode != ATTRIBUTE_BASED:
        raise EvalError(f"predict requires {ATTRIBUTE_BASED} params, got {params.mode}")
    sets = []
    for candidate_classes in candidate_sets:
        candidates = np.sort(_as_ids(list(candidate_classes), "candidate ids", EvalError))
        if candidates.size == 0:
            raise EvalError("candidate_classes must be nonempty")
        if candidates[0] < 0 or candidates[-1] >= A.num_classes:
            raise EvalError(f"candidate ids must lie in [0, {A.num_classes})")
        sets.append(candidates)
    return _predict_blocks(lambda rows: forward_attr(params, rows) @ A.values, v, sets)


def _predict_blocks(
    scores_of: Callable[[np.ndarray], np.ndarray], v: np.ndarray, sets: list[np.ndarray | None]
) -> list[np.ndarray]:
    # Each candidate set's predictions for the rows of v from the columns of
    # scores_of(rows) at its ids (all columns, already in id order, for
    # None), taken one block of rows at a time, as the forward-only loss
    # takes them: under one BLAS thread each block's product has the whole
    # product's bits, and its transients stay block-sized.  Each block
    # writes its own rows of the predictions, so the blocks run in any
    # order on two threads (losses._map_blocks).
    v = np.atleast_2d(v)
    preds = [np.empty(v.shape[0], dtype=np.int64) for _ in sets]

    def run(start: int, stop: int) -> None:
        scores = scores_of(v[start:stop])
        for out, candidates in zip(preds, sets):
            picked = scores if candidates is None else np.take(scores, candidates, axis=1)
            out[start:stop] = _predict_scores(picked, candidates)

    _map_blocks(v.shape[0], run)
    return preds


def predict(
    params: ModelParams,
    v: np.ndarray,
    A: AttributeMatrix,
    candidate_classes: tuple[int, ...] | list[int],
) -> int | np.ndarray:
    """Highest-compatibility candidate class for a feature vector or batch.

    Scores are dot products of predicted attributes with candidate
    prototypes; exact ties resolve to the smallest class id.
    """
    (preds,) = _predict_each(params, v, A, [candidate_classes])
    return int(preds[0]) if np.ndim(v) == 1 else preds


def per_class_top1(
    preds: np.ndarray, labels: np.ndarray, classes: tuple[int, ...] | list[int]
) -> float:
    """Macro top-1 accuracy: mean over classes of the within-class rate, x100.

    Every label must belong to ``classes`` and every listed class must have
    at least one sample; predictions outside ``classes`` simply count as
    wrong.
    """
    preds = _as_ids(preds, "preds", EvalError)
    labels = _as_ids(labels, "labels", EvalError)
    if preds.shape != labels.shape or preds.ndim != 1:
        raise EvalError(f"preds and labels must be equal-length vectors, got {preds.shape} vs {labels.shape}")
    ids = np.sort(_as_ids(list(classes), "class ids", EvalError))
    if not ids.size:
        raise EvalError("classes must be nonempty")
    member = np.isin(labels, ids)
    if not np.all(member):
        stray = int(labels[~member][0])
        raise EvalError(f"label {stray} is not in the evaluated class set")
    # Hits and sizes per distinct class, then per listed id (a repeated id
    # counts again); each rate is the correctly rounded hits/size quotient.
    distinct, listed = np.unique(ids, return_inverse=True)
    at = np.searchsorted(distinct, labels)
    sizes = np.bincount(at, minlength=distinct.size)[listed]
    if not np.all(sizes):
        raise EvalError(f"class {int(ids[np.argmin(sizes)])} has no test samples")
    hits = np.bincount(at[preds == labels], minlength=distinct.size)[listed]
    return 100.0 * float(np.mean(hits / sizes))


def harmonic_mean(acc_u: float, acc_s: float) -> float:
    """Harmonic mean 2ab/(a+b) of two accuracies, defined as 0 at (0, 0)."""
    a, b = float(acc_u), float(acc_s)
    for value in (a, b):
        if not (math.isfinite(value) and 0.0 <= value <= 100.0):
            raise EvalError(f"accuracies must lie in [0, 100], got {value}")
    if a + b == 0.0:
        return 0.0
    return 2.0 * a * b / (a + b)


def _predict_head(params: ModelParams, v: np.ndarray, seen: tuple[int, ...]) -> np.ndarray:
    seen_ids = np.asarray(sorted(seen), dtype=np.int64)
    if params.W_c.shape[0] != seen_ids.size:
        raise EvalError(
            f"head covers {params.W_c.shape[0]} classes but the split lists {seen_ids.size}"
        )
    (preds,) = _predict_blocks(lambda rows: forward_head(params, rows), v, [None])
    return seen_ids[preds]


def evaluate(
    params: ModelParams,
    test_seen: FeatureDataset,
    test_unseen: FeatureDataset | None,
    A: AttributeMatrix,
    split: ClassSplit,
) -> Metrics:
    """Zero-shot and generalized metrics of a model on the two test sets.

    Attribute-based mode: acc_c predicts over unseen candidates only on the
    unseen test set; acc_u and acc_s predict over all classes on their
    respective sets; acc_h is the harmonic mean.  Per-class averaging runs
    over the classes present in each test set.  Attribute-free mode reports
    only acc_s (the rest are None) and ignores ``test_unseen``.
    """
    if params.mode == ATTRIBUTE_FREE:
        preds = _predict_head(params, test_seen.features, split.seen)
        acc_s = per_class_top1(preds, test_seen.labels, tuple(np.unique(test_seen.labels)))
        return Metrics(acc_c=None, acc_u=None, acc_s=acc_s, acc_h=None)
    if test_unseen is None:
        raise EvalError("attribute-based evaluation requires an unseen test set")
    if not split.unseen:
        raise EvalError("split declares no unseen classes")
    all_classes = split.all_classes
    unseen_present = tuple(int(c) for c in np.unique(test_unseen.labels))
    seen_present = tuple(int(c) for c in np.unique(test_seen.labels))
    preds_c, preds_u = _predict_each(params, test_unseen.features, A, [split.unseen, all_classes])
    acc_c = per_class_top1(preds_c, test_unseen.labels, unseen_present)
    acc_u = per_class_top1(preds_u, test_unseen.labels, unseen_present)
    preds_s = predict(params, test_seen.features, A, all_classes)
    acc_s = per_class_top1(preds_s, test_seen.labels, seen_present)
    acc_h = harmonic_mean(acc_u, acc_s)
    return Metrics(acc_c=acc_c, acc_u=acc_u, acc_s=acc_s, acc_h=acc_h)
