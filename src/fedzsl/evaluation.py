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
from dataclasses import dataclass

import numpy as np

from fedzsl.dataset import AttributeMatrix, ClassSplit, FeatureDataset, _as_features
from fedzsl.model import (
    ATTRIBUTE_BASED,
    ATTRIBUTE_FREE,
    ModelParams,
    compatibility_logits,
    forward_attr,
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


def _predict_scores(scores: np.ndarray, candidates: np.ndarray) -> np.ndarray:
    # argmax returns the first maximum, so ascending candidate order breaks
    # ties toward the smallest class id.
    return candidates[np.argmax(scores, axis=1)]


def _predict_each(
    params: ModelParams,
    v: np.ndarray,
    A: AttributeMatrix,
    candidate_sets: list[tuple[int, ...] | list[int]],
) -> list[np.ndarray]:
    # Batch predictions against each candidate set from one a_hat product,
    # so scoring one test set twice costs one forward pass.
    if params.mode != ATTRIBUTE_BASED:
        raise EvalError(f"predict requires {ATTRIBUTE_BASED} params, got {params.mode}")
    sets = []
    for candidate_classes in candidate_sets:
        candidates = np.asarray(sorted(int(c) for c in candidate_classes), dtype=np.int64)
        if candidates.size == 0:
            raise EvalError("candidate_classes must be nonempty")
        if candidates[0] < 0 or candidates[-1] >= A.num_classes:
            raise EvalError(f"candidate ids must lie in [0, {A.num_classes})")
        sets.append(candidates)
    v = _as_features(v)
    batch = v[None, :] if v.ndim == 1 else v
    if batch.ndim != 2 or batch.shape[1] != params.d_v:
        raise EvalError(f"features must have {params.d_v} columns, got shape {v.shape}")
    a_hat = forward_attr(params, batch)
    return [_predict_scores(compatibility_logits(a_hat, A, c), c) for c in sets]


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
    preds = np.asarray(preds, dtype=np.int64)
    labels = np.asarray(labels, dtype=np.int64)
    if preds.shape != labels.shape or preds.ndim != 1:
        raise EvalError(f"preds and labels must be equal-length vectors, got {preds.shape} vs {labels.shape}")
    ids = sorted(int(c) for c in classes)
    if not ids:
        raise EvalError("classes must be nonempty")
    member = np.isin(labels, np.asarray(ids, dtype=np.int64))
    if not np.all(member):
        stray = int(labels[~member][0])
        raise EvalError(f"label {stray} is not in the evaluated class set")
    rates = []
    for c in ids:
        mask = labels == c
        if not np.any(mask):
            raise EvalError(f"class {c} has no test samples")
        rates.append(float(np.mean(preds[mask] == c)))
    return 100.0 * float(np.mean(rates))


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
    logits = v @ params.W_c.T + params.b_c
    return _predict_scores(logits, seen_ids)


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
