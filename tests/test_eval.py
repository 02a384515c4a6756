"""Prediction, per-class accuracy, harmonic mean, and full evaluation."""
from __future__ import annotations

import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedzsl.dataset import (
    AttributeMatrix,
    ClassSplit,
    FeatureDataset,
    SyntheticSpec,
    generate_synthetic,
    split_train_test,
)
from fedzsl.evaluation import (
    EvalError,
    Metrics,
    _predict_each,
    evaluate,
    harmonic_mean,
    per_class_top1,
    predict,
)
from fedzsl.model import ATTRIBUTE_BASED, ATTRIBUTE_FREE, ModelParams, init_params


def per_class_top1_loop(
    preds: np.ndarray, labels: np.ndarray, classes: tuple[int, ...] | list[int]
) -> float:
    """The per-class mask loop ``per_class_top1`` ran before it counted per
    class, kept verbatim as the oracle of its results and errors."""
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


def identity_params(n: int) -> ModelParams:
    """Regressor that passes features through as attribute predictions."""
    return ModelParams(
        W_g=np.eye(n), b_g=np.zeros(n), W_h=np.zeros((n, n)), b_h=np.zeros(n)
    )


class TestPredict:
    def test_picks_the_best_prototype(self):
        attrs = AttributeMatrix(values=np.eye(4), groups=((0, 4),))
        params = identity_params(4)
        v = np.array([0.1, 0.9, 0.2, 0.0])
        assert predict(params, v, attrs, (0, 1, 2, 3)) == 1

    def test_ties_break_toward_the_smallest_class_id(self):
        # Two identical prototypes produce exactly equal scores.
        values = np.eye(4)
        values[:, 3] = values[:, 1]
        attrs = AttributeMatrix(values=values, groups=((0, 4),))
        params = identity_params(4)
        v = np.array([0.0, 1.0, 0.0, 0.0])
        assert predict(params, v, attrs, (3, 1)) == 1
        assert predict(params, v, attrs, (3,)) == 3

    def test_candidate_order_does_not_matter(self):
        attrs = AttributeMatrix(values=np.eye(4), groups=((0, 4),))
        params = identity_params(4)
        batch = np.eye(4) * 2.0
        forward = predict(params, batch, attrs, (0, 1, 2, 3))
        backward = predict(params, batch, attrs, (3, 2, 1, 0))
        assert np.array_equal(forward, backward)

    def test_single_vector_returns_int(self):
        attrs = AttributeMatrix(values=np.eye(3), groups=((0, 3),))
        params = identity_params(3)
        out = predict(params, np.array([1.0, 0.0, 0.0]), attrs, (0, 1, 2))
        assert isinstance(out, int)
        batch_out = predict(params, np.ones((2, 3)), attrs, (0, 1, 2))
        assert isinstance(batch_out, np.ndarray) and batch_out.shape == (2,)

    def test_restricting_candidates_changes_the_answer(self):
        attrs = AttributeMatrix(values=np.eye(3), groups=((0, 3),))
        params = identity_params(3)
        v = np.array([0.0, 1.0, 0.5])
        assert predict(params, v, attrs, (0, 1, 2)) == 1
        assert predict(params, v, attrs, (0, 2)) == 2

    def test_validation(self):
        attrs = AttributeMatrix(values=np.eye(3), groups=((0, 3),))
        params = identity_params(3)
        with pytest.raises(EvalError):
            predict(params, np.ones(3), attrs, ())
        with pytest.raises(EvalError):
            predict(params, np.ones(3), attrs, (0, 5))
        free = ModelParams(
            W_g=np.eye(3),
            b_g=np.zeros(3),
            W_h=np.zeros((3, 3)),
            b_h=np.zeros(3),
            mode=ATTRIBUTE_FREE,
            W_c=np.zeros((2, 3)),
            b_c=np.zeros(2),
        )
        with pytest.raises(EvalError):
            predict(free, np.ones(3), attrs, (0, 1))

    @pytest.mark.parametrize(
        "candidates, shown",
        [((0.5, 1.7, 2.9), "0.5"), ((0, 1, np.nan), "nan"), ((0, np.inf), "inf")],
        ids=["fractions", "nan", "inf"],
    )
    def test_rejects_non_integral_candidates(self, candidates, shown):
        # Truncating would score (0.5, 1.7, 2.9) as classes 0, 1 and 2.
        attrs = AttributeMatrix(values=np.eye(3), groups=((0, 3),))
        params = identity_params(3)
        with pytest.raises(EvalError, match=f"^candidate ids must be integers, got {shown}$"):
            predict(params, np.ones((2, 3)), attrs, candidates)

    def test_integral_float_candidates_score_as_ints(self):
        attrs = AttributeMatrix(values=np.eye(3), groups=((0, 3),))
        params = identity_params(3)
        batch = np.array([[0.0, 1.0, 0.5], [0.3, 0.0, 0.9]])
        assert np.array_equal(
            predict(params, batch, attrs, (2.0, 0.0)), predict(params, batch, attrs, (2, 0))
        )


class TestPredictAllocation:
    def test_peak_is_the_attributes_and_one_score_matrix(self):
        # CUB-like shape.  The one product needs a_hat and the scores; each
        # candidate set's columns then sit beside the scores, row-ordered,
        # so argmax reads them without another copy.
        rows, d_a, d_v, classes = 2000, 312, 256, 200
        rng = np.random.default_rng(0)
        attrs = AttributeMatrix(values=rng.standard_normal((d_a, classes)), groups=((0, d_a),))
        params = init_params(d_v, d_a, num_seen=150, mode=ATTRIBUTE_BASED, seed=0)
        features = rng.standard_normal((rows, d_v))
        tracemalloc.start()
        try:
            _predict_each(params, features, attrs, [range(150, 200), range(200)])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * rows * (d_a + classes) + 8 * rows * 8


class TestPerClassTop1:
    def test_macro_averages_over_classes_not_samples(self):
        # 10 samples of class 0 all right, 90 samples of class 1 all wrong:
        # the macro average is 50, not the 10 percent micro rate.
        labels = np.array([0] * 10 + [1] * 90)
        preds = np.array([0] * 10 + [0] * 90)
        assert per_class_top1(preds, labels, (0, 1)) == 50.0

    def test_perfect_and_zero(self):
        labels = np.array([3, 4, 3])
        assert per_class_top1(labels, labels, (3, 4)) == 100.0
        assert per_class_top1(np.array([4, 3, 4]), labels, (3, 4)) == 0.0

    def test_prediction_outside_classes_counts_as_wrong(self):
        labels = np.array([0, 0])
        preds = np.array([9, 0])
        assert per_class_top1(preds, labels, (0,)) == 50.0

    def test_stray_label_is_rejected(self):
        with pytest.raises(EvalError):
            per_class_top1(np.array([0]), np.array([7]), (0, 1))

    def test_class_without_samples_is_rejected(self):
        with pytest.raises(EvalError):
            per_class_top1(np.array([0]), np.array([0]), (0, 1))

    def test_shape_mismatch_is_rejected(self):
        with pytest.raises(EvalError):
            per_class_top1(np.array([0, 1]), np.array([0]), (0, 1))

    @pytest.mark.parametrize(
        "preds, labels, classes, message",
        [
            ([0.2, 1.0], [0, 1], (0, 1), "preds must be integers, got 0.2"),
            ([0, 1], [0.9, 1.0], (0, 1), "labels must be integers, got 0.9"),
            ([0, 1], [0, 1], (0, 1.5), "class ids must be integers, got 1.5"),
            ([0, np.nan], [0, 1], (0, 1), "preds must be integers, got nan"),
            ([0, 1], [np.inf, 1], (0, 1), "labels must be integers, got inf"),
        ],
        ids=["preds", "labels", "class-ids", "nan", "inf"],
    )
    def test_rejects_non_integral_values(self, preds, labels, classes, message):
        with pytest.raises(EvalError, match=f"^{message}$"):
            per_class_top1(preds, labels, classes)

    def test_integral_floats_score_as_ints(self):
        assert per_class_top1([0.0, 1.0, 1.0], [0.0, 1.0, 0.0], (0.0, 1.0)) == 75.0

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(
        ids=st.lists(st.integers(0, 9), max_size=6),
        rows=st.lists(st.tuples(st.integers(-1, 10), st.integers(0, 40)), min_size=1, max_size=80),
    )
    def test_matches_the_per_class_loop(self, ids, rows):
        # Row k < 40 is labelled ids[k % len(ids)], row 40 with the stray 11.
        # Repeated ids, classes without samples, stray labels and predictions
        # outside the classes all occur among the examples.
        preds = np.array([p for p, _ in rows], dtype=np.int64)
        labels = np.array(
            [ids[k % len(ids)] if ids and k < 40 else 11 for _, k in rows], dtype=np.int64
        )
        try:
            expected = per_class_top1_loop(preds, labels, tuple(ids))
        except EvalError as exc:
            with pytest.raises(EvalError, match=f"^{re.escape(str(exc))}$"):
                per_class_top1(preds, labels, tuple(ids))
        else:
            got = per_class_top1(preds, labels, tuple(ids))
            assert np.float64(got).tobytes() == np.float64(expected).tobytes()


class TestHarmonicMean:
    def test_worked_example(self):
        assert abs(harmonic_mean(57.5, 58.0) - 57.75) <= 0.005

    def test_known_value(self):
        assert harmonic_mean(40.0, 60.0) == pytest.approx(48.0, rel=1e-12)

    def test_zero_edge_cases(self):
        assert harmonic_mean(0.0, 0.0) == 0.0
        assert harmonic_mean(0.0, 80.0) == 0.0

    def test_symmetry(self):
        assert harmonic_mean(30.0, 70.0) == harmonic_mean(70.0, 30.0)

    def test_between_min_and_arithmetic_mean(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            a, b = rng.uniform(0.0, 100.0, size=2)
            h = harmonic_mean(a, b)
            assert min(a, b) - 1e-12 <= h <= 0.5 * (a + b) + 1e-12

    def test_range_validation(self):
        with pytest.raises(EvalError):
            harmonic_mean(-1.0, 50.0)
        with pytest.raises(EvalError):
            harmonic_mean(50.0, 101.0)


class TestEvaluate:
    def build_case(self):
        # 4 classes (2 seen, 2 unseen) with orthogonal prototypes and a
        # pass-through regressor: every prediction is exact.
        split = ClassSplit(seen=(0, 1), unseen=(2, 3))
        attrs = AttributeMatrix(values=np.eye(4), groups=((0, 4),))
        params = identity_params(4)
        test_seen = FeatureDataset(
            features=np.eye(4)[[0, 0, 1]] * 3.0,
            labels=np.array([0, 0, 1]),
            split=split,
        )
        test_unseen = FeatureDataset(
            features=np.eye(4)[[2, 3, 3]] * 3.0,
            labels=np.array([2, 3, 3]),
            split=split,
        )
        return params, test_seen, test_unseen, attrs, split

    def test_perfect_model_scores_100_everywhere(self):
        params, test_seen, test_unseen, attrs, split = self.build_case()
        metrics = evaluate(params, test_seen, test_unseen, attrs, split)
        assert metrics.acc_c == 100.0
        assert metrics.acc_u == 100.0
        assert metrics.acc_s == 100.0
        assert metrics.acc_h == 100.0

    def test_unseen_restriction_versus_generalized(self):
        # A model whose unseen predictions always land on a seen class:
        # restricted accuracy stays perfect, generalized drops to zero.
        params, test_seen, test_unseen, attrs, split = self.build_case()
        biased = ModelParams(
            W_g=params.W_g.copy(),
            b_g=np.array([10.0, 0.0, 0.25, 0.25]),
            W_h=params.W_h.copy(),
            b_h=params.b_h.copy(),
        )
        metrics = evaluate(biased, test_seen, test_unseen, attrs, split)
        assert metrics.acc_c == 100.0
        assert metrics.acc_u == 0.0

    def test_averages_over_classes_present_in_the_test_set(self):
        params, test_seen, test_unseen, attrs, split = self.build_case()
        only_class_zero = FeatureDataset(
            features=np.eye(4)[[0, 0]] * 3.0, labels=np.array([0, 0]), split=split
        )
        metrics = evaluate(params, only_class_zero, test_unseen, attrs, split)
        assert metrics.acc_s == 100.0

    def test_matches_one_product_per_test_set(self):
        # The oracle scores each test set once against the whole attribute
        # table and reads every candidate set's columns from those scores.
        ds, attrs = generate_synthetic(
            SyntheticSpec(num_seen=7, num_unseen=5, d_a=20, d_v=12, samples_per_class=9), seed=4
        )
        _, test_seen, test_unseen = split_train_test(ds, seed=4)
        params = init_params(12, 20, num_seen=7, mode=ATTRIBUTE_BASED, seed=4)

        def top1(test, candidates):
            scores = (test.features @ params.W_g.T + params.b_g) @ attrs.values
            ids = np.array(sorted(candidates))
            preds = ids[np.argmax(scores[:, ids], axis=1)]
            rates = [np.mean(preds[test.labels == c] == c) for c in np.unique(test.labels)]
            return 100.0 * float(np.mean(rates))

        acc_c = top1(test_unseen, ds.split.unseen)
        acc_u = top1(test_unseen, ds.split.all_classes)
        acc_s = top1(test_seen, ds.split.all_classes)
        metrics = evaluate(params, test_seen, test_unseen, attrs, ds.split)
        assert (metrics.acc_c, metrics.acc_u, metrics.acc_s) == (acc_c, acc_u, acc_s)
        assert metrics.acc_h == harmonic_mean(acc_u, acc_s)
        assert 0.0 < acc_u < 100.0 and acc_c != acc_u

    def test_attribute_based_requires_unseen_data(self):
        params, test_seen, _, attrs, split = self.build_case()
        with pytest.raises(EvalError):
            evaluate(params, test_seen, None, attrs, split)

    def test_attribute_free_reports_only_seen_accuracy(self):
        split = ClassSplit(seen=(0, 1), unseen=(2,))
        attrs = AttributeMatrix(values=np.eye(3), groups=((0, 3),))
        params = ModelParams(
            W_g=np.zeros((3, 2)),
            b_g=np.zeros(3),
            W_h=np.zeros((2, 3)),
            b_h=np.zeros(2),
            mode=ATTRIBUTE_FREE,
            W_c=np.eye(2),
            b_c=np.zeros(2),
        )
        test_seen = FeatureDataset(
            features=np.array([[2.0, 0.0], [0.0, 2.0], [2.0, 0.0]]),
            labels=np.array([0, 1, 0]),
            split=split,
        )
        metrics = evaluate(params, test_seen, None, attrs, split)
        assert metrics.acc_s == 100.0
        assert metrics.acc_c is None
        assert metrics.acc_u is None
        assert metrics.acc_h is None

    def test_metrics_range_validation(self):
        with pytest.raises(EvalError):
            Metrics(acc_c=None, acc_u=None, acc_s=120.0, acc_h=None)
        with pytest.raises(EvalError):
            Metrics(acc_c=-5.0, acc_u=0.0, acc_s=0.0, acc_h=0.0)
