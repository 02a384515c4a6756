"""Client partitioning schemes and round-level client sampling."""
from __future__ import annotations

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedzsl.dataset import ClassSplit, FeatureDataset, SyntheticSpec, generate_synthetic, split_train_test
from fedzsl.partition import (
    ClientPartition,
    PartitionError,
    PartitionSpec,
    partition,
    partition_summary,
    sample_clients,
)


def training_set(num_seen: int = 10, samples: int = 12, seed: int = 0) -> FeatureDataset:
    spec = SyntheticSpec(
        num_seen=num_seen, num_unseen=2, d_a=4, d_v=6, samples_per_class=samples
    )
    ds, _ = generate_synthetic(spec, seed=seed)
    return split_train_test(ds, seed=seed)[0]


def coverage(part: ClientPartition) -> np.ndarray:
    return np.sort(np.concatenate(part.assignments))


class TestPartitionSpec:
    def test_rejects_unknown_scheme(self):
        with pytest.raises(PartitionError):
            PartitionSpec(scheme="uniform", num_clients=3)

    def test_dirichlet_requires_alpha(self):
        with pytest.raises(PartitionError):
            PartitionSpec(scheme="dirichlet", num_clients=3)
        with pytest.raises(PartitionError):
            PartitionSpec(scheme="dirichlet", num_clients=3, alpha=0.0)

    def test_rejects_a_negative_seed(self):
        with pytest.raises(PartitionError, match=r"seed must be >= 0, got -1$"):
            PartitionSpec(scheme="pccd", num_clients=3, seed=-1)

    @pytest.mark.parametrize("value", [3.7, 0.5, math.nan, math.inf])
    @pytest.mark.parametrize("field", ["num_clients", "seed"])
    def test_a_non_integral_count_is_refused(self, field, value):
        fields = {"scheme": "pccd", "num_clients": 3, field: value}
        with pytest.raises(PartitionError, match=rf"^{field} must be an integer, got {value}$"):
            PartitionSpec(**fields)

    def test_whole_counts_load_as_ints(self):
        spec = PartitionSpec(scheme="pccd", num_clients=3.0, seed=2.0)
        assert (spec.num_clients, spec.seed) == (3, 2)
        assert type(spec.num_clients) is int and type(spec.seed) is int

    def test_ratio_bounds(self):
        with pytest.raises(PartitionError):
            PartitionSpec(scheme="iid", num_clients=3, local_data_ratio=0.0)
        with pytest.raises(PartitionError):
            PartitionSpec(scheme="iid", num_clients=3, local_data_ratio=1.5)


class TestClientPartition:
    def test_rejects_empty_client(self):
        with pytest.raises(PartitionError):
            ClientPartition(
                assignments=(np.array([0, 1]), np.array([], dtype=np.int64)),
                local_classes=((0,), ()),
            )

    def test_rejects_double_assignment(self):
        with pytest.raises(PartitionError):
            ClientPartition(
                assignments=(np.array([0, 1]), np.array([1, 2])),
                local_classes=((0,), (0,)),
            )


class TestIid:
    def test_covers_every_sample_once(self):
        train = training_set()
        part = partition(train, PartitionSpec(scheme="iid", num_clients=4, seed=1))
        assert np.array_equal(coverage(part), np.arange(train.num_samples))

    def test_balanced_within_one(self):
        train = training_set()
        part = partition(train, PartitionSpec(scheme="iid", num_clients=4, seed=1))
        sizes = [idx.size for idx in part.assignments]
        assert max(sizes) - min(sizes) <= 1

    def test_deterministic_per_seed(self):
        train = training_set()
        p1 = partition(train, PartitionSpec(scheme="iid", num_clients=4, seed=9))
        p2 = partition(train, PartitionSpec(scheme="iid", num_clients=4, seed=9))
        for a, b in zip(p1.assignments, p2.assignments):
            assert np.array_equal(a, b)


class TestDirichlet:
    def test_covers_every_sample_once(self):
        train = training_set()
        spec = PartitionSpec(scheme="dirichlet", num_clients=4, alpha=0.5, seed=2)
        part = partition(train, spec)
        assert np.array_equal(coverage(part), np.arange(train.num_samples))

    def test_small_alpha_concentrates_classes(self):
        train = training_set()
        skewed = partition(
            train, PartitionSpec(scheme="dirichlet", num_clients=4, alpha=0.05, seed=2)
        )
        smooth = partition(
            train, PartitionSpec(scheme="dirichlet", num_clients=4, alpha=100.0, seed=2)
        )
        mean_skewed = np.mean([len(c) for c in skewed.local_classes])
        mean_smooth = np.mean([len(c) for c in smooth.local_classes])
        assert mean_skewed < mean_smooth


class TestPccd:
    def test_classes_are_disjoint_across_clients(self):
        train = training_set()
        part = partition(train, PartitionSpec(scheme="pccd", num_clients=5, seed=0))
        held = [c for classes in part.local_classes for c in classes]
        assert len(held) == len(set(held))
        assert set(held) == set(train.split.seen)

    def test_class_counts_balanced_within_one(self):
        train = training_set()
        part = partition(train, PartitionSpec(scheme="pccd", num_clients=4, seed=0))
        counts = [part.class_counts(k) for k in range(4)]
        assert max(counts) - min(counts) <= 1

    def test_every_sample_of_a_class_stays_together(self):
        train = training_set()
        part = partition(train, PartitionSpec(scheme="pccd", num_clients=5, seed=3))
        for k, idx in enumerate(part.assignments):
            assert set(np.unique(train.labels[idx])) == set(part.local_classes[k])
        assert coverage(part).size == train.num_samples

    def test_150_classes_10_clients_gives_15_each(self):
        train = training_set(num_seen=150, samples=2, seed=1)
        part = partition(train, PartitionSpec(scheme="pccd", num_clients=10, seed=0))
        assert all(part.class_counts(k) == 15 for k in range(10))

    def test_150_classes_20_clients_gives_7_or_8(self):
        train = training_set(num_seen=150, samples=2, seed=1)
        part = partition(train, PartitionSpec(scheme="pccd", num_clients=20, seed=0))
        counts = {part.class_counts(k) for k in range(20)}
        assert counts == {7, 8}

    def test_more_clients_than_classes_is_an_error(self):
        train = training_set(num_seen=4)
        with pytest.raises(PartitionError):
            partition(train, PartitionSpec(scheme="pccd", num_clients=5, seed=0))

    def test_unseen_label_in_training_data_is_an_error(self):
        split = ClassSplit(seen=(0, 1), unseen=(2,))
        features = np.ones((6, 3))
        labels = np.array([0, 0, 1, 1, 2, 2])
        bad_train = FeatureDataset(features=features, labels=labels, split=split)
        with pytest.raises(PartitionError):
            partition(bad_train, PartitionSpec(scheme="pccd", num_clients=2, seed=0))


class TestLocalDataRatio:
    def test_ceil_keeps_6_of_60(self):
        split = ClassSplit(seen=(0,), unseen=())
        rng = np.random.default_rng(0)
        train = FeatureDataset(
            features=rng.standard_normal((60, 4)),
            labels=np.zeros(60, dtype=np.int64),
            split=split,
        )
        spec = PartitionSpec(scheme="pccd", num_clients=1, local_data_ratio=0.1, seed=0)
        part = partition(train, spec)
        assert part.assignments[0].size == 6

    def test_every_local_class_survives_truncation(self):
        train = training_set()
        spec = PartitionSpec(scheme="pccd", num_clients=5, local_data_ratio=0.1, seed=0)
        full = partition(train, PartitionSpec(scheme="pccd", num_clients=5, seed=0))
        part = partition(train, spec)
        assert part.local_classes == full.local_classes

    def test_ratio_one_keeps_everything(self):
        train = training_set()
        spec = PartitionSpec(scheme="iid", num_clients=3, local_data_ratio=1.0, seed=0)
        part = partition(train, spec)
        assert coverage(part).size == train.num_samples


class TestSampleClients:
    def test_full_participation_shortcut(self):
        for round_index in range(3):
            assert sample_clients(7, 1.0, round_index, seed=0) == tuple(range(7))

    def test_fraction_uses_ceil(self):
        chosen = sample_clients(10, 0.25, round_index=0, seed=0)
        assert len(chosen) == 3
        chosen = sample_clients(10, 0.01, round_index=0, seed=0)
        assert len(chosen) == 1

    def test_count_is_exact_on_the_percent_grid(self):
        # 0.28 * 25 is 7.000000000000001 in floats; the count must still be 7.
        assert len(sample_clients(25, 0.28, 0, 0)) == 7
        for i in range(1, 101):
            for k in range(1, 101):
                expected = math.ceil(Fraction(i, 100) * k)
                assert len(sample_clients(k, i / 100, 0, 0)) == expected, (i, k)

    def test_sorted_distinct_and_deterministic(self):
        a = sample_clients(10, 0.5, round_index=4, seed=11)
        b = sample_clients(10, 0.5, round_index=4, seed=11)
        assert a == b
        assert list(a) == sorted(set(a))
        c = sample_clients(10, 0.5, round_index=5, seed=11)
        assert a != c or True  # different rounds may collide; only determinism is required

    def test_rounds_draw_independently(self):
        draws = {sample_clients(20, 0.3, r, seed=1) for r in range(10)}
        assert len(draws) > 1

    def test_bad_fraction(self):
        with pytest.raises(PartitionError):
            sample_clients(5, 0.0, 0, 0)
        with pytest.raises(PartitionError):
            sample_clients(5, 1.2, 0, 0)

    @pytest.mark.parametrize("value", [2.5, math.nan, math.inf])
    @pytest.mark.parametrize("field", ["num_clients", "round_index", "seed"])
    def test_a_non_integral_count_is_refused(self, field, value):
        args = {"num_clients": 5, "fraction": 0.5, "round_index": 1, "seed": 0, field: value}
        with pytest.raises(PartitionError, match=rf"^{field} must be an integer, got {value}$"):
            sample_clients(**args)

    @pytest.mark.parametrize("field", ["round_index", "seed"])
    def test_a_negative_round_or_seed_is_refused(self, field):
        args = {"num_clients": 5, "fraction": 0.5, "round_index": 1, "seed": 0, field: -1}
        with pytest.raises(PartitionError, match=rf"^{field} must be >= 0, got -1$"):
            sample_clients(**args)

    def test_whole_counts_draw_as_ints(self):
        assert sample_clients(10.0, 0.3, 4.0, 2.0) == sample_clients(10, 0.3, 4, 2)


class TestPartitionSummary:
    def test_rows_match_counts(self):
        train = training_set()
        part = partition(train, PartitionSpec(scheme="pccd", num_clients=5, seed=0))
        rows = partition_summary(part, train.labels)
        total = sum(count for _, _, count in rows)
        assert total == train.num_samples
        for client_id, class_id, count in rows:
            assert class_id in part.local_classes[client_id]
            idx = part.assignments[client_id]
            assert count == int(np.sum(train.labels[idx] == class_id))


class TestEveryRowOnce:
    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(
        scheme=st.sampled_from(["iid", "dirichlet", "pccd"]),
        num_seen=st.integers(4, 12),
        samples=st.integers(5, 15),
        data_seed=st.integers(0, 2**16),
        seed=st.integers(0, 2**31 - 1),
        alpha=st.sampled_from([0.5, 1.0, 100.0]),
        data=st.data(),
    )
    def test_each_training_row_goes_to_exactly_one_client(
        self, scheme, num_seen, samples, data_seed, seed, alpha, data
    ):
        train = training_set(num_seen=num_seen, samples=samples, seed=data_seed)
        clients = data.draw(st.integers(1, 4 if scheme == "dirichlet" else num_seen))
        spec = PartitionSpec(
            scheme=scheme,
            num_clients=clients,
            alpha=alpha if scheme == "dirichlet" else None,
            seed=seed,
        )
        part = partition(train, spec)
        assert part.num_clients == clients
        assert np.array_equal(coverage(part), np.arange(train.num_samples))
