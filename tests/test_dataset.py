"""Dataset construction, splitting, and on-disk round trips."""
from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedzsl.dataset import (
    AttributeMatrix,
    ClassSplit,
    DatasetError,
    FeatureDataset,
    FormatError,
    LabelError,
    MissingFileError,
    SplitError,
    SyntheticSpec,
    _atomic_writer,
    generate_synthetic,
    load_attributes,
    load_dataset,
    save_dataset,
    split_train_test,
)


def small_dataset(seed: int = 0) -> tuple[FeatureDataset, AttributeMatrix]:
    spec = SyntheticSpec(
        num_seen=6, num_unseen=2, d_a=8, d_v=12, samples_per_class=10, group_count=4
    )
    return generate_synthetic(spec, seed=seed)


class TestClassSplit:
    def test_sorts_and_exposes_all_classes(self):
        split = ClassSplit(seen=(3, 1, 2), unseen=(5, 4))
        assert split.seen == (1, 2, 3)
        assert split.unseen == (4, 5)
        assert split.all_classes == (1, 2, 3, 4, 5)
        assert split.num_classes == 5

    def test_empty_unseen_is_allowed(self):
        split = ClassSplit(seen=(0,), unseen=())
        assert split.all_classes == (0,)

    def test_rejects_empty_seen(self):
        with pytest.raises(SplitError):
            ClassSplit(seen=(), unseen=(1,))

    def test_rejects_overlap(self):
        with pytest.raises(SplitError):
            ClassSplit(seen=(0, 1), unseen=(1, 2))

    def test_rejects_duplicates(self):
        with pytest.raises(SplitError):
            ClassSplit(seen=(0, 0), unseen=(1,))

    def test_rejects_negative_ids(self):
        with pytest.raises(SplitError):
            ClassSplit(seen=(-1, 0), unseen=(1,))

    @pytest.mark.parametrize(
        "seen, unseen, message",
        [
            ((0.5, 1.7), (), "seen class ids must be integers, got 0.5"),
            ((0,), (1.0, float("nan")), "unseen class ids must be integers, got nan"),
            ((0, float("inf")), (), "seen class ids must be integers, got inf"),
        ],
        ids=["fractions", "nan", "inf"],
    )
    def test_rejects_non_integral_ids(self, seen, unseen, message):
        with pytest.raises(SplitError, match=f"^{message}$"):
            ClassSplit(seen=seen, unseen=unseen)

    def test_integral_float_ids_load_as_ints(self):
        split = ClassSplit(seen=np.array([2.0, 0.0]), unseen=(1.0,))
        assert split.seen == (0, 2) and split.unseen == (1,)
        assert all(type(c) is int for c in split.all_classes)

    def test_rejects_bad_test_fraction(self):
        for fraction in (0.0, 1.0, -0.1):
            with pytest.raises(SplitError):
                ClassSplit(seen=(0,), unseen=(1,), test_fraction_seen=fraction)


class TestAttributeMatrix:
    def test_groups_must_tile_exactly(self):
        values = np.eye(4)
        with pytest.raises(DatasetError):
            AttributeMatrix(values=values, groups=((0, 2), (3, 4)))
        with pytest.raises(DatasetError):
            AttributeMatrix(values=values, groups=((0, 2), (2, 3)))
        with pytest.raises(DatasetError):
            AttributeMatrix(values=values, groups=((0, 2), (1, 4)))

    def test_rejects_single_class(self):
        with pytest.raises(DatasetError):
            AttributeMatrix(values=np.ones((3, 1)), groups=((0, 3),))

    def test_rejects_non_finite(self):
        values = np.eye(3)
        values[0, 0] = np.nan
        with pytest.raises(DatasetError):
            AttributeMatrix(values=values, groups=((0, 3),))

    @pytest.mark.parametrize(
        "groups, message",
        [
            (((0, 1.9), (1.2, 3)), "group end must be an integer, got 1.9"),
            (((0, 2), (2.5, 3)), "group start must be an integer, got 2.5"),
            (((0, 2), (2, float("nan"))), "group end must be an integer, got nan"),
            (((0, 2), (2, float("inf"))), "group end must be an integer, got inf"),
        ],
    )
    def test_a_non_integral_group_bound_is_refused(self, groups, message):
        with pytest.raises(DatasetError, match=rf"^{message}$"):
            AttributeMatrix(values=np.ones((3, 2)), groups=groups)

    def test_a_whole_group_bound_loads_as_an_int(self):
        attrs = AttributeMatrix(values=np.ones((3, 2)), groups=((0, 2.0), (np.int64(2), 3)))
        assert attrs.groups == ((0, 2), (2, 3))
        assert all(type(bound) is int for group in attrs.groups for bound in group)

    def test_dimensions(self):
        attrs = AttributeMatrix(values=np.ones((4, 7)), groups=((0, 2), (2, 4)))
        assert attrs.d_a == 4
        assert attrs.num_classes == 7


class TestFeatureDataset:
    def test_rejects_undeclared_label(self):
        split = ClassSplit(seen=(0,), unseen=(1,))
        with pytest.raises(LabelError):
            FeatureDataset(features=np.ones((2, 3)), labels=np.array([0, 7]), split=split)

    @pytest.mark.parametrize(
        "labels, message",
        [
            ([0.7, 1.9], "labels must be integers, got 0.7"),
            ([0.0, float("nan")], "labels must be integers, got nan"),
            ([float("-inf"), 1.0], "labels must be integers, got -inf"),
        ],
        ids=["fractions", "nan", "inf"],
    )
    def test_rejects_non_integral_labels(self, labels, message):
        split = ClassSplit(seen=(0,), unseen=(1,))
        with pytest.raises(LabelError, match=f"^{message}$"):
            FeatureDataset(features=np.ones((2, 3)), labels=labels, split=split)

    @pytest.mark.parametrize("value", [2**63, 2**64 - 1])
    def test_rejects_uint64_labels_beyond_int64(self, value):
        # The int64 cast would wrap them to negatives, and the refusal would
        # name a label the caller never gave.
        split = ClassSplit(seen=(0,), unseen=(1,))
        labels = np.array([0, value], dtype=np.uint64)
        with pytest.raises(LabelError, match=f"^labels must be integers within int64, got {value}$"):
            FeatureDataset(features=np.ones((2, 3)), labels=labels, split=split)

    def test_uint64_labels_within_int64_load(self):
        split = ClassSplit(seen=(0,), unseen=(1,))
        labels = np.array([1, 0], dtype=np.uint64)
        ds = FeatureDataset(features=np.ones((2, 3)), labels=labels, split=split)
        assert ds.labels.dtype == np.int64 and ds.labels.tolist() == [1, 0]

    def test_integral_float_labels_load_and_int64_labels_are_kept(self):
        split = ClassSplit(seen=(0,), unseen=(1,))
        ds = FeatureDataset(features=np.ones((2, 3)), labels=[1.0, 0.0], split=split)
        assert ds.labels.dtype == np.int64 and ds.labels.tolist() == [1, 0]
        labels = np.array([0, 1], dtype=np.int64)
        kept = FeatureDataset(features=np.ones((2, 3)), labels=labels, split=split)
        assert kept.labels is labels

    def test_rejects_label_count_mismatch(self):
        split = ClassSplit(seen=(0,), unseen=(1,))
        with pytest.raises(DatasetError):
            FeatureDataset(features=np.ones((3, 2)), labels=np.array([0, 1]), split=split)

    def test_subset_keeps_split_and_rows(self):
        ds, _ = small_dataset()
        sub = ds.subset(np.array([5, 1, 9]))
        assert sub.num_samples == 3
        assert sub.split is ds.split
        assert np.array_equal(sub.features[0], ds.features[5])
        assert np.array_equal(sub.labels, ds.labels[[5, 1, 9]])


SYNTHETIC_COUNTS = ("num_seen", "num_unseen", "d_a", "d_v", "samples_per_class", "group_count")


class TestSyntheticSpec:
    def test_defaults(self):
        spec = SyntheticSpec()
        assert (spec.num_seen, spec.num_unseen) == (20, 5)
        assert (spec.d_a, spec.d_v) == (16, 32)
        assert spec.samples_per_class == 50
        assert spec.num_classes == 25

    def test_rejects_bad_values(self):
        with pytest.raises(DatasetError):
            SyntheticSpec(num_seen=0)
        with pytest.raises(DatasetError):
            SyntheticSpec(attribute_sparsity=1.5)
        with pytest.raises(DatasetError):
            SyntheticSpec(noise_std=-0.1)
        with pytest.raises(DatasetError):
            SyntheticSpec(group_count=20, d_a=16)

    @pytest.mark.parametrize("value", [2.9, float("nan"), float("inf")])
    @pytest.mark.parametrize("field", SYNTHETIC_COUNTS)
    def test_a_non_integral_count_is_refused(self, field, value):
        with pytest.raises(DatasetError, match=rf"^{field} must be an integer, got {value}$"):
            SyntheticSpec(**{field: value})

    def test_whole_counts_load_as_ints(self):
        spec = SyntheticSpec(**{field: 4.0 for field in SYNTHETIC_COUNTS})
        for field in SYNTHETIC_COUNTS:
            value = getattr(spec, field)
            assert type(value) is int and value == 4, field


class TestGenerateSynthetic:
    def test_shapes_and_labels(self):
        ds, attrs = small_dataset()
        assert ds.features.shape == (80, 12)
        assert attrs.values.shape == (8, 8)
        assert set(np.unique(ds.labels)) == set(range(8))
        counts = np.bincount(ds.labels)
        assert np.all(counts == 10)

    def test_prototypes_are_unit_norm(self):
        _, attrs = small_dataset()
        norms = np.linalg.norm(attrs.values, axis=0)
        assert np.allclose(norms, 1.0, atol=1e-12)

    def test_groups_tile_d_a(self):
        _, attrs = small_dataset()
        assert attrs.groups == ((0, 2), (2, 4), (4, 6), (6, 8))

    def test_deterministic_per_seed(self):
        ds1, attrs1 = small_dataset(seed=11)
        ds2, attrs2 = small_dataset(seed=11)
        assert np.array_equal(ds1.features, ds2.features)
        assert np.array_equal(attrs1.values, attrs2.values)
        ds3, _ = small_dataset(seed=12)
        assert not np.array_equal(ds1.features, ds3.features)

    def test_rejects_a_negative_seed(self):
        spec = SyntheticSpec(num_seen=3, num_unseen=1, d_a=4, d_v=6, samples_per_class=5)
        with pytest.raises(DatasetError, match=r"seed must be >= 0, got -1$"):
            generate_synthetic(spec, seed=-1)

    @pytest.mark.parametrize("value", [2.5, math.nan, math.inf])
    def test_a_non_integral_seed_is_refused(self, value):
        spec = SyntheticSpec(num_seen=3, num_unseen=1, d_a=4, d_v=6, samples_per_class=5)
        with pytest.raises(DatasetError, match=rf"^seed must be an integer, got {value}$"):
            generate_synthetic(spec, seed=value)

    def test_a_whole_seed_draws_as_an_int(self):
        ds, attrs = small_dataset(seed=2.0)
        want_ds, want_attrs = small_dataset(seed=2)
        assert ds.features.tobytes() == want_ds.features.tobytes()
        assert attrs.values.tobytes() == want_attrs.values.tobytes()

    def test_zero_noise_collapses_classes(self):
        spec = SyntheticSpec(
            num_seen=3, num_unseen=1, d_a=4, d_v=6, samples_per_class=5, noise_std=0.0
        )
        ds, _ = generate_synthetic(spec, seed=0)
        for y in range(4):
            rows = ds.features[ds.labels == y]
            assert np.all(rows == rows[0])


class TestSplitTrainTest:
    def test_sizes_and_membership(self):
        ds, _ = small_dataset()
        train, test_seen, test_unseen = split_train_test(ds, seed=0)
        # 10 samples per seen class at fraction 0.2 gives 2 test, 8 train.
        assert train.num_samples == 6 * 8
        assert test_seen.num_samples == 6 * 2
        assert test_unseen.num_samples == 2 * 10
        assert set(np.unique(train.labels)) == set(ds.split.seen)
        assert set(np.unique(test_seen.labels)) == set(ds.split.seen)
        assert set(np.unique(test_unseen.labels)) == set(ds.split.unseen)

    def test_partition_is_exact(self):
        ds, _ = small_dataset()
        train, test_seen, test_unseen = split_train_test(ds, seed=3)
        total = train.num_samples + test_seen.num_samples + test_unseen.num_samples
        assert total == ds.num_samples
        key = lambda d: {tuple(row) for row in d.features}
        assert not (key(train) & key(test_seen))

    def test_deterministic_and_seed_sensitive(self):
        ds, _ = small_dataset()
        a1 = split_train_test(ds, seed=5)[0]
        a2 = split_train_test(ds, seed=5)[0]
        b = split_train_test(ds, seed=6)[0]
        assert np.array_equal(a1.features, a2.features)
        assert not np.array_equal(a1.features, b.features)

    def test_both_sides_stay_nonempty(self):
        # 2 samples per seen class: round(0.2*2)=0 clamps up to 1.
        spec = SyntheticSpec(num_seen=3, num_unseen=1, d_a=4, d_v=4, samples_per_class=2)
        ds, _ = generate_synthetic(spec, seed=0)
        train, test_seen, _ = split_train_test(ds, seed=0)
        assert train.num_samples == 3
        assert test_seen.num_samples == 3

    def test_single_sample_class_is_an_error(self):
        split = ClassSplit(seen=(0, 1), unseen=(2,))
        features = np.arange(8.0).reshape(4, 2)
        labels = np.array([0, 0, 1, 2])
        ds = FeatureDataset(features=features, labels=labels, split=split)
        with pytest.raises(SplitError):
            split_train_test(ds, seed=0)

    def test_missing_unseen_samples_is_an_error(self):
        split = ClassSplit(seen=(0,), unseen=(1,))
        ds = FeatureDataset(
            features=np.ones((4, 2)), labels=np.zeros(4, dtype=np.int64), split=split
        )
        with pytest.raises(SplitError):
            split_train_test(ds, seed=0)

    def test_rejects_a_negative_seed(self):
        ds, _ = small_dataset()
        with pytest.raises(SplitError, match=r"seed must be >= 0, got -1$"):
            split_train_test(ds, seed=-1)

    @pytest.mark.parametrize("value", [2.5, math.nan, math.inf])
    def test_a_non_integral_seed_is_refused(self, value):
        ds, _ = small_dataset()
        with pytest.raises(SplitError, match=rf"^seed must be an integer, got {value}$"):
            split_train_test(ds, seed=value)

    def test_a_whole_seed_splits_as_an_int(self):
        ds, _ = small_dataset()
        got, want = split_train_test(ds, seed=2.0), split_train_test(ds, seed=2)
        for a, b in zip(got, want):
            assert np.array_equal(a.labels, b.labels)
            assert a.features.tobytes() == b.features.tobytes()

    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(
        # A present seen class needs 2 rows; one with none is skipped.
        seen_counts=st.lists(
            st.sampled_from([0, 2, 3, 4, 5, 7, 10, 13]), min_size=1, max_size=5
        ).filter(any),
        unseen_counts=st.lists(st.integers(1, 6), min_size=1, max_size=3),
        fraction=st.floats(0.01, 0.99),
        layout_seed=st.integers(0, 2**32 - 1),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_every_row_lands_once_in_input_order(
        self, seen_counts, unseen_counts, fraction, layout_seed, seed
    ):
        # Class ids interleave seen and unseen, rows come in shuffled label
        # order, and feature column 0 holds each row's input index.
        layout = np.random.default_rng(layout_seed)
        ids = layout.permutation(len(seen_counts) + len(unseen_counts))
        seen, unseen = ids[: len(seen_counts)], ids[len(seen_counts) :]
        counts = dict(zip(ids.tolist(), seen_counts + unseen_counts))
        labels = layout.permutation(np.repeat(ids, seen_counts + unseen_counts))
        rows = np.arange(labels.size)
        ds = FeatureDataset(
            features=np.column_stack([rows, labels]).astype(np.float64),
            labels=labels,
            split=ClassSplit(seen=tuple(seen), unseen=tuple(unseen), test_fraction_seen=fraction),
        )
        parts = split_train_test(ds, seed=seed)
        taken = [part.features[:, 0].astype(np.int64) for part in parts]
        assert np.array_equal(np.sort(np.concatenate(taken)), rows)
        for part, index in zip(parts, taken):
            assert np.all(np.diff(index) > 0)
            assert np.array_equal(part.labels, labels[index])
        test_unseen = taken[2]
        assert np.array_equal(test_unseen, rows[np.isin(labels, unseen)])
        for c in seen.tolist():
            n = counts[c]
            held = int(np.count_nonzero(parts[1].labels == c))
            assert held == (min(max(round(fraction * n), 1), n - 1) if n else 0)


class TestSaveLoad:
    def test_csv_round_trip_is_exact(self, tmp_path):
        ds, attrs = small_dataset()
        save_dataset(tmp_path / "d", ds, attrs, binary=False)
        loaded, loaded_attrs = load_dataset(tmp_path / "d")
        assert np.array_equal(loaded.features, ds.features)
        assert np.array_equal(loaded.labels, ds.labels)
        assert loaded.split.seen == ds.split.seen
        assert loaded.split.unseen == ds.split.unseen
        assert np.array_equal(loaded_attrs.values, attrs.values)
        assert loaded_attrs.groups == attrs.groups

    def test_save_load_save_is_byte_identical(self, tmp_path):
        ds, attrs = small_dataset()
        save_dataset(tmp_path / "a", ds, attrs)
        loaded, loaded_attrs = load_dataset(tmp_path / "a")
        save_dataset(tmp_path / "b", loaded, loaded_attrs)
        for name in ("attributes.csv", "groups.csv", "splits.csv", "features.csv"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    def test_binary_round_trip_matches_float32(self, tmp_path):
        ds, attrs = small_dataset()
        save_dataset(tmp_path / "d", ds, attrs, binary=True)
        assert (tmp_path / "d" / "features.bin").is_file()
        assert not (tmp_path / "d" / "features.csv").is_file()
        loaded, _ = load_dataset(tmp_path / "d")
        # The values stay in the float32 they were stored in, in an array
        # the caller owns.
        assert loaded.features.dtype == np.float32
        assert loaded.features.flags.writeable
        expected = ds.features.astype(np.float32).astype(np.float64)
        assert np.array_equal(loaded.features, expected)
        assert np.array_equal(loaded.labels, ds.labels)

    def test_binary_save_refuses_values_float32_cannot_store(self, tmp_path):
        ds, attrs = small_dataset()
        largest = float(np.finfo(np.float32).max)

        def with_value(value):
            features = ds.features.copy()
            features[2, 5] = value
            return FeatureDataset(features=features, labels=ds.labels, split=ds.split)

        with pytest.raises(DatasetError, match="feature row 2 "):
            save_dataset(tmp_path / "d", with_value(1e39), attrs, binary=True)
        assert not (tmp_path / "d").exists()
        # A value beyond float32's largest that still rounds to it is stored.
        save_dataset(tmp_path / "d", with_value(-(largest + 2.0**102)), attrs, binary=True)
        loaded, _ = load_dataset(tmp_path / "d")
        assert loaded.features[2, 5] == -largest

    def test_csv_features_stay_float64(self, tmp_path):
        ds, attrs = small_dataset()
        narrow = FeatureDataset(
            features=ds.features.astype(np.float32), labels=ds.labels, split=ds.split
        )
        save_dataset(tmp_path / "d", narrow, attrs)
        loaded, _ = load_dataset(tmp_path / "d")
        assert loaded.features.dtype == np.float64
        assert np.array_equal(loaded.features, narrow.features)

    def test_load_attributes_only(self, tmp_path):
        ds, attrs = small_dataset()
        save_dataset(tmp_path / "d", ds, attrs)
        loaded = load_attributes(tmp_path / "d")
        assert np.array_equal(loaded.values, attrs.values)
        with pytest.raises(MissingFileError):
            load_attributes(tmp_path / "missing")

    def test_missing_directory_and_files(self, tmp_path):
        with pytest.raises(MissingFileError):
            load_dataset(tmp_path / "nope")
        ds, attrs = small_dataset()
        save_dataset(tmp_path / "d", ds, attrs)
        (tmp_path / "d" / "features.csv").unlink()
        with pytest.raises(MissingFileError):
            load_dataset(tmp_path / "d")

    def test_malformed_header_names_file_and_line(self, tmp_path):
        ds, attrs = small_dataset()
        save_dataset(tmp_path / "d", ds, attrs)
        path = tmp_path / "d" / "features.csv"
        lines = path.read_text().splitlines()
        lines[0] = "oops"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(FormatError, match="features.csv line 1"):
            load_dataset(tmp_path / "d")

    def test_row_count_mismatch_is_detected(self, tmp_path):
        ds, attrs = small_dataset()
        save_dataset(tmp_path / "d", ds, attrs)
        path = tmp_path / "d" / "features.csv"
        lines = path.read_text().splitlines()
        path.write_text("\n".join(lines[:-1]) + "\n")
        with pytest.raises(FormatError):
            load_dataset(tmp_path / "d")

    def test_undeclared_label_on_disk(self, tmp_path):
        ds, attrs = small_dataset()
        save_dataset(tmp_path / "d", ds, attrs)
        path = tmp_path / "d" / "splits.csv"
        path.write_text("seen:0,1,2\nunseen:7\n")
        with pytest.raises(LabelError):
            load_dataset(tmp_path / "d")

    def test_truncated_binary_payload(self, tmp_path):
        ds, attrs = small_dataset()
        save_dataset(tmp_path / "d", ds, attrs, binary=True)
        path = tmp_path / "d" / "features.bin"
        path.write_bytes(path.read_bytes()[:-4])
        with pytest.raises(FormatError):
            load_dataset(tmp_path / "d")

    def test_split_ids_beyond_attribute_classes(self, tmp_path):
        ds, attrs = small_dataset()
        save_dataset(tmp_path / "d", ds, attrs)
        (tmp_path / "d" / "splits.csv").write_text("seen:0,1,2,3,4,5\nunseen:6,99\n")
        with pytest.raises(SplitError):
            load_dataset(tmp_path / "d")


class TestBinaryFeatureRefusals:
    """``features.bin`` must hold an 8-byte (N, d_v) header and N*d_v finite floats."""

    @pytest.fixture
    def binary(self, tmp_path):
        ds, attrs = small_dataset()
        save_dataset(tmp_path / "d", ds, attrs, binary=True)
        return tmp_path / "d", ds.features.shape

    def test_file_shorter_than_its_header(self, binary):
        root, _ = binary
        (root / "features.bin").write_bytes(b"\x01\x00\x00\x00\x02")
        with pytest.raises(FormatError, match="features.bin: file shorter than its 8-byte"):
            load_dataset(root)

    # A whole float short is test_truncated_binary_payload.
    @pytest.mark.parametrize("extra", [-1, 1, 4], ids=["byte-short", "byte-long", "float-long"])
    def test_size_other_than_header_plus_payload(self, binary, extra):
        root, (n, d_v) = binary
        path = root / "features.bin"
        blob = path.read_bytes()
        path.write_bytes(blob[:extra] if extra < 0 else blob + b"\x00" * extra)
        expected = 8 + 4 * n * d_v
        message = f"expected {expected} bytes for {n}x{d_v} floats, found {expected + extra}"
        with pytest.raises(FormatError, match=message):
            load_dataset(root)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
    def test_non_finite_value(self, binary, value):
        root, (n, d_v) = binary
        path = root / "features.bin"
        payload = np.frombuffer(path.read_bytes()[8:], dtype="<f4").reshape(n, d_v).copy()
        payload[3, d_v - 1] = value
        path.write_bytes(path.read_bytes()[:8] + payload.tobytes())
        with pytest.raises(FormatError, match="features.bin: non-finite value in feature row 3"):
            load_dataset(root)


class TestAtomicWriter:
    def test_a_write_that_raises_midway_keeps_the_old_file(self, tmp_path):
        path = tmp_path / "out.csv"
        path.write_text("old\n")
        with pytest.raises(RuntimeError, match="midway"):
            with _atomic_writer(path) as handle:
                handle.write("new, half")
                handle.flush()
                raise RuntimeError("midway")
        assert path.read_text() == "old\n"
        assert [p.name for p in tmp_path.iterdir()] == ["out.csv"]

    @pytest.mark.parametrize("binary", [False, True], ids=["text", "binary"])
    def test_a_finished_write_replaces_the_file(self, tmp_path, binary):
        path = tmp_path / "out.bin"
        path.write_text("old\n")
        with _atomic_writer(path, binary=binary) as handle:
            handle.write(b"new\n" if binary else "new\n")
        assert path.read_bytes() == b"new\n"
        assert [p.name for p in tmp_path.iterdir()] == ["out.bin"]
