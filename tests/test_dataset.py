"""Dataset construction, splitting, and on-disk round trips."""
from __future__ import annotations

import numpy as np
import pytest

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

    def test_dimensions(self):
        attrs = AttributeMatrix(values=np.ones((4, 7)), groups=((0, 2), (2, 4)))
        assert attrs.d_a == 4
        assert attrs.num_classes == 7


class TestFeatureDataset:
    def test_rejects_undeclared_label(self):
        split = ClassSplit(seen=(0,), unseen=(1,))
        with pytest.raises(LabelError):
            FeatureDataset(features=np.ones((2, 3)), labels=np.array([0, 7]), split=split)

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
