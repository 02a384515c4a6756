"""Dataset types, file formats, and a planted-structure synthesizer.

Feature datasets hold precomputed visual feature vectors (the encoder is
identity here, so every model downstream is linear and desk-verifiable)
together with integer class labels and a seen/unseen class split.
Attribute matrices hold one semantic vector per class plus a partition of
the attribute dimensions into semantic groups.

All file formats are plain CSV (with an optional raw binary variant for
large feature matrices) and use shortest round-trip float formatting, so
saving, loading, and saving again reproduces byte-identical files.

Features loaded from the binary variant stay in its float32; everything
else is held in float64.  Every product and ufunc that reads float32
features together with float64 parameters widens them exactly, so results
are the float64 results bit for bit at half the memory.

Numeric CSV blocks (feature rows, attribute rows and checkpoint tensors)
are read in bulk by numpy's C reader.  A block it refuses, or one the
per-line loop would read differently, is read again line by line, so a
malformed file still gets a message naming the file and line, and every
file loads to the same bits either way.
"""

from __future__ import annotations

import math
import operator
import os
import uuid
import warnings
from collections.abc import Iterable, Iterator
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

import numpy as np

DEFAULT_TEST_FRACTION_SEEN = 0.2

ATTRIBUTES_FILE = "attributes.csv"
GROUPS_FILE = "groups.csv"
FEATURES_CSV_FILE = "features.csv"
FEATURES_BIN_FILE = "features.bin"
LABELS_FILE = "labels.csv"
SPLITS_FILE = "splits.csv"


class DatasetError(ValueError):
    """Base class for dataset construction and parsing failures."""


class MissingFileError(DatasetError):
    """A required dataset file is absent."""


class FormatError(DatasetError):
    """A dataset file is malformed; the message names the file and line."""


class LabelError(DatasetError):
    """A label falls outside the classes declared by the split."""


class SplitError(DatasetError):
    """A seen/unseen split violates its invariants."""


@dataclass
class ClassSplit:
    """Sorted seen/unseen class ids plus the held-out fraction for seen classes."""

    seen: tuple[int, ...]
    unseen: tuple[int, ...]
    test_fraction_seen: float = DEFAULT_TEST_FRACTION_SEEN

    def __post_init__(self) -> None:
        self.seen = tuple(sorted(_as_ids(list(self.seen), "seen class ids", SplitError).tolist()))
        self.unseen = tuple(
            sorted(_as_ids(list(self.unseen), "unseen class ids", SplitError).tolist())
        )
        if not self.seen:
            raise SplitError("split must declare at least one seen class")
        if len(set(self.seen)) != len(self.seen):
            raise SplitError("seen class list contains duplicates")
        if len(set(self.unseen)) != len(self.unseen):
            raise SplitError("unseen class list contains duplicates")
        overlap = sorted(set(self.seen) & set(self.unseen))
        if overlap:
            raise SplitError(f"classes {overlap} appear as both seen and unseen")
        if self.seen[0] < 0 or (self.unseen and self.unseen[0] < 0):
            raise SplitError("class ids must be non-negative")
        self.test_fraction_seen = float(self.test_fraction_seen)
        if not 0.0 < self.test_fraction_seen < 1.0:
            raise SplitError(
                f"test_fraction_seen must lie in (0, 1), got {self.test_fraction_seen}"
            )

    @property
    def all_classes(self) -> tuple[int, ...]:
        """Every declared class id, ascending."""
        return tuple(sorted(self.seen + self.unseen))

    @property
    def num_classes(self) -> int:
        """Count of declared classes (seen plus unseen)."""
        return len(self.seen) + len(self.unseen)


def _check_groups(groups: tuple[tuple[int, int], ...], d_a: int) -> None:
    if not groups:
        raise DatasetError("at least one semantic group is required")
    ordered = sorted(groups)
    if ordered[0][0] != 0 or ordered[-1][1] != d_a:
        raise DatasetError(f"semantic groups must cover [0, {d_a}) exactly")
    for (a0, b0), (a1, _) in zip(ordered, ordered[1:]):
        if b0 != a1:
            raise DatasetError(
                f"semantic groups must tile [0, {d_a}) without gaps or overlap; "
                f"range [{a0},{b0}) is not followed by [{b0},...)"
            )
    for a, b in ordered:
        if a >= b:
            raise DatasetError(f"semantic group [{a},{b}) is empty or reversed")


@dataclass
class AttributeMatrix:
    """Per-class semantic vectors (one column per class) with semantic groups.

    ``values[:, y]`` is the attribute vector of class ``y``.  ``groups`` is a
    list of half-open ``(start, end)`` ranges partitioning ``[0, d_a)``; the
    decorrelation loss treats each range as one semantic group.
    """

    values: np.ndarray
    groups: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        self.values = np.asarray(self.values, dtype=np.float64)
        if self.values.ndim != 2:
            raise DatasetError("attribute matrix must be 2-dimensional")
        d_a, num_classes = self.values.shape
        if d_a < 1 or num_classes < 2:
            raise DatasetError(
                f"attribute matrix needs d_a >= 1 and at least 2 classes, got {d_a}x{num_classes}"
            )
        if not np.all(np.isfinite(self.values)):
            raise DatasetError("attribute matrix contains non-finite values")
        self.groups = tuple(
            sorted(
                (_as_int(a, "group start", DatasetError), _as_int(b, "group end", DatasetError))
                for a, b in self.groups
            )
        )
        _check_groups(self.groups, d_a)

    @property
    def d_a(self) -> int:
        """Attribute dimensionality."""
        return int(self.values.shape[0])

    @property
    def num_classes(self) -> int:
        """Number of classes (columns)."""
        return int(self.values.shape[1])


def _as_features(values: np.ndarray) -> np.ndarray:
    # Feature values as float32 when stored so, as float64 otherwise.
    v = np.asarray(values)
    return v if v.dtype == np.float32 else v.astype(np.float64, copy=False)


def _as_ids(values: object, what: str, error: type[ValueError]) -> np.ndarray:
    # Labels or class ids as int64.  An integer dtype passes on its dtype
    # alone, with no pass over the values, except uint64, whose values of
    # 2**63 and above the cast would wrap to negatives; any other values must
    # be whole numbers within int64.  ``error`` names the first that is not,
    # as given.
    v = np.asarray(values)
    if v.dtype.kind in "iu":
        if v.dtype == np.uint64:
            big = v >= np.uint64(2**63)
            if np.any(big):
                if v.ndim == 0:
                    raise error(f"{what} must be an integer within int64, got {values}")
                raise error(f"{what} must be integers within int64, got {v.flat[np.argmax(big)]}")
        return v.astype(np.int64, copy=False)
    real = v.astype(np.float64)
    bad = ~(np.trunc(real) == real) | (np.abs(real) >= 2.0**63)
    if np.any(bad):
        if real.ndim == 0:
            raise error(f"{what} must be an integer, got {values}")
        raise error(f"{what} must be integers, got {real.flat[np.argmax(bad)]}")
    return real.astype(np.int64)


def _as_int(value: object, what: str, error: type[ValueError], least: int | None = None) -> int:
    # One count or seed.  An integer passes as it is, at any size; anything
    # else goes by the rule of _as_ids, so 2.0 gives 2 and 2.9 is refused
    # instead of truncated.  A value below ``least``, when given, is refused.
    try:
        whole = operator.index(value)
    except TypeError:
        whole = int(_as_ids(value, what, error))
    if least is not None and whole < least:
        raise error(f"{what} must be >= {least}, got {whole}")
    return whole


@dataclass
class FeatureDataset:
    """Visual feature rows with integer class labels and a seen/unseen split.

    Float32 features are kept as they are; any other dtype is widened to
    float64.
    """

    features: np.ndarray
    labels: np.ndarray
    split: ClassSplit

    def __post_init__(self) -> None:
        self.features = _as_features(self.features)
        self.labels = _as_ids(self.labels, "labels", LabelError)
        if self.features.ndim != 2:
            raise DatasetError("feature matrix must be 2-dimensional")
        n, d_v = self.features.shape
        if n < 1 or d_v < 1:
            raise DatasetError(f"feature matrix needs N >= 1 and d_v >= 1, got {n}x{d_v}")
        if self.labels.shape != (n,):
            raise DatasetError(f"expected {n} labels, got shape {self.labels.shape}")
        if not np.all(np.isfinite(self.features)):
            raise DatasetError("feature matrix contains non-finite values")
        declared = np.asarray(self.split.all_classes, dtype=np.int64)
        undeclared = ~np.isin(self.labels, declared)
        if np.any(undeclared):
            row = int(np.argmax(undeclared))
            raise LabelError(
                f"label {int(self.labels[row])} at row {row} is not a declared class"
            )

    @property
    def num_samples(self) -> int:
        """Number of feature rows."""
        return int(self.features.shape[0])

    @property
    def d_v(self) -> int:
        """Visual feature dimensionality."""
        return int(self.features.shape[1])

    def subset(self, indices: np.ndarray) -> FeatureDataset:
        """Dataset restricted to the given row indices (split carried over)."""
        idx = np.asarray(indices, dtype=np.int64)
        return FeatureDataset(
            features=self.features[idx], labels=self.labels[idx], split=self.split
        )


@dataclass
class SyntheticSpec:
    """Parameters of the planted-structure synthetic dataset."""

    num_seen: int = 20
    num_unseen: int = 5
    d_a: int = 16
    d_v: int = 32
    samples_per_class: int = 50
    attribute_sparsity: float = 0.3
    noise_std: float = 0.1
    group_count: int = 4

    def __post_init__(self) -> None:
        for name in ("num_seen", "num_unseen", "d_a", "d_v", "samples_per_class", "group_count"):
            value = _as_int(getattr(self, name), name, DatasetError)
            if value < 1:
                raise DatasetError(f"{name} must be a positive integer, got {value}")
            setattr(self, name, value)
        self.attribute_sparsity = float(self.attribute_sparsity)
        if not 0.0 <= self.attribute_sparsity <= 1.0:
            raise DatasetError(
                f"attribute_sparsity must lie in [0, 1], got {self.attribute_sparsity}"
            )
        self.noise_std = float(self.noise_std)
        if not (math.isfinite(self.noise_std) and self.noise_std >= 0.0):
            raise DatasetError(f"noise_std must be finite and >= 0, got {self.noise_std}")
        if self.group_count > self.d_a:
            raise DatasetError(
                f"group_count ({self.group_count}) cannot exceed d_a ({self.d_a})"
            )

    @property
    def num_classes(self) -> int:
        """Total class count (seen plus unseen)."""
        return self.num_seen + self.num_unseen


def _even_ranges(length: int, parts: int) -> tuple[tuple[int, int], ...]:
    base, extra = divmod(length, parts)
    ranges: list[tuple[int, int]] = []
    start = 0
    for i in range(parts):
        end = start + base + (1 if i < extra else 0)
        ranges.append((start, end))
        start = end
    return tuple(ranges)


def generate_synthetic(spec: SyntheticSpec, seed: int) -> tuple[FeatureDataset, AttributeMatrix]:
    """Synthesize a dataset with planted linear structure.

    Per-class attribute prototypes are drawn as sparse Gaussian vectors and
    unit-normalized, a hidden mixing map from attribute space to feature
    space is drawn once, and each sample of class ``y`` is the mapped
    prototype plus isotropic Gaussian noise.  The draw order is fixed
    (prototypes, sparsity mask, zero-column repair, mixing map, then noise
    per class ascending), so results are bit-identical for a fixed seed.
    """
    seed = _as_int(seed, "seed", DatasetError, least=0)
    rng = np.random.default_rng(seed)
    num_classes = spec.num_classes
    raw = rng.standard_normal((spec.d_a, num_classes))
    if spec.attribute_sparsity > 0.0:
        keep = rng.random((spec.d_a, num_classes)) >= spec.attribute_sparsity
        raw = np.where(keep, raw, 0.0)
    for y in range(num_classes):
        # A fully-zeroed prototype cannot be normalized; plant one coordinate.
        if not np.any(raw[:, y] != 0.0):
            raw[int(rng.integers(spec.d_a)), y] = 1.0
    values = raw / np.linalg.norm(raw, axis=0, keepdims=True)
    mixing = rng.standard_normal((spec.d_v, spec.d_a)) / math.sqrt(spec.d_a)
    total = num_classes * spec.samples_per_class
    features = np.empty((total, spec.d_v), dtype=np.float64)
    labels = np.repeat(np.arange(num_classes, dtype=np.int64), spec.samples_per_class)
    for y in range(num_classes):
        mean = mixing @ values[:, y]
        block = slice(y * spec.samples_per_class, (y + 1) * spec.samples_per_class)
        noise = rng.standard_normal((spec.samples_per_class, spec.d_v))
        features[block] = mean + spec.noise_std * noise
    attrs = AttributeMatrix(values=values, groups=_even_ranges(spec.d_a, spec.group_count))
    split = ClassSplit(
        seen=tuple(range(spec.num_seen)),
        unseen=tuple(range(spec.num_seen, num_classes)),
    )
    return FeatureDataset(features=features, labels=labels, split=split), attrs


def split_train_test(
    ds: FeatureDataset, seed: int
) -> tuple[FeatureDataset, FeatureDataset, FeatureDataset]:
    """Split into train, held-out seen-class test, and unseen-class test sets.

    Every unseen-class sample goes to the unseen test set.  Each seen
    class is split independently: a seeded permutation sends
    ``round(test_fraction_seen * n)`` samples (clamped so both sides stay
    nonempty) to the seen test set and the rest to train.  Row order within
    each output follows the input dataset.
    """
    seed = _as_int(seed, "seed", SplitError, least=0)
    rng = np.random.default_rng(seed)
    labels = ds.labels
    train_parts: list[np.ndarray] = []
    test_seen_parts: list[np.ndarray] = []
    for y in ds.split.seen:
        idx = np.flatnonzero(labels == y)
        if idx.size == 0:
            continue
        if idx.size < 2:
            raise SplitError(f"seen class {y} has {idx.size} sample(s); need at least 2 to split")
        n_test = int(round(ds.split.test_fraction_seen * idx.size))
        n_test = min(max(n_test, 1), idx.size - 1)
        perm = rng.permutation(idx)
        test_seen_parts.append(perm[:n_test])
        train_parts.append(perm[n_test:])
    unseen_idx = np.flatnonzero(np.isin(labels, np.asarray(ds.split.unseen, dtype=np.int64)))
    if not train_parts:
        raise SplitError("dataset holds no seen-class samples; the train split would be empty")
    if unseen_idx.size == 0:
        raise SplitError("dataset holds no unseen-class samples; the unseen test split would be empty")
    train = ds.subset(np.sort(np.concatenate(train_parts)))
    test_seen = ds.subset(np.sort(np.concatenate(test_seen_parts)))
    test_unseen = ds.subset(unseen_idx)
    return train, test_seen, test_unseen


def _fmt_real(x: float) -> str:
    # repr of a Python float is the shortest string that parses back exactly,
    # which is what makes save -> load -> save byte-identical.
    return repr(float(x))


@contextmanager
def _atomic_writer(path: str | Path, binary: bool = False) -> Iterator:
    # A new file that replaces ``path`` only when the block ends without an
    # error.  It is written beside ``path`` under a temporary name and renamed
    # over it, so a write that fails midway leaves the old file as it was and
    # no temporary file behind.
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{uuid.uuid4().hex}.tmp")
    try:
        with open(tmp, "xb" if binary else "x") as handle:
            yield handle
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def _write_lines(path: str | Path, lines: list[str]) -> None:
    # ``lines``, each ended by a newline, written atomically to ``path``.
    with _atomic_writer(path) as handle:
        handle.write("\n".join(lines) + "\n")


def _read_lines(path: Path) -> list[str]:
    if not path.is_file():
        raise MissingFileError(f"missing required file: {path}")
    return path.read_text().splitlines()


def _parse_int(token: str, path: Path, line_no: int) -> int:
    try:
        return int(token.strip())
    except ValueError:
        raise FormatError(
            f"{path.name} line {line_no}: cannot parse '{token.strip()}' as an integer"
        ) from None


def _parse_real(token: str, path: Path, line_no: int) -> float:
    try:
        value = float(token)
    except ValueError:
        raise FormatError(
            f"{path.name} line {line_no}: cannot parse '{token.strip()}' as a real number"
        ) from None
    if not math.isfinite(value):
        raise FormatError(f"{path.name} line {line_no}: non-finite value '{token.strip()}'")
    return value


# ASCII line breaks that str.splitlines() honours and reading a file line by
# line does not, and the separators that numpy strips around a number while
# float() refuses them.
_NOT_BULK = "\x0b\x0c\x1c\x1d\x1e\x1f"


def _bulk_readable(line: str) -> bool:
    """Whether numpy's reader parses ``line`` as the per-line loop would.

    Only ASCII lines qualify.  Beyond ASCII, str.splitlines() breaks lines
    at \\x85, \\u2028 and \\u2029, and numpy 2.4.6 segfaults some calls
    after refusing integer fields that hold a character beyond U+FFFF.
    """
    return line.isascii() and not any(ch in line for ch in _NOT_BULK)


def _read_block(
    lines: Iterable[str], rows: int, cols: int, labelled: bool = False
) -> np.ndarray | None:
    """Parse ``rows`` lines of ``cols`` comma-separated reals with numpy's C reader.

    With ``labelled`` each line starts with an integer label.  Returns a
    record array of ``rows`` records with a float64 field ``"f"`` of
    ``cols`` values and, when labelled, an int64 field ``"label"``.
    Returns None when the lines are not exactly what the per-line loaders
    accept: a line :func:`_bulk_readable` rejects, a token numpy refuses
    (on ASCII it takes a subset of what ``float()`` and ``int()`` take,
    with equal values; ``1_0`` is refused), a non-finite value, or a line
    count other than ``rows`` (numpy skips blank lines).  The caller then
    runs its per-line loop, which loads the block or raises the
    file-and-line error.
    """
    if rows < 1 or cols < 1:
        return None
    fields = [("label", "<i8")] if labelled else []
    dtype = np.dtype(fields + [("f", "<f8", (cols,))])
    seen = 0

    def checked() -> Iterator[str]:
        nonlocal seen
        for line in lines:
            if not _bulk_readable(line):
                raise ValueError("left to the per-line loop")
            seen += 1
            yield line

    try:
        with warnings.catch_warnings():
            # numpy < 2 parses an integer field from "3.0" with a
            # DeprecationWarning; int() refuses it, so the block must too.
            warnings.simplefilter("error")
            block = np.loadtxt(checked(), dtype=dtype, delimiter=",", comments=None, ndmin=1)
    except (ValueError, Warning):
        return None
    if seen != rows or block.shape != (rows,) or not np.isfinite(block["f"]).all():
        return None
    return block


def _read_table(path: Path, labelled: bool) -> np.ndarray | None:
    """:func:`_read_block` over a file whose first line is a 'rows,cols' header."""
    try:
        with path.open() as fh:
            header = fh.readline().removesuffix("\n")
            if not _bulk_readable(header):
                return None
            rows, cols = (int(token.strip()) for token in header.split(","))
            return _read_block(fh, rows, cols, labelled)
    except (OSError, ValueError):
        return None


def _load_attributes(path: Path, groups_path: Path) -> AttributeMatrix:
    block = _read_table(path, labelled=False)
    # Under two classes the per-line loop raises the header's FormatError.
    if block is None or block["f"].shape[1] < 2:
        values = _load_attribute_lines(path)
    else:
        values = block["f"]
    groups = _load_groups(groups_path, values.shape[0])
    return AttributeMatrix(values=values, groups=groups)


def _load_attribute_lines(path: Path) -> np.ndarray:
    lines = _read_lines(path)
    if not lines:
        raise FormatError(f"{path.name} line 1: empty file; expected 'd_a,num_classes' header")
    header = lines[0].split(",")
    if len(header) != 2:
        raise FormatError(f"{path.name} line 1: header must be 'd_a,num_classes'")
    d_a = _parse_int(header[0], path, 1)
    num_classes = _parse_int(header[1], path, 1)
    if d_a < 1 or num_classes < 2:
        raise FormatError(
            f"{path.name} line 1: need d_a >= 1 and num_classes >= 2, got {d_a},{num_classes}"
        )
    if len(lines) - 1 != d_a:
        raise FormatError(
            f"{path.name}: header declares {d_a} attribute rows, found {len(lines) - 1}"
        )
    values = np.empty((d_a, num_classes), dtype=np.float64)
    for line_no, line in enumerate(lines[1:], start=2):
        tokens = line.split(",")
        if len(tokens) != num_classes:
            raise FormatError(
                f"{path.name} line {line_no}: expected {num_classes} values, found {len(tokens)}"
            )
        values[line_no - 2] = [_parse_real(t, path, line_no) for t in tokens]
    return values


def _load_groups(path: Path, d_a: int) -> tuple[tuple[int, int], ...]:
    lines = _read_lines(path)
    groups: list[tuple[int, int]] = []
    for line_no, line in enumerate(lines, start=1):
        tokens = line.split(",")
        if len(tokens) != 2:
            raise FormatError(f"{path.name} line {line_no}: expected 'start,end'")
        groups.append((_parse_int(tokens[0], path, line_no), _parse_int(tokens[1], path, line_no)))
    try:
        _check_groups(tuple(sorted(groups)), d_a)
    except DatasetError as exc:
        raise FormatError(f"{path.name}: {exc}") from None
    return tuple(groups)


def _load_features_csv(path: Path) -> tuple[np.ndarray, np.ndarray]:
    block = _read_table(path, labelled=True)
    if block is None:
        return _load_feature_lines(path)
    return np.ascontiguousarray(block["f"]), np.ascontiguousarray(block["label"])


def _load_feature_lines(path: Path) -> tuple[np.ndarray, np.ndarray]:
    lines = _read_lines(path)
    if not lines:
        raise FormatError(f"{path.name} line 1: empty file; expected 'N,d_v' header")
    header = lines[0].split(",")
    if len(header) != 2:
        raise FormatError(f"{path.name} line 1: header must be 'N,d_v'")
    n = _parse_int(header[0], path, 1)
    d_v = _parse_int(header[1], path, 1)
    if n < 1 or d_v < 1:
        raise FormatError(f"{path.name} line 1: need N >= 1 and d_v >= 1, got {n},{d_v}")
    if len(lines) - 1 != n:
        raise FormatError(f"{path.name}: header declares {n} feature rows, found {len(lines) - 1}")
    features = np.empty((n, d_v), dtype=np.float64)
    labels = np.empty(n, dtype=np.int64)
    for line_no, line in enumerate(lines[1:], start=2):
        tokens = line.split(",")
        if len(tokens) != d_v + 1:
            raise FormatError(
                f"{path.name} line {line_no}: expected label plus {d_v} values, "
                f"found {len(tokens)} fields"
            )
        labels[line_no - 2] = _parse_int(tokens[0], path, line_no)
        features[line_no - 2] = [_parse_real(t, path, line_no) for t in tokens[1:]]
    return features, labels


def _load_features_bin(bin_path: Path, labels_path: Path) -> tuple[np.ndarray, np.ndarray]:
    with bin_path.open("rb") as fh:
        header = fh.read(8)
        if len(header) < 8:
            raise FormatError(f"{bin_path.name}: file shorter than its 8-byte header")
        n, d_v = (int(x) for x in np.frombuffer(header, dtype="<u4"))
        if n < 1 or d_v < 1:
            raise FormatError(f"{bin_path.name}: need N >= 1 and d_v >= 1, got {n},{d_v}")
        expected = 8 + 4 * n * d_v
        size = os.fstat(fh.fileno()).st_size
        if size != expected:
            raise FormatError(
                f"{bin_path.name}: expected {expected} bytes for {n}x{d_v} floats, found {size}"
            )
        # The values are read straight into the array that is returned.
        features = np.empty((n, d_v), dtype="<f4")
        if fh.readinto(features) != expected - 8:
            raise FormatError(f"{bin_path.name}: file shrank while it was read")
    finite = np.isfinite(features)
    if not finite.all():
        row = int(np.argmin(finite.all(axis=1)))
        raise FormatError(f"{bin_path.name}: non-finite value in feature row {row}")
    lines = _read_lines(labels_path)
    if len(lines) != n:
        raise FormatError(f"{labels_path.name}: expected {n} labels, found {len(lines)}")
    labels = np.empty(n, dtype=np.int64)
    for line_no, line in enumerate(lines, start=1):
        labels[line_no - 1] = _parse_int(line, labels_path, line_no)
    return features, labels


def _load_splits(path: Path) -> tuple[tuple[int, ...], tuple[int, ...]]:
    lines = _read_lines(path)
    if len(lines) != 2:
        raise FormatError(f"{path.name}: expected exactly 2 lines ('seen:...' and 'unseen:...')")
    parsed: list[tuple[int, ...]] = []
    for line_no, (line, prefix) in enumerate(zip(lines, ("seen:", "unseen:")), start=1):
        if not line.startswith(prefix):
            raise FormatError(f"{path.name} line {line_no}: line must start with '{prefix}'")
        rest = line[len(prefix):].strip()
        if rest:
            parsed.append(tuple(_parse_int(t, path, line_no) for t in rest.split(",")))
        else:
            parsed.append(())
    return parsed[0], parsed[1]


def load_attributes(dir_path: str | Path) -> AttributeMatrix:
    """Load only the attribute matrix and groups from a dataset directory."""
    root = Path(dir_path)
    if not root.is_dir():
        raise MissingFileError(f"dataset directory not found: {root}")
    return _load_attributes(root / ATTRIBUTES_FILE, root / GROUPS_FILE)


def load_dataset(
    dir_path: str | Path,
    test_fraction_seen: float = DEFAULT_TEST_FRACTION_SEEN,
) -> tuple[FeatureDataset, AttributeMatrix]:
    """Load a dataset directory written by :func:`save_dataset`.

    The directory must hold ``attributes.csv``, ``groups.csv``,
    ``splits.csv``, and either ``features.csv`` or the pair
    ``features.bin`` + ``labels.csv`` (the CSV wins when both exist).
    Dimensions are taken from file headers; malformed content raises a
    parse error naming the file and line.
    """
    root = Path(dir_path)
    if not root.is_dir():
        raise MissingFileError(f"dataset directory not found: {root}")
    attrs = _load_attributes(root / ATTRIBUTES_FILE, root / GROUPS_FILE)
    csv_path = root / FEATURES_CSV_FILE
    bin_path = root / FEATURES_BIN_FILE
    if csv_path.is_file():
        features, labels = _load_features_csv(csv_path)
        labels_name = FEATURES_CSV_FILE
    elif bin_path.is_file():
        features, labels = _load_features_bin(bin_path, root / LABELS_FILE)
        labels_name = LABELS_FILE
    else:
        raise MissingFileError(
            f"missing feature file: neither {csv_path} nor {bin_path} exists"
        )
    seen, unseen = _load_splits(root / SPLITS_FILE)
    try:
        split = ClassSplit(seen=seen, unseen=unseen, test_fraction_seen=test_fraction_seen)
    except SplitError as exc:
        raise SplitError(f"{SPLITS_FILE}: {exc}") from None
    for side, ids in (("seen", split.seen), ("unseen", split.unseen)):
        out_of_range = [c for c in ids if c >= attrs.num_classes]
        if out_of_range:
            raise SplitError(
                f"{SPLITS_FILE}: {side} class ids {out_of_range} exceed the "
                f"{attrs.num_classes} classes declared by {ATTRIBUTES_FILE}"
            )
    declared = np.asarray(split.all_classes, dtype=np.int64)
    undeclared = ~np.isin(labels, declared)
    if np.any(undeclared):
        row = int(np.argmax(undeclared))
        raise LabelError(
            f"{labels_name}: label {int(labels[row])} at data row {row} is not listed in {SPLITS_FILE}"
        )
    return FeatureDataset(features=features, labels=labels, split=split), attrs


def save_dataset(
    dir_path: str | Path,
    ds: FeatureDataset,
    attrs: AttributeMatrix,
    binary: bool = False,
) -> None:
    """Write the dataset directory layout understood by :func:`load_dataset`.

    With ``binary=True`` features go to ``features.bin`` (little-endian
    float32) plus ``labels.csv``; otherwise everything is CSV.  Reals are
    formatted with shortest round-trip notation, so a loaded dataset
    re-serializes byte-identically.
    """
    if ds.features.shape[0] != ds.labels.shape[0]:
        raise DatasetError("features and labels disagree on sample count")
    if binary:
        # A value beyond float32's range would be stored as inf, which
        # load_dataset refuses, so it is refused before anything is written.
        with np.errstate(over="ignore"):
            payload = np.ascontiguousarray(ds.features, dtype="<f4")
        finite = np.isfinite(payload)
        if not finite.all():
            row = int(np.argmin(finite.all(axis=1)))
            raise DatasetError(
                f"feature row {row} holds a value that float32 cannot store; "
                f"write this dataset as CSV"
            )
    root = Path(dir_path)
    root.mkdir(parents=True, exist_ok=True)
    attr_lines = [f"{attrs.d_a},{attrs.num_classes}"]
    attr_lines += [",".join(_fmt_real(v) for v in row) for row in attrs.values]
    _write_lines(root / ATTRIBUTES_FILE, attr_lines)
    _write_lines(root / GROUPS_FILE, [f"{a},{b}" for a, b in attrs.groups])
    split_lines = [
        "seen:" + ",".join(str(c) for c in ds.split.seen),
        "unseen:" + ",".join(str(c) for c in ds.split.unseen),
    ]
    _write_lines(root / SPLITS_FILE, split_lines)
    n, d_v = ds.features.shape
    if binary:
        with _atomic_writer(root / FEATURES_BIN_FILE, binary=True) as handle:
            handle.write(np.asarray([n, d_v], dtype="<u4").tobytes())
            handle.write(payload.tobytes())
        _write_lines(root / LABELS_FILE, [str(int(label)) for label in ds.labels])
    else:
        feature_lines = [f"{n},{d_v}"]
        for label, row in zip(ds.labels, ds.features):
            feature_lines.append(str(int(label)) + "," + ",".join(_fmt_real(v) for v in row))
        _write_lines(root / FEATURES_CSV_FILE, feature_lines)
