"""Numeric CSV blocks load exactly as the per-line loaders load them.

The per-line loaders that parsed ``features.csv``, ``attributes.csv`` and
checkpoints one token at a time are kept below verbatim as the oracle.  For
every input, well-formed or not, the package's loaders must return arrays
with the same bytes, dtype, shape and layout, or raise the same exception
class with the same message.  The malformed cases cover what a bulk reader
could treat differently: tokens ``float()`` takes and a C parser may not
(``1_0``, non-ASCII digits), blank and whitespace-only lines, ``#``,
line breaks ``str.splitlines()`` knows and ``\\n``-splitting does not, and
non-finite values.
"""
from __future__ import annotations

import math
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedzsl.dataset import (
    AttributeMatrix,
    ClassSplit,
    FeatureDataset,
    FormatError,
    MissingFileError,
    _load_attributes,
    _load_features_csv,
    _load_groups,
    _read_block,
    _read_table,
    load_dataset,
    save_dataset,
)
from fedzsl.model import (
    ATTRIBUTE_BASED,
    ATTRIBUTE_FREE,
    ModelError,
    ModelParams,
    _SECTION_ORDER,
    load_model,
    save_model,
)

# ------------------------------------------------------------------ oracle
# The per-line loaders, verbatim.


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


def oracle_attributes(path: Path, groups_path: Path) -> AttributeMatrix:
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
    groups = _load_groups(groups_path, d_a)
    return AttributeMatrix(values=values, groups=groups)


def oracle_features(path: Path) -> tuple[np.ndarray, np.ndarray]:
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


def oracle_load_model(path: str | Path) -> ModelParams:
    path = Path(path)
    if not path.is_file():
        raise ModelError(f"checkpoint not found: {path}")
    lines = path.read_text().splitlines()
    sections: dict[str, np.ndarray] = {}
    i = 0
    while i < len(lines):
        header = lines[i].strip()
        match = re.fullmatch(r"\[(\w+)\]", header)
        if not match:
            raise ModelError(f"{path.name} line {i + 1}: expected a section header, got '{header}'")
        name = match.group(1)
        if name not in _SECTION_ORDER:
            raise ModelError(f"{path.name} line {i + 1}: unknown section '{name}'")
        if i + 1 >= len(lines):
            raise ModelError(f"{path.name}: section [{name}] is missing its dimension line")
        dims = lines[i + 1].split(",")
        try:
            shape = tuple(int(d) for d in dims)
        except ValueError:
            raise ModelError(
                f"{path.name} line {i + 2}: cannot parse dimensions '{lines[i + 1]}'"
            ) from None
        if len(shape) == 2:
            rows, cols = shape
            block = lines[i + 2 : i + 2 + rows]
            if len(block) < rows:
                raise ModelError(f"{path.name}: section [{name}] declares {rows} rows, ran out of lines")
            values = np.empty((rows, cols))
            for r, line in enumerate(block):
                parts = line.split(",")
                if len(parts) != cols:
                    raise ModelError(
                        f"{path.name} line {i + 3 + r}: expected {cols} values, found {len(parts)}"
                    )
                try:
                    values[r] = [float(tok) for tok in parts]
                except ValueError:
                    raise ModelError(f"{path.name} line {i + 3 + r}: cannot parse a value") from None
            sections[name] = values
            i += 2 + rows
        elif len(shape) == 1:
            length = shape[0]
            if i + 2 >= len(lines):
                raise ModelError(f"{path.name}: section [{name}] is missing its value line")
            parts = lines[i + 2].split(",")
            if len(parts) != length:
                raise ModelError(
                    f"{path.name} line {i + 3}: expected {length} values, found {len(parts)}"
                )
            try:
                sections[name] = np.asarray([float(tok) for tok in parts])
            except ValueError:
                raise ModelError(f"{path.name} line {i + 3}: cannot parse a value") from None
            i += 3
        else:
            raise ModelError(f"{path.name}: section [{name}] has unsupported rank {len(shape)}")
    for required in ("W_g", "b_g", "W_h", "b_h"):
        if required not in sections:
            raise ModelError(f"{path.name}: missing required section [{required}]")
    has_head = "W_c" in sections
    if has_head != ("b_c" in sections):
        raise ModelError(f"{path.name}: W_c and b_c must be present together")
    return ModelParams(
        W_g=sections["W_g"],
        b_g=sections["b_g"],
        W_h=sections["W_h"],
        b_h=sections["b_h"],
        mode=ATTRIBUTE_FREE if has_head else ATTRIBUTE_BASED,
        W_c=sections.get("W_c"),
        b_c=sections.get("b_c"),
    )


# ------------------------------------------------------------------ helpers


def _array_key(a: np.ndarray) -> tuple:
    return (a.dtype.str, a.shape, a.flags.c_contiguous, a.tobytes())


def outcome(load, *args) -> tuple:
    """What a loader did: the exception class and message, or the arrays' bytes."""
    try:
        result = load(*args)
    except Exception as exc:  # the oracle's failures are part of its contract
        return ("raised", type(exc), str(exc))
    if isinstance(result, tuple):
        return ("returned",) + tuple(_array_key(a) for a in result)
    if isinstance(result, AttributeMatrix):
        return ("returned", _array_key(result.values), result.groups)
    return ("returned", result.mode) + tuple(
        (name, _array_key(t)) for name, t in result.tensors().items()
    )


def write(path: Path, text: str) -> Path:
    with path.open("w", newline="") as fh:  # keep \r and every other character as given
        fh.write(text)
    return path


FEATURE_ROWS = ["0,1.5,-2.0", "1,0.25,3.0", "2,-0.0,4.5"]
ATTRIBUTE_ROWS = ["0.5,-1.0,2.0,0.0", "1e-3,2.5,-0.0,7.0"]


def table_text(rows: list[str], header: str, row: str | None, at: int, insert: bool,
               end: str) -> str:
    """``header`` and ``rows`` with ``row`` replacing, or inserted before, row ``at``."""
    rows = list(rows)
    if row is not None:
        if insert:
            rows.insert(at, row)
        else:
            rows[at] = row
    return "\n".join([header] + rows) + end


def feature_text(row: str | None = None, *, at: int = 1, insert: bool = False,
                 header: str = "3,2", end: str = "\n") -> str:
    return table_text(FEATURE_ROWS, header, row, at, insert, end)


def attribute_text(row: str | None = None, *, at: int = 1, insert: bool = False,
                   header: str = "2,4", end: str = "\n") -> str:
    return table_text(ATTRIBUTE_ROWS, header, row, at, insert, end)


# Rows that replace (or, marked insert, go before) the second data row.
# Each is well-formed unless its name says otherwise.
BREAKS = ["\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]
FEATURE_CASES = {
    "valid": feature_text(),
    "no-final-newline": feature_text(end=""),
    "crlf": feature_text().replace("\n", "\r\n"),
    "spaces-and-signs": feature_text(" +1 , +0.25 ,\t3.0 "),
    "exponents": feature_text("1,2.5E-3,-1e+2"),
    "largest-and-subnormal": feature_text("1,1.7976931348623157e308,5e-324"),
    "underscore-value": feature_text("1,1_0,3.0"),
    "underscore-label": feature_text("1_0,0.25,3.0"),
    "non-ascii-digits": feature_text("١,١.٥,3.0"),
    "nbsp-around-value": feature_text("1,\xa00.25\xa0,3.0"),
    "beyond-bmp-label": feature_text("1\U0002c6ca,0.25,3.0"),
    "beyond-bmp-value": feature_text("1,0.25\U0001f600,3.0"),
    "unit-separator-after-label": feature_text("1\x1f,0.25,3.0"),
    "unit-separator-after-value": feature_text("1,0.25,3.0\x1f"),
    "group-separator-before-value": feature_text("1,\x1d0.25,3.0"),
    "bad-token": feature_text("1,abc,3.0"),
    "empty-token": feature_text("1,,3.0"),
    "nan": feature_text("1,nan,3.0"),
    "inf": feature_text("1,-inf,3.0"),
    "overflow-to-inf": feature_text("1,1e400,3.0"),
    "hex": feature_text("1,0x10,3.0"),
    "too-few-fields": feature_text("1,0.25"),
    "too-many-fields": feature_text("1,0.25,3.0,4.0"),
    "trailing-comma": feature_text("1,0.25,3.0,"),
    "float-label": feature_text("3.0,0.25,3.0"),
    "negative-label": feature_text("-1,0.25,3.0"),
    "huge-label": feature_text("99999999999999999999,0.25,3.0"),
    "blank-line": feature_text(""),
    "blank-line-inserted": feature_text("", insert=True),
    "whitespace-line": feature_text("   "),
    "whitespace-line-inserted": feature_text(" \t ", insert=True),
    "trailing-blank-line": feature_text(end="\n\n"),
    "hash-in-token": feature_text("1,0.25#c,3.0"),
    "hash-leading": feature_text("#1,0.25,3.0"),
    "hash-alone": feature_text("1,#,3.0"),
    "quoted": feature_text('1,"0.25",3.0'),
    "nul": feature_text("1,0.25\x00,3.0"),
    "carriage-return-mid-row": feature_text("1,0.25\r,3.0"),
    "header-spaces": feature_text(header=" 3 , 2 "),
    "header-three-fields": feature_text(header="3,2,1"),
    "header-bad": feature_text(header="x,2"),
    "header-zero-rows": feature_text(header="0,2"),
    "header-too-many-rows": feature_text(header="4,2"),
    "header-too-few-rows": feature_text(header="2,2"),
    "header-form-feed": feature_text(header="3,2\x0c"),
    "header-only": "3,2\n",
    "empty-file": "",
}
for _ch in BREAKS:
    FEATURE_CASES[f"break-{ord(_ch):x}-row-end"] = feature_text("1,0.25,3.0" + _ch)
    FEATURE_CASES[f"break-{ord(_ch):x}-mid-row"] = feature_text("1,0.25" + _ch + ",3.0")

ATTRIBUTE_CASES = {
    "valid": attribute_text(),
    "crlf": attribute_text().replace("\n", "\r\n"),
    "underscore": attribute_text("1e-3,2_5,-0.0,7.0"),
    "non-ascii-digit": attribute_text("1e-3,٢,-0.0,7.0"),
    "bad-token": attribute_text("1e-3,x,-0.0,7.0"),
    "nan": attribute_text("1e-3,nan,-0.0,7.0"),
    "inf": attribute_text("1e-3,inf,-0.0,7.0"),
    "too-few": attribute_text("1e-3,2.5,-0.0"),
    "too-many": attribute_text("1e-3,2.5,-0.0,7.0,8.0"),
    "blank-line": attribute_text(""),
    "blank-line-inserted": attribute_text("", insert=True),
    "whitespace-line": attribute_text("  "),
    "hash": attribute_text("1e-3,2.5#,-0.0,7.0"),
    "form-feed-row-end": attribute_text("1e-3,2.5,-0.0,7.0\x0c"),
    "line-separator-mid-row": attribute_text("1e-3,2.5\u2028,-0.0,7.0"),
    "one-class": attribute_text(header="2,1"),
    "one-class-consistent": "2,1\n0.5\n1.0\n",
    "zero-rows": attribute_text(header="0,4"),
    "header-three-fields": attribute_text(header="2,4,1"),
    "empty-file": "",
}


@pytest.fixture()
def data_dir(tmp_path):
    """A valid four-class dataset directory; tests overwrite one file."""
    values = np.arange(8.0).reshape(2, 4) / 8.0
    attrs = AttributeMatrix(values=values, groups=((0, 1), (1, 2)))
    ds = FeatureDataset(
        features=np.zeros((3, 2)), labels=np.array([0, 1, 2]),
        split=ClassSplit(seen=(0, 1, 2), unseen=(3,)),
    )
    save_dataset(tmp_path, ds, attrs)
    return tmp_path


# ------------------------------------------------------------------ cases


class TestFeaturesMatchTheLineLoader:
    @pytest.mark.parametrize("name", sorted(FEATURE_CASES))
    def test_case(self, data_dir, name):
        path = write(data_dir / "features.csv", FEATURE_CASES[name])
        expected = outcome(oracle_features, path)
        assert outcome(_load_features_csv, path) == expected
        if expected[0] == "raised":
            assert outcome(load_dataset, data_dir)[1:] == expected[1:]

    def test_named_cases_are_what_they_say(self, data_dir):
        loads = {"valid", "no-final-newline", "crlf", "spaces-and-signs", "exponents",
                 "largest-and-subnormal", "underscore-value", "underscore-label",
                 "non-ascii-digits", "nbsp-around-value", "unit-separator-after-label",
                 "negative-label", "header-spaces"}
        for name, text in FEATURE_CASES.items():
            got = outcome(oracle_features, write(data_dir / "features.csv", text))
            assert (got[0] == "returned") == (name in loads), name

    def test_underscore_token_loads_as_ten(self, data_dir):
        features, labels = _load_features_csv(
            write(data_dir / "features.csv", FEATURE_CASES["underscore-value"])
        )
        assert features[1, 0] == 10.0
        features, labels = _load_features_csv(
            write(data_dir / "features.csv", FEATURE_CASES["underscore-label"])
        )
        assert labels[1] == 10

    def test_undecodable_bytes(self, data_dir):
        path = data_dir / "features.csv"
        path.write_bytes(feature_text("1,0.25,3.0").encode() + b"\xff\xfe\n")
        assert outcome(_load_features_csv, path) == outcome(oracle_features, path)

    def test_missing_file(self, tmp_path):
        path = tmp_path / "features.csv"
        assert outcome(_load_features_csv, path) == outcome(oracle_features, path)


class TestBulkReaderTakesWellFormedBlocks:
    """numpy's reader loads what it can; only the rest falls to the loop."""

    # The loading cases minus the non-ASCII ones and those numpy refuses.
    TAKEN = {"valid", "no-final-newline", "crlf", "spaces-and-signs", "exponents",
             "largest-and-subnormal", "negative-label", "header-spaces"}

    def test_feature_cases(self, data_dir):
        for name, text in FEATURE_CASES.items():
            block = _read_table(write(data_dir / "features.csv", text), labelled=True)
            assert (block is not None) == (name in self.TAKEN), name

    def test_checkpoint_style_blocks(self):
        assert _read_block(["1.5,-2", "3e2,0"], 2, 2)["f"].tolist() == [[1.5, -2.0], [300.0, 0.0]]
        assert _read_block(["1.5"], 1, 1)["f"].shape == (1, 1)
        for lines, rows, cols in [
            (["1.5,-2", ""], 2, 2),  # numpy would skip the blank line
            (["1.5,-2"], 2, 2),
            (["1.5,-2", "3,4"], 1, 2),
            (["1.5,nan"], 1, 2),
            (["1.5,1_0"], 1, 2),
            (["1.5,2\x1f"], 1, 2),
            (["1.5,2"], 1, 3),
            ([], 0, 2),
        ]:
            assert _read_block(lines, rows, cols) is None, (lines, rows, cols)


class TestAttributesMatchTheLineLoader:
    @pytest.mark.parametrize("name", sorted(ATTRIBUTE_CASES))
    def test_case(self, data_dir, name):
        path = write(data_dir / "attributes.csv", ATTRIBUTE_CASES[name])
        groups = data_dir / "groups.csv"
        expected = outcome(oracle_attributes, path, groups)
        assert outcome(_load_attributes, path, groups) == expected

    def test_named_cases_are_what_they_say(self, data_dir):
        loads = {"valid", "crlf", "underscore", "non-ascii-digit"}
        for name, text in ATTRIBUTE_CASES.items():
            path = write(data_dir / "attributes.csv", text)
            got = outcome(oracle_attributes, path, data_dir / "groups.csv")
            assert (got[0] == "returned") == (name in loads), name

    def test_underscore_token_loads_as_twenty_five(self, data_dir):
        path = write(data_dir / "attributes.csv", ATTRIBUTE_CASES["underscore"])
        assert _load_attributes(path, data_dir / "groups.csv").values[1, 1] == 25.0


def small_params(mode: str = ATTRIBUTE_BASED) -> ModelParams:
    rng = np.random.default_rng(0)
    head = mode == ATTRIBUTE_FREE
    return ModelParams(
        W_g=rng.standard_normal((2, 3)), b_g=rng.standard_normal(2),
        W_h=rng.standard_normal((3, 2)), b_h=rng.standard_normal(3), mode=mode,
        W_c=rng.standard_normal((2, 3)) if head else None,
        b_c=rng.standard_normal(2) if head else None,
    )


def checkpoint_lines(tmp_path: Path, mode: str = ATTRIBUTE_BASED) -> list[str]:
    save_model(tmp_path / "base.csv", small_params(mode))
    return (tmp_path / "base.csv").read_text().splitlines()


# Line edits of a saved checkpoint: [W_g] is lines 0-3 (header, "2,3", two
# rows), [b_g] lines 4-6 (header, "2", one row), then [W_h] and [b_h].
def _set(index, text):
    return lambda lines: lines[:index] + [text] + lines[index + 1 :]


def _append(index, suffix):
    return lambda lines: lines[:index] + [lines[index] + suffix] + lines[index + 1 :]


def _insert(index, text):
    return lambda lines: lines[:index] + [text] + lines[index:]


MODEL_CASES = {
    "valid": lambda lines: lines,
    "underscore-2d": _set(2, "1_0,2.5,-0.0"),
    "underscore-1d": _set(6, "1_0,2.5"),
    "non-ascii-digit": _set(2, "٣,2.5,-0.0"),
    "spaces": _set(2, " 1 ,\t2.5 , -0.0"),
    "bad-token-2d": _set(3, "1.0,abc,2.0"),
    "bad-token-1d": _set(6, "1.0,abc"),
    "nan-2d": _set(3, "1.0,nan,2.0"),
    "inf-1d": _set(6, "1.0,-inf"),
    "too-few-2d": _set(3, "1.0,2.0"),
    "too-many-2d": _set(3, "1.0,2.0,3.0,4.0"),
    "too-few-1d": _set(6, "1.0"),
    "too-many-1d": _set(6, "1.0,2.0,3.0"),
    "blank-line-2d": _set(3, ""),
    "blank-line-inserted-2d": _insert(3, ""),
    "whitespace-line-2d": _set(3, "   "),
    "blank-line-1d": _set(6, ""),
    "hash-2d": _append(2, "#"),
    "hash-1d": _set(6, "1.0,#2"),
    "form-feed-2d": _append(2, "\x0c"),
    "form-feed-1d": _append(6, "\x0c"),
    "next-line-2d": _append(3, "\x85"),
    "paragraph-separator-1d": _append(6, "\u2029"),
    "bad-dims": _set(1, "2,x"),
    "zero-rows": _set(1, "0,3"),
    "negative-rows": _set(1, "-1,3"),
    "negative-cols": _set(1, "2,-1"),
    "negative-length-1d": _set(5, "-1"),
    "zero-cols": _set(1, "2,0"),
    "zero-length-1d": _set(5, "0"),
    "rank-3": _set(1, "2,3,1"),
    "truncated": lambda lines: lines[:-1],
    "unknown-section": _set(0, "[W_x]"),
}


# Cases whose outcome was changed on purpose: a negative dimension is refused
# on its own line.  The line loader let numpy's bare "negative dimensions are
# not allowed" through, with no file or line, or complained about the values.
CHANGED_MODEL_CASES = {
    "negative-rows": ("raised", ModelError, "model.csv line 2: negative dimensions '-1,3'"),
    "negative-cols": ("raised", ModelError, "model.csv line 2: negative dimensions '2,-1'"),
    "negative-length-1d": ("raised", ModelError, "model.csv line 6: negative dimensions '-1'"),
}


class TestCheckpointMatchesTheLineLoader:
    @pytest.mark.parametrize("name", sorted(MODEL_CASES))
    @pytest.mark.parametrize("mode", [ATTRIBUTE_BASED, ATTRIBUTE_FREE])
    def test_case(self, tmp_path, name, mode):
        lines = MODEL_CASES[name](checkpoint_lines(tmp_path, mode))
        path = write(tmp_path / "model.csv", "\n".join(lines) + "\n")
        expected = CHANGED_MODEL_CASES.get(name) or outcome(oracle_load_model, path)
        assert outcome(load_model, path) == expected

    def test_changed_cases_differ_from_the_line_loader(self, tmp_path):
        for name, changed in CHANGED_MODEL_CASES.items():
            lines = MODEL_CASES[name](checkpoint_lines(tmp_path))
            path = write(tmp_path / "model.csv", "\n".join(lines) + "\n")
            assert outcome(oracle_load_model, path) != changed, name

    def test_named_cases_are_what_they_say(self, tmp_path):
        loads = {"valid", "underscore-2d", "underscore-1d", "non-ascii-digit", "spaces"}
        for name, edit in MODEL_CASES.items():
            path = write(tmp_path / "model.csv", "\n".join(edit(checkpoint_lines(tmp_path))) + "\n")
            got = outcome(oracle_load_model, path)
            assert (got[0] == "returned") == (name in loads), name

    def test_underscore_token_loads_as_ten(self, tmp_path):
        lines = MODEL_CASES["underscore-2d"](checkpoint_lines(tmp_path))
        path = write(tmp_path / "model.csv", "\n".join(lines) + "\n")
        assert load_model(path).W_g[0, 0] == 10.0

    def test_missing_file(self, tmp_path):
        path = tmp_path / "absent.csv"
        assert outcome(load_model, path) == outcome(oracle_load_model, path)


# ------------------------------------------------------------------ properties

EDGE_VALUES = [
    0.0, -0.0, 5e-324, -5e-324, 2.2250738585072009e-308, 2.2250738585072014e-308,
    1.7976931348623157e308, -1.7976931348623157e308, 1e-310, 0.1, 1.0 / 3.0,
]
# Finite float32 values, so the binary layout holds them exactly.
EDGE_VALUES_F32 = [0.0, -0.0, 1e-45, -1e-45, 1.1754942e-38, 3.4028234663852886e38,
                   -3.4028234663852886e38, 0.1, 1.0 / 3.0]


def reals(edges, width=64):
    return st.one_of(
        st.sampled_from(edges),
        st.floats(allow_nan=False, allow_infinity=False, width=width),
    )


@st.composite
def datasets(draw, binary: bool):
    n = draw(st.integers(1, 6))
    d_v = draw(st.integers(1, 5))
    d_a = draw(st.integers(1, 4))
    num_classes = draw(st.integers(2, 5))
    values = reals(EDGE_VALUES_F32, 32) if binary else reals(EDGE_VALUES)
    features = np.array(draw(st.lists(values, min_size=n * d_v, max_size=n * d_v)))
    attrs = np.array(draw(st.lists(reals(EDGE_VALUES), min_size=d_a * num_classes,
                                   max_size=d_a * num_classes)))
    labels = draw(st.lists(st.integers(0, num_classes - 1), min_size=n, max_size=n))
    ds = FeatureDataset(
        features=features.reshape(n, d_v), labels=np.array(labels),
        split=ClassSplit(seen=tuple(range(num_classes - 1)), unseen=(num_classes - 1,)),
    )
    return ds, AttributeMatrix(values=attrs.reshape(d_a, num_classes), groups=((0, d_a),))


@st.composite
def models(draw):
    d_a = draw(st.integers(1, 4))
    d_v = draw(st.integers(1, 4))
    mode = draw(st.sampled_from([ATTRIBUTE_BASED, ATTRIBUTE_FREE]))

    def tensor(*shape):
        size = int(np.prod(shape))
        return np.array(draw(st.lists(reals(EDGE_VALUES), min_size=size, max_size=size))
                        ).reshape(shape)

    head = mode == ATTRIBUTE_FREE
    seen = draw(st.integers(1, 3))
    return ModelParams(
        W_g=tensor(d_a, d_v), b_g=tensor(d_a), W_h=tensor(d_v, d_a), b_h=tensor(d_v),
        mode=mode, W_c=tensor(seen, d_v) if head else None, b_c=tensor(seen) if head else None,
    )


def read_dir(root: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(root.iterdir())}


class TestRoundTrips:
    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(data=st.data())
    def test_dataset_save_load_save_is_byte_identical(self, tmp_path_factory, data):
        binary = data.draw(st.booleans())
        ds, attrs = data.draw(datasets(binary))
        first, second = tmp_path_factory.mktemp("a"), tmp_path_factory.mktemp("b")
        save_dataset(first, ds, attrs, binary=binary)
        loaded, loaded_attrs = load_dataset(first)
        save_dataset(second, loaded, loaded_attrs, binary=binary)
        assert read_dir(first) == read_dir(second)
        if not binary:
            assert outcome(_load_features_csv, first / "features.csv") == outcome(
                oracle_features, first / "features.csv")
            assert loaded.features.tobytes() == ds.features.tobytes()
        args = (first / "attributes.csv", first / "groups.csv")
        assert outcome(_load_attributes, *args) == outcome(oracle_attributes, *args)

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(params=models())
    def test_model_save_load_save_is_byte_identical(self, tmp_path_factory, params):
        root = tmp_path_factory.mktemp("m")
        save_model(root / "a.csv", params)
        loaded = load_model(root / "a.csv")
        save_model(root / "b.csv", loaded)
        assert (root / "a.csv").read_bytes() == (root / "b.csv").read_bytes()
        assert outcome(load_model, root / "a.csv") == outcome(oracle_load_model, root / "a.csv")
        for name, tensor in params.tensors().items():
            assert loaded.tensors()[name].tobytes() == tensor.tobytes(), name


# Characters that reach the tokenizer: digits, signs, exponent and
# special-value letters, separators, whitespace of several kinds, line
# breaks of every kind str.splitlines() knows, and non-ASCII digits.
TOKEN_ALPHABET = "0123456789.+-eEinfa_ #\t\x00\x0b\x0c\x1c\x1f\x85\xa0\u2028١"


class TestTokensMatchTheLineLoader:
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(
        tokens=st.lists(
            st.one_of(st.text(TOKEN_ALPHABET, max_size=6),
                      st.floats(allow_nan=True).map(repr)),
            min_size=4, max_size=4,
        ),
        label=st.one_of(st.text("0123456789+-. _١", max_size=3), st.integers(-3, 9).map(str)),
    )
    def test_row_of_drawn_tokens(self, tmp_path_factory, tokens, label):
        root = tmp_path_factory.mktemp("t")
        features = write(root / "features.csv",
                         feature_text(",".join([label] + tokens[:2]), at=1))
        assert outcome(_load_features_csv, features) == outcome(oracle_features, features)
        attrs = write(root / "attributes.csv", attribute_text(",".join(tokens)))
        groups = write(root / "groups.csv", "0,2\n")
        assert outcome(_load_attributes, attrs, groups) == outcome(oracle_attributes, attrs, groups)
        lines = _set(2, ",".join(tokens[:3]))(checkpoint_lines(root))
        model = write(root / "model.csv", "\n".join(lines) + "\n")
        assert outcome(load_model, model) == outcome(oracle_load_model, model)
