"""The compiled kernels: ``_kernels.c``, built once per machine.

``_kernels.c``, shipped beside this module, holds the graphical lasso's
column step (used by ``fedzsl.glasso``), the momentum SGD step (used by
``fedzsl.model``), and the elementwise passes and reductions of the loss
terms, the pairwise sum of a split fed one block of rows at a time, and
``LossReport``'s finiteness scan (used by ``fedzsl.losses``), each the numpy
code it replaces operation for operation.
``-ffp-contract=off`` is required: GCC's default for GNU C fuses a multiply
and an add into one fused multiply-add where the target has one, which
rounds once where numpy rounds twice; for the same reason no
``-ffast-math``, ``-Ofast`` or ``-fassociative-math`` may be added.  ``-O3``
keeps every bit: it vectorizes the C's plain one-element loops, and each
vector lane performs the scalar operations on its own element, rounding as
they do; without a flag that licenses reassociation, a floating-point sum
carried across iterations adds its values one at a time, in order.
``-falign-loops=32`` and ``-falign-functions=64`` change no bits: they
start each loop on a 32-byte boundary and each function on a 64-byte one,
so that a kernel's speed does not depend on where the functions before it
leave it (the glasso solve ran about 11% slower at one placement than at
another; with loops aligned alone, adding the stream functions moved the
column step 32 bytes and made the CUB-shaped solve 5% slower, 157.6
against 149.8 ms, which aligning the functions took back to 150.7 ms).

The first call of :func:`compiled` in a process loads the library from the
cache, ``$XDG_CACHE_HOME/fedzsl`` (else ``~/.cache/fedzsl``), under a name
keyed by a checksum of the source, the compiler Python was built with
(``sysconfig``'s ``CC``), :data:`FLAGS` and the machine type; a second
file holds the library's checksum, and an entry whose bytes do not match
it is built again.  On a miss the library is built with that
compiler (else ``cc``) into the cache and moved into place atomically, and
the entries of other keys are removed, so the cache holds the current
source's library alone; a hit looks at no other entry.
When the cache cannot be read or written, it is built into a temporary
directory as before, loaded and the directory removed; the library stays
mapped.  When the library cannot be made (no compiler, a compile error, a
load error), :func:`compiled` returns None for the rest of the process,
silently, and every caller runs its numpy code instead, which writes the
same bits.

The loss kernels also reproduce numpy's reduction order, which numpy does
not promise: on load, :func:`compiled` compares the C reductions with
``np.add.reduce`` on fixed probe vectors, and when any differs
``Kernels.pairwise`` is False and the losses run their numpy code.
"""

from __future__ import annotations

import ctypes
import functools
import os
import platform
import shlex
import shutil
import subprocess
import sysconfig
import tempfile
import zlib
from collections.abc import Callable
from pathlib import Path
from typing import NamedTuple

import numpy as np

SOURCE = Path(__file__).with_name("_kernels.c")
FLAGS = (
    "-O3", "-shared", "-fPIC", "-ffp-contract=off", "-falign-loops=32", "-falign-functions=64"
)
# Linked after the source: sqrt's error path is libm's.
_LIBS = ("-lm",)


def _compiler() -> list[str] | None:
    # The compiler Python was built with, else cc; None when neither is on PATH.
    cc = shlex.split(sysconfig.get_config_var("CC") or "")
    if cc and shutil.which(cc[0]):
        return cc
    fallback = shutil.which("cc")
    return [fallback] if fallback else None


class Kernels(NamedTuple):
    """The functions of the compiled library (see ``_kernels.c``).

    ``pairwise`` says whether its reductions reproduce ``np.add.reduce`` in
    this process; the loss kernels run only when it is True.
    """

    lasso_passes: Callable[..., int]
    column_start: Callable[..., None]
    column_finish: Callable[..., None]
    sgd_step: Callable[..., None]
    softmax_shift: Callable[..., None]
    row_sums: Callable[..., None]
    column_sums: Callable[..., None]
    sce_rows: Callable[..., float]
    sce_grad: Callable[..., None]
    kl_rows: Callable[..., float]
    kl_grad: Callable[..., None]
    ad: Callable[..., float]
    bc: Callable[..., float]
    stream_start: Callable[..., None]
    stream_add: Callable[..., float]
    all_finite: Callable[..., int]
    stream_bytes: int
    pairwise: bool


_size, _real, _pointer = ctypes.c_longlong, ctypes.c_double, ctypes.c_void_p
# (restype, argtypes) of each function, by its name without the prefix.
_SIGNATURES = {
    "lasso_passes": (_size, (_size, *[_pointer] * 4, _real, _real, _size, _pointer)),
    "column_start": (None, (_size, _size, _real, *[_pointer] * 8)),
    "column_finish": (None, (_size, _size, _real, *[_pointer] * 4)),
    "sgd_step": (None, (_size, _pointer, _pointer, _pointer, _real, _real, _real)),
    "softmax_shift": (None, (_size, _size, _pointer, _pointer, _real)),
    "row_sums": (None, (_size, _size, _pointer, _pointer)),
    "column_sums": (None, (_size, _size, _pointer, _pointer)),
    "sce_rows": (_real, (_size, _size, *[_pointer] * 4)),
    "sce_grad": (None, (_size, _size, _pointer, _pointer)),
    "kl_rows": (_real, (_size, _size, *[_pointer] * 7)),
    "kl_grad": (None, (_size, _size, _pointer, _pointer, _pointer, _real)),
    "ad": (_real, (_size, _size, _pointer, _size, _pointer, _pointer, _pointer, _real)),
    "bc": (_real, (_size, _size, _pointer, _pointer, ctypes.c_int, _pointer, _pointer)),
    "stream_start": (None, (_pointer, _size)),
    "stream_add": (_real, (_pointer, _pointer, _size, ctypes.c_int)),
    "all_finite": (ctypes.c_int, (_size, _pointer)),
}


FLOAT64, INT64 = np.dtype(np.float64), np.dtype(np.int64)


def fits(dtype: np.dtype, *arrays: np.ndarray) -> bool:
    """Whether the kernels may take each of ``arrays`` as a ``dtype`` array.

    That is, each is non-empty, aligned, C-contiguous and of ``dtype``:
    :func:`address`'s precondition, and the one layout rule of every
    caller.  Other arrays take the caller's numpy body.
    """
    for a in arrays:
        if a.dtype != dtype or not a.size:
            return False
        flags = a.flags
        if not (flags.c_contiguous and flags.aligned):
            return False
    return True


def address(a: np.ndarray) -> int:
    """The address of the first element of an array that :func:`fits`.

    A ctypes view of a writeable buffer takes about half the time of
    ``a.ctypes.data``, which serves read-only arrays.
    """
    if a.flags.writeable:
        return ctypes.addressof(ctypes.c_char.from_buffer(a))
    return a.ctypes.data


def _load(path: Path) -> Kernels:
    # The library at ``path`` with its signatures set; OSError or
    # AttributeError when it cannot be loaded or lacks a function.
    loaded = ctypes.CDLL(str(path))
    functions = {}
    for name, (restype, argtypes) in _SIGNATURES.items():
        function = getattr(loaded, f"fedzsl_{name}")
        function.restype, function.argtypes = restype, argtypes
        functions[name] = function
    size_of = loaded.fedzsl_stream_bytes
    size_of.restype, size_of.argtypes = _size, ()
    stream_bytes = size_of()
    return Kernels(
        **functions,
        stream_bytes=stream_bytes,
        pairwise=_pairwise_matches(functions, stream_bytes),
    )


def stream(kernels: Kernels, n: int) -> np.ndarray:
    """A started pairwise-sum stream of ``n`` values, as the array holding its state.

    Feed it with ``kernels.stream_add(address(state), x, k, square)``, or
    ``kernels.bc``; the call that feeds the last value returns
    ``np.add.reduce`` of all ``n`` (of their squares), every earlier call 0.0.
    """
    state = np.empty(-(-kernels.stream_bytes // 8))
    kernels.stream_start(address(state), n)
    return state


# Probe lengths for each branch of numpy's pairwise sum: fewer than 8 values,
# 8 to 128 in eight accumulators, longer runs split at a multiple of 8.
_PROBE_LENGTHS = (
    *range(1, 18), 24, 64, 120, 127, 128, 129, 130, 137, 200, 255, 256, 257, 300, 4099
)
_PROBE_ROWS = 3


def _reference_sum(x: np.ndarray, axis: int | None) -> np.ndarray:
    # numpy's reduction, which the probe holds the C reductions to.
    return np.add.reduce(x, axis=axis)


def _pairwise_matches(functions: dict[str, Callable[..., object]], stream_bytes: int) -> bool:
    # Whether the C row and column sums give np.add.reduce's bits on blocks
    # of probe values spread over many binades, in one row and in several,
    # over axis 1, axis 0 and the whole block; whether a stream fed the
    # whole block in uneven pieces gives the sum of its values and of their
    # squares; and whether a sum of negative zeros is +0.0, as numpy's
    # reduction starts from its identity.  Each block is drawn on its own,
    # so the probe holds little memory at once, with the generator methods
    # and ufuncs a run uses anyway.
    rng = np.random.default_rng(0)
    row_sums, column_sums = functions["row_sums"], functions["column_sums"]
    sums = np.empty(max(_PROBE_LENGTHS) + _PROBE_ROWS + 4)
    out = sums.ctypes.data
    state = np.empty(-(-stream_bytes // 8))
    for n in _PROBE_LENGTHS:
        shape = (_PROBE_ROWS, n)
        block = rng.standard_normal(shape) * np.exp(rng.uniform(-30.0, 30.0, shape))
        if n in (1, 8, 129):
            block[-1] = block[:, 0] = -0.0
        at = block.ctypes.data
        row_sums(_PROBE_ROWS, n, at, out)
        row_sums(1, n, at, out + 8 * _PROBE_ROWS)
        row_sums(1, block.size, at, out + 8 * (_PROBE_ROWS + 1))
        column_sums(_PROBE_ROWS, n, at, out + 8 * (_PROBE_ROWS + 2))
        for square in (0, 1):
            sums[n + _PROBE_ROWS + 2 + square] = _streamed(
                functions, state, block, _PROBE_PIECES, square
            )
        want = (
            _reference_sum(block, 1),
            _reference_sum(block[0], None),
            _reference_sum(block, None),
            _reference_sum(block, 0),
            _reference_sum(block, None),
            _reference_sum(block * block, None),
        )
        if sums[: n + _PROBE_ROWS + 4].tobytes() != np.hstack(want).tobytes():
            return False
    return True


# Piece sizes the probe feeds a stream, in turn: single values, pieces
# inside one leaf and pieces across several.
_PROBE_PIECES = (1, 5, 127, 64, 300, 2)


def _streamed(
    functions: dict[str, Callable[..., object]],
    state: np.ndarray,
    x: np.ndarray,
    pieces: tuple[int, ...],
    square: int,
) -> float:
    # The stream's sum of the C-contiguous x (its squares when square is 1),
    # fed in pieces of the given sizes in turn.
    at, n = x.ctypes.data, x.size
    functions["stream_start"](state.ctypes.data, n)
    done, turn, total = 0, 0, 0.0
    while done < n:
        k = min(pieces[turn % len(pieces)], n - done)
        total = functions["stream_add"](state.ctypes.data, at + 8 * done, k, square)
        done, turn = done + k, turn + 1
    return total


def _cache_dir() -> Path:
    # $XDG_CACHE_HOME/fedzsl, else ~/.cache/fedzsl (a relative XDG path is
    # ignored, as the XDG specification asks).
    root = os.environ.get("XDG_CACHE_HOME", "")
    base = Path(root) if os.path.isabs(root) else Path.home() / ".cache"
    return base / "fedzsl"


def _checksum(data: bytes) -> str:
    # CRC-32, Adler-32 and length: enough to tell accidental damage and
    # other inputs apart, and zlib is loaded already, where hashlib would
    # map OpenSSL into every process (about 3.6 MB resident).
    return f"{zlib.crc32(data):08x}{zlib.adler32(data):08x}{len(data):x}"


def _cache_key() -> str:
    # The checksum of everything that decides the library's bytes.
    parts = (
        SOURCE.read_bytes(),
        (sysconfig.get_config_var("CC") or "cc").encode(),
        " ".join((*FLAGS, *_LIBS)).encode(),
        platform.machine().encode(),
    )
    return _checksum(b"".join(len(part).to_bytes(8, "little") + part for part in parts))


def _cached(library: Path, checksum: Path) -> Kernels | None:
    # The cached library, if its bytes match its recorded checksum.
    try:
        recorded = checksum.read_text().strip()
        data = library.read_bytes()
    except OSError:
        return None
    if _checksum(data) != recorded:
        return None
    try:
        return _load(library)
    except (OSError, AttributeError):
        return None


def _build(cc: list[str], out: Path) -> bool:
    try:
        built = subprocess.run(
            [*cc, *FLAGS, str(SOURCE), "-o", str(out), *_LIBS],
            stdin=subprocess.DEVNULL,
            capture_output=True,
            check=False,
        )
    except OSError:  # the compiler cannot be run
        return False
    return built.returncode == 0


def _build_temporary(cc: list[str]) -> Kernels | None:
    # Today's build: into a temporary directory, removed once loaded.
    try:
        with tempfile.TemporaryDirectory(prefix="fedzsl-") as tmp:
            lib = Path(tmp) / "kernels.so"
            return _load(lib) if _build(cc, lib) else None
    except (OSError, AttributeError):
        return None


def _build_cached(cc: list[str], library: Path, checksum: Path) -> Kernels | None:
    # Build in a private directory beside the entry, load, then move the
    # library and then its checksum into place, so a reader sees a whole
    # entry or none.  A cache that cannot be written, or from which a
    # library cannot be loaded (a noexec mount), takes the temporary build.
    try:
        library.parent.mkdir(parents=True, exist_ok=True)
        work = Path(tempfile.mkdtemp(prefix=".build-", dir=library.parent))
    except OSError:
        return _build_temporary(cc)
    try:
        lib = work / library.name
        if not _build(cc, lib):
            return None
        try:
            kernels = _load(lib)
        except (OSError, AttributeError):
            return _build_temporary(cc)
        try:
            (work / checksum.name).write_text(_checksum(lib.read_bytes()))
            os.replace(lib, library)
            os.replace(work / checksum.name, checksum)
        except OSError:
            pass  # the library is loaded; only the cache entry is lost
        else:
            _remove_other_entries(library, checksum)
        return kernels
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _remove_other_entries(library: Path, checksum: Path) -> None:
    # After a build, the cache's entries of every other key: builds of
    # earlier sources, flags or compilers, which this source never loads.  A
    # cache hit never gets here, so loading scans nothing.  Another process
    # may be removing the same files, or may have one loaded, which stays
    # mapped after it is unlinked; any file that cannot be removed is left.
    for entry in library.parent.glob("kernels-*"):
        if entry.suffix in (".so", ".sum") and entry not in (library, checksum):
            try:
                entry.unlink()
            except OSError:  # gone already, held, or not ours to remove
                pass


@functools.cache
def compiled() -> Kernels | None:
    """The compiled kernels, from the cache or built; None if the build fails."""
    try:
        folder, key = _cache_dir(), _cache_key()
    except (OSError, RuntimeError):  # no source file, or no home directory
        folder = None
    if folder is not None:
        library, checksum = folder / f"kernels-{key}.so", folder / f"kernels-{key}.sum"
        kernels = _cached(library, checksum)
        if kernels is not None:
            return kernels
    cc = _compiler()
    if cc is None:
        return None
    if folder is None:
        return _build_temporary(cc)
    return _build_cached(cc, library, checksum)
