"""One OpenBLAS thread for the length of a run.

How many threads OpenBLAS splits a matrix product across changes how the
product's sums are grouped, so it changes the bits of every result built
on it.  numpy's wheels bundle OpenBLAS with prefixed symbols; this module
finds that library the way ``perfbench/run.py`` does, in the ``numpy.libs``
folder beside numpy, and sets its thread count through the exported
``scipy_openblas_set_num_threads64_`` (threadpoolctl's method).  The count
is one setting of the whole process, so the pin is counted: the first
:func:`one_thread` block to enter saves the old count and sets one thread,
the last to leave restores it.  :func:`core` and :func:`pinned_threads`
name the kernel family and the thread count, which ``fedzsl run`` records
in its manifest.
"""

from __future__ import annotations

import ctypes
import functools
import threading
from collections.abc import Callable, Iterator
from contextlib import contextmanager
from pathlib import Path

import numpy as np

# Guards the count of blocks inside one_thread and the count they saved.
_lock = threading.Lock()
_holders = 0
_saved = 0


def _bundled() -> list[Path]:
    # The OpenBLAS libraries bundled in the numpy.libs folder beside numpy.
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    return sorted(libs.glob("libscipy_openblas64_*.so")) if libs.is_dir() else []


@functools.cache
def _controls() -> tuple[Callable[[], int], Callable[[int], None]] | None:
    # The get and set functions of the thread count of numpy's bundled
    # OpenBLAS, or None when numpy runs another BLAS or none is found.
    for lib in _bundled():
        try:
            handle = ctypes.CDLL(str(lib))
            get = handle.scipy_openblas_get_num_threads64_
            set_ = handle.scipy_openblas_set_num_threads64_
        except (OSError, AttributeError):
            continue
        get.restype, get.argtypes = ctypes.c_int, ()
        set_.restype, set_.argtypes = None, (ctypes.c_int,)
        return get, set_
    return None


@functools.cache
def core() -> str:
    """The kernel family numpy's bundled OpenBLAS picked for this CPU, or "unknown".

    Read through ``scipy_openblas_get_corename64_``, for example "SkylakeX"
    or "Haswell"; each family orders a product's sums its own way.
    """
    for lib in _bundled():
        try:
            name = ctypes.CDLL(str(lib)).scipy_openblas_get_corename64_
        except (OSError, AttributeError):
            continue
        name.restype, name.argtypes = ctypes.c_char_p, ()
        return name().decode()
    return "unknown"


def pinned_threads() -> str:
    """The BLAS thread count a run pins: "1", or "unpinned" where it cannot be set."""
    return "unpinned" if _controls() is None else "1"


@contextmanager
def one_thread() -> Iterator[bool]:
    """Run the block with OpenBLAS at one thread; yields whether it could be set.

    Where the library is not found the block runs as it is and gets False.
    """
    global _holders, _saved
    controls = _controls()
    if controls is None:
        yield False
        return
    get, set_ = controls
    with _lock:
        if _holders == 0:
            _saved = get()
            set_(1)
        _holders += 1
    try:
        yield True
    finally:
        with _lock:
            _holders -= 1
            if _holders == 0:
                set_(_saved)
