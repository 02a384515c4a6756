"""One OpenBLAS thread for the length of a run.

How many threads OpenBLAS splits a matrix product across changes how the
product's sums are grouped, so it changes the bits of every result built
on it.  numpy's wheels bundle OpenBLAS with prefixed symbols; this module
finds that library the way ``perfbench/run.py`` does, in the ``numpy.libs``
folder beside numpy, and sets its thread count through the exported
``scipy_openblas_set_num_threads64_`` (threadpoolctl's method).  The count
is one setting of the whole process, so the pin is counted: the first
:func:`one_thread` block to enter saves the old count and sets one thread,
the last to leave restores it.
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


@functools.cache
def _controls() -> tuple[Callable[[], int], Callable[[int], None]] | None:
    # The get and set functions of the thread count of numpy's bundled
    # OpenBLAS, or None when numpy runs another BLAS or none is found.
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("libscipy_openblas64_*.so")) if libs.is_dir() else []:
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
