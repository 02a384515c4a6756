"""The compiled kernels: ``_kernels.c``, built once per process.

``_kernels.c``, shipped beside this module, holds the graphical lasso's
column step (used by ``fedzsl.glasso``) and the momentum SGD step (used by
``fedzsl.model``), each the numpy code it replaces operation for operation.
The first call of :func:`compiled` builds it with the compiler Python was
built with (``sysconfig``'s ``CC``, else ``cc``) and :data:`FLAGS` into a
temporary directory, loads it with ``ctypes`` and removes the directory;
the library stays mapped.  ``-ffp-contract=off`` is required: GCC's default
for GNU C fuses a multiply and an add into one fused multiply-add where the
target has one, which rounds once where numpy rounds twice; for the same
reason no ``-ffast-math`` or ``-Ofast`` may be added.  When the library
cannot be made (no compiler, a compile error, a load error), :func:`compiled`
returns None for the rest of the process, silently, and every caller runs
its numpy code instead, which writes the same bits.
"""

from __future__ import annotations

import ctypes
import functools
import shlex
import shutil
import subprocess
import sysconfig
import tempfile
from collections.abc import Callable
from pathlib import Path
from typing import NamedTuple

SOURCE = Path(__file__).with_name("_kernels.c")
FLAGS = ("-O2", "-shared", "-fPIC", "-ffp-contract=off")


def _compiler() -> list[str] | None:
    # The compiler Python was built with, else cc; None when neither is on PATH.
    cc = shlex.split(sysconfig.get_config_var("CC") or "")
    if cc and shutil.which(cc[0]):
        return cc
    fallback = shutil.which("cc")
    return [fallback] if fallback else None


class Kernels(NamedTuple):
    """The functions of the compiled library (see ``_kernels.c``)."""

    lasso_passes: Callable[..., int]
    column_start: Callable[..., None]
    column_finish: Callable[..., None]
    sgd_step: Callable[..., None]


@functools.cache
def compiled() -> Kernels | None:
    """The compiled kernels, built on the first call; None if the build fails."""
    cc = _compiler()
    if cc is None:
        return None
    try:
        with tempfile.TemporaryDirectory(prefix="fedzsl-") as tmp:
            lib = Path(tmp) / "kernels.so"
            built = subprocess.run(
                [*cc, *FLAGS, str(SOURCE), "-o", str(lib)],
                stdin=subprocess.DEVNULL,
                capture_output=True,
                check=False,
            )
            if built.returncode != 0:
                return None
            loaded = ctypes.CDLL(str(lib))
            kernels = Kernels(*(getattr(loaded, f"fedzsl_{name}") for name in Kernels._fields))
    except (OSError, AttributeError):
        return None
    size, real, pointer = ctypes.c_longlong, ctypes.c_double, ctypes.c_void_p
    kernels.lasso_passes.argtypes = (
        size, pointer, pointer, pointer, pointer, real, real, size, pointer
    )
    kernels.lasso_passes.restype = size
    kernels.column_start.argtypes = (size, size, real, *[pointer] * 8)
    kernels.column_start.restype = None
    kernels.column_finish.argtypes = (size, size, real, *[pointer] * 4)
    kernels.column_finish.restype = None
    kernels.sgd_step.argtypes = (size, pointer, pointer, pointer, real, real, real)
    kernels.sgd_step.restype = None
    return kernels
