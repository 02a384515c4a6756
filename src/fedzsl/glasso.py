"""Sparse class-similarity estimation and softened distillation targets.

Fits an L1-penalized Gaussian precision matrix to per-class attribute
vectors (each attribute dimension is one observation of the classes) by
primal block coordinate descent, with the penalty applied to every entry
of the precision matrix.  The implied covariance, the precision's exact
inverse, serves as a class similarity matrix whose rows can be softened
into temperature-scaled probability targets for distillation.

The solver maintains the covariance estimate alongside the precision via
rank-one block-inverse identities, so each column update costs O(p^2) and
the penalized objective never increases between sweeps.

The order of the floating-point operations is part of the contract, not
an implementation detail: the distillation targets come from ``gamma``,
so every ``metrics.csv`` digest depends on ``theta`` bit for bit.  The
column solver visits every coordinate in index order on every pass, and
each column update downdates and updates W in place, element by element.
Faster schemes that reorder the updates, such as active-set sweeps (cycling only over nonzero coordinates between
full passes) or block-diagonal screening (solving connected components
of {|S_ij| > delta} apart), reach the same optimum within ``tol`` but
not the same bits, so adopting one means re-recording every reference
digest of the outputs.

Within that order, the column solve's time is nearly all the coordinate
passes, and they run compiled.  ``_glasso_sweep.c``, shipped beside this
module, holds the passes as one C function with the Python loop's
operations on the same values in the same order.  It is compiled on first
use with the compiler Python was built with (``sysconfig``'s ``CC``, else
``cc``), ``-O2 -shared -fPIC -ffp-contract=off``, into a temporary
directory that is removed once the library is loaded, and called through
``ctypes``.  ``-ffp-contract=off`` is required: GCC's default for GNU C
fuses ``r + q*step`` into one fused multiply-add where the target has one,
which rounds once where the loop rounds twice; for the same reason BLAS
``daxpy`` cannot take the update (about a quarter of the entries of a
199-vector differ), and no ``-ffast-math`` or ``-Ofast`` may be added.
Everything around the passes stays numpy: ``r = q @ b``, ``b @ r`` and the
column-level updates of W, q and theta.  When the library cannot be made
(no compiler, a compile error, a load error) the Python loop runs instead,
for the rest of the process, and writes the same bits; ``column_sweep()``
says which one runs.
"""

from __future__ import annotations

import ctypes
import functools
import math
import shlex
import shutil
import subprocess
import sysconfig
import tempfile
from collections.abc import Callable
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from fedzsl.dataset import AttributeMatrix, _as_int

DEFAULT_DELTA = 0.05
DEFAULT_TOL = 1e-5
DEFAULT_MAX_SWEEPS = 200

SYMMETRY_TOL = 1e-8
INVERSE_PAIR_TOL = 1e-6
ROW_SUM_TOL = 1e-9

_MAX_INNER_ITERATIONS = 10_000


class GlassoError(ValueError):
    """Invalid input or a numerically infeasible similarity estimation."""


@dataclass
class GlassoConfig:
    """Solver parameters for the penalized precision fit."""

    delta: float = DEFAULT_DELTA
    tol: float = DEFAULT_TOL
    max_sweeps: int = DEFAULT_MAX_SWEEPS

    def __post_init__(self) -> None:
        self.delta = float(self.delta)
        self.tol = float(self.tol)
        self.max_sweeps = _as_int(self.max_sweeps, "max_sweeps", GlassoError)
        if not (math.isfinite(self.delta) and self.delta > 0.0):
            raise GlassoError(f"delta must be finite and positive, got {self.delta}")
        if not (math.isfinite(self.tol) and self.tol > 0.0):
            raise GlassoError(f"tol must be finite and positive, got {self.tol}")
        if self.max_sweeps < 1:
            raise GlassoError(f"max_sweeps must be >= 1, got {self.max_sweeps}")


@dataclass
class SimilarityMatrix:
    """Estimated class covariance (similarity), sparse precision, and inputs."""

    gamma: np.ndarray
    theta: np.ndarray
    sample_cov: np.ndarray
    converged: bool = True
    sweeps: int = 0
    objective: tuple[float, ...] = ()

    def __post_init__(self) -> None:
        self.gamma = np.asarray(self.gamma, dtype=np.float64)
        self.theta = np.asarray(self.theta, dtype=np.float64)
        self.sample_cov = np.asarray(self.sample_cov, dtype=np.float64)
        n = self.gamma.shape[0]
        for name, m in (("gamma", self.gamma), ("theta", self.theta), ("sample_cov", self.sample_cov)):
            if m.shape != (n, n):
                raise GlassoError(f"{name} must be {n}x{n}, got {m.shape}")
        for name, m in (("gamma", self.gamma), ("theta", self.theta)):
            if np.max(np.abs(m - m.T)) > SYMMETRY_TOL:
                raise GlassoError(f"{name} is not symmetric within {SYMMETRY_TOL}")
        try:
            np.linalg.cholesky(self.theta)
        except np.linalg.LinAlgError:
            raise GlassoError("theta is not positive definite") from None
        residual = np.max(np.abs(self.gamma @ self.theta - np.eye(n)))
        if residual > INVERSE_PAIR_TOL:
            raise GlassoError(
                f"gamma and theta are not inverses: max |gamma@theta - I| = {residual:.3e}"
            )
        self.objective = tuple(float(v) for v in self.objective)

    @property
    def num_classes(self) -> int:
        """Matrix dimension (number of classes)."""
        return int(self.gamma.shape[0])


@dataclass
class DistillTargets:
    """Per-class softened probability rows used as distillation targets."""

    probs: np.ndarray
    tau: float

    def __post_init__(self) -> None:
        self.probs = np.asarray(self.probs, dtype=np.float64)
        self.tau = float(self.tau)
        if self.tau <= 0.0 or not math.isfinite(self.tau):
            raise GlassoError(f"tau must be finite and positive, got {self.tau}")
        if self.probs.ndim != 2:
            raise GlassoError("probs must be a 2-dimensional matrix")
        if not np.all(np.isfinite(self.probs)):
            raise GlassoError("probs contains non-finite entries")
        if np.any(self.probs < 0.0):
            raise GlassoError("probs contains negative entries")
        sums = self.probs.sum(axis=1)
        worst = float(np.max(np.abs(sums - 1.0))) if sums.size else 0.0
        if worst > ROW_SUM_TOL:
            raise GlassoError(f"probs rows must sum to 1 within {ROW_SUM_TOL}, worst {worst:.3e}")


def sample_covariance(A: AttributeMatrix | np.ndarray, standardize: bool = True) -> np.ndarray:
    """Sample covariance of the classes over attribute-dimension observations.

    Each of the d_a attribute dimensions is one observation of the
    class-variables, so the result is num_classes x num_classes with the
    unbiased (1/(d_a - 1)) normalizer.  With ``standardize`` the class
    columns are z-scored first (unbiased std; zero-variance columns are
    left centered with a unit divisor), making the result a correlation
    matrix for non-degenerate columns.
    """
    values = A.values if isinstance(A, AttributeMatrix) else np.asarray(A, dtype=np.float64)
    if values.ndim != 2:
        raise GlassoError("attribute values must form a 2-dimensional matrix")
    d_a = values.shape[0]
    if d_a < 2:
        raise GlassoError(f"sample covariance needs d_a >= 2 observations, got {d_a}")
    data = values - values.mean(axis=0, keepdims=True)
    if standardize:
        std = values.std(axis=0, ddof=1, keepdims=True)
        divisor = np.where(std == 0.0, 1.0, std)
        data = data / divisor
        data = data - data.mean(axis=0, keepdims=True)
    return (data.T @ data) / (d_a - 1)


def glasso_objective(S: np.ndarray, theta: np.ndarray, delta: float) -> float:
    """Penalized negative log-likelihood tr(S@theta) - logdet(theta) + delta*||theta||_1."""
    chol = np.linalg.cholesky(theta)
    logdet = 2.0 * float(np.sum(np.log(np.diag(chol))))
    return float(np.sum(S * theta)) - logdet + float(delta) * float(np.sum(np.abs(theta)))


_SWEEP_SOURCE = Path(__file__).with_name("_glasso_sweep.c")
_SWEEP_FLAGS = ("-O2", "-shared", "-fPIC", "-ffp-contract=off")


def _compiler() -> list[str] | None:
    # The compiler Python was built with, else cc; None when neither is on PATH.
    cc = shlex.split(sysconfig.get_config_var("CC") or "")
    if cc and shutil.which(cc[0]):
        return cc
    fallback = shutil.which("cc")
    return [fallback] if fallback else None


@functools.cache
def _compiled_sweep() -> Callable[..., float] | None:
    # Build _glasso_sweep.c once per process and return its function, or None
    # when any step fails, which selects the Python loop for good.  The
    # library stays mapped after its directory is removed.
    cc = _compiler()
    if cc is None:
        return None
    try:
        with tempfile.TemporaryDirectory(prefix="fedzsl-") as tmp:
            lib = Path(tmp) / "glasso_sweep.so"
            built = subprocess.run(
                [*cc, *_SWEEP_FLAGS, str(_SWEEP_SOURCE), "-o", str(lib)],
                stdin=subprocess.DEVNULL,
                capture_output=True,
                check=False,
            )
            if built.returncode != 0:
                return None
            passes = ctypes.CDLL(str(lib)).fedzsl_lasso_passes
    except (OSError, AttributeError):
        return None
    pointer = ctypes.c_void_p
    passes.argtypes = (
        ctypes.c_longlong, pointer, pointer, pointer, pointer,
        ctypes.c_double, ctypes.c_double, ctypes.c_longlong,
    )
    passes.restype = ctypes.c_double
    return passes


def column_sweep() -> str:
    """Which coordinate sweep the solver runs: ``"compiled"`` or ``"python"``.

    The first call builds the compiled sweep if it has not been tried yet.
    """
    return "python" if _compiled_sweep() is None else "compiled"


def _solve_column_lasso(
    q: np.ndarray,
    qt: np.ndarray,
    buf: np.ndarray,
    lin: np.ndarray,
    b: np.ndarray,
    delta: float,
    inner_tol: float,
) -> tuple[np.ndarray, bool]:
    # Coordinate descent for 0.5*b@q@b + lin@b + delta*||b||_1, warm-started at
    # the current precision column; r tracks q @ b throughout and b is updated
    # in place; also returns whether a pass moved no coordinate by more than
    # inner_tol within _MAX_INNER_ITERATIONS passes.  Each visit computes
    # partial = (lin_i + r_i) - q_ii*b_i, soft-thresholds -partial by delta,
    # divides by q_ii and, if b_i moved, adds q[:, i]*step to r.  That
    # arithmetic and its order are fixed (see the module docstring).  q is
    # symmetric only to rounding (S is checked within SYMMETRY_TOL), so r's
    # update reads the column q[:, i], which is row i of qt, the caller's
    # contiguous copy of q.T.
    r = q @ b
    passes = _compiled_sweep()
    if passes is not None:
        # The C function takes bare pointers, so the layouts are checked here.
        n = b.size
        if not (
            qt.shape == (n, n)
            and lin.shape == b.shape == (n,)
            and all(a.dtype == np.float64 and a.flags.c_contiguous for a in (qt, lin, b))
        ):
            raise GlassoError("the column solve needs C-contiguous float64 arrays of one size")
        biggest = passes(
            n, qt.ctypes.data, lin.ctypes.data, b.ctypes.data, r.ctypes.data,
            delta, inner_tol, _MAX_INNER_ITERATIONS,
        )
        return r, biggest <= inner_tol
    # The Python loop runs the same arithmetic over Python floats, which round
    # exactly as numpy's float64 scalars do, and reads r through a memoryview
    # that sees its in-place updates; buf receives q[:, i]*step.  The
    # constants of coordinate i are one tuple per coordinate, so a visit
    # unpacks one object where it would index four lists; 0.0 / q_ii is the
    # same signed zero whether divided once per column or once per visit.
    mul, add = np.multiply, np.add
    cols = list(qt)
    coords = [
        (i, q_ii, lin_i, 0.0 / q_ii)
        for i, q_ii, lin_i in zip(range(len(cols)), q.diagonal().tolist(), lin.tolist())
    ]
    b_f = b.tolist()
    r_f = memoryview(r)
    for _ in range(_MAX_INNER_ITERATIONS):
        biggest = 0.0
        for (i, q_ii, lin_i, zero), old in zip(coords, b_f):
            x = -(lin_i + r_f[i] - q_ii * old)
            if x > delta:
                new = (x - delta) / q_ii
            elif x < -delta:
                new = (x + delta) / q_ii
            else:
                new = zero
            if new != old:
                step = new - old
                b_f[i] = new
                mul(cols[i], step, buf)
                add(r, buf, r)
                size = -step if step < 0.0 else step
                if size > biggest:
                    biggest = size
        if biggest <= inner_tol:
            break
    b[:] = b_f
    return r, biggest <= inner_tol


def graphical_lasso(S: np.ndarray, cfg: GlassoConfig | None = None) -> SimilarityMatrix:
    """Minimize tr(S@theta) - logdet(theta) + delta*||theta||_1 over PD theta.

    The penalty covers every entry, diagonal included, so the optimum
    satisfies gamma_ii = S_ii + delta and |S_ij - gamma_ij| <= delta with
    equality wherever theta_ij != 0.  Block coordinate descent cycles over
    columns, each solved by an exact coordinate-wise lasso; the covariance
    estimate is updated in place via block-inverse identities.  Stops when
    the covariance estimate moves less than ``cfg.tol`` over a full sweep;
    hitting ``cfg.max_sweeps`` first, or a column solve of the last sweep
    ending at its pass cap, flags the result as non-converged.
    """
    if cfg is None:
        cfg = GlassoConfig()
    S = np.asarray(S, dtype=np.float64)
    if S.ndim != 2 or S.shape[0] != S.shape[1]:
        raise GlassoError(f"S must be square, got shape {S.shape}")
    if S.shape[0] == 0:
        raise GlassoError("S is empty: need at least one class")
    if not np.all(np.isfinite(S)):
        raise GlassoError("S contains non-finite values")
    if np.max(np.abs(S - S.T), initial=0.0) > SYMMETRY_TOL:
        raise GlassoError(f"S is not symmetric within {SYMMETRY_TOL}")
    if np.any(np.diag(S) < 0.0):
        raise GlassoError("S has a negative diagonal entry")
    p = S.shape[0]
    delta = cfg.delta
    W = S + delta * np.eye(p)
    try:
        np.linalg.cholesky(W)
    except np.linalg.LinAlgError:
        raise GlassoError("S + delta*I is not positive definite; cannot initialize") from None
    theta = np.linalg.inv(W)
    theta = 0.5 * (theta + theta.T)
    objective = [glasso_objective(S, theta, delta)]
    if p == 1:
        gamma = np.array([[S[0, 0] + delta]])
        theta = np.array([[1.0 / (S[0, 0] + delta)]])
        return SimilarityMatrix(
            gamma=gamma,
            theta=theta,
            sample_cov=S.copy(),
            converged=True,
            sweeps=0,
            objective=tuple(objective),
        )
    inner_tol = max(cfg.tol * 1e-3, 1e-14)
    rest_indices = [np.delete(np.arange(p), j) for j in range(p)]
    # Each column update subtracts the rank-one term of column j from the
    # whole of W in place and later adds the new term back; only the four
    # blocks off row and column j (W11) keep the results, since row and
    # column j are then rewritten.  q is the scaled W11 and qt its transpose,
    # whose rows are the columns the lasso adds to r.  The buffers are made
    # once per solve and only copied into per column, since every column's q
    # has the same shape.
    column = np.empty(p)
    outer = np.empty((p, p))
    q = np.empty((p - 1, p - 1))
    qt = np.empty_like(q)
    buf = np.empty(p - 1)
    converged = False
    sweeps_run = 0
    for _ in range(cfg.max_sweeps):
        w_before = W.copy()
        columns_met = True
        for j in range(p):
            rest = rest_indices[j]
            column[:] = W[:, j]
            np.multiply.outer(column, column, out=outer)
            outer /= column[j]
            W -= outer
            scale = S[j, j] + delta
            np.multiply(scale, W[:j, :j], out=q[:j, :j])
            np.multiply(scale, W[:j, j + 1 :], out=q[:j, j:])
            np.multiply(scale, W[j + 1 :, :j], out=q[j:, :j])
            np.multiply(scale, W[j + 1 :, j + 1 :], out=q[j:, j:])
            np.copyto(qt, q.T)
            b = theta[rest, j]
            r, met = _solve_column_lasso(q, qt, buf, S[rest, j], b, delta, inner_tol)
            columns_met &= met
            theta[rest, j] = b
            theta[j, rest] = b
            theta[j, j] = (1.0 + float(b @ r)) / scale
            column[rest] = r
            column[j] = 0.0
            np.multiply.outer(column, column, out=outer)
            outer /= scale
            W += outer
            W[j, j] = scale
            W[rest, j] = -r
            W[j, rest] = -r
        sweeps_run += 1
        # The objective's Cholesky factor is also the check that the sweep
        # left theta positive definite.
        try:
            objective.append(glasso_objective(S, theta, delta))
        except np.linalg.LinAlgError:
            raise GlassoError("estimated precision lost positive definiteness") from None
        if float(np.max(np.abs(W - w_before))) < cfg.tol:
            converged = columns_met
            break
    # Refresh the covariance from the final precision so the pair inverts
    # to machine precision.
    gamma = np.linalg.inv(theta)
    gamma = 0.5 * (gamma + gamma.T)
    return SimilarityMatrix(
        gamma=gamma,
        theta=theta,
        sample_cov=S.copy(),
        converged=converged,
        sweeps=sweeps_run,
        objective=tuple(objective),
    )


def distill_targets(gamma: np.ndarray, tau: float) -> DistillTargets:
    """Row-wise temperature-scaled softmax of a similarity matrix.

    Row ``y`` of the result is ``softmax(gamma[y] / tau)``; larger ``tau``
    flattens rows toward uniform.
    """
    gamma = np.asarray(gamma, dtype=np.float64)
    tau = float(tau)
    if tau <= 0.0 or not math.isfinite(tau):
        raise GlassoError(f"tau must be finite and positive, got {tau}")
    if gamma.ndim != 2:
        raise GlassoError("gamma must be a 2-dimensional matrix")
    if not np.all(np.isfinite(gamma)):
        raise GlassoError("gamma contains non-finite values")
    scaled = gamma / tau
    scaled = scaled - scaled.max(axis=1, keepdims=True)
    exp = np.exp(scaled)
    probs = exp / exp.sum(axis=1, keepdims=True)
    return DistillTargets(probs=probs, tau=tau)
