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

Within that order, each column step runs compiled.  ``_kernels.c``,
shipped beside this module, holds it as three C functions with the numpy
code's and the Python loop's operations on the same values in the same
order: the start (the rank-one downdate of W off row and column j, the
copies into q and its transpose qt, and the gathers of the lasso's linear
term and warm start), the coordinate passes, and the finish (the writes
into theta, the rank-one update of W and its row and column j).  Every one
of these is elementwise, with no reduction whose order could differ.  Only
two operations stay numpy, because they are BLAS reductions whose summation
order belongs to the library: ``r = q @ b`` before the passes and
``b @ r`` for ``theta[j, j]``.  ``fedzsl._kernels`` builds the file once per
machine, with ``-ffp-contract=off``, caches it and loads it once per
process, and the functions are called through ``ctypes``; pointers go only
to arrays that ``_kernels.fits`` as float64, checked and bound once per
solve.  Without ``-ffp-contract=off`` GCC fuses
``r + q*step`` into one fused multiply-add where the target has one, which
rounds once where the loop rounds twice; for the same reason BLAS
``daxpy`` cannot take the update (about a quarter of the entries of a
199-vector differ).  When the library cannot be made (no compiler, a
compile error, a load error) the numpy column step, whose passes are a
Python loop, runs instead, for the rest of the process, and writes the
same bits; each solve chooses its step once, and ``column_sweep()`` says
which one runs.  Both count the coordinate passes alike
(``SimilarityMatrix.passes``).
"""

from __future__ import annotations

import ctypes
import math
from dataclasses import dataclass

import numpy as np

from fedzsl import _kernels
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
    passes: int = 0  # coordinate passes of every column solve of every sweep

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
    """Per-class softened probability rows used as distillation targets.

    ``probs`` is kept as an aligned, C-contiguous float64 array, the layout
    the compiled loss kernels read (a copy only when it is given otherwise).
    """

    probs: np.ndarray
    tau: float

    def __post_init__(self) -> None:
        self.probs = np.require(self.probs, np.float64, "CA")
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


def column_sweep() -> str:
    """Which column step the solver runs: ``"compiled"`` or ``"python"``.

    The first call builds the compiled one if it has not been tried yet.
    """
    return "python" if _kernels.compiled() is None else "compiled"


@dataclass
class _ColumnBuffers:
    """What one solve's column steps read and write.

    ``S``, ``W`` and ``theta`` are p x p; ``q`` and ``qt`` (its transpose)
    are the scaled W11 of the current column, n x n with n = p - 1;
    ``column`` (p) holds column j of W; ``lin``, ``b`` and ``r`` (n) are the
    column lasso's linear term, solution and q @ b.
    """

    S: np.ndarray
    W: np.ndarray
    theta: np.ndarray
    q: np.ndarray
    qt: np.ndarray
    column: np.ndarray
    lin: np.ndarray
    b: np.ndarray
    r: np.ndarray

    @classmethod
    def empty(cls, S: np.ndarray, W: np.ndarray, theta: np.ndarray) -> _ColumnBuffers:
        p = S.shape[0]
        n = p - 1
        return cls(
            S, W, theta, np.empty((n, n)), np.empty((n, n)),
            np.empty(p), np.empty(n), np.empty(n), np.empty(n),
        )


class _NumpyColumnStep:
    """The column step in numpy and a Python loop.

    ``start(j, scale)`` subtracts the rank-one term of column j from the
    whole of W in place and fills q (the scaled W11, the four blocks off row
    and column j), qt, column, lin and b.  ``solve(delta, inner_tol)`` runs
    the column lasso's coordinate passes on b and r, which the caller has
    set to q @ b.  ``finish(j, scale)`` writes the solution b into theta off
    the diagonal and adds the new rank-one term back to W.  Only W11 keeps
    the results of the two rank-one terms, since finish then rewrites row
    and column j.
    """

    def __init__(self, bufs: _ColumnBuffers) -> None:
        p = bufs.S.shape[0]
        self.bufs = bufs
        self.rest_indices = [np.delete(np.arange(p), j) for j in range(p)]
        self.outer = np.empty((p, p))
        self.buf = np.empty(p - 1)

    def start(self, j: int, scale: float) -> None:
        bufs, outer, rest = self.bufs, self.outer, self.rest_indices[j]
        W, q, column = bufs.W, bufs.q, bufs.column
        column[:] = W[:, j]
        np.multiply.outer(column, column, out=outer)
        outer /= column[j]
        W -= outer
        np.multiply(scale, W[:j, :j], out=q[:j, :j])
        np.multiply(scale, W[:j, j + 1 :], out=q[:j, j:])
        np.multiply(scale, W[j + 1 :, :j], out=q[j:, :j])
        np.multiply(scale, W[j + 1 :, j + 1 :], out=q[j:, j:])
        np.copyto(bufs.qt, q.T)
        bufs.lin[:] = bufs.S[rest, j]
        bufs.b[:] = bufs.theta[rest, j]

    def solve(self, delta: float, inner_tol: float) -> tuple[bool, int]:
        # Coordinate descent for 0.5*b@q@b + lin@b + delta*||b||_1, warm-started
        # at the current precision column; r tracks q @ b throughout and b is
        # updated in place.  Returns whether a pass moved no coordinate by more
        # than inner_tol within _MAX_INNER_ITERATIONS passes, and the passes
        # run.  Each visit computes partial = (lin_i + r_i) - q_ii*b_i,
        # soft-thresholds -partial by delta, divides by q_ii and, if b_i moved,
        # adds q[:, i]*step to r.  That arithmetic and its order are fixed (see
        # the module docstring).  q is symmetric only to rounding (S is checked
        # within SYMMETRY_TOL), so r's update reads the column q[:, i], which
        # is row i of qt.
        #
        # The loop runs that arithmetic over Python floats, which round exactly
        # as numpy's float64 scalars do, and reads r through a memoryview that
        # sees its in-place updates; buf receives q[:, i]*step.  The constants
        # of coordinate i are one tuple per coordinate, so a visit unpacks one
        # object where it would index four lists; 0.0 / q_ii is the same signed
        # zero whether divided once per column or once per visit.
        bufs, buf = self.bufs, self.buf
        b, r = bufs.b, bufs.r
        mul, add = np.multiply, np.add
        cols = list(bufs.qt)
        diagonal, lin = bufs.q.diagonal().tolist(), bufs.lin.tolist()
        coords = [
            (i, q_ii, lin_i, 0.0 / q_ii)
            for i, q_ii, lin_i in zip(range(len(cols)), diagonal, lin)
        ]
        b_f = b.tolist()
        r_f = memoryview(r)
        passes = 0
        for passes in range(1, _MAX_INNER_ITERATIONS + 1):
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
        return biggest <= inner_tol, passes

    def finish(self, j: int, scale: float) -> None:
        bufs, outer, rest = self.bufs, self.outer, self.rest_indices[j]
        W, theta, column, r = bufs.W, bufs.theta, bufs.column, bufs.r
        theta[rest, j] = bufs.b
        theta[j, rest] = bufs.b
        column[rest] = r
        column[j] = 0.0
        np.multiply.outer(column, column, out=outer)
        outer /= scale
        W += outer
        W[j, j] = scale
        W[rest, j] = -r
        W[j, rest] = -r


class _CompiledColumnStep:
    """``_NumpyColumnStep`` in C, writing the same bits.

    The C functions take bare pointers, so the layouts are checked and the
    pointers bound here, once per solve; the step holds ``bufs``, which keeps
    the arrays they point into alive.
    """

    def __init__(self, kernels: _kernels.Kernels, bufs: _ColumnBuffers) -> None:
        p = bufs.S.shape[0]
        n = p - 1
        arrays = (
            bufs.S, bufs.W, bufs.theta, bufs.q, bufs.qt, bufs.column, bufs.lin, bufs.b, bufs.r
        )
        shapes = 3 * [(p, p)] + 2 * [(n, n)] + [(p,)] + 3 * [(n,)]
        if not (
            all(a.shape == shape for a, shape in zip(arrays, shapes))
            and _kernels.fits(_kernels.FLOAT64, *arrays)
        ):
            raise GlassoError("the column step needs C-contiguous float64 arrays of matching sizes")
        S, W, theta, q, qt, column, lin, b, r = (a.ctypes.data for a in arrays)
        self.kernels, self.bufs, self.p = kernels, bufs, p
        self.biggest = ctypes.c_double()
        self.start_pointers = (W, S, theta, column, q, qt, lin, b)
        self.solve_args = (n, qt, lin, b, r)
        self.finish_pointers = (W, theta, b, r)
        self.biggest_pointer = ctypes.byref(self.biggest)

    def start(self, j: int, scale: float) -> None:
        self.kernels.column_start(self.p, j, scale, *self.start_pointers)

    def solve(self, delta: float, inner_tol: float) -> tuple[bool, int]:
        passes = self.kernels.lasso_passes(
            *self.solve_args, delta, inner_tol, _MAX_INNER_ITERATIONS, self.biggest_pointer
        )
        return self.biggest.value <= inner_tol, passes

    def finish(self, j: int, scale: float) -> None:
        self.kernels.column_finish(self.p, j, scale, *self.finish_pointers)


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
    # S may arrive F-ordered; the compiled step reads it by rows.
    bufs = _ColumnBuffers.empty(np.ascontiguousarray(S), W, theta)
    kernels = _kernels.compiled()
    step = _NumpyColumnStep(bufs) if kernels is None else _CompiledColumnStep(kernels, bufs)
    q, b, r = bufs.q, bufs.b, bufs.r
    converged = False
    sweeps_run = 0
    passes_run = 0
    for _ in range(cfg.max_sweeps):
        w_before = W.copy()
        columns_met = True
        for j in range(p):
            scale = S[j, j] + delta
            step.start(j, scale)
            np.matmul(q, b, out=r)
            met, passes = step.solve(delta, inner_tol)
            columns_met &= met
            passes_run += passes
            step.finish(j, scale)
            theta[j, j] = (1.0 + float(b @ r)) / scale
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
        passes=passes_run,
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
