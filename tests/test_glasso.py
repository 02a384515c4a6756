"""Penalized precision estimation: closed forms, optimality, and targets."""
from __future__ import annotations

import dataclasses
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedzsl import _kernels, glasso
from fedzsl.dataset import AttributeMatrix
from fedzsl.glasso import (
    SYMMETRY_TOL,
    DistillTargets,
    GlassoConfig,
    GlassoError,
    SimilarityMatrix,
    distill_targets,
    glasso_objective,
    graphical_lasso,
    sample_covariance,
)
from conftest import needs_a_compiler

TIGHT = GlassoConfig(delta=0.1, tol=1e-9, max_sweeps=500)


def correlated_2x2(rho: float) -> np.ndarray:
    return np.array([[1.0, rho], [rho, 1.0]])


# Oracle: the solver as it was before its loops ran over Python floats and
# slice copies, kept verbatim.  The current solver must match it bit for
# bit, because metrics.csv digests depend on theta.


def soft_threshold_loop(x: float, threshold: float) -> float:
    if x > threshold:
        return x - threshold
    if x < -threshold:
        return x + threshold
    return 0.0


def solve_column_lasso_loop(
    q: np.ndarray, lin: np.ndarray, b: np.ndarray, delta: float, inner_tol: float
) -> np.ndarray:
    # Coordinate descent for 0.5*b@q@b + lin@b + delta*||b||_1, warm-started
    # at the current precision column; r tracks q @ b throughout.
    r = q @ b
    for _ in range(glasso._MAX_INNER_ITERATIONS):
        biggest = 0.0
        for i in range(b.size):
            old = b[i]
            partial = lin[i] + r[i] - q[i, i] * old
            new = soft_threshold_loop(-partial, delta) / q[i, i]
            if new != old:
                step = new - old
                b[i] = new
                r += q[:, i] * step
                biggest = max(biggest, abs(step))
        if biggest <= inner_tol:
            break
    return r


def graphical_lasso_loop(S: np.ndarray, cfg: GlassoConfig | None = None) -> SimilarityMatrix:
    if cfg is None:
        cfg = GlassoConfig()
    S = np.asarray(S, dtype=np.float64)
    if S.ndim != 2 or S.shape[0] != S.shape[1]:
        raise GlassoError(f"S must be square, got shape {S.shape}")
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
    converged = False
    sweeps_run = 0
    for _ in range(cfg.max_sweeps):
        w_before = W.copy()
        for j in range(p):
            rest = rest_indices[j]
            w12 = W[rest, j]
            w22 = W[j, j]
            theta11_inv = W[np.ix_(rest, rest)] - np.outer(w12, w12) / w22
            scale = S[j, j] + delta
            q = scale * theta11_inv
            b = theta[rest, j].copy()
            r = solve_column_lasso_loop(q, S[rest, j], b, delta, inner_tol)
            theta[rest, j] = b
            theta[j, rest] = b
            theta[j, j] = (1.0 + float(b @ r)) / scale
            W[j, j] = scale
            W[rest, j] = -r
            W[j, rest] = -r
            W[np.ix_(rest, rest)] = theta11_inv + np.outer(r, r) / scale
        sweeps_run += 1
        objective.append(glasso_objective(S, theta, delta))
        if float(np.max(np.abs(W - w_before))) < cfg.tol:
            converged = True
            break
    # Refresh the covariance from the final precision so the pair inverts
    # to machine precision.
    try:
        np.linalg.cholesky(theta)
    except np.linalg.LinAlgError:
        raise GlassoError("estimated precision lost positive definiteness") from None
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


def assert_same_solve(got: SimilarityMatrix, want: SimilarityMatrix) -> None:
    # tobytes() so that a flipped signed zero counts as a difference.
    assert got.gamma.tobytes() == want.gamma.tobytes()
    assert got.theta.tobytes() == want.theta.tobytes()
    assert got.objective == want.objective
    assert got.sweeps == want.sweeps
    assert got.converged == want.converged


def random_covariance(seed: int, d_a: int, classes: int) -> np.ndarray:
    values = np.random.default_rng(seed).standard_normal((d_a, classes))
    return sample_covariance(values, standardize=True)


def nearly_symmetric_covariance() -> np.ndarray:
    # Symmetric within SYMMETRY_TOL but not bitwise, so q is not either.
    S = random_covariance(11, 15, 6)
    S[0, 3] += 0.5 * SYMMETRY_TOL
    S[4, 1] -= 0.25 * SYMMETRY_TOL
    return S


class TestSampleCovariance:
    def test_identity_columns_unstandardized(self):
        # Two classes observed over two attribute dimensions.
        values = np.array([[1.0, 0.0], [0.0, 1.0]])
        S = sample_covariance(values, standardize=False)
        assert np.allclose(S, [[0.5, -0.5], [-0.5, 0.5]], atol=1e-15)

    def test_standardized_diagonal_is_one(self):
        rng = np.random.default_rng(0)
        values = rng.standard_normal((12, 6))
        S = sample_covariance(values, standardize=True)
        assert np.allclose(np.diag(S), 1.0, atol=1e-12)
        assert np.allclose(S, S.T, atol=1e-15)

    def test_standardized_equals_correlation(self):
        rng = np.random.default_rng(1)
        values = rng.standard_normal((20, 4))
        S = sample_covariance(values, standardize=True)
        expected = np.corrcoef(values, rowvar=False)
        assert np.allclose(S, expected, atol=1e-12)

    def test_constant_column_yields_zero_row(self):
        values = np.column_stack([np.ones(5), np.arange(5.0)])
        S = sample_covariance(values, standardize=True)
        assert np.allclose(S[0], 0.0, atol=1e-15)
        assert S[1, 1] == pytest.approx(1.0)

    def test_accepts_attribute_matrix(self):
        attrs = AttributeMatrix(values=np.eye(3), groups=((0, 3),))
        S = sample_covariance(attrs, standardize=False)
        assert S.shape == (3, 3)

    def test_needs_two_observations(self):
        with pytest.raises(GlassoError):
            sample_covariance(np.ones((1, 4)))


class TestGraphicalLassoClosedForm:
    def test_strong_edge_survives(self):
        # With every entry penalized, the optimum has gamma_ii = S_ii + delta
        # and the off-diagonal shrunk toward S by exactly delta.
        sim = graphical_lasso(correlated_2x2(0.8), TIGHT)
        expected_gamma = np.array([[1.1, 0.7], [0.7, 1.1]])
        expected_theta = np.array([[1.1, -0.7], [-0.7, 1.1]]) / 0.72
        assert np.allclose(sim.gamma, expected_gamma, atol=1e-6)
        assert np.allclose(sim.theta, expected_theta, atol=1e-6)
        assert sim.converged

    def test_weak_edge_is_pruned(self):
        sim = graphical_lasso(correlated_2x2(0.05), TIGHT)
        assert sim.theta[0, 1] == pytest.approx(0.0, abs=1e-9)
        assert np.allclose(sim.gamma, np.diag([1.1, 1.1]), atol=1e-6)

    def test_diagonal_input_stays_diagonal(self):
        sim = graphical_lasso(np.diag([2.0, 3.0]), TIGHT)
        assert np.allclose(sim.gamma, np.diag([2.1, 3.1]), atol=1e-6)
        assert np.allclose(sim.theta, np.diag([1 / 2.1, 1 / 3.1]), atol=1e-6)

    def test_single_class_shortcut(self):
        sim = graphical_lasso(np.array([[4.0]]), GlassoConfig(delta=0.5))
        assert sim.gamma[0, 0] == pytest.approx(4.5)
        assert sim.theta[0, 0] == pytest.approx(1 / 4.5)


class TestGraphicalLassoOptimality:
    def test_matches_scipy_direct_minimization(self):
        # Independent oracle: minimize the same objective over the three free
        # entries of a symmetric 2x2 precision matrix.
        optimize = pytest.importorskip("scipy.optimize")
        S = correlated_2x2(0.8)
        delta = 0.1

        def objective(x: np.ndarray) -> float:
            theta = np.array([[x[0], x[1]], [x[1], x[2]]])
            if x[0] <= 0.0 or x[0] * x[2] - x[1] * x[1] <= 0.0:
                return 1e9
            return glasso_objective(S, theta, delta)

        result = optimize.minimize(
            objective,
            x0=np.array([1.0, 0.0, 1.0]),
            method="Nelder-Mead",
            options={"xatol": 1e-12, "fatol": 1e-14, "maxiter": 50_000, "maxfev": 50_000},
        )
        sim = graphical_lasso(S, TIGHT)
        oracle_theta = np.array(
            [[result.x[0], result.x[1]], [result.x[1], result.x[2]]]
        )
        assert np.allclose(sim.theta, oracle_theta, atol=1e-5)
        assert glasso_objective(S, sim.theta, delta) <= result.fun + 1e-9

    def test_kkt_conditions_on_random_instance(self):
        rng = np.random.default_rng(7)
        raw = rng.standard_normal((30, 5))
        S = sample_covariance(raw, standardize=True)
        delta = 0.12
        sim = graphical_lasso(S, GlassoConfig(delta=delta, tol=1e-9, max_sweeps=500))
        assert sim.converged
        # Stationarity: gamma_ii = S_ii + delta, |S_ij - gamma_ij| <= delta,
        # with equality wherever theta_ij != 0.
        assert np.allclose(np.diag(sim.gamma), np.diag(S) + delta, atol=1e-7)
        off = ~np.eye(5, dtype=bool)
        residual = np.abs(S - sim.gamma)[off]
        assert np.all(residual <= delta + 1e-7)
        active = np.abs(sim.theta[off]) > 1e-7
        assert np.all(np.abs(residual[active] - delta) <= 1e-6)

    def test_objective_is_monotone_nonincreasing(self):
        rng = np.random.default_rng(3)
        raw = rng.standard_normal((16, 8))
        S = sample_covariance(raw, standardize=True)
        sim = graphical_lasso(S, GlassoConfig(delta=0.05, tol=1e-8, max_sweeps=300))
        values = np.array(sim.objective)
        assert values.size == sim.sweeps + 1
        assert np.all(np.diff(values) <= 1e-10)

    def test_gamma_theta_inverse_pair(self):
        rng = np.random.default_rng(5)
        S = sample_covariance(rng.standard_normal((10, 6)), standardize=True)
        sim = graphical_lasso(S, GlassoConfig(delta=0.05))
        identity = sim.gamma @ sim.theta
        assert np.max(np.abs(identity - np.eye(6))) <= 1e-6

    def test_sweep_cap_flags_non_convergence(self):
        cfg = GlassoConfig(delta=0.1, tol=1e-12, max_sweeps=1)
        sim = graphical_lasso(correlated_2x2(0.8), cfg)
        assert not sim.converged
        assert sim.sweeps == 1


# (S, cfg): the smallest sizes, a diagonal S, a delta that prunes every
# edge, a capped non-converging run, an AwA-shaped 50-class table and an S
# that is symmetric only within SYMMETRY_TOL.
ORACLE_CASES = {
    "p2": (correlated_2x2(0.8), TIGHT),
    "p3": (np.array([[1.0, 0.6, -0.3], [0.6, 1.0, 0.2], [-0.3, 0.2, 1.0]]), TIGHT),
    "diagonal": (np.diag([2.0, 3.0, 0.5, 1.0]), TIGHT),
    "all_edges_pruned": (random_covariance(3, 10, 7), GlassoConfig(delta=2.0)),
    "one_sweep": (random_covariance(4, 12, 6), GlassoConfig(delta=0.05, tol=1e-12, max_sweeps=1)),
    "awa_shaped": (random_covariance(5, 85, 50), GlassoConfig()),
    "nearly_symmetric": (nearly_symmetric_covariance(), GlassoConfig(delta=0.05, tol=1e-8)),
    "fortran_order": (
        np.asfortranarray(nearly_symmetric_covariance()), GlassoConfig(delta=0.05, tol=1e-8)
    ),
}


class TestSolverMatchesTheLoop:
    @pytest.mark.parametrize("case", sorted(ORACLE_CASES))
    def test_bit_identical_to_the_oracle(self, case):
        S, cfg = ORACLE_CASES[case]
        assert_same_solve(graphical_lasso(S, cfg), graphical_lasso_loop(S, cfg))

    def test_cases_cover_what_they_name(self):
        pruned = graphical_lasso(*ORACLE_CASES["all_edges_pruned"])
        assert np.count_nonzero(pruned.theta - np.diag(np.diag(pruned.theta))) == 0
        assert not graphical_lasso(*ORACLE_CASES["one_sweep"]).converged
        S = ORACLE_CASES["nearly_symmetric"][0]
        assert not np.array_equal(S, S.T)
        assert np.max(np.abs(S - S.T)) <= SYMMETRY_TOL
        F = ORACLE_CASES["fortran_order"][0]
        assert F.flags.f_contiguous and not F.flags.c_contiguous
        assert F.tobytes(order="C") == S.tobytes()

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(
        seed=st.integers(0, 2**32 - 1),
        classes=st.integers(2, 12),
        d_a=st.integers(2, 24),
        delta=st.floats(0.01, 0.5),
    )
    def test_random_tables_match_the_oracle(self, seed, classes, d_a, delta):
        S = random_covariance(seed, d_a, classes)
        cfg = GlassoConfig(delta=delta)
        sim = graphical_lasso(S, cfg)
        assert_same_solve(sim, graphical_lasso_loop(S, cfg))
        # Monotone up to the rounding of the objective's own evaluation,
        # which can add a few ulps once the sweeps have converged.
        assert np.all(np.diff(sim.objective) <= 1e-12)

    def test_a_column_solve_cut_off_at_its_cap_is_not_converged(self, monkeypatch):
        S = random_covariance(0, 20, 8)
        cfg = GlassoConfig(delta=0.1)
        assert graphical_lasso(S, cfg).converged
        monkeypatch.setattr(glasso, "_MAX_INNER_ITERATIONS", 1)
        cut = graphical_lasso(S, cfg)
        # The sweeps stopped on the covariance rule, so only the column
        # solves that ran out of passes can make this non-converged.
        assert cut.sweeps < cfg.max_sweeps
        assert not cut.converged


# Guard doubles on each side of an array in the column step's guarded buffers.
GUARD = 16


@pytest.fixture
def first_build(monkeypatch, tmp_path, tmp_path_factory):
    # The sweep as a new process finds it, not yet built and with no cache it
    # can use (a file stands where the cache directory would be), so it
    # builds with temporary directories made under tmp_path; rebuilt as
    # usual after the test.
    _kernels.compiled.cache_clear()
    blocked = tmp_path_factory.mktemp("no-cache") / "file"
    blocked.write_text("")
    monkeypatch.setenv("XDG_CACHE_HOME", str(blocked))
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
    yield tmp_path
    _kernels.compiled.cache_clear()


class TestCompiledSweep:
    @needs_a_compiler
    def test_a_compiler_builds_it_and_leaves_no_directory(self, first_build, capfd):
        assert glasso.column_sweep() == "compiled"
        assert list(first_build.iterdir()) == []
        assert capfd.readouterr() == ("", "")

    @needs_a_compiler
    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(
        seed=st.integers(0, 2**32 - 1),
        classes=st.integers(2, 48),
        d_a=st.integers(2, 40),
        standardize=st.booleans(),
        delta=st.floats(0.005, 0.5),
        tol=st.sampled_from([1e-3, 1e-5, 1e-8]),
        max_sweeps=st.integers(1, 40),
        passes=st.sampled_from([1, 2, 5, glasso._MAX_INNER_ITERATIONS]),
    )
    def test_writes_the_python_loops_bytes(
        self, seed, classes, d_a, standardize, delta, tol, max_sweeps, passes
    ):
        # passes below the default cut column solves off at their cap.
        values = np.random.default_rng(seed).standard_normal((d_a, classes))
        S = sample_covariance(values, standardize=standardize)
        cfg = GlassoConfig(delta=delta, tol=tol, max_sweeps=max_sweeps)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(glasso, "_MAX_INNER_ITERATIONS", passes)
            assert glasso.column_sweep() == "compiled"
            compiled = graphical_lasso(S, cfg)
            mp.setattr(_kernels, "compiled", lambda: None)
            assert glasso.column_sweep() == "python"
            assert_same_solve(compiled, graphical_lasso(S, cfg))

    @needs_a_compiler
    @pytest.mark.parametrize("p", range(2, 10))
    def test_the_column_step_stays_in_its_arrays(self, p):
        # Each array of the compiled step is a C-contiguous view into a 1-D
        # buffer with guards on both sides.  NaN guards bring a NaN into the
        # results on a read past an end; finite ones change their bytes on a
        # write past one, even one that adds to the guard, which leaves a NaN
        # as it was.
        S = nearly_symmetric_covariance() if p == 6 else random_covariance(p, 2 * p + 1, p)
        W = S + 0.1 * np.eye(p)
        theta = np.linalg.inv(W)
        theta = 0.5 * (theta + theta.T)
        off_j = ~np.eye(p, dtype=bool)
        for fill in (np.nan, 0.1):
            want = glasso._ColumnBuffers.empty(S.copy(), W.copy(), theta.copy())
            guards, views = [], []
            for a in dataclasses.astuple(glasso._ColumnBuffers.empty(S, W, theta)):
                buffer = np.full(a.size + 2 * GUARD, fill)
                view = buffer[GUARD : GUARD + a.size].reshape(a.shape)
                view[...] = a
                guards.append(buffer)
                views.append(view)
            got = glasso._ColumnBuffers(*views)
            guard_bytes = np.full(GUARD, fill).tobytes()
            step = glasso._CompiledColumnStep(_kernels.compiled(), got)
            want_step = glasso._NumpyColumnStep(want)
            for j in range(p):
                scale = S[j, j] + 0.1
                step.start(j, scale)
                want_step.start(j, scale)
                for name in ("q", "qt", "column", "lin", "b"):
                    assert getattr(got, name).tobytes() == getattr(want, name).tobytes(), (j, name)
                # The compiled start leaves row and column j of W for finish.
                off = off_j.copy()
                off[j, :] = off[:, j] = False
                assert got.W[off].tobytes() == want.W[off].tobytes(), j
                np.matmul(got.q, got.b, out=got.r)
                np.matmul(want.q, want.b, out=want.r)
                assert step.solve(0.1, 1e-8) == want_step.solve(0.1, 1e-8), j
                for name in ("b", "r"):
                    assert getattr(got, name).tobytes() == getattr(want, name).tobytes(), (j, name)
                step.finish(j, scale)
                want_step.finish(j, scale)
                assert got.W.tobytes() == want.W.tobytes(), j
                assert got.theta[off_j].tobytes() == want.theta[off_j].tobytes(), j
                for buffer in guards:
                    assert buffer[:GUARD].tobytes() == guard_bytes, (fill, j)
                    assert buffer[-GUARD:].tobytes() == guard_bytes, (fill, j)

    @needs_a_compiler
    @pytest.mark.parametrize("layout", ["strided-b", "float32-lin", "short-lin"])
    def test_pointers_go_only_to_contiguous_float64_arrays(self, layout):
        # The arrays the compiled passes read and write: a refused layout
        # leaves every array's bytes as they were.
        S = random_covariance(1, 9, 4)
        bufs = glasso._ColumnBuffers.empty(S, S + np.eye(4), np.eye(4))
        bufs.q[...] = bufs.qt[...] = 2.0 * np.eye(3)
        bufs.lin[...], bufs.b[...], bufs.r[...] = 1.0, 0.0, 0.0
        if layout == "strided-b":
            bufs.b = np.zeros(6)[::2]
        elif layout == "float32-lin":
            bufs.lin = bufs.lin.astype(np.float32)
        else:
            bufs.lin = bufs.lin[:2]
        before = [a.tobytes() for a in dataclasses.astuple(bufs)]
        with pytest.raises(GlassoError, match="C-contiguous float64 arrays of matching sizes"):
            glasso._CompiledColumnStep(_kernels.compiled(), bufs)
        assert [a.tobytes() for a in dataclasses.astuple(bufs)] == before

    @needs_a_compiler
    @pytest.mark.parametrize(
        "layout", ["fortran-W", "strided-b", "float32-theta", "short-r", "short-column"]
    )
    def test_the_column_step_takes_only_contiguous_float64_arrays(self, layout):
        S = random_covariance(1, 9, 4)
        bufs = glasso._ColumnBuffers.empty(S, S + np.eye(4), np.eye(4))
        if layout == "fortran-W":
            bufs.W = np.asfortranarray(bufs.W)
        elif layout == "strided-b":
            bufs.b = np.zeros(6)[::2]
        elif layout == "float32-theta":
            bufs.theta = bufs.theta.astype(np.float32)
        elif layout == "short-r":
            bufs.r = bufs.r[:2]
        else:
            bufs.column = bufs.column[:3]
        with pytest.raises(GlassoError, match="C-contiguous float64 arrays of matching sizes"):
            glasso._CompiledColumnStep(_kernels.compiled(), bufs)

    @needs_a_compiler
    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(
        seed=st.integers(0, 2**32 - 1),
        classes=st.integers(2, 24),
        d_a=st.integers(2, 30),
        delta=st.floats(0.005, 0.5),
        passes=st.sampled_from([1, 3, glasso._MAX_INNER_ITERATIONS]),
    )
    def test_both_sweeps_count_the_same_passes(self, seed, classes, d_a, delta, passes):
        S = random_covariance(seed, d_a, classes)
        cfg = GlassoConfig(delta=delta, max_sweeps=20)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(glasso, "_MAX_INNER_ITERATIONS", passes)
            compiled = graphical_lasso(S, cfg)
            mp.setattr(_kernels, "compiled", lambda: None)
            python = graphical_lasso(S, cfg)
        assert compiled.passes == python.passes
        # Every column of every sweep runs at least one pass and at most the cap.
        columns = compiled.sweeps * classes
        assert columns <= compiled.passes <= columns * passes

    def test_a_solve_chooses_its_column_step_once(self, monkeypatch):
        calls = []
        sweep = _kernels.compiled

        def counted():
            calls.append(None)
            return sweep()

        monkeypatch.setattr(_kernels, "compiled", counted)
        # Six columns per sweep, each with its own start, solve and finish.
        assert graphical_lasso(random_covariance(2, 12, 6)).passes > 6
        assert len(calls) == 1

    def test_a_single_class_runs_no_passes(self):
        assert graphical_lasso(np.array([[2.0]])).passes == 0

    @pytest.mark.parametrize(
        "compiler",
        [
            None,
            [sys.executable, "-c", "import sys; sys.exit('cc: error: no input')"],
            [str(Path(sys.executable).with_name("no-such-cc"))],
            [sys.executable, "-c", "pass"],
        ],
        ids=["no-compiler", "compile-error", "missing-executable", "no-library-to-load"],
    )
    def test_a_failed_build_runs_the_python_loop_quietly(
        self, compiler, first_build, monkeypatch, capfd
    ):
        S = random_covariance(7, 30, 20)
        want = graphical_lasso(S)  # compiled, where a compiler is on PATH
        _kernels.compiled.cache_clear()
        monkeypatch.setattr(_kernels, "_compiler", lambda: compiler)
        got = graphical_lasso(S)
        assert glasso.column_sweep() == "python"
        assert_same_solve(got, want)
        assert list(first_build.iterdir()) == []
        assert capfd.readouterr() == ("", "")


class TestGraphicalLassoValidation:
    def test_rejects_empty(self):
        with pytest.raises(GlassoError, match="S is empty"):
            graphical_lasso(np.zeros((0, 0)))

    def test_rejects_non_symmetric(self):
        with pytest.raises(GlassoError):
            graphical_lasso(np.array([[1.0, 0.2], [0.3, 1.0]]))

    def test_rejects_indefinite_start(self):
        S = np.array([[1.0, -2.0], [-2.0, 1.0]])
        with pytest.raises(GlassoError):
            graphical_lasso(S, GlassoConfig(delta=0.1))

    def test_rejects_negative_diagonal(self):
        with pytest.raises(GlassoError):
            graphical_lasso(np.array([[-1.0, 0.0], [0.0, 1.0]]))

    def test_rejects_bad_config(self):
        with pytest.raises(GlassoError):
            GlassoConfig(delta=0.0)
        with pytest.raises(GlassoError):
            GlassoConfig(tol=-1.0)
        with pytest.raises(GlassoError):
            GlassoConfig(max_sweeps=0)

    @pytest.mark.parametrize(
        "step",
        [
            pytest.param(glasso._CompiledColumnStep, id="compiled", marks=needs_a_compiler),
            pytest.param(glasso._NumpyColumnStep, id="python"),
        ],
    )
    def test_refuses_a_sweep_that_leaves_theta_indefinite(self, step, monkeypatch):
        # A column solve that returns off-diagonal entries of 10 against a
        # diagonal of 1/scale leaves theta indefinite after the first sweep.
        def indefinite_column(self, delta, inner_tol):
            self.bufs.b[:] = 10.0
            self.bufs.r[:] = 0.0
            return True, 1

        if step is glasso._NumpyColumnStep:
            monkeypatch.setattr(_kernels, "compiled", lambda: None)
        monkeypatch.setattr(step, "solve", indefinite_column)
        S = ORACLE_CASES["p3"][0]
        with pytest.raises(GlassoError, match="^estimated precision lost positive definiteness$"):
            graphical_lasso(S)

    @pytest.mark.parametrize("value", [2.9, 0.5, float("nan"), float("inf")])
    def test_a_non_integral_sweep_cap_is_refused(self, value):
        with pytest.raises(GlassoError, match=rf"^max_sweeps must be an integer, got {value}$"):
            GlassoConfig(max_sweeps=value)

    def test_a_whole_sweep_cap_loads_as_an_int(self):
        cfg = GlassoConfig(max_sweeps=2.0)
        assert type(cfg.max_sweeps) is int and cfg.max_sweeps == 2

    def test_similarity_matrix_must_invert(self):
        with pytest.raises(GlassoError, match="^gamma and theta are not inverses: "):
            SimilarityMatrix(
                gamma=np.eye(2) * 2.0, theta=np.eye(2) * 2.0, sample_cov=np.eye(2)
            )

    def test_similarity_matrix_needs_pd_theta(self):
        with pytest.raises(GlassoError, match="^theta is not positive definite$"):
            SimilarityMatrix(
                gamma=-np.eye(2), theta=-np.eye(2), sample_cov=np.eye(2)
            )

    @pytest.mark.parametrize("name", ["theta", "sample_cov"])
    def test_similarity_matrix_needs_one_shape(self, name):
        parts = {"gamma": np.eye(2), "theta": np.eye(2), "sample_cov": np.eye(2), name: np.eye(3)}
        with pytest.raises(GlassoError, match=rf"^{name} must be 2x2, got \(3, 3\)$"):
            SimilarityMatrix(**parts)

    @pytest.mark.parametrize("name", ["gamma", "theta"])
    def test_similarity_matrix_needs_symmetric_matrices(self, name):
        lopsided = np.array([[2.0, 0.5], [0.0, 2.0]])
        parts = {"gamma": np.eye(2), "theta": np.eye(2), "sample_cov": np.eye(2), name: lopsided}
        with pytest.raises(GlassoError, match=rf"^{name} is not symmetric within {SYMMETRY_TOL}$"):
            SimilarityMatrix(**parts)


class TestDistillTargets:
    def test_rows_sum_to_one(self):
        rng = np.random.default_rng(0)
        gamma = rng.standard_normal((7, 7))
        targets = distill_targets(gamma, tau=4.0)
        assert np.allclose(targets.probs.sum(axis=1), 1.0, atol=1e-12)
        assert np.all(targets.probs >= 0.0)

    def test_peak_follows_the_similarity_row(self):
        gamma = np.array([[3.0, 0.0, 1.0], [0.0, 2.0, 0.5], [1.0, 0.5, 4.0]])
        targets = distill_targets(gamma, tau=1.0)
        assert np.array_equal(np.argmax(targets.probs, axis=1), np.array([0, 1, 2]))

    def test_larger_tau_flattens(self):
        gamma = np.array([[3.0, 0.0], [0.0, 3.0]])
        sharp = distill_targets(gamma, tau=0.5).probs
        flat = distill_targets(gamma, tau=50.0).probs
        assert sharp.max() > flat.max()
        assert abs(flat[0, 0] - 0.5) < 0.02

    def test_stable_under_large_entries(self):
        gamma = np.array([[1000.0, 0.0], [0.0, 1000.0]])
        targets = distill_targets(gamma, tau=1.0)
        assert np.all(np.isfinite(targets.probs))

    def test_rejects_bad_tau(self):
        with pytest.raises(GlassoError):
            distill_targets(np.eye(2), tau=0.0)

    def test_rejects_non_finite_gamma(self):
        with pytest.raises(GlassoError, match="non-finite"):
            distill_targets(np.array([[np.inf, 0.0], [0.0, 1.0]]), tau=1.0)

    def test_target_rows_validated(self):
        with pytest.raises(GlassoError):
            DistillTargets(probs=np.array([[0.7, 0.2]]), tau=1.0)
        with pytest.raises(GlassoError):
            DistillTargets(probs=np.array([[1.2, -0.2]]), tau=1.0)

    def test_rejects_non_finite_probs(self):
        for bad in (np.nan, np.inf):
            with pytest.raises(GlassoError, match="non-finite"):
                DistillTargets(probs=np.array([[bad, 0.0], [0.5, 0.5]]), tau=1.0)
