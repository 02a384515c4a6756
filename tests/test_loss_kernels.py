"""The compiled loss kernels and the kernel cache.

Each loss core (``_sce_core``, ``_kl_core``, ``_ad_core``, BC's
``_bc_compiled`` against ``_bc_numpy`` and the forward-only ``_SquareSum``)
and a step's finiteness scan runs compiled when handed the kernels
(``_loss_kernels``: the library is built and its reductions match numpy's),
and its numpy body otherwise.  The numpy body is the oracle: every
comparison is on ``tobytes()`` or ``float.hex``.
"""
from __future__ import annotations

import copy
import os
import subprocess
import sys
import textwrap
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedzsl import _kernels, cli, losses
from fedzsl.dataset import AttributeMatrix
from fedzsl.glasso import DistillTargets
from fedzsl.losses import (
    ZERO_NORM_EPS,
    AblationFlags,
    DistillConfig,
    LossWeights,
    joint_loss,
)
from fedzsl.model import ATTRIBUTE_BASED, ATTRIBUTE_FREE, ModelParams, forward_decode, init_params
from conftest import needs_a_compiler
from test_model import cpu_has_fma

# A row length from each branch of numpy's pairwise sum: fewer than 8
# values, 8 to 128 in eight accumulators, and longer runs that it splits.
LENGTHS = st.one_of(st.integers(1, 7), st.integers(8, 128), st.integers(129, 300))
# A small batch's rows, or rows around and past losses._ROW_BLOCK (256).
ROWS = st.one_of(st.integers(1, 24), st.integers(250, 600))
SEEDS = st.integers(0, 2**32 - 1)
SRC = str(Path(__file__).resolve().parent.parent / "src")


def values(rng, shape, zeros=True):
    """Normal values over several binades, with signed zeros sprinkled in."""
    x = rng.standard_normal(shape) * 10.0 ** rng.uniform(-3.0, 3.0, shape)
    if zeros:
        x[rng.random(shape) < 0.05] = 0.0
        x[rng.random(shape) < 0.05] = -0.0
    return x


def both_paths(core, compiled_name, *args):
    """``core(kernels, *args)`` compiled, then on copies of the inputs in numpy.

    Returns both results, each with the inputs as the call left them,
    after checking that the first call did run ``compiled_name``.
    """
    ran = []
    twin = copy.deepcopy(args)
    with pytest.MonkeyPatch.context() as mp:
        body = getattr(losses, compiled_name)
        mp.setattr(losses, compiled_name, lambda *a: ran.append(1) or body(*a))
        got = core(losses._loss_kernels(), *args)
        assert ran, f"{compiled_name} did not run"
        want = core(None, *twin)
    return (got, args), (want, twin)


def as_bytes(result):
    """Floats by their hex, arrays (and params) by dtype, shape and bytes."""
    if isinstance(result, (tuple, list)):
        return [as_bytes(r) for r in result]
    if isinstance(result, float):
        return result.hex()
    if isinstance(result, np.ndarray):
        return result.dtype.str, result.shape, result.tobytes()
    if isinstance(result, ModelParams):
        return as_bytes(list(result.tensors().values()))
    assert result is None or isinstance(result, (int, bool)), type(result)
    return result


def assert_same(got, want):
    assert as_bytes(got) == as_bytes(want)


def targets_for(rng, classes):
    """Distillation target rows with zero entries, and their cached logs."""
    probs = rng.random((classes, classes)) ** 4
    probs[rng.random((classes, classes)) < 0.3] = 0.0
    probs[np.arange(classes), rng.integers(0, classes, classes)] += 0.5
    probs /= probs.sum(axis=1, keepdims=True)
    return probs, np.log(np.where(probs > 0.0, probs, 1.0))


@needs_a_compiler
class TestLossCores:
    def test_the_reductions_match_numpys_here(self):
        # The probe passes on this numpy, so the tests below compare the
        # compiled cores, not the numpy bodies twice.
        assert _kernels.compiled().pairwise

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(seed=SEEDS, rows=ROWS, classes=LENGTHS, grads=st.booleans())
    def test_sce_core(self, seed, rows, classes, grads):
        rng = np.random.default_rng(seed)
        scores = values(rng, (rows, classes))
        positions = rng.integers(0, classes, rows)
        got, want = both_paths(losses._sce_core, "_sce_compiled", scores, positions, grads)
        assert_same(got, want)

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(
        seed=SEEDS,
        rows=ROWS,
        classes=LENGTHS,
        tau=st.sampled_from([1.0, 4.0, 0.3]),
        grads=st.booleans(),
    )
    def test_kl_core(self, seed, rows, classes, tau, grads):
        # The scores are overwritten with the log-probabilities; they are
        # compared too, and so is the logit gradient.
        rng = np.random.default_rng(seed)
        scores = values(rng, (rows, classes))
        probs, log_probs = targets_for(rng, classes)
        labels = rng.integers(0, classes, rows)
        got, want = both_paths(
            losses._kl_core, "_kl_compiled", scores, probs, log_probs, labels, tau, grads
        )
        assert_same(got, want)

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(
        seed=SEEDS,
        rows=ROWS,
        widths=st.lists(LENGTHS, min_size=1, max_size=4),
        grads=st.booleans(),
    )
    def test_ad_core(self, seed, rows, widths, grads):
        # Some rows of some groups have norms of 0, or below ZERO_NORM_EPS.
        rng = np.random.default_rng(seed)
        bounds = np.cumsum([0, *widths]).tolist()
        groups = tuple(zip(bounds[:-1], bounds[1:]))
        a_hat = values(rng, (rows, bounds[-1]))
        tiny = [0.0, -0.0, ZERO_NORM_EPS / 1000, -ZERO_NORM_EPS / 30]
        for first, end in groups:
            picked = rng.random(rows) < 0.2
            a_hat[picked, first:end] = rng.choice(tiny, end - first)
        got, want = both_paths(losses._ad_core, "_ad_compiled", a_hat, groups, grads)
        assert_same(got, want)

    def test_ad_core_holds_its_bounds_while_the_kernel_reads_them(self):
        # The kernel reads the groups' bounds through a bare address.  A fake
        # kernel allocates an array of their size, which may reuse a freed
        # block, before the real one runs: the caller's own reference must
        # keep the bounds it passed.
        rng = np.random.default_rng(5)
        groups = ((0, 3), (3, 7), (7, 10))
        a_hat = values(rng, (6, 10), zeros=False)
        kernels = _kernels.compiled()
        held = []

        def ad(*args):
            held.append(np.zeros(6, dtype=np.int64))
            return kernels.ad(*args)

        got = losses._ad_core(kernels._replace(ad=ad), a_hat, groups, True)
        want = losses._ad_core(None, a_hat, groups, True)
        assert held
        assert_same(got, want)

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(
        seed=SEEDS,
        rows=ROWS,
        d_v=LENGTHS,
        d_a=st.integers(1, 12),
        dtype=st.sampled_from([np.float32, np.float64]),
        grads=st.booleans(),
    )
    def test_bc_core(self, seed, rows, d_v, d_a, dtype, grads):
        # The decoder's residual against float32 or float64 features: with
        # gradients, _bc_compiled (float32 widened in C) against _bc_numpy,
        # residual and b_h's gradient included; without, the forward-only
        # loss's leaf table against its full-length vector of squares, the
        # blocks fed last first.
        rng = np.random.default_rng(seed)
        params = init_params(d_v, d_a, num_seen=2, mode=ATTRIBUTE_BASED, seed=seed % 1000)
        params.b_h = values(rng, d_v)
        v = values(rng, (rows, d_v)).astype(dtype)
        got_residual = forward_decode(params, values(rng, (rows, d_a)))
        want_residual = got_residual.copy()
        kernels = losses._loss_kernels()
        if grads:
            got_d_b, want_d_b = np.empty(d_v), np.empty(d_v)
            at = _kernels.address
            got = losses._bc_compiled(
                kernels, rows, d_v, at(got_residual), at(v), dtype == np.float32, at(got_d_b)
            )
            want = losses._bc_numpy(want_residual, v.astype(np.float64), want_d_b)
            assert_same((got, got_residual, got_d_b), (want, want_residual, want_d_b))
        else:
            got, want = losses._SquareSum(kernels, rows, d_v), losses._SquareSum(None, rows, d_v)
            for start, stop in reversed(list(losses._forward_blocks(rows))):
                got.add(start, got_residual[start:stop], v[start:stop])
                want.add(start, want_residual[start:stop], v[start:stop])
            assert as_bytes(float(got.total())) == as_bytes(float(want.total()))
            assert_same(got_residual, want_residual)

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(
        seed=SEEDS,
        rows=ROWS,
        classes=st.integers(2, 140),
        d_a=st.integers(1, 140),
        d_v=st.integers(1, 40),
        terms=st.tuples(*[st.booleans()] * 4),
        weights=st.tuples(*[st.sampled_from([0.0, 0.1, 1.0, 10.0, 0.3])] * 3),
        dtype=st.sampled_from([np.float32, np.float64]),
        grads=st.booleans(),
    )
    def test_joint_loss(self, seed, rows, classes, d_a, d_v, terms, weights, dtype, grads):
        # Every combination of terms and weights, so the gradient sum
        # meets each term present or absent.
        rng = np.random.default_rng(seed)
        groups = tuple(sorted({0, *rng.integers(1, d_a + 1, 3).tolist(), d_a}))
        attrs = AttributeMatrix(values=values(rng, (d_a, classes), zeros=False),
                                groups=tuple(zip(groups[:-1], groups[1:])))
        probs, _ = targets_for(rng, classes)
        distill = DistillConfig(tau=4.0, targets=DistillTargets(probs=probs, tau=4.0))
        params = init_params(d_v, d_a, num_seen=2, mode=ATTRIBUTE_BASED, seed=seed % 1000)
        features = values(rng, (rows, d_v)).astype(dtype)
        labels = rng.integers(0, classes, rows)
        flags = AblationFlags(*terms)
        w = LossWeights(*weights)
        reports = []
        for compiled in (True, False):
            with pytest.MonkeyPatch.context() as mp, np.errstate(over="ignore"):
                if not compiled:
                    mp.setattr(_kernels, "compiled", lambda: None)
                try:
                    report = joint_loss(
                        params, features, labels, attrs, distill, w, ablation=flags, grads=grads
                    )
                except losses.NonFiniteLossError as exc:
                    reports.append(str(exc))
                    continue
            reports.append(
                (report.total.hex(), {k: v.hex() for k, v in report.terms.items()},
                 {k: as_bytes(g) for k, g in report.grads.items()})
            )
        assert reports[0] == reports[1]


@needs_a_compiler
@pytest.mark.parametrize(
    "entries",
    [[1.0, -2.0], [np.nan], [np.inf], [-np.inf], [np.inf, -np.inf], [1.7e308, 1.7e308, -0.0]],
    ids=["finite", "nan", "+inf", "-inf", "both-infs", "sum-overflows"],
)
@pytest.mark.parametrize("size", [1, 2, 7, 64])
def test_the_finiteness_scan_agrees_on_both_paths(entries, size):
    # A step's scan of its gradients: fedzsl_all_finite in the compiled
    # workspace, _finite_numpy in the numpy one, over W_c's entries.
    d_v = max(size, len(entries))
    params = init_params(d_v, 1, num_seen=1, mode=ATTRIBUTE_FREE, seed=0)
    scans = []
    for compiled in (True, False):
        with pytest.MonkeyPatch.context() as mp:
            if not compiled:
                mp.setattr(_kernels, "compiled", lambda: None)
            work = losses.StepWorkspace(params, np.zeros((1, d_v)), np.zeros(1), seen=[0])
        assert (work._kernels is not None) == compiled
        grad = work.grads["W_c"].reshape(-1)
        grad[:] = 0.0
        grad[-len(entries):] = entries
        scans.append(dict(work._finite_grads())["W_c"])
    assert scans[0] == scans[1] == bool(np.isfinite(entries).all())


@needs_a_compiler
@pytest.mark.parametrize("grads", [True, False], ids=["grads", "forward-only"])
def test_fortran_ordered_targets_run_the_compiled_bodies_with_the_same_bytes(grads, monkeypatch):
    # DistillTargets keeps its table C-contiguous, so a table given in
    # Fortran order still runs the compiled bodies, and writes the bytes of
    # the same table given in C order.
    rng = np.random.default_rng(5)
    rows, classes, d_a, d_v = 600, 40, 30, 16
    probs, _ = targets_for(rng, classes)
    attrs = AttributeMatrix(
        values=values(rng, (d_a, classes), zeros=False), groups=((0, 10), (10, d_a))
    )
    params = init_params(d_v, d_a, num_seen=2, mode=ATTRIBUTE_BASED, seed=5)
    features = rng.standard_normal((rows, d_v))
    labels = rng.integers(0, classes, rows)

    def report(table):
        distill = DistillConfig(tau=4.0, targets=DistillTargets(probs=table, tau=4.0))
        got = joint_loss(params, features, labels, attrs, distill, LossWeights(), grads=grads)
        return (got.total.hex(), {k: v.hex() for k, v in got.terms.items()},
                {k: as_bytes(g) for k, g in got.grads.items()})

    want = report(np.ascontiguousarray(probs))

    def refused(*args):
        raise AssertionError("a numpy loss body ran")

    for name in ("_sce_numpy", "_kl_numpy", "_ad_numpy", "_bc_numpy"):
        monkeypatch.setattr(losses, name, refused)
    assert report(np.asfortranarray(probs)) == want


def fake_old_numpy_sum(x, axis):
    """numpy's reduction seeded with the first element instead of 0.0."""
    x = np.asarray(x)
    if axis is None:
        x, axis = x.reshape(-1), 0
    first = np.take(x, 0, axis=axis)
    if x.shape[axis] == 1:
        return first
    return first + np.add.reduce(np.take(x, np.arange(1, x.shape[axis]), axis=axis), axis=axis)


# Shapes that reach every branch of the pairwise sum (d_a 150, 40 classes,
# d_v 64) and three blocks of the forward-only global loss (960 training rows).
WIDE_SYNTH = [
    "--num-seen", "30", "--num-unseen", "10", "--d-a", "150", "--d-v", "64",
    "--samples-per-class", "40",
]
RUN = ["--rounds", "2", "--clients", "2", "--seed", "1"]


@pytest.fixture(scope="module")
def wide_data(tmp_path_factory):
    root = tmp_path_factory.mktemp("wide") / "data"
    assert cli.main(["synth", "--out", str(root), "--seed", "0", *WIDE_SYNTH]) == 0
    return root


@pytest.fixture
def fresh_kernels():
    # compiled() as a new process calls it; rebuilt as usual afterwards.
    _kernels.compiled.cache_clear()
    yield
    _kernels.compiled.cache_clear()


def run_bytes(data, out, extra=()):
    assert cli.main(["run", "--data", str(data), "--out", str(out), *RUN, *extra]) == 0
    return {name: (out / name).read_bytes() for name in ("metrics.csv", "final_model.csv")}


@needs_a_compiler
class TestReductionProbe:
    def test_a_sum_seeded_with_its_first_element_fails_the_probe(self, fresh_kernels, monkeypatch):
        # The glasso and the SGD step stay compiled; only the losses leave.
        monkeypatch.setattr(_kernels, "_reference_sum", fake_old_numpy_sum)
        kernels = _kernels.compiled()
        assert kernels is not None and not kernels.pairwise
        assert losses._loss_kernels() is None

    @pytest.mark.parametrize("extra", [(), ("--w-kl", "0")], ids=["all-terms", "no-kl"])
    def test_a_probe_mismatch_runs_the_numpy_bodies_with_the_same_bytes(
        self, wide_data, tmp_path, fresh_kernels, monkeypatch, extra
    ):
        compiled = run_bytes(wide_data, tmp_path / "compiled", extra)
        monkeypatch.setattr(_kernels, "_reference_sum", lambda x, axis: np.add.reduce(x, axis) + 1)
        _kernels.compiled.cache_clear()
        assert not _kernels.compiled().pairwise

        def refused(*args):
            raise AssertionError("a compiled loss kernel ran")

        for name in ("_sce_compiled", "_kl_compiled", "_ad_compiled", "_bc_compiled"):
            monkeypatch.setattr(losses, name, refused)
        assert run_bytes(wide_data, tmp_path / "numpy", extra) == compiled

    def test_the_fake_old_reduction_differs_from_numpys(self):
        # So the probe test above checks what it says.
        x = np.ldexp(np.random.default_rng(1).standard_normal((3, 40)), 30)
        for axis in (None, 0, 1):
            assert np.asarray(fake_old_numpy_sum(x, axis)).tobytes() != np.asarray(
                np.add.reduce(x, axis)
            ).tobytes(), axis
        assert fake_old_numpy_sum(np.array([-0.0]), None).hex() == "-0x0.0p+0"


@needs_a_compiler
@pytest.mark.skipif(not cpu_has_fma(), reason="no x86-64 CPU with FMA")
def test_the_shipped_flags_keep_the_losses_exact_where_fma_exists(tmp_path, monkeypatch):
    # Built with FLAGS plus -mfma, the library may use fused multiply-adds
    # wherever FLAGS allow them; -ffp-contract=off allows none, so every
    # loss kernel still writes the numpy body's bytes.  With
    # -ffp-contract=fast in FLAGS, the sums of squares and the weighted
    # gradient sums would round once where numpy rounds twice.
    lib = tmp_path / "fma.so"
    assert _kernels._build([*_kernels._compiler(), "-mfma"], lib)
    fma = _kernels._load(lib)
    assert fma.pairwise
    rng = np.random.default_rng(3)
    classes, d_a, d_v, rows = 37, 131, 29, 300
    attrs = AttributeMatrix(values=rng.standard_normal((d_a, classes)), groups=((0, 9), (9, 131)))
    probs, _ = targets_for(rng, classes)
    distill = DistillConfig(tau=4.0, targets=DistillTargets(probs=probs, tau=4.0))
    params = init_params(d_v, d_a, num_seen=2, mode=ATTRIBUTE_BASED, seed=3)
    params.b_h = rng.standard_normal(d_v)
    features = rng.standard_normal((rows, d_v))
    labels = rng.integers(0, classes, rows)
    reports = []
    for kernels in (fma, None):
        monkeypatch.setattr(_kernels, "compiled", lambda: kernels)
        report = joint_loss(params, features, labels, attrs, distill, LossWeights())
        reports.append((report.total.hex(), {k: g.tobytes() for k, g in report.grads.items()}))
    assert reports[0] == reports[1]


@needs_a_compiler
def test_the_probe_refuses_a_library_built_to_reassociate(tmp_path):
    # With reassociation allowed, -O3 vectorizes the in-order sums too, and
    # they no longer add in numpy's order: the load-time probe must see it,
    # so that the losses run their numpy bodies.  (A -ffast-math library
    # would also flush subnormals to zero in this whole process once loaded.)
    lib = tmp_path / "reassociated.so"
    extra = ("-fassociative-math", "-fno-signed-zeros", "-fno-trapping-math")
    assert _kernels._build([*_kernels._compiler(), *extra], lib)
    assert not _kernels._load(lib).pairwise


# Lengths at each edge of the pairwise sum: its branches at 8 and 128
# values, its first splits, and a length of several splits.
EDGE_LENGTHS = [*range(1, 18), 127, 128, 129, 130, 255, 256, 257, 4099]


@st.composite
def leaf_inputs(draw):
    """Rows x d_v residual values over about 80 binades, with signed zeros and
    subnormals, features of either width, and the stride of the blocks the
    leaf table takes them in: the forward-only loss's 256 rows, at shapes
    whose leaves straddle block boundaries, at a single leaf of at most 128
    values and at one block; or any stride from 128 up over the edge lengths."""
    shape, stride = draw(st.one_of(
        st.sampled_from([(960, 64), (1290, 16), (1000, 85), (4800, 256), (1, 7), (2, 50), (511, 3)])
        .map(lambda shape: (shape, losses._ROW_BLOCK * shape[1])),
        st.tuples(st.sampled_from(EDGE_LENGTHS).map(lambda n: (1, n)), st.integers(128, 600)),
    ))
    rng = np.random.default_rng(draw(SEEDS))
    x = rng.standard_normal(shape) * np.exp2(rng.uniform(-40.0, 40.0, shape))
    x[rng.random(shape) < 0.05] = -0.0
    tiny = rng.random(shape) < 0.05
    x[tiny] = rng.integers(-1000, 1000, int(tiny.sum())) * np.nextafter(0.0, 1.0)
    # Zero features at half the entries keep those signed zeros and subnormals.
    v = values(rng, shape) * 0.01
    v[rng.random(shape) < 0.5] = 0.0
    v = v.astype(draw(st.sampled_from([np.float32, np.float64])))
    return x, v, stride, draw(st.randoms(use_true_random=False))


@needs_a_compiler
class TestLeafTable:
    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(inputs=leaf_inputs())
    def test_blocks_in_any_order_on_two_threads_sum_as_numpy_does(self, inputs):
        # The blocks are shuffled and dealt to two threads in turn; the sum
        # is numpy's over all squares of the residual less the features,
        # which each block leaves in its residual.
        x, v, stride, random = inputs
        kernels = _kernels.compiled()
        want_residual = x - v.astype(np.float64)
        want = np.add.reduce(want_residual * want_residual, axis=None)
        n = x.size
        last, table = _kernels.leaf_table(n, stride)
        starts = list(range(0, last + 1, stride))
        random.shuffle(starts)
        at = _kernels.address

        def feed(firsts):
            for first in firsts:
                count = (n if first == last else first + stride) - first
                kernels.bc_leaves(
                    n, stride, last, first, count, at(x) + 8 * first,
                    at(v) + v.itemsize * first, v.dtype == np.float32, at(table),
                )

        with ThreadPoolExecutor(max_workers=2) as pool:
            list(pool.map(feed, (starts[0::2], starts[1::2])))
        got = kernels.leaf_sum(n, stride, last, at(table))
        assert got.hex() == float(want).hex()
        assert x.tobytes() == want_residual.tobytes()


# Source edits that split a run at n/2 without rounding down to a multiple
# of 8: everywhere, or in the leaf walk alone.
UNROUNDED_SPLITS = {
    "everywhere": [("    return n2 - n2 % 8;", "    return n2;")],
    "leaf-walk-only": [
        ("        long long n2 = pairwise_half(m);", "        long long n2 = m / 2;"),
    ],
}


@needs_a_compiler
@pytest.mark.parametrize("where", sorted(UNROUNDED_SPLITS))
def test_the_probe_refuses_a_split_at_half_unrounded(tmp_path, monkeypatch, where):
    source = _kernels.SOURCE.read_text()
    for old, new in UNROUNDED_SPLITS[where]:
        assert source.count(old) == 1, old
        source = source.replace(old, new)
    edited = tmp_path / "_kernels.c"
    edited.write_text(source)
    monkeypatch.setattr(_kernels, "SOURCE", edited)
    lib = tmp_path / "unrounded.so"
    assert _kernels._build(_kernels._compiler(), lib)
    assert not _kernels._load(lib).pairwise


def test_the_flags_allow_no_rewrite_that_moves_a_rounding():
    assert "-ffp-contract=off" in _kernels.FLAGS
    for flag in ("-ffast-math", "-Ofast", "-fassociative-math", "-funsafe-math-optimizations"):
        assert flag not in _kernels.FLAGS


NUMPY_ONLY_PLUGIN = """
from fedzsl import _kernels

_kernels.compiled = lambda: None
"""


@needs_a_compiler
def test_the_oracle_and_the_memory_bound_hold_on_the_numpy_bodies(tmp_path):
    # The local-step oracle, the forward-only memory bound and the step
    # workspace's tests run compiled in this suite; here they run unedited
    # with compiled() patched to None.
    (tmp_path / "numpy_only.py").write_text(NUMPY_ONLY_PLUGIN)
    tests = Path(__file__).resolve().parent
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(tmp_path), SRC]))
    done = subprocess.run(
        [
            sys.executable, "-m", "pytest", "-q", "-p", "numpy_only", "-p", "no:cacheprovider",
            str(tests / "test_local_step_oracle.py"),
            str(tests / "test_losses.py") + "::TestAllocation",
            str(tests / "test_losses.py") + "::TestStepWorkspace",
        ],
        cwd=tmp_path,
        env=env,
        capture_output=True,
        text=True,
        check=False,
    )
    assert done.returncode == 0, done.stdout[-3000:]


def load_in_a_new_process(code: str) -> subprocess.CompletedProcess:
    """Run ``code`` in a new Python process that imports fedzsl from src/."""
    env = dict(os.environ, PYTHONPATH=SRC)
    return subprocess.run(
        [sys.executable, "-c", textwrap.dedent(code)],
        env=env,
        capture_output=True,
        text=True,
        check=False,
    )


COUNTED_LOAD = """
from fedzsl import _kernels

calls = []
compiler = _kernels._compiler
_kernels._compiler = lambda: calls.append(1) or compiler()
kernels = _kernels.compiled()
print(kernels is not None and kernels.pairwise, len(calls))
"""


@needs_a_compiler
class TestKernelCache:
    @pytest.fixture
    def cache(self, tmp_path, monkeypatch, fresh_kernels):
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
        return tmp_path / "fedzsl"

    def entry(self, cache):
        return sorted(p.name for p in cache.iterdir())

    def test_the_suite_never_writes_the_users_cache(self):
        assert Path(os.environ["XDG_CACHE_HOME"]).resolve() != (Path.home() / ".cache").resolve()
        assert _kernels._cache_dir() == Path(os.environ["XDG_CACHE_HOME"]) / "fedzsl"

    def test_a_build_leaves_one_entry_and_a_second_process_loads_it(self, cache):
        assert _kernels.compiled() is not None
        names = self.entry(cache)
        assert len(names) == 2 and names[0].endswith(".so") and names[1].endswith(".sum")
        first = load_in_a_new_process(COUNTED_LOAD)
        assert first.stdout.split() == ["True", "0"], first.stderr
        assert self.entry(cache) == names

    @pytest.mark.parametrize("damage", ["truncated", "checksum", "missing-checksum"])
    def test_a_damaged_entry_is_built_again(self, cache, damage):
        # The entry is built and damaged outside this process: a library that
        # this process had loaded and that is then truncated in place kills
        # it with SIGBUS at exit, when the loader runs the library's finalizer.
        built = load_in_a_new_process(COUNTED_LOAD)
        assert built.stdout.split() == ["True", "1"], built.stderr
        library = next(cache.glob("*.so"))
        whole = library.read_bytes()
        checksum = library.with_suffix(".sum")
        if damage == "truncated":
            library.write_bytes(whole[: len(whole) // 2])
        elif damage == "checksum":
            checksum.write_text("0" * 24)
        else:
            checksum.unlink()
        rebuilt = load_in_a_new_process(COUNTED_LOAD)
        assert rebuilt.stdout.split() == ["True", "1"], rebuilt.stderr
        assert library.read_bytes() == whole
        assert len(self.entry(cache)) == 2

    def test_a_cache_that_cannot_be_written_builds_in_a_temporary_directory(
        self, tmp_path, monkeypatch, fresh_kernels
    ):
        # A file where the cache directory would be stands in for a read-only
        # cache, which a process running as root could still write.
        blocked = tmp_path / "file"
        blocked.write_text("")
        monkeypatch.setenv("XDG_CACHE_HOME", str(blocked))
        kernels = _kernels.compiled()
        assert kernels is not None and kernels.pairwise
        assert blocked.read_text() == ""

    def test_a_build_removes_the_entries_of_other_keys(self, cache, monkeypatch, tmp_path):
        # Two sources built in turn into one cache: the second build leaves
        # its own entry alone, and both loads work.
        assert _kernels.compiled() is not None
        first = self.entry(cache)
        source = tmp_path / "_kernels.c"
        source.write_bytes(_kernels.SOURCE.read_bytes() + b"\n")
        monkeypatch.setattr(_kernels, "SOURCE", source)
        _kernels.compiled.cache_clear()
        kernels = _kernels.compiled()
        assert kernels is not None and kernels.pairwise
        second = self.entry(cache)
        assert len(second) == 2 and not set(first) & set(second)
        assert second == [f"kernels-{_kernels._cache_key()}.{end}" for end in ("so", "sum")]

    def test_a_cache_hit_removes_nothing(self, cache):
        # Only a build looks at other entries, so loading stays one read.
        assert _kernels.compiled() is not None
        stray = [cache / "kernels-0.so", cache / "kernels-0.sum"]
        for path in stray:
            path.write_text("")
        hit = load_in_a_new_process(COUNTED_LOAD)
        assert hit.stdout.split() == ["True", "0"], hit.stderr
        assert all(path.exists() for path in stray)

    @pytest.mark.parametrize("error", [FileNotFoundError, PermissionError])
    def test_entries_that_cannot_be_removed_are_left(self, cache, monkeypatch, error):
        # Another process may remove an entry first, or hold it; the build
        # that finds them still loads, and removes what it can.
        cache.mkdir(parents=True)
        held, gone = cache / "kernels-1.so", cache / "kernels-2.sum"
        held.write_text("")
        gone.write_text("")
        unlink = Path.unlink

        def refusing(path, *args, **kwargs):
            if path == held:
                raise error(path)
            return unlink(path, *args, **kwargs)

        monkeypatch.setattr(Path, "unlink", refusing)
        kernels = _kernels.compiled()
        assert kernels is not None and kernels.pairwise
        assert held.exists() and not gone.exists()
        assert len(self.entry(cache)) == 3

    def test_no_compiler_and_no_entry_runs_numpy(self, cache, monkeypatch):
        monkeypatch.setattr(_kernels, "_compiler", lambda: None)
        assert _kernels.compiled() is None
        assert not cache.exists()

    def test_a_failed_build_leaves_nothing_in_the_cache(self, cache, monkeypatch):
        monkeypatch.setattr(_kernels, "_compiler", lambda: [sys.executable, "-c", "pass"])
        assert _kernels.compiled() is None
        assert self.entry(cache) == []

    def test_the_key_covers_the_source_the_compiler_and_the_flags(self, monkeypatch, tmp_path):
        key = _kernels._cache_key()
        source = tmp_path / "_kernels.c"
        source.write_bytes(_kernels.SOURCE.read_bytes() + b"\n")
        changed = []
        with monkeypatch.context() as mp:
            mp.setattr(_kernels, "SOURCE", source)
            changed.append(_kernels._cache_key())
        with monkeypatch.context() as mp:
            mp.setattr(_kernels, "FLAGS", (*_kernels.FLAGS, "-g"))
            changed.append(_kernels._cache_key())
        with monkeypatch.context() as mp:
            mp.setattr(_kernels.sysconfig, "get_config_var", lambda name: "other-cc")
            changed.append(_kernels._cache_key())
        assert key not in changed and len(set(changed)) == 3
