"""Parameter container, initialization, SGD arithmetic, and checkpoints."""
from __future__ import annotations

import copy
import ctypes
import math
import platform
import re
import signal
import subprocess
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from fedzsl import _kernels
from fedzsl.dataset import AttributeMatrix
from fedzsl.model import (
    ATTRIBUTE_BASED,
    ATTRIBUTE_FREE,
    ModelError,
    ModelParams,
    OptState,
    compatibility_logits,
    forward_attr,
    forward_decode,
    forward_head,
    init_opt_state,
    init_params,
    load_model,
    save_model,
    sgd_step,
)
from conftest import needs_a_compiler

BOTH_PATHS = [
    pytest.param(True, id="compiled", marks=needs_a_compiler),
    pytest.param(False, id="numpy"),
]


def tiny_params(mode: str = ATTRIBUTE_BASED, seed: int = 0) -> ModelParams:
    return init_params(d_v=6, d_a=4, num_seen=3, mode=mode, seed=seed)


def cpu_has_fma() -> bool:
    """Whether this is an x86-64 Linux host whose CPU reports FMA."""
    if platform.machine() not in ("x86_64", "AMD64"):
        return False
    try:
        cpuinfo = Path("/proc/cpuinfo").read_text()
    except OSError:
        return False
    return re.search(r"^flags\s*:.*\bfma\b", cpuinfo, re.M) is not None


def save_model_per_value(path, params: ModelParams) -> None:
    """The checkpoint writer that formatted one numpy scalar at a time, kept as the oracle."""

    def fmt(x: float) -> str:
        return "%.17g" % float(x)

    lines: list[str] = []
    for name in ("W_g", "b_g", "W_h", "b_h", "W_c", "b_c"):
        tensor = params.tensors().get(name)
        if tensor is None:
            continue
        lines.append(f"[{name}]")
        lines.append(",".join(str(d) for d in tensor.shape))
        for row in np.atleast_2d(tensor):
            lines.append(",".join(fmt(v) for v in row))
    Path(path).write_text("\n".join(lines) + "\n")


class TestModelParams:
    def test_shape_validation(self):
        with pytest.raises(ModelError):
            ModelParams(W_g=np.ones((4, 6)), b_g=np.ones(3), W_h=np.ones((6, 4)), b_h=np.ones(6))
        with pytest.raises(ModelError):
            ModelParams(W_g=np.ones((4, 6)), b_g=np.ones(4), W_h=np.ones((4, 6)), b_h=np.ones(6))

    def test_mode_exclusive_head(self):
        base = dict(W_g=np.ones((2, 3)), b_g=np.ones(2), W_h=np.ones((3, 2)), b_h=np.ones(3))
        with pytest.raises(ModelError):
            ModelParams(mode=ATTRIBUTE_BASED, W_c=np.ones((4, 3)), b_c=np.ones(4), **base)
        with pytest.raises(ModelError):
            ModelParams(mode=ATTRIBUTE_FREE, **base)

    def test_rejects_non_finite(self):
        W_g = np.ones((2, 3))
        W_g[0, 0] = np.inf
        with pytest.raises(ModelError):
            ModelParams(W_g=W_g, b_g=np.zeros(2), W_h=np.ones((3, 2)), b_h=np.zeros(3))

    @pytest.mark.parametrize("d_v, d_a", [(3, 0), (0, 2)])
    def test_rejects_zero_size_dimensions(self, d_v, d_a):
        # save_model would write such a model in a form load_model refuses.
        with pytest.raises(ModelError, match="dimensions must be positive"):
            ModelParams(W_g=np.ones((d_a, d_v)), b_g=np.ones(d_a), W_h=np.ones((d_v, d_a)), b_h=np.ones(d_v))

    def test_rejects_an_empty_classifier_head(self):
        base = dict(W_g=np.ones((2, 3)), b_g=np.ones(2), W_h=np.ones((3, 2)), b_h=np.ones(3))
        with pytest.raises(ModelError, match="dimensions must be positive"):
            ModelParams(mode=ATTRIBUTE_FREE, W_c=np.ones((0, 3)), b_c=np.ones(0), **base)

    def test_trainable_names_per_mode(self):
        assert tiny_params().trainable_names() == ("W_g", "b_g", "W_h", "b_h")
        assert tiny_params(ATTRIBUTE_FREE).trainable_names() == ("W_c", "b_c")

    def test_clone_is_independent(self):
        params = tiny_params()
        copy = params.clone()
        copy.W_g[0, 0] += 1.0
        assert params.W_g[0, 0] != copy.W_g[0, 0]

    @pytest.mark.parametrize("mode", [ATTRIBUTE_BASED, ATTRIBUTE_FREE])
    def test_clone_copies_every_tensor_and_the_mode(self, mode):
        params = tiny_params(mode)
        copy = params.clone()
        assert copy.mode == mode
        assert copy.tensors().keys() == params.tensors().keys()
        for name, tensor in params.tensors().items():
            assert copy.tensors()[name].tobytes() == tensor.tobytes()
            assert not np.shares_memory(copy.tensors()[name], tensor)


class TestInitParams:
    def test_deterministic_and_seed_sensitive(self):
        a = tiny_params(seed=4)
        b = tiny_params(seed=4)
        c = tiny_params(seed=5)
        assert np.array_equal(a.W_g, b.W_g)
        assert np.array_equal(a.W_h, b.W_h)
        assert not np.array_equal(a.W_g, c.W_g)

    def test_rejects_a_negative_seed(self):
        with pytest.raises(ModelError, match=r"seed must be >= 0, got -1$"):
            init_params(d_v=6, d_a=4, num_seen=3, mode=ATTRIBUTE_BASED, seed=-1)

    def test_biases_start_at_zero(self):
        params = tiny_params(ATTRIBUTE_FREE)
        assert np.all(params.b_g == 0.0)
        assert np.all(params.b_h == 0.0)
        assert np.all(params.b_c == 0.0)

    def test_uniform_bound_matches_fan_sum(self):
        params = init_params(d_v=40, d_a=10, num_seen=3, mode=ATTRIBUTE_BASED, seed=0)
        bound = math.sqrt(6.0 / (40 + 10))
        assert np.max(np.abs(params.W_g)) <= bound
        assert np.max(np.abs(params.W_h)) <= bound
        # A uniform draw this size should get close to its bound.
        assert np.max(np.abs(params.W_g)) > 0.9 * bound

    def test_both_modes_share_backbone_draws(self):
        based = tiny_params(ATTRIBUTE_BASED, seed=9)
        free = tiny_params(ATTRIBUTE_FREE, seed=9)
        assert np.array_equal(based.W_g, free.W_g)
        assert np.array_equal(based.W_h, free.W_h)
        assert free.W_c is not None and free.W_c.shape == (3, 6)

    def test_rejects_bad_dimensions(self):
        with pytest.raises(ModelError):
            init_params(0, 4, 3, ATTRIBUTE_BASED, 0)
        with pytest.raises(ModelError):
            init_params(6, 4, 3, "other", 0)

    @pytest.mark.parametrize("value", [5.9, 0.5, math.nan, math.inf])
    @pytest.mark.parametrize("field", ["d_v", "d_a", "num_seen", "seed"])
    def test_a_non_integral_count_or_seed_is_refused(self, field, value):
        # Truncating would draw a 4x5 W_g for d_v=5.9, and a float seed would
        # reach numpy, which raises its own TypeError.
        args = {"d_v": 6, "d_a": 4, "num_seen": 3, "seed": 0, field: value}
        with pytest.raises(ModelError, match=rf"^{field} must be an integer, got {value}$"):
            init_params(**args, mode=ATTRIBUTE_FREE)

    def test_whole_counts_and_seed_load_as_ints(self):
        params = init_params(d_v=6.0, d_a=4.0, num_seen=3.0, mode=ATTRIBUTE_FREE, seed=9.0)
        assert params.W_g.shape == (4, 6) and params.W_c.shape == (3, 6)
        assert params.W_g.tobytes() == tiny_params(ATTRIBUTE_FREE, seed=9).W_g.tobytes()


class TestForward:
    def test_vector_and_batch_agree(self):
        params = tiny_params()
        rng = np.random.default_rng(0)
        v = rng.standard_normal(6)
        single = forward_attr(params, v)
        batched = forward_attr(params, v[None, :])
        assert np.allclose(single, batched[0], atol=1e-15)
        a = rng.standard_normal(4)
        assert np.allclose(
            forward_decode(params, a), forward_decode(params, a[None, :])[0], atol=1e-15
        )

    def test_affine_definition(self):
        params = tiny_params()
        v = np.arange(6.0)
        assert np.allclose(forward_attr(params, v), params.W_g @ v + params.b_g)

    def test_dimension_errors(self):
        params = tiny_params()
        with pytest.raises(ModelError):
            forward_attr(params, np.ones(5))
        with pytest.raises(ModelError):
            forward_decode(params, np.ones(5))

    def test_error_messages(self):
        params = tiny_params(ATTRIBUTE_FREE)
        cases = [
            (forward_attr, np.ones(5), "expected a length-6 feature vector, got (5,)"),
            (forward_attr, np.ones((2, 5)), "expected features with 6 columns, got (2, 5)"),
            (forward_attr, np.ones((1, 1, 6)), "features must be a vector or a 2-dimensional batch"),
            (forward_decode, np.ones(5), "expected a length-4 attribute vector, got (5,)"),
            (forward_decode, np.ones((2, 5)), "expected attributes with 4 columns, got (2, 5)"),
            (forward_decode, np.ones(()), "attributes must be a vector or a 2-dimensional batch"),
            (forward_head, np.ones(4), "expected a length-6 feature vector, got (4,)"),
            (forward_head, np.ones((3, 4)), "expected features with 6 columns, got (3, 4)"),
        ]
        for forward, x, message in cases:
            with pytest.raises(ModelError) as err:
                forward(params, x)
            assert str(err.value) == message

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("batch", [False, True])
    def test_head_equals_the_inline_product(self, dtype, batch):
        # The head's logits as the loss and evaluation wrote them out
        # before forward_head, bit for bit.
        params = init_params(d_v=64, d_a=8, num_seen=10, mode=ATTRIBUTE_FREE, seed=3)
        rng = np.random.default_rng(4)
        params.b_c[:] = rng.standard_normal(10)
        v = rng.standard_normal((33, 64) if batch else 64).astype(dtype)
        if batch:
            want = v @ params.W_c.T + params.b_c
        else:
            want = params.W_c @ v + params.b_c
        got = forward_head(params, v)
        assert got.dtype == np.float64
        assert got.tobytes() == want.tobytes()

    def test_head_refuses_attribute_based_params(self):
        with pytest.raises(ModelError, match="forward_head requires attribute-free params"):
            forward_head(tiny_params(), np.ones(6))

    @pytest.mark.parametrize("batch", [False, True])
    def test_decode_widens_float32_exactly(self, batch):
        params = tiny_params()
        a = np.random.default_rng(5).standard_normal((7, 4) if batch else 4).astype(np.float32)
        got = forward_decode(params, a)
        assert got.tobytes() == forward_decode(params, a.astype(np.float64)).tobytes()


class TestOneAffineKernel:
    SRC = Path(__file__).resolve().parents[1] / "src" / "fedzsl"

    def test_only_the_model_module_writes_out_a_weight_transpose(self):
        # Every other module evaluates the model through forward_attr,
        # forward_decode and forward_head.
        found = [
            f"{path.name}:{n}"
            for path in sorted(self.SRC.glob("*.py"))
            if path.name != "model.py"
            for n, line in enumerate(path.read_text().splitlines(), start=1)
            if re.search(r"W_[ghc]\.T", line)
        ]
        assert sorted(self.SRC.glob("*.py")), "source tree not found"
        assert found == []


class TestCompatibilityLogits:
    def test_selects_requested_classes_in_order(self):
        attrs = AttributeMatrix(values=np.eye(4), groups=((0, 4),))
        a_hat = np.array([0.1, 0.2, 0.3, 0.4])
        logits = compatibility_logits(a_hat, attrs, [2, 0])
        assert np.allclose(logits, [0.3, 0.1])

    def test_batch_shape(self):
        attrs = AttributeMatrix(values=np.eye(4), groups=((0, 4),))
        logits = compatibility_logits(np.ones((5, 4)), attrs, [0, 1, 2])
        assert logits.shape == (5, 3)

    def test_out_of_range_ids(self):
        attrs = AttributeMatrix(values=np.eye(4), groups=((0, 4),))
        with pytest.raises(ModelError):
            compatibility_logits(np.ones(4), attrs, [0, 4])

    @pytest.mark.parametrize("shape", [(20,), (6, 20)], ids=["vector", "batch"])
    def test_columns_of_the_whole_table_product(self, shape):
        # At d_a 20 and 9 classes a product against a gathered copy of the
        # prototypes rounds differently from a_hat @ A.values in the last
        # bits; the logits must be that one product's columns, row-ordered.
        rng = np.random.default_rng(0)
        attrs = AttributeMatrix(values=rng.standard_normal((20, 9)), groups=((0, 20),))
        a_hat = rng.standard_normal(shape)
        whole = a_hat @ attrs.values
        for ids in (list(range(9)), [8, 2, 5, 0], [4, 4, 1]):
            logits = compatibility_logits(a_hat, attrs, ids)
            assert logits.tobytes() == whole[..., ids].tobytes()
            assert logits.flags.c_contiguous

    @pytest.mark.parametrize(
        "ids, shown", [([0.5, 1.7], "0.5"), ([1, np.nan], "nan")], ids=["fractions", "nan"]
    )
    def test_rejects_non_integral_ids(self, ids, shown):
        # Truncating would return the columns of classes 0 and 1.
        attrs = AttributeMatrix(values=np.eye(4), groups=((0, 4),))
        with pytest.raises(ModelError, match=f"^class ids must be integers, got {shown}$"):
            compatibility_logits(np.ones(4), attrs, ids)

    def test_integral_float_ids_select_as_ints(self):
        attrs = AttributeMatrix(values=np.eye(4), groups=((0, 4),))
        a_hat = np.array([0.1, 0.2, 0.3, 0.4])
        floats = compatibility_logits(a_hat, attrs, [2.0, 0.0])
        assert floats.tobytes() == compatibility_logits(a_hat, attrs, [2, 0]).tobytes()

    def test_three_dimensional_input_is_rejected(self):
        attrs = AttributeMatrix(values=np.eye(4), groups=((0, 4),))
        with pytest.raises(ModelError, match="vector or a 2-dimensional batch"):
            compatibility_logits(np.ones((2, 3, 4)), attrs, [0, 1])


class TestSgdStep:
    def test_matches_hand_unrolled_momentum(self):
        # Three steps of the update on a single tensor, replayed by hand:
        # g' = grad + wd * param; buf = mom * buf + g'; param -= lr * buf.
        params = tiny_params()
        lr, mom, wd = 0.1, 0.9, 0.01
        opt = init_opt_state(params, lr, mom, wd)
        rng = np.random.default_rng(42)
        grads_per_step = [
            {name: rng.standard_normal(t.shape) for name, t in params.tensors().items()}
            for _ in range(3)
        ]
        expected = {name: t.copy() for name, t in params.tensors().items()}
        buffers = {name: np.zeros_like(t) for name, t in expected.items()}
        for grads in grads_per_step:
            for name in expected:
                adjusted = grads[name] + wd * expected[name]
                buffers[name] = mom * buffers[name] + adjusted
                expected[name] = expected[name] - lr * buffers[name]
        for grads in grads_per_step:
            sgd_step(params, grads, opt)
        for name, tensor in params.tensors().items():
            assert np.allclose(tensor, expected[name], atol=1e-14), name

    def test_updates_in_place(self):
        params = tiny_params()
        opt = init_opt_state(params, 0.1, 0.0, 0.0)
        before = params.W_g
        sgd_step(params, {"W_g": np.ones_like(params.W_g)}, opt)
        assert params.W_g is before
        assert np.allclose(before, tiny_params().W_g - 0.1)

    def test_zero_learning_rate_is_a_no_op(self):
        params = tiny_params()
        reference = params.clone()
        opt = init_opt_state(params, 0.0, 0.9, 1e-5)
        sgd_step(params, {"W_g": np.ones_like(params.W_g)}, opt)
        assert np.array_equal(params.W_g, reference.W_g)

    def test_rejects_frozen_tensor_updates(self):
        params = tiny_params(ATTRIBUTE_FREE)
        opt = init_opt_state(params)
        with pytest.raises(ModelError):
            sgd_step(params, {"W_g": np.zeros((4, 6))}, opt)

    def test_rejects_unknown_and_misshaped_grads(self):
        params = tiny_params()
        opt = init_opt_state(params)
        with pytest.raises(ModelError):
            sgd_step(params, {"W_q": np.zeros((4, 6))}, opt)
        with pytest.raises(ModelError):
            sgd_step(params, {"W_g": np.zeros((2, 2))}, opt)

    def test_rejects_non_finite_grads(self):
        params = tiny_params()
        opt = init_opt_state(params)
        bad = np.zeros_like(params.W_g)
        bad[0, 0] = np.nan
        with pytest.raises(ModelError):
            sgd_step(params, {"W_g": bad}, opt)

    def test_check_finite_false_skips_the_scan(self):
        # The keyword is for gradients a LossReport has already scanned; the
        # step then runs the arithmetic on whatever it is given.
        params = tiny_params()
        opt = init_opt_state(params, 0.1, 0.0, 0.0)
        bad = np.zeros_like(params.W_g)
        bad[0, 0] = np.nan
        sgd_step(params, {"W_g": bad}, opt, check_finite=False)
        assert np.isnan(params.W_g[0, 0])
        assert np.all(np.isfinite(params.W_g.ravel()[1:]))

    def test_rejected_step_moves_nothing(self):
        # Every gradient is validated before the first tensor moves.
        params = tiny_params()
        reference = params.clone()
        opt = init_opt_state(params, 0.1, 0.9, 0.01)
        bad = np.zeros_like(params.W_h)
        bad[1, 2] = np.inf
        grads = {"W_g": np.ones_like(params.W_g), "W_h": bad}
        with pytest.raises(ModelError, match="non-finite gradient for W_h"):
            sgd_step(params, grads, opt)
        with pytest.raises(ModelError, match="gradient shape"):
            sgd_step(params, {"W_g": np.ones_like(params.W_g), "b_g": np.ones(9)}, opt)
        for name, tensor in params.tensors().items():
            assert np.array_equal(tensor, reference.tensors()[name]), name
        for name, buf in opt.buffers.items():
            assert np.all(buf == 0.0), name

    @pytest.mark.parametrize("check_finite", [True, False])
    @pytest.mark.parametrize("compiled", BOTH_PATHS)
    @pytest.mark.parametrize(
        "bad, message",
        [
            (np.ones(4, dtype=complex), "gradient for b_g has dtype complex128, which is not real"),
            (np.ones(4, dtype=object), "gradient for b_g has dtype object, which is not real"),
            ([1.0] * 4, "gradient for b_g must be an ndarray, got list"),
        ],
        ids=["complex", "object", "list"],
    )
    def test_a_gradient_that_is_not_a_real_array_moves_nothing(
        self, bad, message, compiled, check_finite, monkeypatch
    ):
        # Refused before W_g, which comes first, moves; a step first makes
        # every buffer non-zero.
        params = tiny_params()
        opt = init_opt_state(params, 0.1, 0.9, 0.01)
        if not compiled:
            monkeypatch.setattr(_kernels, "compiled", lambda: None)
        sgd_step(params, {name: np.ones_like(t) for name, t in params.tensors().items()}, opt)
        before = state_bytes(params, opt)
        with pytest.raises(ModelError, match=f"^{message}$"):
            grads = {"W_g": np.ones_like(params.W_g), "b_g": bad}
            sgd_step(params, grads, opt, check_finite=check_finite)
        assert state_bytes(params, opt) == before

    @pytest.mark.parametrize("code", list(np.typecodes["All"]))
    def test_a_gradient_must_cast_to_float64_under_same_kind(self, code):
        params = tiny_params()
        opt = init_opt_state(params, 0.1, 0.9, 0.01)
        grad = np.zeros(4, dtype=code)
        if np.can_cast(grad.dtype, np.float64, "same_kind"):
            sgd_step(params, {"b_g": grad}, opt)
        else:
            with pytest.raises(ModelError, match="which is not real$"):
                sgd_step(params, {"b_g": grad}, opt)

    @pytest.mark.parametrize("compiled", BOTH_PATHS)
    def test_a_buffer_of_another_shape_moves_nothing(self, compiled, monkeypatch):
        params = tiny_params()
        opt = init_opt_state(params, 0.1, 0.9, 0.01)
        opt.buffers["b_h"] = np.zeros(5)
        if not compiled:
            monkeypatch.setattr(_kernels, "compiled", lambda: None)
        before = state_bytes(params, opt)
        grads = {name: np.ones_like(t) for name, t in params.tensors().items()}
        message = r"^buffer shape \(5,\) does not match b_h shape \(6,\)$"
        with pytest.raises(ModelError, match=message):
            sgd_step(params, grads, opt)
        assert state_bytes(params, opt) == before

    @pytest.mark.parametrize("compiled", BOTH_PATHS)
    @pytest.mark.parametrize("fault", ["int64-buffer", "read-only-tensor", "read-only-buffer"])
    def test_a_tensor_or_buffer_that_cannot_take_the_step_moves_nothing(
        self, fault, compiled, monkeypatch
    ):
        # b_h comes last, so W_g, b_g and W_h would move before numpy refused it.
        params = tiny_params()
        opt = init_opt_state(params, 0.1, 0.9, 0.01)
        if not compiled:
            monkeypatch.setattr(_kernels, "compiled", lambda: None)
        grads = {name: np.ones_like(t) for name, t in params.tensors().items()}
        sgd_step(params, grads, opt)
        if fault == "int64-buffer":
            opt.buffers["b_h"] = np.zeros(6, dtype=np.int64)
        else:
            array = params.b_h if fault == "read-only-tensor" else opt.buffers["b_h"]
            array.flags.writeable = False
        role = "buffer" if fault.endswith("buffer") else "tensor"
        before = state_bytes(params, opt)
        message = f"^the {role} of b_h must be a writeable float array$"
        with pytest.raises(ModelError, match=message):
            sgd_step(params, grads, opt)
        assert state_bytes(params, opt) == before

    def test_work_arrays_are_reused(self, monkeypatch):
        # The numpy body's work arrays; the compiled step needs none.
        monkeypatch.setattr(_kernels, "compiled", lambda: None)
        params = tiny_params()
        opt = init_opt_state(params, 0.1, 0.9, 0.01)
        grads = {"W_g": np.ones_like(params.W_g), "b_h": np.ones_like(params.b_h)}
        sgd_step(params, grads, opt)
        first = dict(opt.scratch)
        assert set(first) == {"W_g", "b_h"}
        sgd_step(params, grads, opt)
        for name, work in first.items():
            assert opt.scratch[name] is work, name

    def test_opt_state_validation(self):
        with pytest.raises(ModelError):
            OptState(learning_rate=-1.0)
        with pytest.raises(ModelError):
            OptState(momentum=1.0)
        with pytest.raises(ModelError):
            OptState(weight_decay=-0.1)
        OptState(learning_rate=0.0)  # explicitly allowed

    def test_buffers_cover_exactly_the_trainables(self):
        opt = init_opt_state(tiny_params(ATTRIBUTE_FREE))
        assert set(opt.buffers) == {"W_c", "b_c"}


# Finite values with both zeros and subnormals among them.  Overflow to inf
# is allowed, so the steps run under np.errstate(all="ignore").
FINITE = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, -1e-310]),
    st.floats(-1e3, 1e3),
    st.floats(allow_nan=False, allow_infinity=False),
)
NON_FINITE = st.sampled_from([math.inf, -math.inf, math.nan])
GRAD_KINDS = ("float64", "float32", "int64", "strided", "tensor", "buffer")


def state_bytes(params, opt):
    """The dtype, shape and bytes of every tensor and buffer."""
    return (
        {n: (t.dtype.str, t.shape, t.tobytes()) for n, t in params.tensors().items()},
        {n: (b.dtype.str, b.shape, b.tobytes()) for n, b in opt.buffers.items()},
    )


def run_steps(params, opt, grads_per_step, compiled, check_finite=True):
    """``sgd_step`` once per entry of ``grads_per_step``, compiled or in numpy.

    An entry maps a name to an array, or to "tensor" or "buffer" for that
    tensor or its buffer itself.  Returns what each step returned.
    """
    returned = []
    with pytest.MonkeyPatch.context() as mp, np.errstate(all="ignore"):
        if not compiled:
            mp.setattr(_kernels, "compiled", lambda: None)
        for grads in grads_per_step:
            own = {"tensor": params.tensors(), "buffer": opt.buffers}
            step = {n: own[g][n] if isinstance(g, str) else g for n, g in grads.items()}
            returned.append(sgd_step(params, step, opt, check_finite=check_finite))
    return returned


def twin_steps(params, opt, grads_per_step, check_finite=True):
    """Run the steps compiled and, on a deep copy, in numpy; the copy's state.

    Asserts that both leave the same bytes and return their own params.
    """
    twin, twin_opt = copy.deepcopy((params, opt))
    got = run_steps(params, opt, grads_per_step, True, check_finite)
    want = run_steps(twin, twin_opt, grads_per_step, False, check_finite)
    assert state_bytes(params, opt) == state_bytes(twin, twin_opt)
    assert all(r is params for r in got) and all(r is twin for r in want)
    return twin, twin_opt


class TestCompiledSgdStep:
    """The compiled step against the numpy body, its oracle."""

    @needs_a_compiler
    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(
        data=st.data(),
        mode=st.sampled_from([ATTRIBUTE_BASED, ATTRIBUTE_FREE]),
        d_v=st.integers(1, 9),
        d_a=st.integers(1, 9),
        num_seen=st.integers(1, 5),
        learning_rate=st.one_of(st.just(0.0), st.floats(1e-6, 1.0)),
        momentum=st.one_of(st.just(0.0), st.floats(0.0, 0.99)),
        weight_decay=st.one_of(st.just(0.0), st.floats(0.0, 0.1)),
        steps=st.integers(1, 4),
        non_finite=st.booleans(),
    )
    def test_writes_the_numpy_bodys_bytes(
        self, data, mode, d_v, d_a, num_seen, learning_rate, momentum, weight_decay, steps,
        non_finite,
    ):
        # Sizes 1 to 81 in vectors and matrices run the two-element loop with
        # and without its tail.  A gradient that is its tensor or buffer may
        # be non-finite, so the steps skip the scan.
        params = init_params(d_v, d_a, num_seen, mode, seed=0)
        values = st.one_of(FINITE, NON_FINITE) if non_finite else FINITE
        for name in params.trainable_names():
            tensor = params.tensors()[name]
            tensor[...] = data.draw(arrays(np.float64, tensor.shape, elements=values), label=name)
        opt = init_opt_state(params, learning_rate, momentum, weight_decay)
        grads_per_step = []
        for _ in range(steps):
            grads = {}
            for name in params.trainable_names():
                shape = params.tensors()[name].shape
                kind = data.draw(st.sampled_from(GRAD_KINDS), label=f"{name} gradient")
                if kind in ("tensor", "buffer"):
                    grads[name] = kind
                elif kind == "float32":
                    grads[name] = data.draw(
                        arrays(np.float32, shape, elements=st.floats(-1e3, 1e3, width=32))
                    )
                elif kind == "int64":
                    grads[name] = data.draw(arrays(np.int64, shape, elements=st.integers(-9, 9)))
                else:
                    grad = data.draw(arrays(np.float64, shape, elements=FINITE))
                    if kind == "strided":
                        wide = np.full((*shape[:-1], 2 * shape[-1]), np.nan)
                        wide[..., ::2] = grad
                        grad = wide[..., ::2]
                    grads[name] = grad
            grads_per_step.append(grads)
        _, twin_opt = twin_steps(params, opt, grads_per_step, check_finite=False)
        # Only float32, integer and non-contiguous gradients took the numpy
        # body on the compiled side.
        in_numpy = {
            name
            for grads in grads_per_step
            for name, grad in grads.items()
            if not isinstance(grad, str)
            and not (grad.dtype == np.float64 and grad.flags.c_contiguous)
        }
        assert set(opt.scratch) == in_numpy
        assert set(twin_opt.scratch) == set(params.trainable_names())

    @needs_a_compiler
    @pytest.mark.parametrize(
        "grad, buffer_is_tensor",
        [("tensor", False), ("buffer", False), ("array", True), ("tensor", True)],
        ids=["grad-is-tensor", "grad-is-buffer", "buffer-is-tensor", "all-one-array"],
    )
    def test_one_array_in_two_roles_gets_numpys_result(self, grad, buffer_is_tensor):
        # Per element, the numpy body reads the gradient before the buffer
        # moves and the tensor after it, and so does the compiled step.
        params = init_params(5, 3, 2, ATTRIBUTE_BASED, seed=1)
        opt = init_opt_state(params, 0.1, 0.9, 0.01)
        if buffer_is_tensor:
            opt.buffers["W_g"] = params.W_g
        first = {"W_g": np.linspace(-1.0, 1.0, 15).reshape(3, 5)}
        steps = [first] + 2 * [{"W_g": first["W_g"] if grad == "array" else grad}]
        twin_steps(params, opt, steps)
        assert opt.scratch == {}

    @needs_a_compiler
    @pytest.mark.parametrize("role", ["grad", "buffer"])
    def test_arrays_that_overlap_at_an_offset_take_the_numpy_body(self, role):
        # A C-contiguous float64 view one element away from the tensor's
        # memory: element by element, C would read what it had just written.
        # Each path gets its own memory, as a deep copy would not overlap.
        written = []
        for compiled in (True, False):
            memory = np.linspace(-1.0, 1.0, 8)
            params = init_params(6, 1, 2, ATTRIBUTE_BASED, seed=2)
            params.b_h = memory[1:7]
            opt = init_opt_state(params, 0.1, 0.9, 0.01)
            grad = np.full(6, 0.25)
            if role == "grad":
                grad = memory[:6]
            else:
                opt.buffers["b_h"] = memory[2:8]
            run_steps(params, opt, 2 * [{"b_h": grad}], compiled)
            written.append(memory.tobytes())
            assert set(opt.scratch) == {"b_h"}
        assert written[0] == written[1]

    @needs_a_compiler
    @pytest.mark.skipif(not cpu_has_fma(), reason="no x86-64 CPU with FMA")
    def test_the_oracle_catches_a_fused_multiply_add(self, tmp_path):
        # Built as the flag mutant -mfma -ffp-contract=fast, the step rounds
        # buf*m + w and t - b*lr once each where numpy rounds twice, so the
        # byte comparisons above would fail if the build flags regressed.
        mutant = tmp_path / "fused.so"
        subprocess.run(
            [
                *_kernels._compiler(), "-O2", "-shared", "-fPIC", "-mfma", "-ffp-contract=fast",
                str(_kernels.SOURCE), "-o", str(mutant),
            ],
            stdin=subprocess.DEVNULL,
            capture_output=True,
            check=True,
        )
        shipped = _kernels.compiled().sgd_step
        fused = ctypes.CDLL(str(mutant)).fedzsl_sgd_step
        fused.argtypes, fused.restype = shipped.argtypes, shipped.restype
        rng = np.random.default_rng(5)
        t, g, buf = rng.standard_normal((3, 101))
        written = []
        for step in (shipped, fused):
            tensor, momentum = t.copy(), buf.copy()
            step(t.size, tensor.ctypes.data, g.ctypes.data, momentum.ctypes.data, 0.01, 0.9, 0.1)
            written.append(tensor.tobytes() + momentum.tobytes())
        assert written[1] != written[0]

    @needs_a_compiler
    def test_only_the_nan_a_sum_of_two_nans_keeps_may_differ(self):
        # IEEE 754 leaves open which NaN a sum of two NaNs returns: numpy's
        # add keeps its first operand's, the compiled one the compiler's
        # choice.  inf * 0 makes the default NaN, whose sign bit is set on
        # x86, and the gradient's NaN has it clear.  Training never meets
        # this, since the loss refuses non-finite gradients.
        params = init_params(4, 2, 2, ATTRIBUTE_BASED, seed=3)
        params.W_g[0] = np.inf
        opt = init_opt_state(params, 0.1, 0.9, 0.0)
        grad = np.ones((2, 4))
        grad[0] = np.nan
        twin, twin_opt = copy.deepcopy((params, opt))
        run_steps(params, opt, 2 * [{"W_g": grad}], True, check_finite=False)
        run_steps(twin, twin_opt, 2 * [{"W_g": grad}], False, check_finite=False)
        for got, want in ((params.W_g, twin.W_g), (opt.buffers["W_g"], twin_opt.buffers["W_g"])):
            assert np.array_equal(np.isnan(got), np.isnan(want))
            assert got[~np.isnan(got)].tobytes() == want[~np.isnan(want)].tobytes()
            assert np.isnan(got[0]).all() and not np.isnan(got[1]).any()


class TestCheckpointIo:
    def test_round_trip_attribute_based(self, tmp_path):
        params = tiny_params(seed=8)
        path = tmp_path / "model.csv"
        save_model(path, params)
        loaded = load_model(path)
        assert loaded.mode == ATTRIBUTE_BASED
        for name, tensor in params.tensors().items():
            assert np.array_equal(loaded.tensors()[name], tensor), name

    def test_round_trip_attribute_free(self, tmp_path):
        params = tiny_params(ATTRIBUTE_FREE, seed=8)
        sgd_step(params, {"W_c": np.full((3, 6), 0.125)}, init_opt_state(params, 0.5, 0.0, 0.0))
        path = tmp_path / "model.csv"
        save_model(path, params)
        loaded = load_model(path)
        assert loaded.mode == ATTRIBUTE_FREE
        for name, tensor in params.tensors().items():
            assert np.array_equal(loaded.tensors()[name], tensor), name

    def test_save_load_save_is_byte_identical(self, tmp_path):
        params = tiny_params(seed=2)
        save_model(tmp_path / "a.csv", params)
        save_model(tmp_path / "b.csv", load_model(tmp_path / "a.csv"))
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()

    @pytest.mark.parametrize("mode", [ATTRIBUTE_BASED, ATTRIBUTE_FREE])
    def test_file_bytes_are_pinned(self, tmp_path, mode):
        head = mode == ATTRIBUTE_FREE
        params = ModelParams(
            W_g=np.array([[0.5, -1.0, 0.1], [2.0, 0.0, -0.0]]),
            b_g=np.array([0.25, 1e-3]),
            W_h=np.array([[1.0, 3.0], [-2.5, 1.0 / 3.0], [0.0, 7.0]]),
            b_h=np.array([1e20, 123456789.0, -0.75]),
            mode=mode,
            W_c=np.array([[0.2, 0.0, 1.5], [-1.0, 4.0, 0.3]]) if head else None,
            b_c=np.array([0.0, -2.0]) if head else None,
        )
        expected = (
            "[W_g]\n2,3\n0.5,-1,0.10000000000000001\n2,0,-0\n"
            "[b_g]\n2\n0.25,0.001\n"
            "[W_h]\n3,2\n1,3\n-2.5,0.33333333333333331\n0,7\n"
            "[b_h]\n3\n1e+20,123456789,-0.75\n"
        )
        if head:
            expected += "[W_c]\n2,3\n0.20000000000000001,0,1.5\n-1,4,0.29999999999999999\n[b_c]\n2\n0,-2\n"
        path = tmp_path / "model.csv"
        save_model(path, params)
        assert path.read_bytes() == expected.encode()
        loaded = load_model(path)
        for name, tensor in params.tensors().items():
            got = loaded.tensors()[name]
            assert got.shape == tensor.shape and got.tobytes() == tensor.tobytes(), name

    @pytest.mark.parametrize("mode", [ATTRIBUTE_BASED, ATTRIBUTE_FREE])
    def test_bytes_equal_the_per_value_writer(self, tmp_path, mode):
        rng = np.random.default_rng(4)
        special = [
            -0.0, 0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 2.225073858507201e-308,
            1.7976931348623157e308, -1.7976931348623157e308, 1e-300, -1e300, 1e16, 1e17,
            0.1, 1.0 / 3.0, 123456789012345678.0,
        ]
        # Random bit patterns with the non-finite ones (exponent all ones) dropped.
        raw = rng.integers(0, 2**64, size=400, dtype=np.uint64).view(np.float64)
        pool = np.concatenate([special, raw[np.isfinite(raw)], rng.standard_normal(200)])
        params = init_params(d_v=9, d_a=7, num_seen=5, mode=mode, seed=1)
        tensors = {
            name: rng.choice(pool, size=tensor.shape) for name, tensor in params.tensors().items()
        }
        tensors["W_g"].flat[: len(special)] = special
        params = ModelParams(mode=mode, **tensors)
        save_model(tmp_path / "new.csv", params)
        save_model_per_value(tmp_path / "old.csv", params)
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()
        assert "-0," in (tmp_path / "new.csv").read_text() and "4.9406564584124654e-324" in (
            tmp_path / "new.csv"
        ).read_text()

    def test_truncated_file_is_rejected(self, tmp_path):
        params = tiny_params()
        path = tmp_path / "model.csv"
        save_model(path, params)
        lines = path.read_text().splitlines()
        path.write_text("\n".join(lines[:-1]) + "\n")
        with pytest.raises(ModelError):
            load_model(path)

    def test_negative_row_count_is_rejected(self, tmp_path):
        # Sliced as given, lines[2:-2] would be the one row "1,2" and the
        # section would step back to line 0, re-reading the file without
        # end; the alarm turns such a loop into a failure instead of a hang.
        path = tmp_path / "model.csv"
        path.write_text("[W_g]\n-4,2\n1,2\n[W_h]\n0,3\n")

        def stuck(signum, frame):
            raise AssertionError("load_model did not return")

        previous = signal.signal(signal.SIGALRM, stuck)
        signal.alarm(10)
        try:
            with pytest.raises(ModelError, match="model.csv line 2: negative dimensions '-4,2'"):
                load_model(path)
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)

    def test_missing_file_is_rejected(self, tmp_path):
        with pytest.raises(ModelError):
            load_model(tmp_path / "absent.csv")
