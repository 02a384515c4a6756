"""Parameter container, initialization, SGD arithmetic, and checkpoints."""
from __future__ import annotations

import math
import signal
from pathlib import Path

import numpy as np
import pytest

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
    init_opt_state,
    init_params,
    load_model,
    save_model,
    sgd_step,
)


def tiny_params(mode: str = ATTRIBUTE_BASED, seed: int = 0) -> ModelParams:
    return init_params(d_v=6, d_a=4, num_seen=3, mode=mode, seed=seed)


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


class TestInitParams:
    def test_deterministic_and_seed_sensitive(self):
        a = tiny_params(seed=4)
        b = tiny_params(seed=4)
        c = tiny_params(seed=5)
        assert np.array_equal(a.W_g, b.W_g)
        assert np.array_equal(a.W_h, b.W_h)
        assert not np.array_equal(a.W_g, c.W_g)

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

    def test_work_arrays_are_reused(self):
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
