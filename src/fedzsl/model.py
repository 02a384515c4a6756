"""Linear model parameters, initialization, forward maps, and SGD.

The attribute regressor g maps visual features to attribute space and the
decoder h maps attribute vectors back to visual space; both are single
linear layers so their spectral constants are exactly computable.  An
optional linear softmax classifier over the seen classes provides the
attribute-free baseline mode.  The three maps, ``forward_attr``,
``forward_decode`` and ``forward_head``, are one affine kernel with one
input rule, and the rest of the package evaluates the model only through
them.  Every class score is a column of ``forward_attr(v) @ A.values``, as
``compatibility_logits`` returns them.  Classic momentum SGD with weight
decay folded into the gradient is the only optimizer.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from fedzsl import _kernels
from fedzsl.dataset import AttributeMatrix, _as_features, _as_ids, _as_int, _read_block, _write_lines

ATTRIBUTE_BASED = "attribute-based"
ATTRIBUTE_FREE = "attribute-free"
MODES = (ATTRIBUTE_BASED, ATTRIBUTE_FREE)

DEFAULT_LEARNING_RATE = 1e-3
DEFAULT_MOMENTUM = 0.9
DEFAULT_WEIGHT_DECAY = 1e-5

_SECTION_ORDER = ("W_g", "b_g", "W_h", "b_h", "W_c", "b_c")


class ModelError(ValueError):
    """Invalid model parameters, gradients, or checkpoint content."""


@dataclass
class ModelParams:
    """Weights of the regressor g, decoder h, and optional seen-class head."""

    W_g: np.ndarray
    b_g: np.ndarray
    W_h: np.ndarray
    b_h: np.ndarray
    mode: str = ATTRIBUTE_BASED
    W_c: np.ndarray | None = None
    b_c: np.ndarray | None = None

    def __post_init__(self) -> None:
        if self.mode not in MODES:
            raise ModelError(f"mode must be one of {MODES}, got '{self.mode}'")
        for name in _SECTION_ORDER:
            if getattr(self, name) is not None:
                setattr(self, name, np.asarray(getattr(self, name), dtype=np.float64))
        if self.W_g.ndim != 2:
            raise ModelError("W_g must be a d_a x d_v matrix")
        d_a, d_v = self.W_g.shape
        if d_a < 1 or d_v < 1:
            raise ModelError(f"dimensions must be positive, got d_v={d_v} d_a={d_a}")
        if self.b_g.shape != (d_a,):
            raise ModelError(f"b_g must have shape ({d_a},), got {self.b_g.shape}")
        if self.W_h.shape != (d_v, d_a):
            raise ModelError(f"W_h must have shape ({d_v}, {d_a}), got {self.W_h.shape}")
        if self.b_h.shape != (d_v,):
            raise ModelError(f"b_h must have shape ({d_v},), got {self.b_h.shape}")
        if self.mode == ATTRIBUTE_BASED:
            if self.W_c is not None or self.b_c is not None:
                raise ModelError("attribute-based params must not carry a classifier head")
        else:
            if self.W_c is None or self.b_c is None:
                raise ModelError("attribute-free params require W_c and b_c")
            if self.W_c.ndim != 2 or self.W_c.shape[1] != d_v:
                raise ModelError(f"W_c must have shape (num_seen, {d_v}), got {self.W_c.shape}")
            if self.W_c.shape[0] < 1:
                raise ModelError(f"dimensions must be positive, got num_seen={self.W_c.shape[0]}")
            if self.b_c.shape != (self.W_c.shape[0],):
                raise ModelError(
                    f"b_c must have shape ({self.W_c.shape[0]},), got {self.b_c.shape}"
                )
        for name, tensor in self.tensors().items():
            if not np.all(np.isfinite(tensor)):
                raise ModelError(f"parameter {name} contains non-finite values")

    @property
    def d_a(self) -> int:
        """Attribute dimensionality."""
        return int(self.W_g.shape[0])

    @property
    def d_v(self) -> int:
        """Visual feature dimensionality."""
        return int(self.W_g.shape[1])

    def tensors(self) -> dict[str, np.ndarray]:
        """All parameter tensors by name, in a fixed order."""
        out = {"W_g": self.W_g, "b_g": self.b_g, "W_h": self.W_h, "b_h": self.b_h}
        if self.W_c is not None:
            out["W_c"] = self.W_c
            out["b_c"] = self.b_c
        return out

    def trainable_names(self) -> tuple[str, ...]:
        """Names of the tensors trained in this mode."""
        if self.mode == ATTRIBUTE_BASED:
            return ("W_g", "b_g", "W_h", "b_h")
        return ("W_c", "b_c")

    def clone(self) -> ModelParams:
        """Deep copy; simulated clients train private clones."""
        return ModelParams(mode=self.mode, **{k: t.copy() for k, t in self.tensors().items()})


@dataclass
class OptState:
    """Momentum buffers, per-tensor work arrays, and the SGD hyperparameters.

    ``scratch`` holds one work array per tensor that :func:`sgd_step` updates
    with its numpy body, allocated by the first such step and reused by
    every later one.  The compiled step updates a tensor in place and needs
    no work array, so in a process that has the compiled library and
    float64 tensors, ``scratch`` stays empty.
    """

    learning_rate: float = DEFAULT_LEARNING_RATE
    momentum: float = DEFAULT_MOMENTUM
    weight_decay: float = DEFAULT_WEIGHT_DECAY
    buffers: dict[str, np.ndarray] = field(default_factory=dict)
    scratch: dict[str, np.ndarray] = field(default_factory=dict, repr=False)

    def __post_init__(self) -> None:
        self.learning_rate = float(self.learning_rate)
        self.momentum = float(self.momentum)
        self.weight_decay = float(self.weight_decay)
        # Zero is allowed so a no-op training pass stays expressible.
        if not (math.isfinite(self.learning_rate) and self.learning_rate >= 0.0):
            raise ModelError(f"learning_rate must be finite and >= 0, got {self.learning_rate}")
        if not 0.0 <= self.momentum < 1.0:
            raise ModelError(f"momentum must lie in [0, 1), got {self.momentum}")
        if self.weight_decay < 0.0 or not math.isfinite(self.weight_decay):
            raise ModelError(f"weight_decay must be finite and >= 0, got {self.weight_decay}")


def init_opt_state(
    params: ModelParams,
    learning_rate: float = DEFAULT_LEARNING_RATE,
    momentum: float = DEFAULT_MOMENTUM,
    weight_decay: float = DEFAULT_WEIGHT_DECAY,
) -> OptState:
    """Optimizer state with zeroed momentum buffers for every trainable tensor."""
    tensors = params.tensors()
    buffers = {name: np.zeros_like(tensors[name]) for name in params.trainable_names()}
    return OptState(
        learning_rate=learning_rate,
        momentum=momentum,
        weight_decay=weight_decay,
        buffers=buffers,
    )


def init_params(d_v: int, d_a: int, num_seen: int, mode: str, seed: int) -> ModelParams:
    """Draw fresh parameters, deterministic per seed.

    Weight matrices are uniform in [-s, s] with s = sqrt(6/(fan_in+fan_out));
    biases start at zero.  The draw order is fixed (g weights, h weights,
    then the classifier head when present), so both modes share g and h
    initializations for a given seed.
    """
    d_v = _as_int(d_v, "d_v", ModelError)
    d_a = _as_int(d_a, "d_a", ModelError)
    num_seen = _as_int(num_seen, "num_seen", ModelError)
    seed = _as_int(seed, "seed", ModelError)
    if d_v < 1 or d_a < 1 or num_seen < 1:
        raise ModelError(f"dimensions must be positive, got d_v={d_v} d_a={d_a} num_seen={num_seen}")
    if mode not in MODES:
        raise ModelError(f"mode must be one of {MODES}, got '{mode}'")
    if seed < 0:
        raise ModelError(f"seed must be >= 0, got {seed}")
    rng = np.random.default_rng(seed)
    s_g = math.sqrt(6.0 / (d_v + d_a))
    W_g = rng.uniform(-s_g, s_g, size=(d_a, d_v))
    W_h = rng.uniform(-s_g, s_g, size=(d_v, d_a))
    W_c = b_c = None
    if mode == ATTRIBUTE_FREE:
        s_c = math.sqrt(6.0 / (d_v + num_seen))
        W_c = rng.uniform(-s_c, s_c, size=(num_seen, d_v))
        b_c = np.zeros(num_seen)
    return ModelParams(
        W_g=W_g,
        b_g=np.zeros(d_a),
        W_h=W_h,
        b_h=np.zeros(d_v),
        mode=mode,
        W_c=W_c,
        b_c=b_c,
    )


def _affine(W: np.ndarray, b: np.ndarray, x: np.ndarray, noun: str) -> np.ndarray:
    # W @ x + b for one vector, x @ W.T + b for a (B, n) batch, with the bias
    # added in place.  Input is widened by the feature rule: float32 stays
    # float32 and the product widens it exactly, anything else is float64.
    x = _as_features(x)
    n = W.shape[1]
    if x.ndim == 1:
        if x.shape[0] != n:
            raise ModelError(f"expected a length-{n} {noun} vector, got {x.shape}")
        out = W @ x
        out += b
        return out
    if x.ndim == 2:
        if x.shape[1] != n:
            raise ModelError(f"expected {noun}s with {n} columns, got {x.shape}")
        return _affine_rows(W, b, x)
    raise ModelError(f"{noun}s must be a vector or a 2-dimensional batch")


def _affine_rows(
    W: np.ndarray, b: np.ndarray, x: np.ndarray, out: np.ndarray | None = None
) -> np.ndarray:
    # x @ W.T + b for a checked (B, n) batch, into ``out`` when given (a
    # C-contiguous float64 array of its own; np.matmul writes the bits of @
    # into it at any alignment), else into a new array.  The step workspace
    # passes its own arrays, with its inputs checked once.
    out = np.matmul(x, W.T, out=out)
    out += b
    return out


def forward_attr(params: ModelParams, v: np.ndarray) -> np.ndarray:
    """Predicted attributes: W_g @ v + b_g (no nonlinearity).

    Accepts a single d_v vector or a batch of shape (B, d_v), in float32 or
    float64; the product widens float32 exactly.
    """
    return _affine(params.W_g, params.b_g, v, "feature")


def forward_decode(params: ModelParams, a: np.ndarray) -> np.ndarray:
    """Reconstructed features: W_h @ a + b_h.

    Accepts a single d_a vector or a batch of shape (B, d_a).
    """
    return _affine(params.W_h, params.b_h, a, "attribute")


def forward_head(params: ModelParams, v: np.ndarray) -> np.ndarray:
    """Seen-class logits of the attribute-free head: W_c @ v + b_c.

    Row ``i`` scores the ``i``-th smallest seen class id.  Accepts a single
    d_v vector or a batch of shape (B, d_v), in float32 or float64.
    """
    if params.mode != ATTRIBUTE_FREE:
        raise ModelError(f"forward_head requires {ATTRIBUTE_FREE} params, got {params.mode}")
    return _affine(params.W_c, params.b_c, v, "feature")


def compatibility_logits(
    a_hat: np.ndarray, A: AttributeMatrix, class_ids: tuple[int, ...] | list[int]
) -> np.ndarray:
    """Dot-product compatibility of predicted attributes with class prototypes.

    Returns the columns of ``a_hat @ A.values`` for the requested class ids, in
    the given order; accepts a single attribute vector or a (B, d_a) batch.
    """
    a_hat = np.asarray(a_hat, dtype=np.float64)
    ids = _as_ids(list(class_ids), "class ids", ModelError)
    bad = [c for c in ids.tolist() if c < 0 or c >= A.num_classes]
    if bad:
        raise ModelError(f"class ids {bad} are out of range for {A.num_classes} classes")
    if a_hat.ndim not in (1, 2):
        raise ModelError("predicted attributes must be a vector or a 2-dimensional batch")
    return np.take(a_hat @ A.values, ids, axis=-1)  # row-ordered, unlike [..., ids]


def sgd_step(
    params: ModelParams,
    grads: dict[str, np.ndarray],
    opt: OptState,
    check_finite: bool = True,
) -> ModelParams:
    """One momentum SGD update, in place; returns the mutated params.

    Per tensor: g' = grad + weight_decay * param; buf = momentum * buf + g';
    param -= learning_rate * buf.  Where the tensor, its gradient and its
    buffer are all non-empty, C-contiguous, aligned float64 arrays
    (``_kernels.fits``; the gradient may be read-only), the
    update runs as one compiled pass (``fedzsl_sgd_step`` in ``_kernels.c``)
    that performs, element by element, the IEEE operations of the numpy
    body; any other layout, or a process without the compiled library, runs
    the numpy body, which writes every product and sum into the tensor's
    work array in ``opt.scratch``.  Both write the same bits, save which NaN
    a sum of two different NaNs keeps (IEEE 754 leaves that open), and
    allocate nothing after the first step.

    Every gradient is validated before any tensor moves, so a rejected step
    leaves ``params`` and ``opt`` unchanged: it must name a trainable tensor
    that has a buffer of its shape, both writeable float arrays, and be an
    ndarray of that shape whose dtype casts to float64 under ``same_kind``.
    Finiteness contract: with ``check_finite`` (the default) a gradient
    holding a NaN or infinity raises ``ModelError``.  ``check_finite=False``
    skips that scan and is only for callers whose gradients were scanned
    already, as every ``LossReport`` scans its gradients on construction.

    Local training does not call this function at each step: its step
    workspace (``fedzsl.losses.StepWorkspace``) owns the gradient arrays,
    checks the tensors and buffers once per client, binds each tensor's
    compiled call once (``_bound_update``) and then runs this same update,
    compiled or numpy (``_numpy_update``), with nothing validated or looked
    up per step.
    """
    _check_update(params, grads, opt, check_finite)
    tensors = params.tensors()
    kernels = _kernels.compiled()
    for name, grad in grads.items():
        tensor, buf = tensors[name], opt.buffers[name]
        bound = _bound_update(kernels, tensor, grad, buf, opt)
        if bound is not None:
            kernels.sgd_step(*bound)
        else:
            _numpy_update(tensor, grad, buf, opt, name)
    return params


def _check_update(
    params: ModelParams, grads: dict[str, np.ndarray], opt: OptState, check_finite: bool
) -> None:
    # sgd_step's validation of every gradient, its tensor and its buffer.
    tensors = params.tensors()
    trainable = params.trainable_names()
    for name, grad in grads.items():
        if name not in tensors:
            raise ModelError(f"gradient for unknown tensor '{name}'")
        if name not in trainable:
            raise ModelError(f"tensor '{name}' is not trainable in {params.mode} mode")
        if not isinstance(grad, np.ndarray):
            raise ModelError(f"gradient for {name} must be an ndarray, got {type(grad).__name__}")
        if grad.dtype.kind not in _REAL_KINDS:
            raise ModelError(f"gradient for {name} has dtype {grad.dtype}, which is not real")
        if check_finite and not np.all(np.isfinite(grad)):
            raise ModelError(f"non-finite gradient for {name}")
        shape = tensors[name].shape
        if grad.shape != shape:
            raise ModelError(f"gradient shape {grad.shape} does not match {name} shape {shape}")
        if name not in opt.buffers:
            raise ModelError(f"optimizer state has no buffer for {name}")
        for role, array in (("tensor", tensors[name]), ("buffer", opt.buffers[name])):
            if not (
                isinstance(array, np.ndarray)
                and array.dtype.kind == "f"
                and array.flags.writeable
            ):
                raise ModelError(f"the {role} of {name} must be a writeable float array")
        if opt.buffers[name].shape != shape:
            raise ModelError(
                f"buffer shape {opt.buffers[name].shape} does not match {name} shape {shape}"
            )


def _bound_update(
    kernels: _kernels.Kernels | None,
    tensor: np.ndarray,
    grad: np.ndarray,
    buf: np.ndarray,
    opt: OptState,
) -> tuple | None:
    # The arguments of fedzsl_sgd_step for one tensor, or None where the
    # numpy body must run: no library, a layout the kernel does not take
    # (_kernels.fits), or arrays that overlap at an offset, which the numpy
    # body's ufuncs read whole before they write.  The addresses stay valid
    # while the arrays live and are not resized, so a caller that keeps the
    # arrays may bind them once and call the kernel at every step.
    if kernels is None or not _kernels.fits(_kernels.FLOAT64, tensor, grad, buf):
        return None
    t, g, b = _kernels.address(tensor), _kernels.address(grad), _kernels.address(buf)
    size = tensor.nbytes
    # Each pair is one array or two that share no byte.
    if (
        (t == g or t + size <= g or g + size <= t)
        and (t == b or t + size <= b or b + size <= t)
        and (g == b or g + size <= b or b + size <= g)
    ):
        return tensor.size, t, g, b, opt.weight_decay, opt.momentum, opt.learning_rate
    return None


def _numpy_update(
    tensor: np.ndarray, grad: np.ndarray, buf: np.ndarray, opt: OptState, name: str
) -> None:
    # sgd_step's numpy body, every product and sum written into the
    # tensor's work array in opt.scratch.
    work = opt.scratch.get(name)
    if work is None:
        work = opt.scratch[name] = np.empty_like(tensor)
    np.multiply(tensor, opt.weight_decay, out=work)
    np.add(grad, work, out=work)
    buf *= opt.momentum
    buf += work
    np.multiply(buf, opt.learning_rate, out=work)
    tensor -= work


# The dtype kinds that cast to float64 under same_kind: bool, signed and
# unsigned integers, and floats.
_REAL_KINDS = "biuf"


def save_model(path: str | Path, params: ModelParams) -> None:
    """Write a sectioned CSV checkpoint; 17 significant digits round-trip exactly.

    Each section is a ``[name]`` header, its shape, and one line per row; a vector is one row.
    """
    lines: list[str] = []
    for name, tensor in params.tensors().items():  # in _SECTION_ORDER
        lines.append(f"[{name}]")
        lines.append(",".join(str(d) for d in tensor.shape))
        for row in np.atleast_2d(tensor):
            lines.append(",".join(map("%.17g".__mod__, row.tolist())))
    _write_lines(path, lines)


def load_model(path: str | Path) -> ModelParams:
    """Read a checkpoint written by :func:`save_model`.

    The mode is inferred from the presence of the classifier-head section.
    A vector section is read as a block of one row.  Each block is parsed
    in bulk; one the bulk reader refuses is parsed line by line, which
    names the line of a malformed value.
    """
    path = Path(path)
    if not path.is_file():
        raise ModelError(f"checkpoint not found: {path}")
    lines = path.read_text().splitlines()
    sections: dict[str, np.ndarray] = {}
    i = 0
    while i < len(lines):
        header = lines[i].strip()
        match = re.fullmatch(r"\[(\w+)\]", header)
        if not match:
            raise ModelError(f"{path.name} line {i + 1}: expected a section header, got '{header}'")
        name = match.group(1)
        if name not in _SECTION_ORDER:
            raise ModelError(f"{path.name} line {i + 1}: unknown section '{name}'")
        if i + 1 >= len(lines):
            raise ModelError(f"{path.name}: section [{name}] is missing its dimension line")
        dims = lines[i + 1].split(",")
        try:
            shape = tuple(int(d) for d in dims)
        except ValueError:
            raise ModelError(
                f"{path.name} line {i + 2}: cannot parse dimensions '{lines[i + 1]}'"
            ) from None
        if len(shape) not in (1, 2):
            raise ModelError(f"{path.name}: section [{name}] has unsupported rank {len(shape)}")
        vector = len(shape) == 1
        rows, cols = (1, *shape) if vector else shape
        if rows < 0 or cols < 0:
            raise ModelError(f"{path.name} line {i + 2}: negative dimensions '{lines[i + 1]}'")
        block = lines[i + 2 : i + 2 + rows]
        if len(block) < rows:
            missing = "is missing its value line" if vector else f"declares {rows} rows, ran out of lines"
            raise ModelError(f"{path.name}: section [{name}] {missing}")
        parsed = _read_block(block, rows, cols)
        if parsed is not None:
            values = parsed["f"]
        else:
            read: list[list[float]] = []
            for line_no, line in enumerate(block, start=i + 3):
                parts = line.split(",")
                if len(parts) != cols:
                    raise ModelError(
                        f"{path.name} line {line_no}: expected {cols} values, found {len(parts)}"
                    )
                try:
                    read.append([float(tok) for tok in parts])
                except ValueError:
                    raise ModelError(f"{path.name} line {line_no}: cannot parse a value") from None
            # An empty block is a 0-row section.
            values = np.array(read) if read else np.empty((rows, cols))
        sections[name] = values[0] if vector else values
        i += 2 + rows
    for required in ("W_g", "b_g", "W_h", "b_h"):
        if required not in sections:
            raise ModelError(f"{path.name}: missing required section [{required}]")
    has_head = "W_c" in sections
    if has_head != ("b_c" in sections):
        raise ModelError(f"{path.name}: W_c and b_c must be present together")
    return ModelParams(mode=ATTRIBUTE_FREE if has_head else ATTRIBUTE_BASED, **sections)
