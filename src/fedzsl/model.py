"""Linear model parameters, initialization, forward maps, and SGD.

The attribute regressor g maps visual features to attribute space and the
decoder h maps attribute vectors back to visual space; both are single
linear layers so their spectral constants are exactly computable.  An
optional linear softmax classifier over the seen classes provides the
attribute-free baseline mode.  Classic momentum SGD with weight decay
folded into the gradient is the only optimizer.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from fedzsl.dataset import AttributeMatrix, _as_features, _read_block

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
        self.W_g = np.asarray(self.W_g, dtype=np.float64)
        self.b_g = np.asarray(self.b_g, dtype=np.float64)
        self.W_h = np.asarray(self.W_h, dtype=np.float64)
        self.b_h = np.asarray(self.b_h, dtype=np.float64)
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
            self.W_c = np.asarray(self.W_c, dtype=np.float64)
            self.b_c = np.asarray(self.b_c, dtype=np.float64)
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
        return ModelParams(
            W_g=self.W_g.copy(),
            b_g=self.b_g.copy(),
            W_h=self.W_h.copy(),
            b_h=self.b_h.copy(),
            mode=self.mode,
            W_c=None if self.W_c is None else self.W_c.copy(),
            b_c=None if self.b_c is None else self.b_c.copy(),
        )


@dataclass
class OptState:
    """Momentum buffers, per-tensor work arrays, and the SGD hyperparameters.

    ``scratch`` holds one work array per tensor, allocated by the first
    :func:`sgd_step` that updates it and reused by every later step.
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
    d_v, d_a, num_seen = int(d_v), int(d_a), int(num_seen)
    if d_v < 1 or d_a < 1 or num_seen < 1:
        raise ModelError(f"dimensions must be positive, got d_v={d_v} d_a={d_a} num_seen={num_seen}")
    if mode not in MODES:
        raise ModelError(f"mode must be one of {MODES}, got '{mode}'")
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


def forward_attr(params: ModelParams, v: np.ndarray) -> np.ndarray:
    """Predicted attributes: W_g @ v + b_g (no nonlinearity).

    Accepts a single d_v vector or a batch of shape (B, d_v), in float32 or
    float64; the product widens float32 exactly.
    """
    v = _as_features(v)
    if v.ndim == 1:
        if v.shape[0] != params.d_v:
            raise ModelError(f"expected a length-{params.d_v} feature vector, got {v.shape}")
        out = params.W_g @ v
    elif v.ndim == 2:
        if v.shape[1] != params.d_v:
            raise ModelError(f"expected features with {params.d_v} columns, got {v.shape}")
        out = v @ params.W_g.T
    else:
        raise ModelError("features must be a vector or a 2-dimensional batch")
    out += params.b_g
    return out


def forward_decode(params: ModelParams, a: np.ndarray) -> np.ndarray:
    """Reconstructed features: W_h @ a + b_h.

    Accepts a single d_a vector or a batch of shape (B, d_a).
    """
    a = np.asarray(a, dtype=np.float64)
    if a.ndim == 1:
        if a.shape[0] != params.d_a:
            raise ModelError(f"expected a length-{params.d_a} attribute vector, got {a.shape}")
        out = params.W_h @ a
    elif a.ndim == 2:
        if a.shape[1] != params.d_a:
            raise ModelError(f"expected attributes with {params.d_a} columns, got {a.shape}")
        out = a @ params.W_h.T
    else:
        raise ModelError("attributes must be a vector or a 2-dimensional batch")
    out += params.b_h
    return out


def compatibility_logits(
    a_hat: np.ndarray, A: AttributeMatrix, class_ids: tuple[int, ...] | list[int]
) -> np.ndarray:
    """Dot-product compatibility of predicted attributes with class prototypes.

    Returns one logit per requested class id, in the given order; accepts a
    single attribute vector or a (B, d_a) batch.
    """
    a_hat = np.asarray(a_hat, dtype=np.float64)
    ids = [int(c) for c in class_ids]
    bad = [c for c in ids if c < 0 or c >= A.num_classes]
    if bad:
        raise ModelError(f"class ids {bad} are out of range for {A.num_classes} classes")
    prototypes = A.values[:, ids]
    if a_hat.ndim == 1:
        return prototypes.T @ a_hat
    if a_hat.ndim == 2:
        return a_hat @ prototypes
    raise ModelError("predicted attributes must be a vector or a 2-dimensional batch")


def sgd_step(
    params: ModelParams,
    grads: dict[str, np.ndarray],
    opt: OptState,
    check_finite: bool = True,
) -> ModelParams:
    """One momentum SGD update, in place; returns the mutated params.

    Per tensor: g' = grad + weight_decay * param; buf = momentum * buf + g';
    param -= learning_rate * buf.  Every product and sum is written into the
    tensor's work array in ``opt.scratch``, so a step allocates nothing after
    the first and performs the same IEEE operations as the expression form.

    Every gradient is validated before any tensor moves, so a rejected step
    leaves ``params`` and ``opt`` unchanged.  Finiteness contract: with
    ``check_finite`` (the default) a gradient holding a NaN or infinity
    raises ``ModelError``.  ``check_finite=False`` skips that scan and is
    only for callers whose gradients were scanned already; every
    ``LossReport`` scans its gradients on construction, which is why local
    training passes it.
    """
    tensors = params.tensors()
    trainable = params.trainable_names()
    for name, grad in grads.items():
        if name not in tensors:
            raise ModelError(f"gradient for unknown tensor '{name}'")
        if name not in trainable:
            raise ModelError(f"tensor '{name}' is not trainable in {params.mode} mode")
        if check_finite and not np.all(np.isfinite(grad)):
            raise ModelError(f"non-finite gradient for {name}")
        if grad.shape != tensors[name].shape:
            raise ModelError(
                f"gradient shape {grad.shape} does not match {name} shape {tensors[name].shape}"
            )
        if name not in opt.buffers:
            raise ModelError(f"optimizer state has no buffer for {name}")
    for name, grad in grads.items():
        tensor = tensors[name]
        buf = opt.buffers[name]
        work = opt.scratch.get(name)
        if work is None:
            work = opt.scratch[name] = np.empty_like(tensor)
        np.multiply(tensor, opt.weight_decay, out=work)
        np.add(grad, work, out=work)
        buf *= opt.momentum
        buf += work
        np.multiply(buf, opt.learning_rate, out=work)
        tensor -= work
    return params


def save_model(path: str | Path, params: ModelParams) -> None:
    """Write a sectioned CSV checkpoint; 17 significant digits round-trip exactly.

    Each section is a ``[name]`` header, its shape, and one line per row; a vector is one row.
    """
    lines: list[str] = []
    for name in _SECTION_ORDER:
        tensor = params.tensors().get(name)
        if tensor is None:
            continue
        lines.append(f"[{name}]")
        lines.append(",".join(str(d) for d in tensor.shape))
        for row in np.atleast_2d(tensor):
            lines.append(",".join(map("%.17g".__mod__, row.tolist())))
    Path(path).write_text("\n".join(lines) + "\n")


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
    return ModelParams(
        W_g=sections["W_g"],
        b_g=sections["b_g"],
        W_h=sections["W_h"],
        b_h=sections["b_h"],
        mode=ATTRIBUTE_FREE if has_head else ATTRIBUTE_BASED,
        W_c=sections.get("W_c"),
        b_c=sections.get("b_c"),
    )
