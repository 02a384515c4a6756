"""Workloads of the fedzsl benchmark: inputs, one pass, output checks.

A pass is one closed-loop use of the package, calling the public fedzsl
functions in the order the CLI calls them: ``fedzsl run`` for the training
workloads (load, glasso, targets, run_simulation, write metrics.csv, save
the checkpoint) and ``fedzsl eval`` then ``fedzsl check`` for the audit
(load, load the checkpoint, split, evaluate, theory report, check suite).
Every call goes through a module attribute, so the tracer can wrap it.

The inputs are written by this file from the workload seed, in the
documented dataset and checkpoint formats; the program only reads them.
"""

from __future__ import annotations

import hashlib
import json
import math
import signal
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

import fedzsl as fz

# The header metrics.csv must carry, kept here so a change to it shows.
METRICS_HEADER = "round,acc_c,acc_u,acc_s,acc_h,global_loss,client_loss_mean,client_loss_std"
TAU = 4.0
GROUPS = 4  # semantic attribute groups
SPARSITY = 0.3  # share of zeroed prototype entries
NOISE_STD = 0.1


@dataclass(frozen=True)
class Shape:
    """Synthetic data: class counts, dimensions and rows per class."""

    num_seen: int
    num_unseen: int
    d_a: int
    d_v: int
    rows_per_class: int


@dataclass(frozen=True)
class Workload:
    """One benchmark workload; ``kind`` is ``train`` or ``audit``."""

    name: str
    why: str
    kind: str
    shape: Shape
    rounds: int = 0
    num_clients: int = 0
    sample_fraction: float = 1.0
    batch_size: int = 64
    local_epochs: int = 2
    eval_every: int = 1
    theory_rows: int = 0
    check_trials: int = 0
    # Median step time of each Calibration kernel on the host this was built
    # on; the first kernel is the default for a phase (see kernel()).
    cal_ref_s: dict[str, float] = field(default_factory=dict)

    def kernel(self, phase: str) -> str:
        """The Calibration kernel that phase ``phase`` is measured against."""
        kernel = PHASE_KERNELS.get(phase)
        return kernel if kernel in self.cal_ref_s else next(iter(self.cal_ref_s))


# Phases with a kernel of their own, where the workload has that kernel.
PHASE_KERNELS = {"setup.glasso": "lasso", "setup.load": "csv", "setup.model": "csv"}


CUB = Shape(num_seen=150, num_unseen=50, d_a=312, d_v=256, rows_per_class=40)
AWA = Shape(num_seen=40, num_unseen=10, d_a=85, d_v=256, rows_per_class=120)

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="cub_train",
            why="CUB-shaped heavy compute: B x d_a x C loss products, the per-round "
            "global loss and a 200-class glasso solve dominate",
            kind="train",
            shape=CUB,
            rounds=4,
            num_clients=10,
            batch_size=64,
            local_epochs=2,
            eval_every=1,
            cal_ref_s={"step": 1.26e-3, "lasso": 1.08e-3},
        ),
        Workload(
            name="awa_many_clients",
            why="AwA-shaped, 20 clients of 2 classes, half sampled, batch 16: "
            "per-step and per-client fixed costs dominate",
            kind="train",
            shape=AWA,
            rounds=10,
            num_clients=20,
            sample_fraction=0.5,
            batch_size=16,
            local_epochs=1,
            eval_every=5,
            cal_ref_s={"step": 9.9e-5, "lasso": 2.27e-4},
        ),
        Workload(
            name="audit",
            why="CSV load, checkpoint load, evaluate, the O(n^2) theory report and "
            "the check suite; no training, so training changes leave it flat",
            kind="audit",
            shape=CUB,
            theory_rows=1000,
            check_trials=1000,
            cal_ref_s={"pairs": 1.35e-3, "csv": 4.75e-4},
        ),
    )
}


def tiny(w: Workload) -> Workload:
    """The same workload at a scale that runs in a fraction of a second."""
    shape = Shape(num_seen=8, num_unseen=3, d_a=12, d_v=16, rows_per_class=10)
    return replace(
        w,
        name=w.name + ".tiny",
        shape=shape,
        rounds=min(w.rounds, 3),
        num_clients=min(w.num_clients, 4),
        batch_size=min(w.batch_size, 8),
        theory_rows=min(w.theory_rows, 20),
        check_trials=min(w.check_trials, 50),
    )


# ---------------------------------------------------------------- inputs


def _make_data(shape: Shape, seed: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    # Sparse unit-norm class prototypes, a hidden attribute -> feature map,
    # and isotropic noise around each class's mapped prototype.
    rng = np.random.default_rng(seed)
    classes = shape.num_seen + shape.num_unseen
    raw = rng.standard_normal((shape.d_a, classes))
    raw *= rng.random((shape.d_a, classes)) >= SPARSITY
    raw[0, ~raw.any(axis=0)] = 1.0
    prototypes = raw / np.linalg.norm(raw, axis=0)
    mixing = rng.standard_normal((shape.d_v, shape.d_a)) / math.sqrt(shape.d_a)
    labels = np.repeat(np.arange(classes), shape.rows_per_class)
    noise = rng.standard_normal((labels.size, shape.d_v))
    features = prototypes[:, labels].T @ mixing.T + NOISE_STD * noise
    return prototypes, features, labels


def _csv_rows(rows) -> str:
    return "".join(",".join(map(repr, row)) + "\n" for row in rows)


def _ridge(x: np.ndarray, y: np.ndarray, lam: float) -> tuple[np.ndarray, np.ndarray]:
    x_mean, y_mean = x.mean(axis=0), y.mean(axis=0)
    xc, yc = x - x_mean, y - y_mean
    weights = np.linalg.solve(xc.T @ xc + lam * np.eye(x.shape[1]), xc.T @ yc).T
    return weights, y_mean - weights @ x_mean


def _write_checkpoint(path: Path, tensors: dict[str, np.ndarray]) -> None:
    lines = []
    for name, tensor in tensors.items():
        lines.append(f"[{name}]")
        lines.append(",".join(str(n) for n in tensor.shape))
        for row in tensor if tensor.ndim == 2 else [tensor]:
            lines.append(",".join("%.17g" % v for v in row.tolist()))
    path.write_text("\n".join(lines) + "\n")


def make_inputs(w: Workload, seed: int, root: Path) -> Path:
    """Write the workload's dataset directory (and the audit checkpoint)."""
    s = w.shape
    prototypes, features, labels = _make_data(s, seed)
    data = root / "data"
    data.mkdir(parents=True, exist_ok=True)
    header = f"{s.d_a},{prototypes.shape[1]}\n"
    (data / "attributes.csv").write_text(header + _csv_rows(prototypes.tolist()))
    bounds = np.linspace(0, s.d_a, GROUPS + 1).astype(int)
    (data / "groups.csv").write_text("".join(f"{a},{b}\n" for a, b in zip(bounds, bounds[1:])))
    seen = ",".join(str(c) for c in range(s.num_seen))
    unseen = ",".join(str(c) for c in range(s.num_seen, s.num_seen + s.num_unseen))
    (data / "splits.csv").write_text(f"seen:{seen}\nunseen:{unseen}\n")
    n = labels.size
    if w.kind == "train":
        header = np.asarray([n, s.d_v], dtype="<u4").tobytes()
        (data / "features.bin").write_bytes(header + features.astype("<f4").tobytes())
        (data / "labels.csv").write_text("".join(f"{y}\n" for y in labels.tolist()))
    else:  # the audit reads CSV and a checkpoint fitted by ridge regression
        rows = [[y] + row for y, row in zip(labels.tolist(), features.tolist())]
        (data / "features.csv").write_text(f"{n},{s.d_v}\n" + _csv_rows(rows))
        seen_rows = labels < s.num_seen
        attrs = prototypes[:, labels[seen_rows]].T
        W_g, b_g = _ridge(features[seen_rows], attrs, 1e-3)
        W_h, b_h = _ridge(attrs, features[seen_rows], 1e-3)
        _write_checkpoint(root / "model.csv", {"W_g": W_g, "b_g": b_g, "W_h": W_h, "b_h": b_h})
    return data


# ---------------------------------------------------------------- clock

# The host's speed changes by up to a factor of two, often within a second
# (other tenants share the cores and their caches), which no number of
# passes averages away, and different work slows by different amounts.  So
# miniatures of the workload's hot loops, benchmark code that no change to
# fedzsl can speed up, are timed around every phase of every pass and
# sampled ten times a second while it runs (PhaseClock).  run.py counts
# each phase in steps of its kernel (Workload.kernel): its wall seconds
# times the mean step rate sampled over it.  Times are reported in
# reference seconds: per phase, the median over passes of that count times
# the kernel's cal_ref_s.


class Calibration:
    """Miniatures of one workload's hot loops, timed to track host speed.

    ``step`` is a loss-and-gradient step at a training workload's batch
    shape, ``lasso`` one column of the glasso sweep at its class count,
    ``pairs`` a stretch of the theory report's pair loop and ``csv`` the
    parsing of a few feature rows.  The last two walk through as much
    memory as the audit does, because the host's shared cache slows work
    by how much memory it walks through.
    """

    ROWS = 1000  # as many as the audit's theory report pairs up
    PAIRS_PER_STEP = 200
    LINES_PER_STEP = 4

    def __init__(self, w: Workload) -> None:
        rng = np.random.default_rng(0)
        s = w.shape
        classes = s.num_seen + s.num_unseen
        self.kernels = {name: getattr(self, "_" + name) for name in w.cal_ref_s}
        self.pair_at = self.line_at = 0  # where the pairs and csv kernels are in their data
        if "step" in self.kernels:
            self.x = rng.standard_normal((w.batch_size, s.d_v))
            self.W = rng.standard_normal((s.d_a, s.d_v)) / math.sqrt(s.d_v)
            self.A = rng.standard_normal((s.d_a, classes)) / math.sqrt(s.d_a)
        if "lasso" in self.kernels:
            m = rng.standard_normal((classes, classes))
            self.G = m @ m.T / classes + np.eye(classes)  # positive definite, like the covariance
        if "pairs" in self.kernels:
            self.rows_a = rng.standard_normal((self.ROWS, s.d_a))
            self.rows_v = rng.standard_normal((self.ROWS, s.d_v))
        if "csv" in self.kernels:
            self.lines = _csv_rows(rng.standard_normal((self.ROWS, s.d_v)).tolist()).splitlines()
        self.repeats = {}
        for name, kernel in self.kernels.items():
            kernel()  # warm-up
            start = time.perf_counter()
            kernel()
            self.repeats[name] = max(1, int(0.01 / (time.perf_counter() - start)))

    def _step(self) -> None:
        z = (self.x @ self.W.T) @ self.A
        p = np.exp(z - z.max(axis=1, keepdims=True))
        p /= p.sum(axis=1, keepdims=True)
        grad = (p @ self.A.T).T @ self.x
        self.W - 1e-6 * grad  # an SGD update's memory traffic; W stays fixed

    def _lasso(self) -> None:
        G = self.G
        rest = np.arange(1, G.shape[0])
        w12 = G[rest, 0]
        q = G[np.ix_(rest, rest)] - np.outer(w12, w12) / G[0, 0]
        b = np.zeros(rest.size)
        r = q @ b
        for i in range(b.size):  # one coordinate-descent pass, every coordinate moving
            partial = w12[i] + r[i] - q[i, i] * b[i]
            new = math.copysign(max(abs(partial) - 0.01, 0.0), -partial) / q[i, i]
            step = new - b[i]
            b[i] = new
            r += q[:, i] * step
        G[np.ix_(rest, rest)] + np.outer(r, r)  # the scatter's arithmetic; G stays fixed

    def _pairs(self) -> None:
        # The next PAIRS_PER_STEP pairs of the loop over (i, all rows j).
        k, a, v = self.pair_at, self.rows_a, self.rows_v
        self.pair_at = (k + self.PAIRS_PER_STEP) % (self.ROWS * self.ROWS)
        i, start = divmod(k, self.ROWS)
        worst = -math.inf
        for j in range(start, start + self.PAIRS_PER_STEP):
            lhs = float(np.linalg.norm(a[i] - a[j]))
            rhs = float(np.linalg.norm(v[i] - v[j])) / 2.0 - 0.1
            worst = max(worst, rhs - lhs)

    def _csv(self) -> None:
        k = self.line_at
        self.line_at = (k + self.LINES_PER_STEP) % self.ROWS
        out = np.empty((self.LINES_PER_STEP, len(self.lines[0].split(","))))
        for row, line in enumerate(self.lines[k : k + self.LINES_PER_STEP]):
            values = [float(t) for t in line.split(",")]
            out[row] = [v for v in values if math.isfinite(v)]

    def __call__(self, chunks: int = 5) -> dict[str, float]:
        """Median seconds of one step of each kernel, over chunks of about 10 ms."""
        return {
            name: statistics.median(self._chunk(name, self.repeats[name]) for _ in range(chunks))
            for name in self.kernels
        }

    def sample(self) -> dict[str, float]:
        """Seconds of one step of each kernel, over a chunk of about 2 ms.

        Each chunk follows an untimed step, so the kernel's data is back in
        cache whatever ran before it.
        """
        times = {}
        for name, kernel in self.kernels.items():
            kernel()
            times[name] = self._chunk(name, max(1, self.repeats[name] // 5))
        return times

    def _chunk(self, name: str, steps: int) -> float:
        kernel = self.kernels[name]
        start = time.perf_counter()
        for _ in range(steps):
            kernel()
        return (time.perf_counter() - start) / steps


class PhaseClock:
    """Wall seconds of named consecutive phases, and the host's speed during each.

    The kernels are timed before the first phase and after each phase, and
    sampled every TICK_S seconds while a phase runs, from a SIGALRM handler;
    the handler's time is left out of the phase.  Use it as a context
    manager, so the timer stops however the pass ends.
    """

    TICK_S = 0.1

    def __init__(self, calibrate: Calibration) -> None:
        self._calibrate = calibrate
        self.laps: dict[str, float] = {}
        self.cal: list[dict[str, float]] = []
        self.ticks: list[dict[str, list[float]]] = []

    def __enter__(self) -> PhaseClock:
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        self._begin()
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def _begin(self) -> None:
        self.cal.append(self._calibrate())
        self._samples: dict[str, list[float]] = {name: [] for name in self._calibrate.kernels}
        self._handler_s = 0.0
        self._start = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, self.TICK_S, self.TICK_S)

    def _tick(self, signum, frame) -> None:
        start = time.perf_counter()
        for name, seconds in self._calibrate.sample().items():
            self._samples[name].append(seconds)
        self._handler_s += time.perf_counter() - start

    def lap(self, name: str) -> None:
        """Close the current phase under ``name`` and start the next."""
        end = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, 0)
        self.laps[name] = end - self._start - self._handler_s
        self.ticks.append(self._samples)
        self._begin()


# ---------------------------------------------------------------- passes


@dataclass
class PassResult:
    """Timings, outcome and operation counts of one pass."""

    laps: dict[str, float]  # wall seconds per phase, named "setup.*", "work.*" or "output.*"
    attempted: int
    failed: int
    outcome: str  # metrics.csv digest, or the audit counts as JSON
    cal_s: tuple[dict[str, float], ...] = ()  # kernel step times around the phases, see PhaseClock
    ticks: tuple[dict[str, list[float]], ...] = ()  # and sampled during each phase
    rows: int = 0  # local training rows visited
    checkpoint_bytes: int = 0
    load_bytes: int = 0

    def seconds(self, *groups: str) -> float:
        """Wall seconds of the phases in ``groups`` (all phases without one)."""
        return sum(t for n, t in self.laps.items() if not groups or n.split(".")[0] in groups)

    def steps(self, name: str, kernel: str) -> float:
        """Phase ``name`` in steps of ``kernel``: its wall seconds times the
        mean step rate sampled just before, during and just after it."""
        i = list(self.laps).index(name)
        times = [self.cal_s[i][kernel], self.cal_s[i + 1][kernel], *self.ticks[i][kernel]]
        return self.laps[name] * statistics.fmean(1.0 / t for t in times)


def _train_config(w: Workload, seed: int) -> fz.TrainConfig:
    return fz.TrainConfig(
        rounds=w.rounds,
        num_clients=w.num_clients,
        local_epochs=w.local_epochs,
        batch_size=w.batch_size,
        sample_fraction=w.sample_fraction,
        seed=seed,
        eval_every=w.eval_every,
        partition=fz.PartitionSpec(scheme="pccd", num_clients=w.num_clients, seed=seed),
    )


def _bad_rounds(w: Workload, text: str) -> int:
    # Rows that break an invariant: a non-finite loss, an accuracy outside
    # [0, 100], or accuracy cells that do not follow the eval cadence.
    lines = text.splitlines()
    if not lines or lines[0] != METRICS_HEADER or len(lines) != w.rounds + 1:
        return w.rounds
    bad = 0
    for r, line in enumerate(lines[1:]):
        cells = line.split(",")
        try:
            accs = cells[1:5]
            losses = [float(c) for c in cells[5:8]]
            due = (r + 1) % w.eval_every == 0 or r == w.rounds - 1
            ok = int(cells[0]) == r and all(math.isfinite(v) for v in losses)
            if due:
                ok = ok and all(0.0 <= float(a) <= 100.0 for a in accs)
            else:
                ok = ok and all(a == "" for a in accs)
        except (ValueError, IndexError):
            ok = False
        bad += not ok
    return bad


def _dir_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.iterdir() if p.is_file())


def train_pass(w: Workload, seed: int, data: Path, out: Path, clock: PhaseClock) -> PassResult:
    """``fedzsl run``: setup, run_simulation, then write the outputs."""
    out.mkdir(parents=True, exist_ok=True)
    ds, attrs = fz.load_dataset(data)
    cfg = _train_config(w, seed)
    clock.lap("setup.load")
    sim = fz.graphical_lasso(fz.sample_covariance(attrs, standardize=True), fz.GlassoConfig())
    cfg.distill = fz.DistillConfig(tau=TAU, targets=fz.distill_targets(sim.gamma, TAU))
    clock.lap("setup.glasso")
    trace = fz.run_simulation(ds, attrs, cfg, threads=1)
    clock.lap("work.simulate")
    text = fz.metrics_to_csv(trace)
    (out / "metrics.csv").write_text(text)
    fz.save_model(out / "final_model.csv", trace.final_params)
    clock.lap("output.write")
    sizes = [a.size for a in trace.client_partition.assignments]
    rows = w.local_epochs * sum(
        sizes[k]
        for r in range(w.rounds)
        for k in fz.sample_clients(w.num_clients, w.sample_fraction, r, seed)
    )
    failed = w.rounds if not sim.converged else _bad_rounds(w, text)
    return PassResult(
        laps=clock.laps,
        attempted=w.rounds,
        failed=failed,
        outcome=hashlib.sha256(text.encode()).hexdigest(),
        cal_s=tuple(clock.cal),
        ticks=tuple(clock.ticks),
        rows=rows,
        checkpoint_bytes=(out / "final_model.csv").stat().st_size,
        load_bytes=_dir_bytes(data),
    )


AUDIT_OPS = 9  # evaluate, two report checks, six suite checks


def audit_pass(w: Workload, seed: int, data: Path, out: Path, clock: PhaseClock) -> PassResult:
    """``fedzsl eval`` then ``fedzsl check``, plus the trained-model report."""
    ds, attrs = fz.load_dataset(data)
    clock.lap("setup.load")
    params = fz.load_model(data.parent / "model.csv")
    train, test_seen, test_unseen = fz.split_train_test(ds, seed)
    clock.lap("setup.model")
    scores = fz.evaluate(params, test_seen, test_unseen, attrs, ds.split)
    clock.lap("work.evaluate")
    rows = np.sort(np.random.default_rng(seed).choice(train.num_samples, w.theory_rows, replace=False))
    report = fz.build_theory_report(params, train.features[rows], train.labels[rows], attrs)
    clock.lap("work.report")
    suite = fz.run_check_suite(trials=w.check_trials, seed=seed)
    clock.lap("work.suite")
    accs = (scores.acc_c, scores.acc_u, scores.acc_s, scores.acc_h)
    counts = {
        "report": dict(sorted(report.violations.items())),
        "refusals": sorted(report.refusals),
        "suite": {r.name: r.violations for r in suite},
    }
    return PassResult(
        laps=clock.laps,
        cal_s=tuple(clock.cal),
        ticks=tuple(clock.ticks),
        attempted=AUDIT_OPS,
        failed=int(not all(a is not None and 0.0 <= a <= 100.0 for a in accs)),
        outcome=json.dumps(counts, sort_keys=True),
        checkpoint_bytes=(data.parent / "model.csv").stat().st_size,
        load_bytes=_dir_bytes(data),
    )


def audit_mismatches(outcome: str, expected: str | None) -> int:
    """Audit operations whose counts differ from the reference.

    Without a reference, every suite check must report zero violations.
    """
    got = json.loads(outcome)
    if expected is None:
        return sum(v != 0 for v in got["suite"].values())
    want = json.loads(expected)
    bad = sum(got["report"].get(k) != v for k, v in want["report"].items())
    bad += sum(got["suite"].get(k) != v for k, v in want["suite"].items())
    bad += got["refusals"] != want["refusals"]
    return min(bad, AUDIT_OPS)


def run_pass(w: Workload, seed: int, data: Path, out: Path, cal: Calibration) -> PassResult:
    """One pass; an exception fails every operation of the pass."""
    run = train_pass if w.kind == "train" else audit_pass
    t0 = time.perf_counter()
    try:
        with PhaseClock(cal) as clock:
            return run(w, seed, data, out, clock)
    except Exception:  # the pass is the boundary that must keep the run going
        traceback.print_exc(file=sys.stderr)
        ops = w.rounds if w.kind == "train" else AUDIT_OPS
        wall = time.perf_counter() - t0
        return PassResult({"failed.pass": wall}, ops, ops, "exception")


# ------------------------------------------------------ per-term timings


def loss_term_timings(w: Workload, seed: int, data: Path, calls: int) -> dict[str, float]:
    """Median seconds of one single-term ``joint_loss`` call per term.

    Taken at the workload's batch shape and at the full training split,
    which is the shape of the per-round global loss.
    """
    ds, attrs = fz.load_dataset(data)
    train, _, _ = fz.split_train_test(ds, seed)
    # The KL term's cost does not depend on the target values, so identity
    # similarity stands in for a second glasso solve.
    distill = fz.DistillConfig(tau=TAU, targets=fz.distill_targets(np.eye(attrs.num_classes), TAU))
    params = fz.init_params(train.d_v, attrs.d_a, len(train.split.seen), fz.ATTRIBUTE_BASED, seed)
    order = np.random.default_rng(seed).permutation(train.num_samples)[: w.batch_size]
    shapes = {"": (train.features[order], train.labels[order], calls),
              "_full": (train.features, train.labels, max(3, calls // 5))}
    out = {}
    for term in ("sce", "kl", "bc", "ad"):
        flags = fz.AblationFlags(**{t: t == term for t in ("sce", "kl", "bc", "ad")})
        for suffix, (x, y, n) in shapes.items():
            times = []
            for _ in range(n):
                t0 = time.perf_counter()
                fz.joint_loss(params, x, y, attrs, distill, fz.LossWeights(), ablation=flags)
                times.append(time.perf_counter() - t0)
            out[f"losses.{term}{suffix}_s"] = float(np.median(times))
    return out
