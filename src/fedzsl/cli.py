"""Command line interface: synthesize data, partition, estimate similarity,
run federated training, evaluate checkpoints, and run the check suite.

A run is one settings table: ``default_config()``, overridden by a config
file and then by CLI flags, all checked before the dataset is read.
``configure_run`` turns it into a ``TrainConfig``.  The table is frozen into
``manifest.ini`` before round 0, and re-running with that manifest
reproduces ``metrics.csv`` byte for byte.  Exit codes: 0 completion, 1 usage
or input error, 2 training divergence, 3 partition failure.
"""

from __future__ import annotations

import argparse
import configparser
import dataclasses
import sys
from datetime import datetime, timezone
from pathlib import Path
from typing import NamedTuple

import numpy as np

from fedzsl import __version__, _blas
from fedzsl.dataset import (
    AttributeMatrix,
    SyntheticSpec,
    _atomic_writer,
    _fmt_real,
    _write_lines,
    generate_synthetic,
    load_attributes,
    load_dataset,
    save_dataset,
    split_train_test,
)
from fedzsl.evaluation import evaluate
from fedzsl.fed import (
    DEFAULT_BATCH_SIZE,
    DEFAULT_EVAL_EVERY,
    DEFAULT_LOCAL_EPOCHS,
    DEFAULT_NUM_CLIENTS,
    DEFAULT_ROUNDS,
    DEFAULT_SAMPLE_FRACTION,
    DEFAULT_SERVER_LR,
    TrainConfig,
    TrainingDivergedError,
    metrics_to_csv,
    run_simulation,
)
from fedzsl.glasso import (
    DEFAULT_DELTA,
    DEFAULT_MAX_SWEEPS,
    DEFAULT_TOL,
    GlassoConfig,
    SimilarityMatrix,
    column_sweep,
    distill_targets,
    graphical_lasso,
    sample_covariance,
)
from fedzsl.losses import (
    DEFAULT_TAU,
    DEFAULT_W_AD,
    DEFAULT_W_BC,
    DEFAULT_W_KL,
    AblationFlags,
    DistillConfig,
    LossWeights,
    loss_kernels,
)
from fedzsl.model import (
    ATTRIBUTE_BASED,
    DEFAULT_LEARNING_RATE,
    DEFAULT_MOMENTUM,
    DEFAULT_WEIGHT_DECAY,
    MODES,
    load_model,
    save_model,
)
from fedzsl.partition import (
    PCCD,
    SCHEMES,
    PartitionError,
    PartitionSpec,
    partition,
    partition_summary,
)
from fedzsl.theory import DEFAULT_TRIALS, run_check_suite

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_DIVERGED = 2
EXIT_PARTITION = 3

ABLATION_TERMS = ("sce", "bc", "kl", "ad")

MANIFEST_FILE = "manifest.ini"
METRICS_FILE = "metrics.csv"
FINAL_MODEL_FILE = "final_model.csv"
GAMMA_FILE = "gamma.csv"
THETA_FILE = "theta.csv"
PARTITION_FILE = "partition.csv"
PARTITION_SUMMARY_FILE = "partition_summary.csv"


class _Setting(NamedTuple):
    """One ``run`` setting: INI type tag, default, flags, allowed values."""

    kind: str
    default: object
    flags: tuple[str, ...] = ()
    choices: tuple[str, ...] | None = None


# section -> key -> setting; the single source of run configuration.  The
# manifest is written in this order, and each key with flags gets a flag of
# ``run`` that overrides it; ``partition`` takes the flags of [partition] and of
# [train] num_clients and seed, and ``glasso`` those of [glasso].  Every key but
# [losses] tau is the name of a field of the library config it is passed to.
_SCHEMA: dict[str, dict[str, _Setting]] = {
    "train": {
        "rounds": _Setting("int", DEFAULT_ROUNDS, ("--rounds",)),
        "num_clients": _Setting("int", DEFAULT_NUM_CLIENTS, ("-k", "--clients")),
        "local_epochs": _Setting("int", DEFAULT_LOCAL_EPOCHS, ("--local-epochs",)),
        "batch_size": _Setting("int", DEFAULT_BATCH_SIZE, ("--batch-size",)),
        "local_lr": _Setting("float", DEFAULT_LEARNING_RATE, ("--local-lr",)),
        "server_lr": _Setting("float", DEFAULT_SERVER_LR, ("--server-lr",)),
        "sample_fraction": _Setting("float", DEFAULT_SAMPLE_FRACTION, ("--sample-fraction",)),
        "seed": _Setting("int", 0, ("--seed",)),
        "eval_every": _Setting("int", DEFAULT_EVAL_EVERY, ("--eval-every",)),
    },
    "losses": {
        "w_bc": _Setting("float", DEFAULT_W_BC, ("--w-bc",)),
        "w_kl": _Setting("float", DEFAULT_W_KL, ("--w-kl",)),
        "w_ad": _Setting("float", DEFAULT_W_AD, ("--w-ad",)),
        "tau": _Setting("float", DEFAULT_TAU, ("--tau",)),
        "sce": _Setting("bool", True),
        "bc": _Setting("bool", True),
        "kl": _Setting("bool", True),
        "ad": _Setting("bool", True),
    },
    "partition": {
        "scheme": _Setting("str", PCCD, ("--scheme",), SCHEMES),
        "alpha": _Setting("optfloat", None, ("--alpha",)),
        "local_data_ratio": _Setting("float", 1.0, ("--local-data-ratio",)),
    },
    "glasso": {
        "delta": _Setting("float", DEFAULT_DELTA, ("--glasso-delta",)),
        "tol": _Setting("float", DEFAULT_TOL, ("--glasso-tol",)),
        "max_sweeps": _Setting("int", DEFAULT_MAX_SWEEPS, ("--glasso-max-sweeps",)),
    },
    "model": {
        "mode": _Setting("str", ATTRIBUTE_BASED, ("--mode",), MODES),
        "momentum": _Setting("float", DEFAULT_MOMENTUM, ("--momentum",)),
        "weight_decay": _Setting("float", DEFAULT_WEIGHT_DECAY, ("--weight-decay",)),
    },
}

# Keys that older manifests hold for settings since removed, each with its type
# and the one value a run now always uses: squared BC norms, standardized
# covariance, targets from the covariance, and a server step scaled by server_lr
# alone.  A config file may name one only at that value, so old manifests re-run.
_RETIRED: dict[tuple[str, str], _Setting] = {
    ("train", "delta_scale"): _Setting("float", 1.0),
    ("losses", "bc_squared"): _Setting("bool", True),
    ("glasso", "standardize"): _Setting("bool", True),
    ("glasso", "gamma_source"): _Setting("str", "covariance"),
}

# type tag -> parser of a flag or config value; "bool" is read from _BOOLS.
_TYPES = {"int": int, "float": float, "optfloat": float, "str": str}
# The words configparser itself reads as booleans: true/false, yes/no, on/off, 1/0.
_BOOLS = configparser.ConfigParser.BOOLEAN_STATES


class CliError(ValueError):
    """Bad command line or config file input."""


class _Parser(argparse.ArgumentParser):
    """Argument parser whose usage errors exit 1 instead of argparse's 2 and
    whose flags, also in subcommands, must be spelled in full, not abbreviated."""

    def __init__(self, **kwargs) -> None:
        super().__init__(allow_abbrev=False, **kwargs)

    def error(self, message: str) -> None:
        self.print_usage(sys.stderr)
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        raise SystemExit(EXIT_ERROR)


def _ini_value(value: object) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return _fmt_real(value)
    return str(value)


def _coerce(section: str, key: str, raw: str) -> object:
    """``raw`` read as the type of ``[section] key``, a setting of the run or a retired one."""
    setting = _SCHEMA[section].get(key) or _RETIRED[section, key]
    kind, raw = setting.kind, raw.strip()
    if kind == "optfloat" and raw == "":
        return None
    try:
        value = _BOOLS[raw.lower()] if kind == "bool" else _TYPES[kind](raw)
    except (KeyError, ValueError):
        raise CliError(f"config [{section}] {key}: cannot parse '{raw}' as {kind}") from None
    if setting.choices is not None and value not in setting.choices:
        raise CliError(f"config [{section}] {key}: '{value}' is not one of {setting.choices}")
    return value


def default_config() -> dict[str, dict[str, object]]:
    """Every ``run`` setting at its default, in a new table: section -> key -> value."""
    return {section: {k: s.default for k, s in keys.items()} for section, keys in _SCHEMA.items()}


def _train_config(settings: dict[str, dict[str, object]]) -> TrainConfig:
    """The ``TrainConfig`` of ``settings``, without targets, once every setting is
    checked: also [glasso] and tau of a run without the KL term, which a re-run may read."""
    train, losses = settings["train"], settings["losses"]
    tau = float(losses["tau"])
    if not 0.0 < tau < float("inf"):
        raise CliError(f"tau must be finite and positive, got {tau}")
    GlassoConfig(**_fields(GlassoConfig, settings["glasso"]))
    return TrainConfig(
        **train,
        **settings["model"],
        weights=LossWeights(**_fields(LossWeights, losses)),
        ablation=AblationFlags(**_fields(AblationFlags, losses)),
        partition=_partition_spec(settings),
    )


def configure_run(
    settings: dict[str, dict[str, object]], attrs: AttributeMatrix
) -> tuple[TrainConfig, SimilarityMatrix | None]:
    """The ``TrainConfig`` of a full settings table; only with the KL term on
    is the similarity solved from ``attrs``, returned and made the targets."""
    cfg = _train_config(settings)
    if not cfg.kl_enabled:
        return cfg, None
    glasso = GlassoConfig(**_fields(GlassoConfig, settings["glasso"]))
    sim = graphical_lasso(sample_covariance(attrs), glasso)
    tau = float(settings["losses"]["tau"])
    cfg.distill = DistillConfig(tau=tau, targets=distill_targets(sim.gamma, tau))
    return cfg, sim


def _load_config_file(path: Path, resolved: dict[str, dict[str, object]]) -> dict[str, str]:
    # Reads the file's settings into ``resolved``; returns its [meta], which
    # holds no settings.
    if not path.is_file():
        raise CliError(f"config file not found: {path}")
    # No interpolation, so '%' is an ordinary character.  No header can be
    # empty, so default_section="" makes [DEFAULT] an ordinary, unknown section.
    parser = configparser.ConfigParser(interpolation=None, default_section="")
    try:
        parser.read_string(path.read_text(), source=str(path))
    except configparser.Error as exc:
        raise CliError(f"config file {path}: {exc}") from None
    meta: dict[str, str] = {}
    for section in parser.sections():
        if section == "meta":
            meta = dict(parser.items(section))
            continue
        if section not in _SCHEMA:
            raise CliError(f"config file {path}: unknown section [{section}]")
        for key, raw in parser.items(section):
            if (section, key) in _RETIRED:
                fixed = _RETIRED[section, key].default
                try:
                    kept = _coerce(section, key, raw) == fixed
                except CliError:
                    kept = False
                if not kept:
                    raise CliError(
                        f"config file {path}: [{section}] {key} was removed; a run always "
                        f"uses {key} = {_ini_value(fixed)}, got '{raw.strip()}'"
                    )
                continue
            if key not in _SCHEMA[section]:
                raise CliError(f"config file {path}: unknown key '{key}' in [{section}]")
            resolved[section][key] = _coerce(section, key, raw)
    return meta


def _parse_ablation(text: str) -> dict[str, bool]:
    cleaned = text.strip().lower()
    if cleaned in ("full", "all"):
        return {term: True for term in ABLATION_TERMS}
    if cleaned.endswith("-only"):
        cleaned = cleaned[: -len("-only")]
    parts = [p.strip() for p in cleaned.split(",") if p.strip()]
    if not parts:
        raise CliError(f"--ablation got '{text}'; expected 'full' or terms from {ABLATION_TERMS}")
    for part in parts:
        if part not in ABLATION_TERMS:
            raise CliError(f"--ablation term '{part}' is not one of {ABLATION_TERMS}")
    return {term: term in parts for term in ABLATION_TERMS}


def _apply_flags(
    args: argparse.Namespace, resolved: dict[str, dict[str, object]]
) -> dict[str, dict[str, object]]:
    """``resolved`` with each setting whose flag ``args`` holds set to the flag's value."""
    for section, keys in resolved.items():
        for key in keys:
            value = getattr(args, f"{section}.{key}", None)
            if value is not None:
                keys[key] = value
    return resolved


def _numerics() -> dict[str, object]:
    # What a run's bytes depend on besides its settings, its data and this
    # code (README, Determinism): the loss bodies its workspaces chose, the
    # OpenBLAS kernel family, the BLAS threads the run pinned, and numpy's
    # version and the SIMD targets its ufuncs dispatch to on this CPU,
    # which decide the bits of exp and log.
    try:
        from numpy._core import _multiarray_umath as umath
        simd = " ".join(t for t in umath.__cpu_dispatch__ if umath.__cpu_features__.get(t))
    except (ImportError, AttributeError):
        simd = "unknown"
    return {
        "loss_kernels": loss_kernels(),
        "blas_core": _blas.core(),
        "blas_threads": _blas.pinned_threads(),
        "numpy": np.__version__,
        "numpy_simd": simd or "none",
    }


# The [meta] keys of the numerics a re-run from a manifest compares with its
# own.  loss_kernels is not among them: both loss bodies write the same bits.
_RERUN_NUMERICS = ("blas_core", "blas_threads", "numpy", "numpy_simd")


def _note_numerics(recorded: dict[str, str], meta: dict[str, object]) -> None:
    # One note on stderr naming each numerics key whose value in a manifest's
    # [meta] (``recorded``) differs from this run's.
    changed = [
        f"{key} '{recorded[key]}' there, '{_ini_value(meta[key])}' here"
        for key in _RERUN_NUMERICS
        if key in recorded and recorded[key] != _ini_value(meta[key])
    ]
    if changed:
        sys.stderr.write(
            "note: the manifest was written under other numerics ("
            + "; ".join(changed)
            + "), so this run's bytes may differ from the recorded run's\n"
        )


def _write_manifest(
    path: Path, resolved: dict[str, dict[str, object]], meta: dict[str, object]
) -> None:
    parser = configparser.ConfigParser(interpolation=None)
    parser["meta"] = {k: _ini_value(v) for k, v in meta.items()}
    for section, keys in resolved.items():
        parser[section] = {k: _ini_value(v) for k, v in keys.items()}
    with _atomic_writer(path) as handle:
        parser.write(handle)


def _write_square_csv(path: Path, matrix: np.ndarray) -> None:
    rows = [",".join(_fmt_real(v) for v in row) for row in matrix]
    _write_lines(path, [str(len(rows)), *rows])


def _fields(cls: type, values: dict[str, object]) -> dict[str, object]:
    """The entries of ``values`` whose keys name fields of dataclass ``cls``."""
    names = {f.name for f in dataclasses.fields(cls)}
    return {k: v for k, v in values.items() if k in names}


def _partition_spec(settings: dict[str, dict[str, object]]) -> PartitionSpec:
    """The ``PartitionSpec`` of a settings table; one it refuses is an input error (exit 1)."""
    values = {**settings["partition"], **settings["train"]}
    try:
        return PartitionSpec(**_fields(PartitionSpec, values))
    except PartitionError as exc:
        raise CliError(str(exc)) from None


def _metric_text(value: float | None) -> str:
    return "n/a" if value is None else f"{value:.2f}"


def cmd_synth(args: argparse.Namespace) -> int:
    overrides = _fields(SyntheticSpec, vars(args))
    spec = SyntheticSpec(**{k: v for k, v in overrides.items() if v is not None})
    ds, attrs = generate_synthetic(spec, args.seed)
    out = Path(args.out)
    save_dataset(out, ds, attrs, binary=args.binary)
    print(
        f"wrote {spec.num_seen}+{spec.num_unseen} classes, "
        f"{ds.num_samples} samples, d_v={spec.d_v}, d_a={spec.d_a} to {out}"
    )
    return EXIT_OK


def cmd_partition(args: argparse.Namespace) -> int:
    settings = _apply_flags(args, default_config())
    ds, _ = load_dataset(args.data)
    train, _, _ = split_train_test(ds, settings["train"]["seed"])
    part = partition(train, _partition_spec(settings))
    for k, idx in enumerate(part.assignments):
        print(f"client {k}: {len(part.local_classes[k])} classes, {idx.size} samples")
    if args.out is not None:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        rows = ["client_id,sample_index"]
        for k, idx in enumerate(part.assignments):
            rows += [f"{k},{int(i)}" for i in idx]
        _write_lines(out / PARTITION_FILE, rows)
        rows = ["client_id,class_id,count"]
        rows += [f"{k},{c},{n}" for k, c, n in partition_summary(part, train.labels)]
        _write_lines(out / PARTITION_SUMMARY_FILE, rows)
        print(f"wrote {PARTITION_FILE} and {PARTITION_SUMMARY_FILE} to {out}")
    return EXIT_OK


def cmd_glasso(args: argparse.Namespace) -> int:
    settings = _apply_flags(args, default_config())
    glasso = GlassoConfig(**_fields(GlassoConfig, settings["glasso"]))
    sim = graphical_lasso(sample_covariance(load_attributes(args.data)), glasso)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    _write_square_csv(out / GAMMA_FILE, sim.gamma)
    _write_square_csv(out / THETA_FILE, sim.theta)
    edges = int(np.count_nonzero(np.triu(sim.theta, k=1)))
    print(
        f"solved {sim.num_classes} classes in {sim.sweeps} sweeps "
        f"(converged={sim.converged}), {edges} off-diagonal edges, "
        f"objective {sim.objective[-1]:.6f}"
    )
    print(f"wrote {GAMMA_FILE} and {THETA_FILE} to {out}")
    return EXIT_OK


def cmd_run(args: argparse.Namespace) -> int:
    resolved = default_config()
    recorded = {} if args.config is None else _load_config_file(Path(args.config), resolved)
    _apply_flags(args, resolved)
    if args.ablation is not None:
        resolved["losses"].update(_parse_ablation(args.ablation))
    if args.threads < 1:
        raise CliError(f"threads must be >= 1, got {args.threads}")
    _train_config(resolved)  # a bad setting fails before the dataset is read
    ds, attrs = load_dataset(args.data)
    cfg, sim = configure_run(resolved, attrs)
    out = Path(args.out)
    meta: dict[str, object] = {
        "version": __version__,
        "created": datetime.now(timezone.utc).isoformat(),
        "command": "run",
        "data": str(Path(args.data).resolve()),
        "out": str(out.resolve()),
        "threads": args.threads,
    }
    meta.update(_numerics())
    _note_numerics(recorded, meta)
    if sim is not None:
        if not sim.converged:
            sys.stderr.write(
                f"warning: glasso did not converge in {sim.sweeps} sweeps "
                f"(tol {resolved['glasso']['tol']}); "
                "the distillation targets come from the last iterate\n"
            )
        meta.update(
            glasso_converged=sim.converged,
            glasso_sweeps=sim.sweeps,
            glasso_passes=sim.passes,
            glasso_sweep=column_sweep(),
        )
    out.mkdir(parents=True, exist_ok=True)
    _write_manifest(out / MANIFEST_FILE, resolved, meta)
    trace = run_simulation(ds, attrs, cfg, threads=args.threads)
    with _atomic_writer(out / METRICS_FILE) as handle:
        handle.write(metrics_to_csv(trace))
    save_model(out / FINAL_MODEL_FILE, trace.final_params)
    last = trace[-1]
    print(
        f"finished {cfg.rounds} rounds: acc_c={_metric_text(last.acc_c)} "
        f"acc_u={_metric_text(last.acc_u)} acc_s={_metric_text(last.acc_s)} "
        f"acc_h={_metric_text(last.acc_h)} global_loss={last.global_loss:.6f}"
    )
    print(f"wrote {MANIFEST_FILE}, {METRICS_FILE}, {FINAL_MODEL_FILE} to {out}")
    return EXIT_OK


def cmd_eval(args: argparse.Namespace) -> int:
    ds, attrs = load_dataset(args.data)
    if not args.stats and args.model is None:
        raise CliError("eval needs --model and/or --stats")
    if args.stats:
        print(f"samples={ds.num_samples} d_v={ds.d_v} classes={ds.split.num_classes} "
              f"seen={len(ds.split.seen)} unseen={len(ds.split.unseen)}")
        for c in np.unique(ds.labels):
            # Widened first: float32 features would otherwise give float32
            # arithmetic.  Shift by the first row before var() so a class of
            # identical rows reports exactly 0.0 instead of summation round-off.
            rows = ds.features[ds.labels == c].astype(np.float64, copy=False)
            variance = _fmt_real((rows - rows[0]).var(axis=0).mean())
            print(f"class {int(c)}: {rows.shape[0]} samples, within-class variance {variance}")
    if args.model is not None:
        params = load_model(args.model)
        _, test_seen, test_unseen = split_train_test(ds, args.seed)
        metrics = evaluate(params, test_seen, test_unseen, attrs, ds.split)
        for name in ("acc_c", "acc_u", "acc_s", "acc_h"):
            print(f"{name}={_metric_text(getattr(metrics, name))}")
    return EXIT_OK


def cmd_check(args: argparse.Namespace) -> int:
    results = run_check_suite(trials=args.trials, seed=args.seed)
    print(f"{'check':<20} {'trials':>8} {'violations':>11} {'max_slack':>12}")
    failures = 0
    for row in results:
        failures += row.violations
        print(f"{row.name:<20} {row.trials:>8} {row.violations:>11} {row.max_slack:>12.3e}")
    if failures:
        sys.stderr.write(f"{failures} violation(s) found\n")
        return EXIT_ERROR
    return EXIT_OK


def _add_setting_flags(p: argparse.ArgumentParser, *dests: str) -> None:
    """Add the flag of each setting ``section.key`` in ``dests``, in order; its value
    lands in ``args`` under that name, unset if the flag is absent."""
    for dest in dests:
        section, key = dest.split(".")
        setting = _SCHEMA[section][key]
        p.add_argument(
            *setting.flags,
            dest=dest,
            type=_TYPES[setting.kind],
            choices=setting.choices,
            metavar=None if setting.choices else key.upper(),
            help=f"[{section}] {key} (default: {_ini_value(setting.default) or 'unset'})",
        )


def _build_parser() -> _Parser:
    parser = _Parser(prog="fedzsl", description=__doc__)
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="write a synthetic dataset directory")
    p.add_argument("--out", required=True, help="output dataset directory")
    p.add_argument("--seed", type=int, default=0)
    for f in dataclasses.fields(SyntheticSpec):
        p.add_argument(
            f"--{f.name.replace('_', '-')}",
            type=type(f.default),
            help=f"SyntheticSpec {f.name} (default: {f.default})",
        )
    p.add_argument("--binary", action="store_true", help="write features.bin instead of CSV")
    p.set_defaults(handler=cmd_synth)

    p = sub.add_parser("partition", help="partition the training split across clients")
    p.add_argument("--data", required=True, help="dataset directory")
    _add_setting_flags(p, "partition.scheme", "train.num_clients", "partition.alpha",
                       "partition.local_data_ratio", "train.seed")
    p.add_argument("--out", default=None, help="directory for partition CSV files")
    p.set_defaults(handler=cmd_partition)

    p = sub.add_parser("glasso", help="estimate the class similarity matrix")
    p.add_argument("--data", required=True, help="dataset directory (attributes are read)")
    _add_setting_flags(p, *(f"glasso.{key}" for key in _SCHEMA["glasso"]))
    p.add_argument("--out", default=".", help="directory for gamma.csv and theta.csv")
    p.set_defaults(handler=cmd_glasso)

    p = sub.add_parser("run", help="run the federated training simulation")
    p.add_argument("--data", required=True, help="dataset directory")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--config", default=None, help="INI config file (a manifest works)")
    p.add_argument("--threads", type=int, default=1)
    p.add_argument(
        "--ablation",
        default=None,
        help="'full' or enabled terms, e.g. 'sce-only' or 'sce,bc'",
    )
    flagged = [f"{s}.{k}" for s, keys in _SCHEMA.items() for k in keys if keys[k].flags]
    _add_setting_flags(p, *flagged)
    p.set_defaults(handler=cmd_run)

    p = sub.add_parser("eval", help="evaluate a checkpoint and/or print dataset stats")
    p.add_argument("--data", required=True, help="dataset directory")
    p.add_argument("--model", default=None, help="model checkpoint CSV")
    p.add_argument("--seed", type=int, default=0, help="train/test split seed")
    p.add_argument("--stats", action="store_true", help="print per-class statistics")
    p.set_defaults(handler=cmd_eval)

    p = sub.add_parser("check", help="run the verification suite")
    p.add_argument("--trials", type=int, default=DEFAULT_TRIALS)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(handler=cmd_check)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        # One OpenBLAS thread for the whole command, the glasso solve before
        # a run included, so its output does not depend on the count it
        # starts with.
        with _blas.one_thread():
            return args.handler(args)
    except TrainingDivergedError as exc:
        sys.stderr.write(f"training diverged: {exc}\n")
        return EXIT_DIVERGED
    except PartitionError as exc:
        sys.stderr.write(f"partition failed: {exc}\n")
        return EXIT_PARTITION
    except (ValueError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
