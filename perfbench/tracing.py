"""Spans around the fedzsl calls a workload makes, recorded from outside.

The tracer replaces public names at the module attributes where their
callers look them up (``fedzsl.fed.local_train`` is what
``run_simulation`` calls, ``fedzsl.graphical_lasso`` is what the benchmark
calls), so wrapping changes no computation and nothing under ``src/`` is
edited.  Spans live in memory with parent links and are written out when
the run ends.  A hooked name that no longer exists is listed as missing and
its metrics read 0 instead of failing the run.
"""

from __future__ import annotations

import functools
import importlib
import json
import statistics
import time

# (module, attribute, span name).  A dotted attribute reaches a method.
HOOKS = (
    ("fedzsl", "load_dataset", "dataset.load"),
    ("fedzsl", "split_train_test", "dataset.split"),
    ("fedzsl", "sample_covariance", "glasso.covariance"),
    ("fedzsl", "graphical_lasso", "glasso.solve"),
    ("fedzsl", "distill_targets", "glasso.targets"),
    ("fedzsl", "run_simulation", "fed.run_simulation"),
    ("fedzsl", "save_model", "model.save"),
    ("fedzsl", "load_model", "model.load"),
    ("fedzsl", "evaluate", "evaluation.evaluate"),
    ("fedzsl", "build_theory_report", "theory.report"),
    ("fedzsl", "run_check_suite", "theory.check_suite"),
    ("fedzsl.fed", "split_train_test", "dataset.split"),
    ("fedzsl.fed", "partition", "partition.partition"),
    ("fedzsl.fed", "sample_clients", "partition.sample_clients"),
    ("fedzsl.fed", "local_train", "fed.local_train"),
    ("fedzsl.fed", "joint_loss", "losses.joint_loss"),
    ("fedzsl.fed", "sgd_step", "model.sgd_step"),
    ("fedzsl.fed", "aggregate", "fed.aggregate"),
    ("fedzsl.fed", "evaluate", "evaluation.evaluate"),
    ("fedzsl.model", "ModelParams.clone", "model.clone"),
    ("fedzsl.theory", "spectral_bounds", "theory.spectral"),
    ("fedzsl.theory", "_left_inverse_impl", "theory.left_inverse"),
    ("fedzsl.theory", "_attr_error_impl", "theory.attr_error"),
)

# Per-layer metric -> (unit, the end-to-end metric and workload it should
# move).  Byte sizes taken from array shapes carry the unit bytes_computed;
# file sizes read from disk carry bytes.
LAYER_METRICS = {
    "glasso.solve_s": ("s", "setup_s on cub_train; little on awa_many_clients; none on audit"),
    "glasso.sweeps": ("count", "setup_s on cub_train"),
    "glasso.covariance_s": ("s", "setup_s on cub_train"),
    "glasso.targets_s": ("s", "setup_s on cub_train"),
    "glasso.converged": ("count", "correctness: 1 when every solve of a pass converged"),
    "losses.global_s": ("s", "work_s on cub_train (joint_loss outside local_train)"),
    "losses.step_s": ("s", "work_s on cub_train (joint_loss inside local_train)"),
    "losses.step_calls": ("count", "work_s on cub_train"),
    "losses.sce_s": ("s", "work_s on cub_train (one call, workload batch shape)"),
    "losses.kl_s": ("s", "work_s on cub_train (one call, workload batch shape)"),
    "losses.bc_s": ("s", "work_s on cub_train (one call, workload batch shape)"),
    "losses.ad_s": ("s", "work_s on cub_train (one call, workload batch shape)"),
    "losses.sce_full_s": ("s", "work_s on cub_train (one call, full-train shape)"),
    "losses.kl_full_s": ("s", "work_s on cub_train (one call, full-train shape)"),
    "losses.bc_full_s": ("s", "work_s on cub_train (one call, full-train shape)"),
    "losses.ad_full_s": ("s", "work_s on cub_train (one call, full-train shape)"),
    "model.sgd_step_s": ("s", "work_s on awa_many_clients"),
    "model.sgd_step_calls": ("count", "work_s on awa_many_clients"),
    "model.clone_calls": ("count", "work_s on awa_many_clients"),
    "fed.local_train_s": ("s", "work_s on awa_many_clients"),
    "fed.local_train_self_s": ("s", "work_s on awa_many_clients"),
    "fed.aggregate_s": ("s", "work_s on awa_many_clients"),
    "fed.round_s_p50": ("s", "work_s on cub_train and awa_many_clients"),
    "fed.rounds": ("count", "the number of rounds fed.round_s_p50 is taken over"),
    "fed.update_bytes": ("bytes_computed", "peak_rss_mb on cub_train (per round)"),
    "evaluation.evaluate_s": ("s", "work_s on cub_train more than on awa_many_clients"),
    "evaluation.rows": ("count", "work_s on cub_train more than on awa_many_clients"),
    "dataset.load_s": ("s", "setup_s on audit (CSV), not on the features.bin workloads"),
    "dataset.load_bytes": ("bytes", "setup_s on audit"),
    "dataset.split_s": ("s", "setup_s on audit"),
    "partition.partition_s": ("s", "work_s on the training workloads (before round 0)"),
    "model.save_s": ("s", "wall_s on cub_train"),
    "model.load_s": ("s", "setup_s on audit"),
    "model.checkpoint_bytes": ("bytes", "wall_s on cub_train and setup_s on audit"),
    "theory.report_s": ("s", "work_s on audit only"),
    "theory.spectral_s": ("s", "work_s on audit only"),
    "theory.left_inverse_s": ("s", "work_s on audit only"),
    "theory.left_inverse_pairs": ("count", "work_s on audit only"),
    "theory.attr_error_s": ("s", "work_s on audit only"),
    "theory.check_suite_s": ("s", "work_s on audit only"),
    "theory.violations": ("count", "correctness on audit"),
    "trace.overhead_s": ("s", "traced wall_s minus untraced wall_s"),
}

# Metrics read from the spans of one pass: name -> (span name, statistic).
_SPAN_TOTALS = {
    "glasso.solve_s": ("glasso.solve", "time"),
    "glasso.covariance_s": ("glasso.covariance", "time"),
    "glasso.targets_s": ("glasso.targets", "time"),
    "model.sgd_step_s": ("model.sgd_step", "time"),
    "model.sgd_step_calls": ("model.sgd_step", "calls"),
    "model.clone_calls": ("model.clone", "calls"),
    "fed.local_train_s": ("fed.local_train", "time"),
    "fed.local_train_self_s": ("fed.local_train", "self"),
    "fed.aggregate_s": ("fed.aggregate", "time"),
    "evaluation.evaluate_s": ("evaluation.evaluate", "time"),
    "dataset.load_s": ("dataset.load", "time"),
    "dataset.split_s": ("dataset.split", "time"),
    "partition.partition_s": ("partition.partition", "time"),
    "model.save_s": ("model.save", "time"),
    "model.load_s": ("model.load", "time"),
    "theory.report_s": ("theory.report", "time"),
    "theory.spectral_s": ("theory.spectral", "time"),
    "theory.left_inverse_s": ("theory.left_inverse", "time"),
    "theory.attr_error_s": ("theory.attr_error", "time"),
    "theory.check_suite_s": ("theory.check_suite", "time"),
}


def _nbytes(arrays) -> int:
    return sum(int(a.nbytes) for a in (arrays or {}).values())


def _span_info(name: str, args: tuple, result) -> dict | None:
    # Counts taken where the work happens.  A changed signature or result
    # type yields no info rather than an error.
    try:
        if name == "fed.local_train":
            return {"bytes": _nbytes(result.delta) + _nbytes(getattr(result, "trained", None))}
        if name == "evaluation.evaluate":
            unseen = args[2]
            return {"rows": args[1].num_samples + (0 if unseen is None else unseen.num_samples)}
        if name == "theory.left_inverse":
            n = int(args[1].shape[0])
            return {"pairs": n * (n - 1) // 2}
        if name == "glasso.solve":
            return {"sweeps": int(result.sweeps), "converged": bool(result.converged)}
        if name == "theory.report":
            return {"violations": sum(result.violations.values())}
        if name == "theory.check_suite":
            return {"violations": sum(row.violations for row in result)}
    except (AttributeError, IndexError, TypeError):
        return None
    return None


class Tracer:
    """Installs the hooks, records spans, and reduces them to layer metrics."""

    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent index, info]
        self.missing: list[str] = []
        self._open: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def install(self) -> None:
        self.missing = []
        for module_name, attr, span_name in HOOKS:
            owner = importlib.import_module(module_name)
            *path, leaf = attr.split(".")
            for part in path:
                owner = getattr(owner, part, None)
            original = getattr(owner, leaf, None) if owner is not None else None
            if original is None:
                self.missing.append(f"{module_name}.{attr}")
                continue
            setattr(owner, leaf, self._wrap(original, span_name))
            self._undo.append((owner, leaf, original))

    def uninstall(self) -> None:
        for owner, leaf, original in reversed(self._undo):
            setattr(owner, leaf, original)
        self._undo.clear()

    def _wrap(self, fn, name: str):
        spans, open_stack = self.spans, self._open

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, open_stack[-1] if open_stack else None, None]
            open_stack.append(len(spans))
            spans.append(span)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                open_stack.pop()
            span[4] = _span_info(name, args, result)
            return result

        return traced

    def take(self) -> list[list]:
        """Hand over the spans recorded so far and start a fresh list."""
        taken = list(self.spans)
        self.spans.clear()
        return taken


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the part its child spans cover."""
    own = [s[2] - s[1] for s in spans]
    for s in spans:
        if s[3] is not None:
            own[s[3]] -= s[2] - s[1]
    return own


def pass_metrics(spans: list[list]) -> dict[str, float]:
    """Per-layer metrics of one traced pass (times are totals over the pass)."""
    own = self_times(spans)
    time_by: dict[str, float] = {}
    self_by: dict[str, float] = {}
    calls_by: dict[str, int] = {}
    for s, own_s in zip(spans, own):
        time_by[s[0]] = time_by.get(s[0], 0.0) + (s[2] - s[1])
        self_by[s[0]] = self_by.get(s[0], 0.0) + own_s
        calls_by[s[0]] = calls_by.get(s[0], 0) + 1
    pick = {"time": time_by, "self": self_by, "calls": calls_by}
    out: dict[str, float] = {
        metric: pick[stat].get(span, 0 if stat == "calls" else 0.0)
        for metric, (span, stat) in _SPAN_TOTALS.items()
    }

    def infos(name: str, key: str) -> list:
        return [s[4][key] for s in spans if s[0] == name and s[4] and key in s[4]]

    solves = infos("glasso.solve", "converged")
    out["glasso.sweeps"] = sum(infos("glasso.solve", "sweeps"))
    out["glasso.converged"] = int(bool(solves) and all(solves))
    step = [s for s in spans if s[0] == "losses.joint_loss"
            and s[3] is not None and spans[s[3]][0] == "fed.local_train"]
    out["losses.step_s"] = sum(s[2] - s[1] for s in step)
    out["losses.step_calls"] = len(step)
    out["losses.global_s"] = time_by.get("losses.joint_loss", 0.0) - out["losses.step_s"]
    out["evaluation.rows"] = sum(infos("evaluation.evaluate", "rows"))
    out["theory.left_inverse_pairs"] = sum(infos("theory.left_inverse", "pairs"))
    out["theory.violations"] = sum(infos("theory.report", "violations")) + sum(
        infos("theory.check_suite", "violations")
    )

    # A round runs from one client draw to the next; the last one ends with
    # run_simulation.
    rounds: list[float] = []
    for index, s in enumerate(spans):
        if s[0] != "fed.run_simulation":
            continue
        starts = [c[1] for c in spans if c[0] == "partition.sample_clients" and c[3] == index]
        rounds += [b - a for a, b in zip(starts, starts[1:] + [s[2]])]
    out["fed.rounds"] = len(rounds)
    out["fed.round_s_p50"] = statistics.median(rounds) if rounds else 0.0
    update_bytes = sum(infos("fed.local_train", "bytes"))
    out["fed.update_bytes"] = update_bytes // len(rounds) if rounds else 0
    return out


def write_spans(path, span_sets: list[list[list]]) -> None:
    """Write one JSON object per span: its traced pass, self time and parent index."""
    with open(path, "w") as handle:
        for pass_index, spans in enumerate(span_sets):
            for index, (s, own_s) in enumerate(zip(spans, self_times(spans))):
                record = {"pass": pass_index, "i": index, "name": s[0], "start": s[1],
                          "end": s[2], "self": own_s, "parent": s[3], "info": s[4]}
                handle.write(json.dumps(record) + "\n")
