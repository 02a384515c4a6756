#!/usr/bin/env python3
"""Closed-loop benchmark of the fedzsl simulator.

One caller runs one workload at a time with ``threads=1``, pass after pass,
until ``--seconds`` have gone by (and at least a few passes have run):

    python3 perfbench/run.py --workload cub_train --seed 3 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 3 --seconds 30 --trace 0

Run it from the root of a checkout; it imports the package from ``src/``.
``--trace 0`` reports the end-to-end metrics, ``--trace 1`` alternates
untraced and traced passes and reports the per-layer metrics.  The last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  The full record of a run
(environment, every pass, digests, spans) goes to ``.perfbench/results/``.
"""

import os

# OpenBLAS reads its thread count once, when numpy loads, and the count
# changes the bits of every matmul, so it is pinned here and the reference
# digests are keyed to it.  One client thread times one BLAS thread stays
# within nproc on any machine.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from dataclasses import asdict  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
REFERENCE_FILE = HERE / "reference.json"

MIN_PASSES = 3  # untraced passes per run; set-up is timed in each
MIN_TRACE_PASSES = 2  # of each kind in a traced run
HARD_CAP_S = 100.0  # no pass starts after this, so a run ends within 180 s
LOSS_TERM_CALLS = 15

# Times are in reference seconds, medians over passes (_calibrated).
E2E_MEANING = {
    "setup_s": "load, covariance, glasso and targets (training); CSV and checkpoint "
    "load and the split (audit)",
    "work_s": "run_simulation (training, the train_samples_per_s denominator); "
    "evaluate, theory report and check suite (audit, i.e. audit_s)",
    "wall_s": "a whole pass including the metrics.csv and checkpoint writes",
    "peak_rss_mb": "peak resident memory of the benchmark process",
}


def _median(values):
    return statistics.median(values) if values else 0.0


def _calibrated(w, passes, *groups: str) -> float:
    """Reference seconds of the phases in ``groups`` (all phases without one).

    Each phase is counted in steps of its kernel, its wall seconds times the
    kernel's mean step rate sampled around and during it, which cancels the
    host's speed while it ran (see workloads.PhaseClock); per phase, the
    median over passes is taken and scaled by the kernel's reference step
    time.
    """
    ok = [p for p in passes if p.outcome != "exception"]
    if not ok:  # the run failed; wall seconds are all there is
        return min(p.seconds(*groups) for p in passes)
    names = [n for n in ok[0].laps if not groups or n.split(".")[0] in groups]
    return sum(
        w.cal_ref_s[w.kernel(n)] * statistics.median(p.steps(n, w.kernel(n)) for p in ok)
        for n in names
    )


def _openblas_runtime() -> dict:
    # numpy wheels bundle OpenBLAS with prefixed symbols; ask it which core
    # it picked and how many threads it runs.  Another BLAS gives {}, and
    # then no reference digest applies.
    import ctypes

    import numpy as np

    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("libscipy_openblas64_*.so")) if libs.is_dir() else []:
        handle = ctypes.CDLL(str(lib))
        try:
            config = handle.scipy_openblas_get_config64_
            core = handle.scipy_openblas_get_corename64_
            threads = handle.scipy_openblas_get_num_threads64_
        except AttributeError:
            continue
        config.restype = core.restype = ctypes.c_char_p
        return {"config": config().decode(), "core": core().decode(), "threads": int(threads())}
    return {}


def environment(seed: int) -> dict:
    """What the figures depend on besides the code: host, versions, BLAS."""
    import numpy as np

    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "openblas": blas.get("version"),
        "openblas_runtime": _openblas_runtime(),
        "blas_threads": BLAS_THREADS,
        "client_threads": 1,
        "seed": seed,
    }


def reference_key(env: dict) -> str:
    """Digests depend on the BLAS kernel set and thread count."""
    return f"{env['openblas_runtime'].get('core', 'unknown')}-blas{env['blas_threads']}"


def run_workload(w, seed: int, seconds: float, trace: bool, references: dict) -> dict:
    """Run one workload and return its full record."""
    import tracing
    import workloads as wl

    env = environment(seed)
    key = reference_key(env)
    expected = references.get(key, {}).get(w.name, {}).get(str(seed))
    work = WORK / "runs" / w.name
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    stem = f"{w.name}-seed{seed}-trace{int(trace)}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        data = wl.make_inputs(w, seed, work / "inputs")
        tracer = tracing.Tracer() if trace else None
        cal = wl.Calibration(w)
        plain, traced, layers, span_sets = [], [], [], []
        min_plain = MIN_TRACE_PASSES if trace else MIN_PASSES
        start = time.perf_counter()
        while True:
            elapsed = time.perf_counter() - start
            enough = len(plain) >= min_plain and (not trace or len(traced) >= MIN_TRACE_PASSES)
            if elapsed >= HARD_CAP_S or (enough and elapsed >= seconds):
                break
            if trace and len(traced) < len(plain):
                tracer.install()
                try:
                    traced.append(wl.run_pass(w, seed, data, work / "out", cal))
                finally:
                    tracer.uninstall()
                spans = tracer.take()
                layers.append(tracing.pass_metrics(spans))
                span_sets.append(spans)
            else:
                plain.append(wl.run_pass(w, seed, data, work / "out", cal))
        loss_terms = {}
        if trace and w.kind == "train":
            try:
                loss_terms = wl.loss_term_timings(w, seed, data, LOSS_TERM_CALLS)
            except (AttributeError, TypeError) as exc:  # joint_loss renamed or reshaped
                tracer.missing.append(f"fedzsl.joint_loss per-term timings: {exc}")
    finally:
        shutil.rmtree(work, ignore_errors=True)

    if trace:
        tracing.write_spans(results / f"{stem}-spans.jsonl", span_sets)

    # Every pass must give the same outputs, and the reference when there is one.
    passes = plain + traced
    first = passes[0].outcome
    for p in passes:
        if p.outcome != first or (w.kind == "train" and expected and p.outcome != expected):
            p.failed = p.attempted
        elif w.kind == "audit" and p.outcome != "exception":
            p.failed = max(p.failed, wl.audit_mismatches(p.outcome, expected))
    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)

    if trace:
        metrics = {}
        for name, (unit, _) in tracing.LAYER_METRICS.items():
            values = [layer[name] for layer in layers if name in layer]
            # Counts repeat exactly from pass to pass; times take the median.
            value = _median(values) if unit == "s" else (values[0] if values else 0)
            metrics[name] = {"value": value, "unit": unit}
        if traced:
            metrics["dataset.load_bytes"]["value"] = traced[0].load_bytes
            metrics["model.checkpoint_bytes"]["value"] = traced[0].checkpoint_bytes
        for name, value in loss_terms.items():
            metrics[name]["value"] = value
        overhead = _calibrated(w, traced) - _calibrated(w, plain)
        metrics["trace.overhead_s"]["value"] = overhead
    else:
        metrics = {
            "setup_s": {"value": _calibrated(w, plain, "setup"), "unit": "s"},
            "work_s": {"value": _calibrated(w, plain, "work"), "unit": "s"},
            "wall_s": {"value": _calibrated(w, plain), "unit": "s"},
            "peak_rss_mb": {
                "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                "unit": "MB",
            },
        }
    work_s = _calibrated(w, plain, "work")
    derived = {"failed_share": failed / attempted}
    if w.kind == "train":
        derived["train_samples_per_s"] = _median([p.rows for p in plain]) / work_s
    else:
        derived["audit_s"] = work_s
    record = {
        "workload": w.name,
        "why": w.why,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "environment": env,
        "reference_key": key,
        "reference": "absent" if expected is None else "present",
        "cal_ref_s": w.cal_ref_s,
        "outcome": first,
        "missing_hooks": tracer.missing if trace else [],
        "passes": [dict(asdict(p), traced=i >= len(plain)) for i, p in enumerate(passes)],
        "end_to_end": E2E_MEANING,
        "layer_map": {k: v[1] for k, v in tracing.LAYER_METRICS.items()},
        "derived": derived,
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    (results / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    return record


def _print_record(record: dict) -> None:
    name = record["workload"]
    for metric, m in record["metrics"].items():
        print(f"{name:<18} {metric:<28} {m['value']:>16.6f} {m['unit']}")
    for metric, value in record["derived"].items():
        unit = {"failed_share": "ratio", "train_samples_per_s": "1/s", "audit_s": "s"}[metric]
        print(f"{name:<18} {metric:<28} {value:>16.6f} {unit}")
    if record["missing_hooks"]:
        print(f"{name:<18} missing hooks (metrics read 0): {', '.join(record['missing_hooks'])}")
    env = record["environment"]
    print(f"{name:<18} seed {record['seed']}, nproc {env['nproc']}, python {env['python']}, "
          f"numpy {env['numpy']}, openblas {env['openblas']} "
          f"({env['openblas_runtime'].get('core', '?')}), blas threads {env['blas_threads']}, "
          f"reference {record['reference_key']}: {record['reference']}")


def _run_all(args) -> int:
    # Each workload in its own process, so peak memory stays per workload.
    import workloads as wl

    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in wl.WORKLOADS:
        command = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(args.trace)]
        done = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE, text=True, check=False)
        lines = done.stdout.strip().splitlines()
        print("\n".join(lines[:-1]), flush=True)
        if done.returncode != 0 or not lines:
            return done.returncode or 1
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, m in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = m
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "fedzsl" / "__init__.py").is_file():
        sys.stderr.write(f"perfbench: no fedzsl package under {SRC}; run from a checkout\n")
        return 2
    sys.path.insert(0, str(SRC))
    import fedzsl

    if Path(fedzsl.__file__).resolve().parent != (SRC / "fedzsl").resolve():
        sys.stderr.write(f"perfbench: imported fedzsl from {fedzsl.__file__}, not {SRC}\n")
        return 2
    import workloads as wl

    if args.workload == "all":
        return _run_all(args)
    if args.workload not in wl.WORKLOADS:
        parser.error(f"--workload must be 'all' or one of {', '.join(wl.WORKLOADS)}")
    references = json.loads(REFERENCE_FILE.read_text()) if REFERENCE_FILE.is_file() else {}
    record = run_workload(wl.WORKLOADS[args.workload], args.seed, args.seconds,
                          bool(args.trace), references)
    _print_record(record)
    print(json.dumps({k: record[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
