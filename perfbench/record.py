#!/usr/bin/env python3
"""Record the reference outcomes that run.py checks every pass against.

    python3 perfbench/record.py --seeds 0-31

Runs one untraced pass of every workload per seed and stores its outcome
(the metrics.csv digest, or the audit's violation counts and refusals) in
perfbench/reference.json, under this host's BLAS kernel set and thread
count.  Entries for other keys are kept.  Re-record only when the
benchmark's inputs or workloads change, never to make a program pass.
"""

import argparse
import json
import shutil
import sys

import run  # pins BLAS threads before numpy loads


def _seeds(text: str) -> list[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=_seeds, required=True, help="e.g. 0-31")
    args = parser.parse_args()
    sys.path.insert(0, str(run.SRC))
    import workloads as wl

    key = run.reference_key(run.environment(0))
    table = json.loads(run.REFERENCE_FILE.read_text()) if run.REFERENCE_FILE.is_file() else {}
    entries = table.setdefault(key, {})
    work = run.WORK / "record"
    try:
        for w in wl.WORKLOADS.values():
            for seed in args.seeds:
                shutil.rmtree(work, ignore_errors=True)
                data = wl.make_inputs(w, seed, work / "inputs")
                result = wl.run_pass(w, seed, data, work / "out", wl.Calibration(w))
                if result.failed:
                    sys.stderr.write(f"{w.name} seed {seed}: {result.failed} operations failed\n")
                    return 1
                entries.setdefault(w.name, {})[str(seed)] = result.outcome
                print(f"{key} {w.name} seed {seed}: {result.outcome[:40]}", flush=True)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    run.REFERENCE_FILE.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
