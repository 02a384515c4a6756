#!/usr/bin/env python3
"""Smoke test of the benchmark at a tiny scale, through the same code path.

    python3 perfbench/selftest.py

Runs every workload shrunk by ``workloads.tiny`` twice untraced and twice
traced, and checks that each run is correct, that every metric named in
BENCHMARK.json is present with its unit, and that back-to-back runs give
identical digests and counts.  Exits 0 when all checks pass.
"""

import json
import sys

import run  # pins BLAS threads before numpy loads

COUNT_UNITS = ("count", "bytes", "bytes_computed")


def main() -> int:
    sys.path.insert(0, str(run.SRC))
    import workloads as wl

    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    wanted = {0: spec["end_to_end"], 1: spec["per_layer"]}
    problems = []
    for w in wl.WORKLOADS.values():
        small = wl.tiny(w)
        for trace in (0, 1):
            records = [run.run_workload(small, 7, 0.0, bool(trace), {}) for _ in range(2)]
            for record in records:
                if not record["correct"]:
                    problems.append(f"{small.name} trace {trace}: {record['failed']} failed")
                got = record["metrics"]
                for m in wanted[trace]:
                    if m["name"] not in got or got[m["name"]]["unit"] != m["unit"]:
                        problems.append(f"{small.name} trace {trace}: {m['name']} missing or wrong unit")
                if set(got) != {m["name"] for m in wanted[trace]}:
                    problems.append(f"{small.name} trace {trace}: metrics differ from BENCHMARK.json")
            a, b = records
            if a["outcome"] != b["outcome"]:
                problems.append(f"{small.name} trace {trace}: outcomes differ between runs")
            counts = [{k: v["value"] for k, v in r["metrics"].items() if v["unit"] in COUNT_UNITS}
                      for r in records]
            if counts[0] != counts[1]:
                problems.append(f"{small.name} trace {trace}: counts differ between runs")
            print(f"{small.name} trace {trace}: outcome {a['outcome'][:16]}, "
                  f"{a['attempted']} operations", flush=True)
    for problem in problems:
        print("FAIL", problem)
    print("selftest", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
