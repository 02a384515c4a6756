#!/usr/bin/env python3
"""End-to-end quickstart on synthetic data.

Generates a planted-structure dataset, estimates the class similarity
matrix from the attribute table, runs a short federated simulation with
class-disjoint clients, and prints the round-by-round trace plus the
final zero-shot scores.

Usage:
    python demos/quickstart.py
    python demos/quickstart.py --rounds 50 --clients 5 --seed 1
"""
from __future__ import annotations

import argparse

from fedzsl.cli import configure_run, default_config
from fedzsl.dataset import SyntheticSpec, generate_synthetic
from fedzsl.fed import run_simulation


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--rounds", type=int, default=30)
    parser.add_argument("--clients", type=int, default=5)
    parser.add_argument("--local-lr", type=float, default=0.008)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    spec = SyntheticSpec(num_seen=20, num_unseen=5)
    ds, attrs = generate_synthetic(spec, seed=args.seed)
    print(f"dataset: {spec.num_seen}+{spec.num_unseen} classes, "
          f"{ds.num_samples} samples, d_v={spec.d_v}, d_a={spec.d_a}")

    settings = default_config()
    settings["train"].update(rounds=args.rounds, num_clients=args.clients,
                             local_lr=args.local_lr, seed=args.seed, eval_every=5)
    cfg, sim = configure_run(settings, attrs)
    print(f"similarity: solved in {sim.sweeps} sweeps, converged={sim.converged}")

    trace = run_simulation(ds, attrs, cfg)

    print(f"{'round':>5} {'loss':>9} {'acc_c':>6} {'acc_u':>6} {'acc_s':>6} {'acc_h':>6}")
    for row in trace:
        def cell(v: float | None) -> str:
            return "." if v is None else f"{v:.1f}"
        print(f"{row.round_index:>5} {row.global_loss:>9.4f} "
              f"{cell(row.acc_c):>6} {cell(row.acc_u):>6} "
              f"{cell(row.acc_s):>6} {cell(row.acc_h):>6}")

    last = trace[-1]
    print(f"\nfinal: restricted unseen {last.acc_c:.1f}, "
          f"mixed-pool unseen {last.acc_u:.1f} / seen {last.acc_s:.1f}, "
          f"harmonic {last.acc_h:.1f}")


if __name__ == "__main__":
    main()
