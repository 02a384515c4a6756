#!/usr/bin/env python3
"""Compare the full objective against reduced variants under disjoint clients.

Trains three models on the same class-disjoint partition: the full
four-term objective, a cross-entropy-only ablation, and the
attribute-free baseline that learns a plain classifier head per client.
The attribute-free baseline cannot score unseen classes at all, and its
seen accuracy collapses because each client's head only ever sees its
own class shard.

Usage:
    python demos/ablation_comparison.py
    python demos/ablation_comparison.py --seeds 3 --rounds 50
"""
from __future__ import annotations

import argparse

import numpy as np

from fedzsl.cli import configure_run, default_config
from fedzsl.dataset import SyntheticSpec, generate_synthetic
from fedzsl.fed import run_simulation
from fedzsl.model import ATTRIBUTE_FREE

# Each variant's settings over the defaults, section by section.
VARIANTS = {
    "full": {},
    "sce only": {"losses": {"bc": False, "kl": False, "ad": False}},
    "attr-free": {"model": {"mode": ATTRIBUTE_FREE}},
}


def run_variant(seed: int, rounds: int, lr: float, overrides: dict):
    ds, attrs = generate_synthetic(SyntheticSpec(num_seen=20, num_unseen=5), seed=seed)
    settings = default_config()
    settings["train"].update(rounds=rounds, num_clients=5, local_lr=lr, seed=seed,
                             eval_every=rounds)
    for section, values in overrides.items():
        settings[section].update(values)
    return run_simulation(ds, attrs, configure_run(settings, attrs)[0])[-1]


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seeds", type=int, default=3)
    parser.add_argument("--rounds", type=int, default=50)
    parser.add_argument("--local-lr", type=float, default=0.008)
    args = parser.parse_args()

    print(f"{args.seeds} seeds x {args.rounds} rounds, 5 disjoint clients\n")
    print(f"{'variant':<10} {'acc_c':>6} {'acc_u':>6} {'acc_s':>6} {'acc_h':>6}")
    for name, overrides in VARIANTS.items():
        finals = [
            run_variant(seed, args.rounds, args.local_lr, overrides)
            for seed in range(args.seeds)
        ]

        def mean(field: str) -> str:
            values = [getattr(f, field) for f in finals]
            if any(v is None for v in values):
                return "."
            return f"{np.mean(values):.1f}"

        print(f"{name:<10} {mean('acc_c'):>6} {mean('acc_u'):>6} "
              f"{mean('acc_s'):>6} {mean('acc_h'):>6}")
    print("\nacc_c is restricted to unseen classes, so the attribute-free")
    print("baseline has no entry there; its seen accuracy shows the cost of")
    print("averaging classifier heads trained on disjoint class shards.")


if __name__ == "__main__":
    main()
