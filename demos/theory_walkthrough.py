#!/usr/bin/env python3
"""Inspect the guarantees behind a trained model.

Runs the standalone property suite, then trains a small federated model
and builds an instance report: decoder spectral constants, worst
reconstruction error, per-class prototype margins, and the data-driven
bound checks, plus the distillation alignment bound on held-out rows.

Usage:
    python demos/theory_walkthrough.py
    python demos/theory_walkthrough.py --trials 2000 --rounds 30
"""
from __future__ import annotations

import argparse

from fedzsl.cli import configure_run, default_config
from fedzsl.dataset import SyntheticSpec, generate_synthetic, split_train_test
from fedzsl.fed import run_simulation
from fedzsl.theory import build_theory_report, check_client_alignment, run_check_suite


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--trials", type=int, default=1000)
    parser.add_argument("--rounds", type=int, default=30)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    print(f"property suite, {args.trials} trials per check:")
    for result in run_check_suite(trials=args.trials, seed=args.seed):
        print(f"  {result.name:<18} violations={result.violations} "
              f"max_slack={result.max_slack:.3e}")

    ds, attrs = generate_synthetic(SyntheticSpec(num_seen=20, num_unseen=5), seed=args.seed)
    settings = default_config()
    settings["train"].update(rounds=args.rounds, num_clients=5, local_lr=0.008, seed=args.seed,
                             eval_every=args.rounds)
    cfg, _ = configure_run(settings, attrs)
    trace = run_simulation(ds, attrs, cfg)
    params = trace.final_params
    train, test_seen, _ = split_train_test(ds, args.seed)

    report = build_theory_report(params, train.features, train.labels, attrs)
    margins = [closest for closest, _ in report.margins.values()]
    print(f"\ninstance report after {args.rounds} rounds:")
    print(f"  decoder singular values: smallest {report.c_h:.4f}, largest {report.L_h:.4f}")
    print(f"  worst reconstruction error: {report.delta_rec:.4f}")
    print(f"  smallest prototype margin: {min(margins):.4f}")
    print(f"  bound violations: {report.violations}")
    print(f"  refused checks: {report.refusals or 'none'}")

    aligned = check_client_alignment(
        params, test_seen.features, test_seen.labels, attrs, cfg.distill.targets
    )
    print(f"  alignment bound violations on held-out rows: {aligned}")


if __name__ == "__main__":
    main()
