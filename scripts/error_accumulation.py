#!/usr/bin/env python3
"""Error-accumulation experiment: rollout training vs vanilla single-block training.

Trains the same linear forecaster twice on a noisy sinusoid, once with the
discounted rollout objective and once with plain one-block MSE, then rolls
both out over several blocks on the test split and reports how the errors
grow. Writes one accumulation-curve CSV per objective under --out.

Usage:
    python scripts/error_accumulation.py --out runs/accumulation
"""

import argparse
from pathlib import Path


from arforecast import (
    Dims,
    RolloutConfig,
    TrainConfig,
    compare,
    evaluate,
    export_curve,
    gen_sinusoid,
    init_forecaster,
    train,
)
from arforecast.evaluation import format_comparison


def parse_args():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--out", type=Path, default=Path("runs/accumulation"))
    p.add_argument("--length", type=int, default=1600)
    p.add_argument("--period", type=float, default=144.0)
    p.add_argument("--noise-std", type=float, default=0.1)
    p.add_argument("--context", type=int, default=48)
    p.add_argument("--block", type=int, default=12)
    p.add_argument("--steps", type=int, default=4, help="rollout blocks for training and eval")
    p.add_argument("--epochs", type=int, default=4)
    p.add_argument("--lr", type=float, default=1e-2)
    p.add_argument("--seed", type=int, default=1)
    return p.parse_args()


def main():
    args = parse_args()
    args.out.mkdir(parents=True, exist_ok=True)
    ds = gen_sinusoid(args.length, V=1, periods=args.period,
                      noise_std=args.noise_std, seed=0)
    roll = RolloutConfig(n=args.steps)

    reports = []
    for objective in ("mse", "ar"):
        model = init_forecaster("linear", Dims(S=args.context, T=args.block), seed=args.seed)
        cfg = TrainConfig(lr=args.lr, batch_size=32, max_epochs=args.epochs,
                          patience=args.epochs, seed=args.seed, objective=objective)
        ck, history = train(model, ds, roll, cfg)
        report = evaluate(ck.to_forecaster(), ds, "test", roll)
        export_curve(report, args.out / f"curve_{objective}.csv")
        reports.append((objective, report))
        print(f"[{objective}] {len(history)} epochs, best val {ck.val_loss:.5f}, "
              f"test rollout mse {report.cumulative[0]:.5f}, "
              f"block violation rate {report.block_violation_rate:.2f}")

    print()
    print(format_comparison(compare(reports)))
    print(f"\ncurves written to {args.out}/curve_mse.csv and {args.out}/curve_ar.csv")


if __name__ == "__main__":
    main()
