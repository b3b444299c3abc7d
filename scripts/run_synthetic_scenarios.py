#!/usr/bin/env python3
"""Run the three synthetic scenarios and print baseline-vs-adaptive metrics.

Each scenario streams its batches once, with full per-batch adaptation.
The baseline is the same stream's s_nl column: the score against the
negative spaces frozen at the initial word selection. Use --full for the
5x(400+400) regression scale; the default is a quick desk-scale pass.
"""
import argparse
import json

from negtext.synthetic import SCENARIOS, run_scenario


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--full", action="store_true", help="5 batches of 400+400")
    parser.add_argument("--json", action="store_true", help="machine-readable output")
    parser.add_argument(
        "--scenario", choices=SCENARIOS, action="append",
        help="repeatable; default: all scenarios",
    )
    args = parser.parse_args()

    if args.full:
        stream = dict(n_batches=5, id_per_batch=400, ood_per_batch=400)
    else:
        stream = dict(n_batches=3, id_per_batch=150, ood_per_batch=150)

    rows = []
    for name in args.scenario or SCENARIOS:
        result = run_scenario(name, seed=args.seed, **stream)
        rows.append(
            {
                "scenario": name,
                "baseline_auroc": result.baseline.auroc,
                "baseline_fpr95": result.baseline.fpr95,
                "adapted_auroc": result.adapted.auroc,
                "adapted_fpr95": result.adapted.fpr95,
                "lambda_history": list(result.lambda_history),
            }
        )

    if args.json:
        print(json.dumps(rows, indent=2))
        return

    header = f"{'scenario':<8} {'AUROC base':>11} {'AUROC ada':>10} {'FPR95 base':>11} {'FPR95 ada':>10}  lambda"
    print(header)
    print("-" * len(header))
    for row in rows:
        lams = " ".join(f"{l:.2f}" for l in row["lambda_history"])
        print(
            f"{row['scenario']:<8} {row['baseline_auroc']:>11.4f} "
            f"{row['adapted_auroc']:>10.4f} {row['baseline_fpr95']:>11.4f} "
            f"{row['adapted_fpr95']:>10.4f}  {lams}"
        )


if __name__ == "__main__":
    main()
