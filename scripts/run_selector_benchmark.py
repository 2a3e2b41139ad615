"""Cross-validate algorithm selectors over a grid of settings and print a
comparison table.

Takes the same feature/performance CSV files the ``landsel aas`` subcommand
consumes and sweeps selector kind, neighbour count, and voting mode under a
chosen leave-out scheme, reporting gap closure and macro F1 for each.

Usage:
    python3 scripts/run_selector_benchmark.py features.csv performance.csv \
        --scheme leave_iid_out --k-values 1 3 5
"""

from __future__ import annotations

import argparse
import sys

from landsel.aas import cross_validate, read_features_csv, read_performance_csv


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("features", help="feature CSV (fid,iid,<feature...>)")
    ap.add_argument("performance", help="performance CSV (one row per run)")
    ap.add_argument("--scheme", default="leave_iid_out",
                    choices=["leave_iid_out", "leave_fid_out"])
    ap.add_argument("--k-values", type=int, nargs="+", default=[1, 3, 5])
    ap.add_argument("--kinds", nargs="+", default=["knn", "nearest_centroid"])
    ap.add_argument("--feature-cost", type=int, default=0,
                    help="evaluations charged to the model for the feature design")
    ap.add_argument("--penalty", type=float, default=10.0)
    args = ap.parse_args(argv)

    features = read_features_csv(args.features)
    table = read_performance_csv(args.performance)

    print(f"{len(features)} instances, {len(table.algorithms)} algorithms, "
          f"scheme {args.scheme}, feature cost {args.feature_cost}")
    print(f"{'kind':<17}{'k':>3}  {'voting':<9}{'gap':>9}{'f1':>8}  {'sbs/vbs/model mean ERT'}")
    for kind in args.kinds:
        for k in args.k_values:
            if kind == "nearest_centroid" and k != args.k_values[0]:
                continue  # k is ignored by the centroid rule
            for cost_sensitive in (False, True):
                report = cross_validate(
                    features, table, scheme=args.scheme, kind=kind, k=k,
                    cost_sensitive=cost_sensitive,
                    feature_cost=args.feature_cost, penalty=args.penalty,
                )
                pooled = report["pooled"]
                voting = "cost" if cost_sensitive else "majority"
                print(f"{kind:<17}{k:>3}  {voting:<9}"
                      f"{pooled['gap_closure']:>9.4f}{report['f1_macro']:>8.4f}  "
                      f"{pooled['sbs_mean']:.1f} / {pooled['vbs_mean']:.1f}"
                      f" / {pooled['model_mean']:.1f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
