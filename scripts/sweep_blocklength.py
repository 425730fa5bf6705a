#!/usr/bin/env python3
"""Sweep the scenario's verdict bound, the one ``simulate`` compares against
(and optionally a simulation), over blocklengths, emitting a plot-ready CSV.

Usage: python scripts/sweep_blocklength.py --scenario scenarios/compound_bsc_relaxed.json \
           --blocklengths 4 8 12 16 24 32 --trials 2000 --out sweep.csv
"""

import argparse
import csv
import dataclasses
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from gepkit.cli import scenario_bound  # noqa: E402
from gepkit.exponents import ExponentCache  # noqa: E402
from gepkit.montecarlo import empirical_gep, run_trials  # noqa: E402
from gepkit.scenario import load_scenario  # noqa: E402


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--scenario",
                    default=str(ROOT / "scenarios" /
                                "compound_bsc_relaxed.json"))
    ap.add_argument("--blocklengths", type=int, nargs="+",
                    default=[4, 8, 12, 16, 24, 32])
    ap.add_argument("--trials", type=int, default=0,
                    help="simulation trials per blocklength (0 = bound only)")
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--out", default="sweep.csv")
    args = ap.parse_args()

    base = load_scenario(args.scenario)
    cache = ExponentCache()
    rows = []
    for N in args.blocklengths:
        scen = dataclasses.replace(base, N=N)
        bound = scenario_bound(scen, cache)
        row = {"N": N, "bound": f"{bound.value:.12g}",
               "bound_raw": f"{bound.raw:.12g}"}
        if args.trials:
            tallies = run_trials(scen, args.trials, args.seed, cache=cache)
            est = empirical_gep(tallies, scen.alpha, N)
            row["estimate"] = f"{est.point:.12g}"
            row["sigma"] = f"{est.se:.12g}"
        rows.append(row)
        print(" ".join(f"{k}={v}" for k, v in row.items()))

    fields = list(rows[0].keys())
    with open(args.out, "w", newline="") as fh:
        wr = csv.DictWriter(fh, fieldnames=fields)
        wr.writeheader()
        wr.writerows(rows)
    print(f"wrote {args.out}")


if __name__ == "__main__":
    main()
