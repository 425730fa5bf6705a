#!/usr/bin/env python3
"""End-to-end run of a compound-BSC scenario, by default the shipped
four-state margin example: entropy gate, the verdict bound of the
scenario's decoder, and a Monte Carlo pass with a per-state outcome table.

Usage: python scripts/run_compound_example.py [--trials N] [--seed S]
                                              [--scenario PATH]
"""

import argparse
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from gepkit.cli import entropy_gate, scenario_bound  # noqa: E402
from gepkit.exponents import ExponentCache  # noqa: E402
from gepkit.montecarlo import compare_bound, empirical_gep, run_trials  # noqa: E402
from gepkit.scenario import load_scenario  # noqa: E402


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--trials", type=int, default=None)
    ap.add_argument("--seed", type=int, default=None)
    ap.add_argument("--scenario",
                    default=str(ROOT / "scenarios" / "bsc_compound_sec4.json"))
    args = ap.parse_args()

    scen = load_scenario(args.scenario)
    trials = args.trials or scen.trials
    seed = args.seed if args.seed is not None else scen.seed

    rate_bits, rows, gate_ok = entropy_gate(scen)
    print("== operating point ==")
    for i, p, cap, role, ok in rows:
        print(f"  state {i}: 1 - H({p}) = {cap:.6f} bits ({role}"
              f"{'' if ok is None else ', ok' if ok else ', violated'})")
    print(f"  rate = {rate_bits:.6f} bits/symbol; "
          f"entropy gate: {'PASS' if gate_ok else 'FAIL'}")

    cache = ExponentCache()
    bound = scenario_bound(scen, cache)
    print(f"\n== {scen.decoder} bound at N={scen.N} ==")
    print(f"  raw sum {bound.raw:.6f} -> value {bound.value:.6f}"
          f"{' (vacuous)' if bound.vacuous else ''}")

    print(f"\n== simulation ({trials} trials, seed {seed}) ==")
    tallies = run_trials(scen, trials, seed, cache=cache)
    est = empirical_gep(tallies, scen.alpha, scen.N)
    passed = compare_bound(est, bound)
    print(f"  {scen.decoder}-decoder GEP {est.point:.4f} (sigma {est.se:.4f}) "
          f"vs bound {bound.value:.4f}: "
          f"{'PASS' if passed else 'FAIL'}")

    print(f"\n  {'state':>10} {'trials':>7} {'correct':>8} "
          f"{'collision':>10} {'wrong':>6}")
    for g, (n, _errors, correct, wrong) in sorted(tallies.items()):
        where = ("region" if g in scen.region else
                 "margin" if g in scen.margin else "outside")
        print(f"  {str(g):>10} {n:>7} {correct:>8} {n - correct - wrong:>10} "
              f"{wrong:>6}  ({where})")
    return 0 if passed else 1


if __name__ == "__main__":
    sys.exit(main())
