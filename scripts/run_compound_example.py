#!/usr/bin/env python3
"""End-to-end run of the shipped four-state compound-BSC margin example:
entropy gate, analytic bounds, and a Monte Carlo pass with a per-state
outcome table.

Usage: python scripts/run_compound_example.py [--trials N] [--seed S]
"""

import argparse
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from gepkit.cli import entropy_gate  # noqa: E402
from gepkit.exponents import ExponentCache, gep_bound_margin  # noqa: E402
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

    cache = ExponentCache(scen.model, scen.alpha)
    bound = gep_bound_margin(scen.model, [0], scen.region, scen.margin,
                             scen.alpha, scen.N, cache=cache)
    print(f"\n== margin bound at N={scen.N} ==")
    print(f"  raw sum {bound.raw:.6f} -> value {bound.value:.6f}"
          f"{' (vacuous)' if bound.vacuous else ''}")

    print(f"\n== simulation ({trials} trials, seed {seed}) ==")
    records = run_trials(scen, trials, seed, cache=cache)
    est = empirical_gep(records, scen.alpha, scen.N)
    verdict = compare_bound(est, bound)
    print(f"  margin-model GEP {est.point:.4f} (sigma {est.se:.4f}) "
          f"vs bound {bound.value:.4f}: "
          f"{'PASS' if verdict.passed else 'FAIL'}")

    print(f"\n  {'state':>10} {'trials':>7} {'correct':>8} "
          f"{'collision':>10} {'wrong':>6}")
    states = sorted({r.g for r in records})
    for g in states:
        rs = [r for r in records if r.g == g]
        where = ("region" if g in scen.region else
                 "margin" if g in scen.margin else "outside")
        correct = sum(r.decoded_correct for r in rs)
        coll = sum(r.kind == "collision" for r in rs)
        wrong = sum(r.decoded_wrong for r in rs)
        print(f"  {str(g):>10} {len(rs):>7} {correct:>8} {coll:>10} "
              f"{wrong:>6}  ({where})")
    return 0 if verdict.passed else 1


if __name__ == "__main__":
    sys.exit(main())
