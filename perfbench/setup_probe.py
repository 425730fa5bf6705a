#!/usr/bin/env python3
"""Set-up probe, run in a fresh interpreter: import gepkit, load the
scenario, build the decoder's threshold tables and run a single trial.
Prints the number of trial records (1).  ``run_trials`` builds the tables
before its first trial wherever that work lives, so the probe keeps
measuring set-up when the build moves; the one trial is a negligible part
of it.

Usage: python3 perfbench/setup_probe.py SCENARIO SEED
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from gepkit.montecarlo import run_trials  # noqa: E402
from gepkit.scenario import load_scenario  # noqa: E402

if __name__ == "__main__":
    scenario = load_scenario(sys.argv[1])
    print(len(run_trials(scenario, 1, int(sys.argv[2]))))
