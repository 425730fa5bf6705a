#!/usr/bin/env python3
"""Records the reference outputs the benchmark checks against: every
workload's ``exponents``, ``bound``, ``simulate`` and ``detect`` outputs at
its reference seed, and their exit codes, into ``perfbench/refs/``.

Run it only when the benchmark itself changes (a workload, a trial count or
a reference seed), from the repository root, at a commit whose outputs are
known to be right:

    python3 perfbench/record_refs.py
"""

import contextlib
import io
import json
import shutil
import sys
import tempfile
from pathlib import Path

import run  # sets the single-threaded BLAS environment first
import workloads

OUTPUTS = {"exponents": ["exponents.csv"], "bound": ["bounds.json"],
           "simulate": ["trials.csv", "summary.json"],
           "detect": ["detect.csv", "detect_summary.json"]}


def record(name: str, spec: dict, work: Path) -> None:
    from gepkit import cli

    ref = run.HERE / "refs" / name
    ref.mkdir(parents=True, exist_ok=True)
    exits = {}
    for op, files in OUTPUTS.items():
        scenario = workloads.scenario_path(
            spec["detect_scenario" if op == "detect" else "scenario"],
            run.ROOT, work)
        out = work / op
        with contextlib.redirect_stdout(io.StringIO()):
            exits[op] = cli.main(run.cli_argv(spec, op, scenario, out,
                                              spec["ref_seed"]))
        for f in files:
            shutil.copyfile(out / f, ref / f)
    meta = {key: spec[key] for key in ("ref_seed", "sim_trials",
                                       "detect_trials")}
    meta["exit"] = exits
    with open(ref / "meta.json", "w") as fh:
        json.dump(meta, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"{name}: exit codes {exits}")


def main() -> int:
    sys.path.insert(0, str(run.ROOT / "src"))
    for name, spec in workloads.WORKLOADS.items():
        with tempfile.TemporaryDirectory(dir=run.ROOT) as tmp:
            record(name, spec, Path(tmp))
    return 0


if __name__ == "__main__":
    sys.exit(main())
