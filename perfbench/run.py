#!/usr/bin/env python3
"""gepkit benchmark: runs one workload through the real CLI entry point,
checks every output, and prints the metrics.

Usage (from the repository root):

    python3 perfbench/run.py --workload sec4-margin --seed 1 --seconds 36 --trace 0

Workloads are listed in ``perfbench/workloads.py``.  With ``--trace 0`` the
run repeats the subcommands ``exponents``, ``bound``, ``simulate`` and
``detect`` in process (``gepkit.cli.main``, serial) and a fresh-interpreter
set-up probe, round robin, for ``--seconds`` seconds, and reports the
median of each as an end-to-end metric, each sample scaled to the
reference machine speed (``CALIBRATION_S``) by a calibration loop timed
around every invocation.  With ``--trace 1`` it alternates
untraced and traced rounds and reports the per-layer metrics of
``perfbench/layers.py`` plus the tracing overhead.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; ``attempted`` counts
invocations (set-up probes included) and ``failed`` those whose outputs did
not pass ``perfbench/checks.py``, so ops_failed_frac = failed / attempted.
"""

from __future__ import annotations

import os

# single-threaded BLAS for this process and every child; set before numpy
# is imported
BLAS_ENV = {name: "1" for name in (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")}
os.environ.update(BLAS_ENV)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from collections import defaultdict  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import workloads  # noqa: E402

OPS = ("setup", "exponents", "bound", "simulate", "detect")
CLI_OPS = OPS[1:]
TIMERS = ("montecarlo.run_trials", "decoder.build_thresholds")
# About the median time of ``calibrate`` on the machine the benchmark was
# written on (2-vCPU Intel Xeon at 2.1 GHz).  Each timed sample is scaled by
# CALIBRATION_S / (mean of the calibrations just before and after it): that
# machine's throughput drifts by +-25% over tens of seconds, moving gepkit
# and the calibration loop alike, and the scaling takes the drift out of
# run-to-run comparisons.
CALIBRATION_S = 0.019
UNITS = {"setup_s": "s", "exponents_s": "s", "bound_s": "s",
         "simulate_s": "s", "detect_s": "s", "trials_per_s": "1/s",
         "peak_rss_mib": "MiB"}


def cli_argv(spec: dict, op: str, scenario: Path, out: Path, seed: int):
    """Arguments of one ``gepkit`` invocation of workload ``spec``."""
    argv = [op, "--scenario", str(scenario), "--out", str(out)]
    if op in ("simulate", "detect"):
        trials = spec["sim_trials" if op == "simulate" else "detect_trials"]
        argv += ["--trials", str(trials), "--seed", str(seed)]
    return argv


class Runner:
    """Runs and checks the invocations of one workload.

    Invocation i of ``simulate`` and ``detect`` uses the workload's
    reference seed when i = 0, so that every run byte-compares its tables
    with the references, and ``seed * 1000 + i`` otherwise."""

    def __init__(self, name: str, seed: int, work: Path):
        from gepkit import cli

        self.cli = cli
        self.name = name
        self.seed = seed
        self.spec = workloads.WORKLOADS[name]
        self.work = work
        self.ref = HERE / "refs" / name
        self.scenario = workloads.scenario_path(self.spec["scenario"], ROOT,
                                                work)
        self.detect_scenario = workloads.scenario_path(
            self.spec["detect_scenario"], ROOT, work)
        for path in (self.scenario, self.detect_scenario):
            workloads.preflight(path)
        with open(self.scenario, encoding="utf-8") as fh:
            self.doc = json.load(fh)
        self.meta = checks.read_json(self.ref / "meta.json")
        for key in ("ref_seed", "sim_trials", "detect_trials"):
            if self.meta[key] != self.spec[key]:
                raise ValueError(f"{self.ref}/meta.json: {key} "
                                 f"{self.meta[key]} != {self.spec[key]}")
        self.count = defaultdict(int)
        self.attempted = 0
        self.failed = 0

    def op_seed(self, op: str) -> int:
        i = self.count[op]
        return self.spec["ref_seed"] if i == 0 else self.seed * 1000 + i

    def run(self, op: str, tracer=None) -> float:
        """One invocation of ``op``; returns its wall time in seconds and
        counts it as failed when its outputs do not check."""
        seed = self.op_seed(op)
        self.count[op] += 1
        self.attempted += 1
        if op == "setup":
            elapsed, problems = self._setup(seed)
        else:
            out = self.work / op
            shutil.rmtree(out, ignore_errors=True)
            scenario = self.detect_scenario if op == "detect" \
                else self.scenario
            argv = cli_argv(self.spec, op, scenario, out, seed)
            if tracer is not None:
                tracer.subcommand = op
            t0 = time.perf_counter()
            try:
                with contextlib.redirect_stdout(io.StringIO()):
                    code = self.cli.main(argv)
            except Exception:  # a crash is a failed invocation, not a stop
                code, problems = None, [traceback.format_exc()]
            elapsed = time.perf_counter() - t0
            if code is not None:
                try:
                    problems = self._check(op, out, seed, code)
                except (OSError, ValueError, KeyError, IndexError,
                        TypeError) as exc:
                    problems = [f"unreadable outputs: {exc!r}"]
        if problems:
            self.failed += 1
            print(f"{self.name} {op} seed {seed}: FAILED", file=sys.stderr)
            for p in problems:
                print("  " + p, file=sys.stderr)
        return elapsed

    def _check(self, op, out, seed, code):
        if op == "simulate":
            return checks.check_simulate(out, self.ref, self.meta, self.doc,
                                         seed, self.spec["sim_trials"], code)
        if op == "detect":
            return checks.check_detect(out, self.ref, self.meta, seed,
                                       self.spec["detect_trials"], code)
        problems = [] if code == self.meta["exit"][op] else \
            [f"{op} exit {code}, reference {self.meta['exit'][op]}"]
        check = checks.check_exponents if op == "exponents" \
            else checks.check_bounds
        return problems + check(out, self.ref)

    def _setup(self, seed):
        """Fresh interpreter: import gepkit, load the scenario, build the
        decoder and run one trial (``setup_probe.py``)."""
        cmd = [sys.executable, str(HERE / "setup_probe.py"),
               str(self.scenario), str(seed)]
        t0 = time.perf_counter()
        try:
            proc = subprocess.run(cmd, capture_output=True, text=True,
                                  timeout=120, check=False)
        except subprocess.TimeoutExpired:
            return time.perf_counter() - t0, ["setup probe timed out"]
        elapsed = time.perf_counter() - t0
        if proc.returncode != 0 or proc.stdout.strip() != "1":
            return elapsed, [f"setup probe exit {proc.returncode}: "
                             f"{proc.stdout.strip()} {proc.stderr.strip()}"]
        return elapsed, []


def calibrate() -> float:
    """Seconds of a fixed loop of small numpy operations and interpreted
    Python that touches no gepkit code: how fast the machine runs now."""
    import numpy as np

    a = np.random.default_rng(0).random((64, 64))
    t0 = time.perf_counter()
    for _ in range(450):
        m = a.max(axis=1, keepdims=True)
        np.log(np.exp(a - m).sum(axis=1))
    x = 0
    for i in range(120000):
        x += i * i
    return time.perf_counter() - t0


def timed_round(runner, ops, deadline, samples):
    """Runs each op once, skipping an op that already has a sample when its
    median so far would overrun the deadline, and times ``calibrate`` before
    each; ``samples[op + "@"]`` holds the index of that calibration.
    Returns the ops run."""
    from tracer import Tracer

    ran = []
    for op in ops:
        past = samples[op]
        if past and time.perf_counter() + statistics.median(past) > deadline:
            continue
        samples["calibrate"].append(calibrate())
        samples[op + "@"].append(len(samples["calibrate"]) - 1)
        if op == "simulate":
            with Tracer(only=TIMERS) as timers:
                past.append(runner.run(op, timers))
            trials = timers.total(TIMERS[0], field=1) - \
                timers.total(TIMERS[1], field=1)
            samples["trials_per_s"].append(
                runner.spec["sim_trials"] / trials if trials > 0 else 0.0)
        else:
            past.append(runner.run(op))
        ran.append(op)
    return ran


def scaled_median(values, where, cal, rate=False):
    """Median of the samples, each scaled to the reference machine speed by
    the calibration times just before and just after it."""
    out = []
    for v, i in zip(values, where):
        speed = CALIBRATION_S / ((cal[i] + cal[i + 1]) / 2)
        out.append(v / speed if rate else v * speed)
    return statistics.median(out)


def end_to_end(runner, seconds):
    samples = defaultdict(list)
    deadline = time.perf_counter() + seconds
    while timed_round(runner, OPS, deadline, samples):
        pass
    cal = samples["calibrate"]
    cal.append(calibrate())
    metrics = {f"{op}_s": scaled_median(samples[op], samples[op + "@"], cal)
               for op in OPS}
    metrics["trials_per_s"] = scaled_median(
        samples["trials_per_s"], samples["simulate@"], cal, rate=True)
    metrics["peak_rss_mib"] = \
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    detail = {k: [round(x, 4) for x in v] for k, v in samples.items()
              if not k.endswith("@")}
    return {k: {"value": v, "unit": UNITS[k]} for k, v in metrics.items()}, \
        detail


def per_layer(runner, seconds):
    """Alternates untraced and traced rounds of the four subcommands; the
    per-layer metrics come from the traced rounds (median over rounds) and
    the overhead from comparing the two kinds."""
    import layers
    from tracer import Tracer

    plain, traced = defaultdict(list), defaultdict(list)
    rounds = []
    deadline = time.perf_counter() + seconds
    while True:
        start = time.perf_counter()
        timed_round(runner, CLI_OPS, float("inf"), plain)
        with Tracer() as tracer:
            for op in CLI_OPS:
                traced[op].append(runner.run(op, tracer))
        rounds.append(layers.round_metrics(tracer, runner.spec))
        if time.perf_counter() + (time.perf_counter() - start) > deadline:
            break
    metrics = {k: statistics.median(r[k] for r in rounds) for k in rounds[0]}
    metrics["ensemble.rng_floor_us_per_trial"] = layers.rng_floor_us(
        runner.scenario, runner.spec["sim_trials"], runner.seed)
    metrics["trace.overhead_frac"] = \
        sum(statistics.median(traced[op]) for op in CLI_OPS) / \
        sum(statistics.median(plain[op]) for op in CLI_OPS) - 1.0
    return {k: {"value": v, "unit": layers.UNITS[k]}
            for k, v in metrics.items()}, {"rounds": len(rounds)}


def environment(args, detail):
    import numpy
    import scipy

    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "gepkit").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    commit = "unknown"
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, check=False)
        commit = proc.stdout.strip() or commit
    return {"workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace,
            "samples": detail, "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "commit": commit, "src_sha256": digest.hexdigest(),
            "blas_env": BLAS_ENV}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "gepkit" / "cli.py").is_file():
        print(f"error: no gepkit sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    work = ROOT / ".perfbench_work" / f"{args.workload}.{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        try:
            runner = Runner(args.workload, args.seed, work)
        except (OSError, ValueError, MemoryError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        measure = per_layer if args.trace else end_to_end
        metrics, detail = measure(runner, args.seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            work.parent.rmdir()
    print("env " + json.dumps(environment(args, detail), sort_keys=True))
    for name, m in metrics.items():
        print(f"metric {name} = {m['value']:.6g} {m['unit']}")
    print(f"metric ops_failed_frac = "
          f"{runner.failed / runner.attempted:.6g} "
          f"({runner.failed} of {runner.attempted} invocations)")
    print(json.dumps({"correct": runner.failed == 0,
                      "attempted": runner.attempted,
                      "failed": runner.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
