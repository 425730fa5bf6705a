"""Tests of the benchmark itself.  Run from the repository root:

    python3 -m pytest perfbench
"""

import contextlib
import io
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import checks  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402  (sets the single-threaded BLAS environment)
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402

import gepkit.cli  # noqa: E402
import gepkit.decoder  # noqa: E402
import gepkit.ensemble  # noqa: E402

OUTPUTS = ("exponents.csv", "bounds.json", "trials.csv", "summary.json",
           "detect.csv", "detect_summary.json")
SMALL = {"sim_trials": 20, "detect_trials": 100}


def _invoke(spec, work, out, tracer=None):
    """All four subcommands of ``spec`` into ``out``; returns exit codes."""
    codes = {}
    for op in run.CLI_OPS:
        scenario = workloads.scenario_path(
            spec["detect_scenario" if op == "detect" else "scenario"],
            run.ROOT, work)
        if tracer is not None:
            tracer.subcommand = op
        with contextlib.redirect_stdout(io.StringIO()):
            codes[op] = gepkit.cli.main(
                run.cli_argv(spec, op, scenario, out, spec["ref_seed"]))
    return codes


def _names():
    return {(mod, name): id(obj) for mod, m in sys.modules.items()
            if mod.startswith("gepkit") for name, obj in vars(m).items()}


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_traced_and_untraced_outputs_identical(name, tmp_path):
    spec = dict(workloads.WORKLOADS[name], **SMALL)
    plain = _invoke(spec, tmp_path, tmp_path / "plain")
    with Tracer() as tracer:
        traced = _invoke(spec, tmp_path, tmp_path / "traced", tracer)
    assert plain == traced
    for f in OUTPUTS:
        assert (tmp_path / "plain" / f).read_bytes() == \
            (tmp_path / "traced" / f).read_bytes(), f
    metrics = layers.round_metrics(tracer, spec)
    assert set(metrics) | {"ensemble.rng_floor_us_per_trial",
                           "trace.overhead_frac"} == set(layers.UNITS)
    assert metrics["decoder.candidates_per_trial"] > 0
    assert metrics["optimize.maximizations"] > 0
    assert metrics["cli.write_s"] > 0


def test_tracer_restores_every_name():
    before = _names()
    with Tracer():
        assert hasattr(gepkit.decoder.ensemble_log_expectation, "__wrapped__")
        assert "open" in vars(gepkit.cli)
    assert _names() == before


def test_deleted_function_reads_zero(monkeypatch, tmp_path):
    """A function a later version drops is not wrapped and its metrics are
    0; the rest of the round is still measured."""
    for mod in (gepkit.ensemble, gepkit.decoder):
        monkeypatch.delattr(mod, "ensemble_log_expectation")
    spec = dict(workloads.WORKLOADS["sec4-margin"], **SMALL)
    scenario = workloads.scenario_path(spec["scenario"], run.ROOT, tmp_path)
    with Tracer() as tracer:
        tracer.subcommand = "exponents"
        with contextlib.redirect_stdout(io.StringIO()):
            gepkit.cli.main(run.cli_argv(spec, "exponents", scenario,
                                         tmp_path / "out", 1))
    metrics = layers.round_metrics(tracer, spec)
    assert metrics["ensemble.ensemble_log_expectation.calls_per_trial"] == 0
    assert metrics["ensemble.ensemble_log_expectation.us_per_call"] == 0
    assert metrics["exponents.EiD.maximizations"] > 0


def test_preflight_refuses_without_allocating(tmp_path):
    doc = workloads.generate("bigcode-detect", run.ROOT)
    doc["N"] = 400  # e^{80} messages: computing the size must not allocate
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(MemoryError):
        workloads.preflight(path)
    assert workloads.codebook_bytes(workloads.generate(
        "bigcode-detect", run.ROOT)) == 2980 * 40 * 8


def test_checks_reject_changed_outputs(tmp_path):
    ref = HERE / "refs" / "sec4-margin"
    out = tmp_path / "out"
    shutil.copytree(ref, out)
    assert checks.check_exponents(out, ref) == []
    assert checks.check_bounds(out, ref) == []
    rows = (out / "exponents.csv").read_text().splitlines()
    cells = rows[1].split(",")
    cells[5] = repr(float(cells[5]) + 1e-6)
    rows[1] = ",".join(cells)
    (out / "exponents.csv").write_text("\n".join(rows) + "\n")
    assert checks.check_exponents(out, ref)
    meta = checks.read_json(ref / "meta.json")
    doc = json.loads((run.ROOT / "scenarios" /
                      "bsc_compound_sec4.json").read_text())
    trials = meta["sim_trials"]
    seed = meta["ref_seed"]
    assert checks.check_simulate(out, ref, meta, doc, seed, trials, 0) == []
    text = (out / "trials.csv").read_text().replace(",", ";", 1)
    (out / "trials.csv").write_text(text)
    assert checks.check_simulate(out, ref, meta, doc, seed, trials, 0)
    assert checks.check_simulate(out, ref, meta, doc, seed + 1, trials, 0)


def test_refuses_to_run_without_sources(tmp_path):
    """In a directory holding only the benchmark, it exits non-zero without
    printing a result."""
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sec4-margin",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
        check=False)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
