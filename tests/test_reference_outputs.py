"""CLI outputs against the benchmark's recorded references in
``perfbench/refs/`` (read only).

On the shipped Sec. 4 scenario, ``trials.csv`` must match byte for byte;
every number of ``exponents.csv``, ``bounds.json`` and ``summary.json`` must
match to 1e-9 (relative above 1), everything else exactly.  On every
benchmark workload, ``exponents.csv``, ``bounds.json``, ``summary.json`` and
``detect_summary.json`` must match in the same way, and ``simulate`` and
``detect`` at the reference seed and trial counts must write ``trials.csv``
and ``detect.csv`` byte for byte; the derived scenarios are generated by
``perfbench/workloads.py``.  So a refactor that moves an output fails under
pytest, not only in the benchmark.
"""

import csv
import json
from pathlib import Path

import pytest

from gepkit.cli import main

from conftest import load_workloads

ROOT = Path(__file__).resolve().parent.parent
REFS = ROOT / "perfbench" / "refs"
REF = REFS / "sec4-margin"
SCENARIO = ROOT / "scenarios" / "bsc_compound_sec4.json"
TOL = 1e-9

workloads = load_workloads()


def _number(value):
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _same(got, ref) -> bool:
    """Equal structure; numbers within TOL, everything else equal."""
    if isinstance(ref, dict):
        return isinstance(got, dict) and got.keys() == ref.keys() and \
            all(_same(got[k], ref[k]) for k in ref)
    if isinstance(ref, list):
        return isinstance(got, list) and len(got) == len(ref) and \
            all(_same(a, b) for a, b in zip(got, ref))
    if _number(ref) and _number(got):
        return abs(got - ref) <= TOL * max(1.0, abs(ref))
    return got == ref


def _csv_cells(path):
    def cell(text):
        try:
            return float(text)
        except ValueError:
            return text

    with open(path, newline="") as fh:
        return [[cell(c) for c in row] for row in csv.reader(fh)]


@pytest.fixture(scope="module")
def out(tmp_path_factory):
    out = tmp_path_factory.mktemp("sec4")
    meta = json.loads((REF / "meta.json").read_text())
    extra = {"simulate": ["--trials", str(meta["sim_trials"]),
                          "--seed", str(meta["ref_seed"])]}
    for command in ("exponents", "bound", "simulate"):
        code = main([command, "--scenario", str(SCENARIO), "--out", str(out)]
                    + extra.get(command, []))
        assert code == meta["exit"][command], command
    return out


def test_trials_csv_byte_identical(out):
    assert (out / "trials.csv").read_bytes() == \
        (REF / "trials.csv").read_bytes()


def test_exponents_csv_within_tolerance(out):
    assert _same(_csv_cells(out / "exponents.csv"),
                 _csv_cells(REF / "exponents.csv"))


@pytest.mark.parametrize("name", ["bounds.json", "summary.json"])
def test_json_within_tolerance(out, name):
    got = json.loads((out / name).read_text())
    assert _same(got, json.loads((REF / name).read_text()))


@pytest.fixture(scope="module", params=sorted(workloads.WORKLOADS))
def trial_tables(request, tmp_path_factory):
    """Output directories of every subcommand on one workload: ``exponents``
    and ``bound``, and ``simulate`` and ``detect`` at its reference seed and
    trial counts."""
    name = request.param
    spec = workloads.WORKLOADS[name]
    meta = json.loads((REFS / name / "meta.json").read_text())
    work = tmp_path_factory.mktemp(name)
    seeded = ["--seed", str(meta["ref_seed"])]
    for op, ref, extra in (
            ("exponents", spec["scenario"], []),
            ("bound", spec["scenario"], []),
            ("simulate", spec["scenario"],
             ["--trials", str(meta["sim_trials"])] + seeded),
            ("detect", spec["detect_scenario"],
             ["--trials", str(meta["detect_trials"])] + seeded)):
        scenario = workloads.scenario_path(ref, ROOT, work)
        code = main([op, "--scenario", str(scenario), "--out",
                     str(work / op)] + extra)
        assert code == meta["exit"][op], (name, op)
    return name, work


@pytest.mark.parametrize("op, table", [("simulate", "trials.csv"),
                                       ("detect", "detect.csv")])
def test_workload_trial_tables_byte_identical(trial_tables, op, table):
    name, work = trial_tables
    assert (work / op / table).read_bytes() == \
        (REFS / name / table).read_bytes()


def test_workload_exponents_csv_within_tolerance(trial_tables):
    name, work = trial_tables
    assert _same(_csv_cells(work / "exponents" / "exponents.csv"),
                 _csv_cells(REFS / name / "exponents.csv"))


def test_workload_bounds_json_within_tolerance(trial_tables):
    name, work = trial_tables
    got = json.loads((work / "bound" / "bounds.json").read_text())
    assert _same(got, json.loads((REFS / name / "bounds.json").read_text()))


@pytest.mark.parametrize("op, name", [("simulate", "summary.json"),
                                      ("detect", "detect_summary.json")])
def test_workload_summaries_within_tolerance(trial_tables, op, name):
    workload, work = trial_tables
    got = json.loads((work / op / name).read_text())
    assert _same(got, json.loads((REFS / workload / name).read_text()))
