"""CLI outputs on the shipped Sec. 4 scenario against the benchmark's
recorded references in ``perfbench/refs/sec4-margin/`` (read only).

``trials.csv`` must match byte for byte; every number of ``exponents.csv``,
``bounds.json`` and ``summary.json`` must match to 1e-9 (relative above 1),
everything else exactly.  So a refactor that moves an output fails under
pytest, not only in the benchmark.
"""

import csv
import json
from pathlib import Path

import pytest

from gepkit.cli import main

ROOT = Path(__file__).resolve().parent.parent
REF = ROOT / "perfbench" / "refs" / "sec4-margin"
SCENARIO = ROOT / "scenarios" / "bsc_compound_sec4.json"
TOL = 1e-9


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
