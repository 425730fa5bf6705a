"""The experiment scripts under scripts/ run end to end against the
library's current API."""

import re
import subprocess
import sys

from conftest import ROOT, load_workloads


def _run(script, *args, cwd):
    return subprocess.run([sys.executable, str(ROOT / "scripts" / script),
                           *args], cwd=cwd, capture_output=True, text=True,
                          timeout=300)


def test_sweep_blocklength_writes_its_csv(tmp_path):
    out = tmp_path / "sweep.csv"
    res = _run("sweep_blocklength.py", "--blocklengths", "4", "8",
               "--out", str(out), cwd=tmp_path)
    assert res.returncode == 0, res.stderr
    lines = out.read_text().splitlines()
    assert lines[0] == "N,bound,bound_raw"
    assert [line.split(",")[0] for line in lines[1:]] == ["4", "8"]


def test_sweep_reports_the_verdict_bound(tmp_path):
    # the bound of the simulated detect-then-decode receiver: decoding plus
    # weighted detection, as ``simulate`` compares against
    scenario = load_workloads().scenario_path("bigcode-detect", ROOT,
                                              tmp_path)
    res = _run("sweep_blocklength.py", "--scenario", str(scenario),
               "--blocklengths", "40", "--out", str(tmp_path / "sweep.csv"),
               cwd=tmp_path)
    assert res.returncode == 0, res.stderr
    assert res.stdout.splitlines()[0] == \
        "N=40 bound=0.971724052105 bound_raw=0.971724052105"


def test_run_compound_example(tmp_path):
    res = _run("run_compound_example.py", "--trials", "50", cwd=tmp_path)
    assert res.returncode == 0, res.stdout + res.stderr
    assert "== margin bound at N=16 ==" in res.stdout
    assert "entropy gate: PASS" in res.stdout
    # the per-state table: each row's correct, collision and wrong counts
    # sum to its trials, and the rows' trials to --trials
    rows = [[int(n) for n in m.groups()] for m in re.finditer(
        r"^ +\(0, \d\) +(\d+) +(\d+) +(\d+) +(\d+)  \(\w+\)$",
        res.stdout, re.MULTILINE)]
    assert len(rows) == 4
    assert all(n == correct + collision + wrong
               for n, correct, collision, wrong in rows)
    assert sum(n for n, *_ in rows) == 50


def test_run_compound_example_labels_follow_the_decoder(tmp_path):
    # a plain-decoder scenario: its bound and estimate carry no margin label
    res = _run("run_compound_example.py", "--trials", "50", "--scenario",
               str(ROOT / "scenarios" / "compound_bsc_relaxed.json"),
               cwd=tmp_path)
    assert res.returncode == 0, res.stdout + res.stderr
    assert "== plain bound at N=12 ==" in res.stdout
    assert "plain-decoder GEP" in res.stdout
    assert "margin" not in res.stdout
