"""Command line interface.

Subcommands: ``exponents`` (per-pair exponent breakdown CSV), ``bound``
(analytic bound reports as JSON), ``simulate`` (Monte Carlo estimate plus
bound verdict), ``detect`` (region-detection trials against their bound)
and ``gate`` (the margin construction's entropy gate on a compound-BSC
scenario).

Exit codes: 0 success / PASS verdict, 1 FAIL verdict, 2 input error.
This module writes every result file, through one CSV and one JSON writer;
all numeric output carries 12 significant digits so regression diffs are
meaningful.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import montecarlo
from .channel import binary_entropy
from .ensemble import _logsumexp
from .errors import GepkitError, IntegrityError, SchemaError
from .exponents import (
    ExponentCache,
    detection_bound,
    gep_bound_D,
    gep_bound_partitioned,
    summed_report,
)
from .scenario import Scenario, load_scenario

FMT = "%.12g"


def _fmt(x: float) -> str:
    return FMT % x


def _round12(x: float) -> float:
    return float(_fmt(x))


def _join(ids) -> str:
    return " ".join(str(i) for i in ids)


def _write_csv(path: Path, header, rows) -> None:
    with open(path, "w", newline="") as fh:
        wr = csv.writer(fh)
        wr.writerow(header)
        wr.writerows(rows)


def _write_json(path: Path, payload: dict) -> None:
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _tally_rows(per_g: dict, extra=lambda *rest: rest) -> list:
    """Rows of ``trials.csv`` and ``detect.csv`` in g order: g, trials,
    errors, p_hat, then ``extra`` of the rest of g's entry."""
    return [[_join(g), n, e, _fmt(e / n if n else math.nan), *extra(*rest)]
            for g, (n, e, *rest) in sorted(per_g.items())]


# ---------------------------------------------------------------------------
# bound evaluation shared by `bound` / `simulate` / `exponents`
# ---------------------------------------------------------------------------

def decode_bound_reports(scenario: Scenario, cache):
    """Per-D decoder bounds for the scenario's own partition."""
    return {D: gep_bound_D(scenario.model, D, reg, scenario.alpha,
                           scenario.N, cache=cache)
            for D, reg in scenario.partition}


def margin_bound_report(scenario: Scenario, cache):
    """The margin decoder's bound over all regular users, or None when the
    scenario has no margin and its receiver has no margin decoder."""
    if not (scenario.margin or scenario.decoder == "margin"):
        return None
    D = tuple(range(scenario.model.K))
    return gep_bound_D(scenario.model, D, scenario.region, scenario.alpha,
                       scenario.N, margin=scenario.margin, cache=cache)


def detection_report(scenario: Scenario, g, cache):
    """Weighted detection bound at g for the scenario's detection cells."""
    return detection_bound(scenario.model, g, scenario.detection,
                           scenario.alpha, scenario.N, cache=cache)


def detection_bound_reports(scenario: Scenario, cache):
    """Per-g weighted detection bounds for the scenario's detection cells."""
    return {g: detection_report(scenario, g, cache)
            for g in scenario.model.index_space()}


def scenario_bound(scenario: Scenario, cache):
    """The analytic bound of the receiver ``simulate`` runs: the bounds of
    the decoders of :func:`montecarlo.receiver_parts`, summed, plus the
    weighted detection bound under detect-then-decode.  Returns a
    BoundReport."""
    reports = {D: gep_bound_D(scenario.model, D, reg, scenario.alpha,
                              scenario.N, margin=margin, cache=cache)
               for D, reg, margin in montecarlo.receiver_parts(scenario)}
    extra = {}
    if scenario.decoder == "detect":
        # normalized in log domain: e^{-N alpha} underflows at large alpha
        detection = detection_bound_reports(scenario, cache).values()
        extra["detection"] = math.exp(
            _logsumexp([r.log_raw for r in detection], axis=0)
            - scenario.alpha.log_total(scenario.N))
    return summed_report(reports, scenario.N, scenario.alpha, extra)


def _report_dict(report) -> dict:
    return {
        "value": _round12(report.value),
        "raw": _round12(report.raw) if math.isfinite(report.raw) else None,
        "vacuous": report.vacuous,
        "N": report.N,
        "heuristic": report.heuristic,
        "components": {k: _round12(v) for k, v in report.components.items()},
    }


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_exponents(scenario: Scenario, out: Path) -> int:
    cache = ExponentCache()
    rows = [("decode", D, t)
            for D, rep in decode_bound_reports(scenario, cache).items()
            for t in rep.terms]
    margin = margin_bound_report(scenario, cache)
    if margin is not None:
        D = tuple(range(scenario.model.K))
        rows += [("margin", D, t) for t in margin.terms]
    if scenario.detection is not None:
        rows += [("detect", (), t)
                 for rep in detection_bound_reports(scenario, cache).values()
                 for t in rep.terms]
    path = out / "exponents.csv"
    _write_csv(path, ["theorem", "D", "S", "g", "g_alt", "exponent",
                      "rho_star", "s_star"],
               [[theorem, _join(D), _join(t.S), _join(t.g),
                 _join(t.g_other) if t.g_other is not None else "",
                 _fmt(t.exponent),
                 _fmt(t.rho) if t.rho is not None else "",
                 _fmt(t.s)]
                for theorem, D, t in rows])
    print(f"wrote {path} ({len(rows)} rows)")
    return 0


def cmd_bound(scenario: Scenario, out: Path) -> int:
    cache = ExponentCache()
    payload: dict = {"N": scenario.N}
    # a margin decoder's verdict bound is the "margin" report
    payload["decode"] = None if scenario.decoder == "margin" \
        else _report_dict(scenario_bound(scenario, cache))
    optimized, partition = gep_bound_partitioned(
        scenario.model, scenario.region, scenario.alpha, scenario.N,
        cache=cache)
    payload["partitioned"] = _report_dict(optimized)
    payload["partitioned"]["partition"] = [
        {"D": list(D), "region": [list(g) for g in sorted(reg)]}
        for D, reg in partition]
    margin = margin_bound_report(scenario, cache)
    if margin is not None:
        payload["margin"] = _report_dict(margin)
    if scenario.detection is not None:
        payload["detection"] = {
            _join(g): _report_dict(rep)
            for g, rep in detection_bound_reports(scenario, cache).items()}
    path = out / "bounds.json"
    _write_json(path, payload)
    print(f"wrote {path}")
    return 0


def cmd_simulate(scenario: Scenario, out: Path) -> int:
    # one cache: the verdict bound reuses the threshold build's exponents
    cache = ExponentCache()
    tallies = montecarlo.run_trials(scenario, scenario.trials, scenario.seed,
                                    cache=cache)
    estimate = montecarlo.empirical_gep(tallies, scenario.alpha, scenario.N)
    bound = scenario_bound(scenario, cache)
    passed = montecarlo.compare_bound(estimate, bound)
    word = "PASS" if passed else "FAIL"
    _write_csv(out / "trials.csv", ["g", "trials", "errors", "p_hat"],
               _tally_rows(estimate.per_g))
    summary = {
        "estimate": _round12(estimate.point), "sigma": _round12(estimate.se),
        "bound": _round12(bound.value), "verdict": word,
        "trials": scenario.trials, "seed": scenario.seed}
    note = ""
    if estimate.unestimated:  # strata without trials count as zero error
        summary["unestimated"] = [_join(g) for g in estimate.unestimated]
        note = f" (no trials for g = {', '.join(summary['unestimated'])})"
    _write_json(out / "summary.json", summary)
    print(f"estimate = {_fmt(estimate.point)}  sigma = {_fmt(estimate.se)}  "
          f"bound = {_fmt(bound.value)}  -> {word}{note}")
    return 0 if passed else 1


def cmd_detect(scenario: Scenario, out: Path) -> int:
    if scenario.detection is None:
        raise IntegrityError("$.detection: required for the detect command")
    tallies = montecarlo.run_detection_trials(scenario, scenario.trials,
                                              scenario.seed)
    cache = ExponentCache()  # one cache for every sampled g
    # each report bounds Pr{err | g} e^{-N alpha(g)}; judge Pr{err | g}
    per_g, passed = montecarlo.compare_per_g(tallies, {
        g: min(1.0, float(np.exp(detection_report(scenario, g, cache).log_raw
                                 + scenario.N * scenario.alpha(g))))
        for g in tallies})
    word = "PASS" if passed else "FAIL"
    path = out / "detect.csv"
    _write_csv(path, ["g", "trials", "errors", "p_hat", "bound", "vacuous"],
               _tally_rows(per_g, lambda b, vacuous: (_fmt(b), int(vacuous))))
    _write_json(out / "detect_summary.json", {
        "verdict": word,
        "per_g": {_join(g): {"trials": n, "errors": e, "bound": _round12(b)}
                  for g, (n, e, b, _v) in per_g.items()}})
    print(f"wrote {path}; verdict {word}")
    return 0 if passed else 1


def entropy_gate(scenario: Scenario):
    """The margin construction's entropy gate on a compound-BSC scenario, in
    bits/symbol, with state i the code index vector g = (0, i): the rate r
    lies strictly below the capacity 1 - H(p_i) of every region state and
    strictly above that of every state outside region and margin.  Margin
    states carry no inequality; the other two groups may not be empty.

    Returns (r, rows, passed) with one row (i, p_i, capacity, role, ok) per
    state: role "region", "margin" or "outside", ok None for a margin
    state."""
    if scenario.channel_spec.get("type") != "bsc_compound":
        raise SchemaError("$.channel.type: gate needs a bsc_compound channel")
    rate_bits = scenario.channel_spec["rate"] / math.log(2.0)
    rows = []
    for i, p in enumerate(scenario.channel_spec["crossovers"]):
        cap = 1.0 - binary_entropy(p, unit="bits")
        role = "region" if (0, i) in scenario.region else \
            "margin" if (0, i) in scenario.margin else "outside"
        ok = {"region": cap > rate_bits, "outside": cap < rate_bits}.get(role)
        rows.append((i, p, cap, role, ok))
    roles = {row[3] for row in rows}
    passed = {"region", "outside"} <= roles and \
        all(row[4] is not False for row in rows)
    return rate_bits, rows, passed


def cmd_gate(scenario: Scenario, _out: Path) -> int:
    rate_bits, rows, passed = entropy_gate(scenario)
    print(f"rate r = {_fmt(rate_bits)} bits/symbol")
    need = {"region": "C > r", "margin": "no inequality", "outside": "C < r"}
    for i, p, cap, role, ok in rows:
        verdict = "" if ok is None else f": {'ok' if ok else 'violated'}"
        print(f"state {i}: C = 1 - H({_fmt(p)}) = {_fmt(cap)} bits, {role} "
              f"({need[role]}){verdict}")
    print(f"gate: {'PASS' if passed else 'FAIL'}")
    return 0 if passed else 1


# ---------------------------------------------------------------------------
# dispatch
# ---------------------------------------------------------------------------

_COMMANDS = {
    "exponents": cmd_exponents,
    "bound": cmd_bound,
    "simulate": cmd_simulate,
    "detect": cmd_detect,
    "gate": cmd_gate,
}


def dispatch(subcommand: str, scenario: Scenario, out: Path) -> int:
    if subcommand != "gate":  # the one subcommand that writes no file
        try:
            out.mkdir(parents=True, exist_ok=True)
        except OSError as exc:  # a file on the path, for instance
            raise SchemaError(f"--out: {exc.strerror}: {out}") from exc
    return _COMMANDS[subcommand](scenario, out)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gepkit",
        description="Error-exponent bounds and decoder simulation for "
                    "distributed channel coding with collision detection.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in [
        ("exponents", "write the per-pair exponent breakdown CSV"),
        ("bound", "write analytic bound reports"),
        ("simulate", "run decoder trials and compare against the bound"),
        ("detect", "run region-detection trials against their bound"),
        ("gate", "check the margin construction's entropy gate"),
    ]:
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--scenario", required=True, help="scenario JSON path")
        p.add_argument("--out", default="out", help="output directory")
        p.add_argument("--trials", type=int, default=None,
                       help="override the scenario trial count")
        p.add_argument("--seed", type=int, default=None,
                       help="override the scenario seed")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        scenario = load_scenario(args.scenario)
        for name, low in (("trials", 1), ("seed", 0)):
            value = getattr(args, name)
            if value is not None:
                if value < low:
                    raise SchemaError(f"--{name}: must be >= {low}")
                setattr(scenario, name, value)
        return dispatch(args.command, scenario, Path(args.out))
    except GepkitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
