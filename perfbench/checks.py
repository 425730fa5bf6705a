"""Correctness gate for one CLI invocation, against the references recorded
in ``refs/<workload>/``.

* The exit code must equal the recorded one (an expected FAIL stays
  expected).
* ``exponents.csv`` and every number of ``bounds.json`` must agree with the
  reference to 1e-9 (relative above 1).  These do not depend on the seed.
* At the reference seed ``trials.csv`` and ``detect.csv`` must be byte
  identical to the reference.  At other seeds they get structural checks:
  the same strata, counts that add up to the trial count, ``p_hat`` equal to
  errors / trials, and the seed-independent bound columns unchanged.
* ``summary.json`` and ``detect_summary.json`` must agree with the tables
  they summarize and with the verdict rule (estimate <= bound + 3 sigma).

Each function returns a list of problems; an empty list passes.  Outputs
too malformed to read raise, and the caller counts that as a failure too.
"""

from __future__ import annotations

import csv
import json
import math

TOL = 1e-9


def close(a: float, b: float) -> bool:
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    return abs(a - b) <= TOL * max(1.0, abs(b))


def _as_float(text: str):
    try:
        return float(text)
    except ValueError:
        return None


def _read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def read_json(path):
    with open(path) as fh:
        return json.load(fh)


def _missing(out, names):
    return [f"{n} not written" for n in names if not (out / n).is_file()]


def compare_json(got, ref, path="$"):
    """Every value of ``ref`` must be present in ``got``: numbers within
    TOL, everything else equal.  Keys only ``got`` has are allowed."""
    if isinstance(ref, dict):
        if not isinstance(got, dict):
            return [f"{path}: expected an object"]
        out = []
        for key, val in ref.items():
            if key not in got:
                out.append(f"{path}.{key}: missing")
            else:
                out += compare_json(got[key], val, f"{path}.{key}")
        return out
    if isinstance(ref, list):
        if not isinstance(got, list) or len(got) != len(ref):
            return [f"{path}: expected a list of {len(ref)}"]
        return [p for i, (g, r) in enumerate(zip(got, ref))
                for p in compare_json(g, r, f"{path}[{i}]")]
    numeric = (int, float)
    if isinstance(ref, numeric) and not isinstance(ref, bool):
        if isinstance(got, numeric) and not isinstance(got, bool) \
                and close(float(got), float(ref)):
            return []
        return [f"{path}: {got!r} != reference {ref!r}"]
    return [] if got == ref else [f"{path}: {got!r} != reference {ref!r}"]


def check_exponents(out, ref):
    problems = _missing(out, ["exponents.csv"])
    if problems:
        return problems
    got = _read_csv(out / "exponents.csv")
    want = _read_csv(ref / "exponents.csv")
    if len(got) != len(want):
        return [f"exponents.csv: {len(got)} rows, reference {len(want)}"]
    for i, (g_row, w_row) in enumerate(zip(got, want)):
        if len(g_row) != len(w_row):
            problems.append(f"exponents.csv row {i}: {len(g_row)} columns")
            continue
        for g_cell, w_cell in zip(g_row, w_row):
            g_num, w_num = _as_float(g_cell), _as_float(w_cell)
            same = close(g_num, w_num) if g_num is not None \
                and w_num is not None else g_cell == w_cell
            if not same:
                problems.append(
                    f"exponents.csv row {i}: {g_cell!r} != {w_cell!r}")
    return problems


def check_bounds(out, ref):
    problems = _missing(out, ["bounds.json"])
    if problems:
        return problems
    return ["bounds.json " + p for p in compare_json(
        read_json(out / "bounds.json"), read_json(ref / "bounds.json"))]


def _tally_rows(rows, ref_rows, trials, name):
    """Structural checks shared by trials.csv and detect.csv."""
    if not rows or rows[0] != ref_rows[0]:
        return [f"{name}: header {rows[:1]} != {ref_rows[:1]}"]
    if [r[0] for r in rows[1:]] != [r[0] for r in ref_rows[1:]]:
        return [f"{name}: strata differ from the reference"]
    problems, total = [], 0
    for row in rows[1:]:
        try:
            n, e = int(row[1]), int(row[2])
        except (IndexError, ValueError):
            problems.append(f"{name} {row}: unreadable counts")
            continue
        total += n
        p = "%.12g" % (e / n) if n else "nan"
        if not 0 <= e <= n or row[3] != p:
            problems.append(f"{name} {row}: inconsistent tally")
    if total != trials:
        problems.append(f"{name}: {total} trials, expected {trials}")
    return problems


def _alpha(doc, g):
    alpha = doc.get("alpha", {})
    for entry in alpha.get("entries", []):
        if tuple(entry["g"]) == tuple(g):
            return float(entry["value"])
    return float(alpha.get("default", 0.0))


def _estimate(rows, doc):
    """Weighted estimate and sigma from trials.csv rows, as the package
    defines them: weights e^{-N alpha(g)}, binomial variance per stratum."""
    N = int(doc["N"])
    strata = [(tuple(int(x) for x in r[0].split()), int(r[1]), int(r[2]))
              for r in rows[1:]]
    logw = [-N * _alpha(doc, g) for g, _n, _e in strata]
    top = max(logw)
    w = [math.exp(v - top) for v in logw]
    total = sum(w)
    point = var = 0.0
    for wi, (_g, n, e) in zip(w, strata):
        if n:
            p = e / n
            point += wi / total * p
            var += (wi / total) ** 2 * p * (1.0 - p) / n
    return point, math.sqrt(var)


def check_simulate(out, ref, meta, doc, seed, trials, code):
    problems = _missing(out, ["trials.csv", "summary.json"])
    if problems:
        return problems
    if code != meta["exit"]["simulate"]:
        problems.append(f"simulate exit {code}, reference "
                        f"{meta['exit']['simulate']}")
    if seed == meta["ref_seed"]:
        if (out / "trials.csv").read_bytes() != \
                (ref / "trials.csv").read_bytes():
            problems.append("trials.csv differs from the reference")
    else:
        problems += _tally_rows(_read_csv(out / "trials.csv"),
                                _read_csv(ref / "trials.csv"), trials,
                                "trials.csv")
    summary = read_json(out / "summary.json")
    want = read_json(ref / "summary.json")
    point, sigma = _estimate(_read_csv(out / "trials.csv"), doc)
    passed = point <= summary["bound"] + 3.0 * sigma
    if not (close(summary["estimate"], point)
            and close(summary["sigma"], sigma)):
        problems.append("summary.json: estimate/sigma disagree with "
                        "trials.csv")
    if not close(summary["bound"], want["bound"]):
        problems.append(f"summary.json: bound {summary['bound']} != "
                        f"reference {want['bound']}")
    if summary["verdict"] != ("PASS" if passed else "FAIL") \
            or code != (0 if passed else 1):
        problems.append("summary.json: verdict disagrees with the rule "
                        "or the exit code")
    if summary["trials"] != trials or summary["seed"] != seed:
        problems.append("summary.json: wrong trials or seed")
    return problems


def check_detect(out, ref, meta, seed, trials, code):
    problems = _missing(out, ["detect.csv", "detect_summary.json"])
    if problems:
        return problems
    if code != meta["exit"]["detect"]:
        problems.append(f"detect exit {code}, reference "
                        f"{meta['exit']['detect']}")
    rows = _read_csv(out / "detect.csv")
    ref_rows = _read_csv(ref / "detect.csv")
    if seed == meta["ref_seed"]:
        if (out / "detect.csv").read_bytes() != \
                (ref / "detect.csv").read_bytes():
            problems.append("detect.csv differs from the reference")
    else:
        problems += _tally_rows(rows, ref_rows, trials, "detect.csv")
        for row, want in zip(rows[1:], ref_rows[1:]):
            if len(row) != len(want) or row[5] != want[5] \
                    or not close(float(row[4]), float(want[4])):
                problems.append(f"detect.csv {row}: bound columns changed")
    summary = read_json(out / "detect_summary.json")
    passed = True
    for row in rows[1:]:
        n, e, bound = int(row[1]), int(row[2]), float(row[4])
        entry = summary["per_g"][row[0]]
        if entry["trials"] != n or entry["errors"] != e \
                or not close(entry["bound"], bound):
            problems.append(f"detect_summary.json: {row[0]} disagrees "
                            "with detect.csv")
        if n:
            p = e / n
            passed &= p <= bound + 3.0 * math.sqrt(p * (1.0 - p) / n)
    if summary["verdict"] != ("PASS" if passed else "FAIL") \
            or code != (0 if passed else 1):
        problems.append("detect_summary.json: verdict disagrees with the "
                        "rule or the exit code")
    return problems
