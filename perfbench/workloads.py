"""The benchmark's workloads: which scenario each one runs, how the derived
scenarios are generated, and the memory pre-flight that guards them.

Every workload runs through ``gepkit.cli.main`` with a scenario file given
by path.  ``sec4-margin`` uses the shipped Sec. 4 example unchanged; the
other scenarios are generated here into the benchmark's working directory
from the parameters in ``GENERATORS``, so they are reproducible from this
file alone.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

# Codebook bytes one trial may allocate (message_count x N x codes x 8).
# The largest workload needs under 1 MiB; 64 MiB leaves room for a later
# workload while refusing anything that would push the machine into swap.
CODEBOOK_BUDGET_BYTES = 64 * 2**20

# Generator parameters of the derived scenarios.  Kept as data so that the
# scenario files and the documentation quote the same numbers.
GENERATORS = {
    "sec4-detect": {
        "base": "scenarios/bsc_compound_sec4.json",
        # one detection cell per operating zone: region, margin, outside
        "detection": [[[0, 0]], [[0, 1], [0, 2]], [[0, 3]]],
    },
    "mac2-partition": {
        "symbol_noise": 0.05,      # P(y != x1 + x2), spread evenly
        "rates_nats": [0.15, 0.3],  # the two codes of each user
        "input_pmf": [0.5, 0.5],
        "N": 12,
        "region": [[0, 0], [0, 1], [1, 0]],
        "partition": [{"D": [0], "region": [[0, 1], [1, 0]]},
                      {"D": [0, 1], "region": [[0, 0]]}],
        "detection": [[[0, 0]], [[0, 1], [1, 0]], [[1, 1]]],
        "error_model": "relaxed",
        "decoder": "plain",
    },
    "bigcode-detect": {
        "base": "scenarios/detect_two_bsc.json",
        "N": 40,
        "decoder": "detect-then-decode",
    },
}

# name -> scenario file for simulate/bound/exponents, scenario file for
# detect, trial counts, and the seed whose outputs are compared byte for
# byte against the recorded references.
WORKLOADS = {
    "sec4-margin": {
        "scenario": "scenarios/bsc_compound_sec4.json",
        "detect_scenario": "sec4-detect",
        "sim_trials": 1000,
        "detect_trials": 5000,
        "ref_seed": 20140601,
    },
    "mac2-partition": {
        "scenario": "mac2-partition",
        "detect_scenario": "mac2-partition",
        "sim_trials": 120,
        "detect_trials": 5000,
        "ref_seed": 1201,
    },
    "bigcode-detect": {
        "scenario": "bigcode-detect",
        "detect_scenario": "bigcode-detect",
        "sim_trials": 150,
        "detect_trials": 5000,
        "ref_seed": 2020,
    },
}


def _noisy_adder_pmf(noise: float) -> list:
    """P(y | x1, x2) for Y = X1 + X2 in {0, 1, 2}: the sum with probability
    1 - noise, each other output with probability noise / 2."""
    pmf = []
    for x1 in (0, 1):
        row = []
        for x2 in (0, 1):
            row.append([1.0 - noise if y == x1 + x2 else noise / 2.0
                        for y in range(3)])
        pmf.append(row)
    return pmf


def generate(name: str, root: Path) -> dict:
    """Scenario document of a derived scenario, built from ``GENERATORS``."""
    params = GENERATORS[name]
    if "base" in params:
        with open(root / params["base"], encoding="utf-8") as fh:
            doc = json.load(fh)
        for key in ("N", "decoder", "detection"):
            if key in params:
                doc[key] = params[key]
        return doc
    code = [{"rate": r, "rate_unit": "nats", "input_pmf": params["input_pmf"]}
            for r in params["rates_nats"]]
    return {
        "channel": {"type": "table",
                    "pmf": _noisy_adder_pmf(params["symbol_noise"])},
        "users": [{"kind": "regular", "codes": code},
                  {"kind": "regular", "codes": code}],
        "N": params["N"],
        "region": params["region"],
        "partition": params["partition"],
        "detection": params["detection"],
        "error_model": params["error_model"],
        "decoder": params["decoder"],
        "trials": 1,
        "seed": 1,
    }


def scenario_path(ref: str, root: Path, work: Path) -> Path:
    """Path of a shipped scenario, or of a derived one written to ``work``."""
    if ref in GENERATORS:
        path = work / f"{ref}.json"
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(generate(ref, root), fh, indent=2, sort_keys=True)
            fh.write("\n")
        return path
    return root / ref


def codebook_bytes(doc: dict) -> int:
    """Bytes of one trial's codebook tables, message_count x N x 8 summed
    over every code of every regular user, computed from the scenario
    document alone (nothing is allocated)."""
    N = int(doc["N"])
    if doc["channel"]["type"] == "bsc_compound":
        ch = doc["channel"]
        codes = [(ch["rate"], ch["rate_unit"])]
    else:
        codes = [(c["rate"], c["rate_unit"]) for u in doc["users"]
                 if u["kind"] == "regular" for c in u["codes"]]
    total = 0
    for rate, unit in codes:
        nats = rate * math.log(2.0) if unit == "bits" else rate
        # same count as gepkit.ensemble.message_count, without importing
        # it; beyond e^700 the count is unrepresentable and over any budget
        if N * nats > 700:
            return math.inf
        messages = max(1, int(math.floor(math.exp(N * nats) * (1.0 + 1e-12))))
        total += messages * N * 8
    return total


def preflight(path: Path) -> int:
    """Codebook bytes per trial of the scenario at ``path``; raises
    ``MemoryError`` when they exceed ``CODEBOOK_BUDGET_BYTES``."""
    with open(path, encoding="utf-8") as fh:
        need = codebook_bytes(json.load(fh))
    if need > CODEBOOK_BUDGET_BYTES:
        raise MemoryError(
            f"{path.name}: {need} codebook bytes per trial exceed the "
            f"{CODEBOOK_BUDGET_BYTES}-byte budget")
    return need
