"""Exact region-detection error against the bound and the simulation.

A detection trial's output y is i.i.d. from g's output marginal P_{Y|g},
and ``detect_region`` scores y through its type n (the count of each
output letter).  So

    Pr{detected cell != cell(g) | g}
        = sum_n Multinomial(n; N, P_{Y|g}) * 1[detected cell(n) != cell(g)],

a sum over the C(N + |Y| - 1, |Y| - 1) types.  Each type is scored by
``detect_region`` on one sequence of that type (its letters in order), so
that ties follow the simulation's rule.  The exact error of every g must
lie at or below the bound ``detect`` writes to ``detect.csv``, and the
simulation's estimate, pooled over 20 seeds of 5000 trials, within 4
sigma of it.
"""

import itertools
import math
from fractions import Fraction

import numpy as np
import pytest

from gepkit.channel import marginalize_out
from gepkit.cli import detection_report
from gepkit.decoder import build_detector, detect_region
from gepkit.exponents import ExponentCache
from gepkit.montecarlo import run_detection_trials

from conftest import load_search_scenario

SCENARIOS = ["detect_two_bsc.json", "sec4-detect", "mac2-partition",
             "bigcode-detect"]
SEEDS, TRIALS = 20, 5000


def exact_detection_errors(scenario) -> dict:
    """g -> exact Pr{detected cell != cell(g) | g}, over the index space, in
    rational arithmetic on the output marginals' floats (normalized by
    their sum, which may miss 1 by an ulp) and rounded once."""
    model, N = scenario.model, scenario.N
    detector = build_detector(model, scenario.detection, scenario.alpha)
    n_out = model.dmc.output_size
    ys = np.array(list(itertools.combinations_with_replacement(
        range(n_out), N)), dtype=np.int64)
    assert len(ys) == math.comb(N + n_out - 1, n_out - 1)
    types = [np.bincount(y, minlength=n_out).tolist() for y in ys]
    counts = [math.factorial(N) // math.prod(map(math.factorial, n))
              for n in types]
    detected = detect_region(detector, ys)
    errors = {}
    for h, g in enumerate(model.index_space()):
        p = [Fraction(x) for x in marginalize_out(model, (), g).pmf.tolist()]
        wrong = sum(c * math.prod(q ** k for q, k in zip(p, n))
                    for c, n, cell in zip(counts, types, detected)
                    if cell != detector.cell[h])
        errors[g] = float(wrong / sum(p) ** N)
        assert 0.0 <= errors[g] <= 1.0
    return errors


@pytest.fixture(scope="module", params=SCENARIOS)
def oracle(request):
    scenario = load_search_scenario(request.param)
    return scenario, exact_detection_errors(scenario)


def test_exact_error_is_within_the_bound(oracle):
    """Deterministic: the bound of each g as ``detect`` computes it."""
    scenario, exact = oracle
    cache = ExponentCache()
    for g, err in exact.items():
        bound = min(1.0, math.exp(detection_report(scenario, g, cache).log_raw
                                  + scenario.N * scenario.alpha(g)))
        assert err <= bound, (g, err, bound)


def test_pooled_estimate_is_within_4_sigma(oracle):
    scenario, exact = oracle
    pooled = {}
    for seed in range(SEEDS):
        for g, (n, e) in run_detection_trials(scenario, TRIALS,
                                              seed).items():
            tally = pooled.setdefault(g, [0, 0])
            tally[0] += n
            tally[1] += e
    assert sum(n for n, _ in pooled.values()) == SEEDS * TRIALS
    for g, (n, e) in pooled.items():
        if not n:
            continue
        p = exact[g]
        sigma = math.sqrt(p * (1.0 - p) / n)
        assert abs(e / n - p) <= 4.0 * sigma, (g, n, e, p, sigma)
