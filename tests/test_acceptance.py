"""Acceptance suite: one test per top-level criterion, each printing a
PASS/FAIL line with its measured numbers and elapsed time.  Every criterion
is expected to pass.

Criteria 1 and 9 run on the shipped compound-BSC example
(``scenarios/bsc_compound_sec4.json``) and print two of its facts that they
do not assert away: its rate is just above the margin states' capacity
(1 - H(0.185) = 0.309106 bits < 0.31), which the margin construction
allows, and at N = 16 wrong decodes in margin states are expected (the
margin bound is vacuous there); criterion 9 checks that each of them is a
codeword strictly more likely than the transmitted one.
"""

import inspect
import itertools
import json
import math
import time
from pathlib import Path

import numpy as np
import pytest
from scipy.optimize import minimize_scalar

from gepkit import (
    binary_entropy,
    build_thresholds,
    ensemble_log_expectation,
    make_compound_bsc,
    sample_codebook,
    typicality_threshold,
)
from gepkit import decoder, montecarlo
from gepkit.channel import marginalize_out
from gepkit.cli import detect_bounds, entropy_gate, main
from gepkit.exponents import (
    ExponentCache,
    WeightFunction,
    exponent_Ec,
    exponent_EiD,
    exponent_EmD,
    gep_bound_D,
)
from gepkit.montecarlo import (
    compare_bound,
    compare_per_g,
    empirical_gep,
    run_detection_trials,
    run_trials,
)
from gepkit.optimize import EPS
from gepkit.scenario import load_scenario

from conftest import (
    bsc_model,
    codeword,
    random_alpha,
    random_g,
    random_model,
    small_search,
)
from reference_decoder import decode_one, trial_view
from test_decoder import decision, random_instance, reference_decode_subset
from test_ensemble import brute_force_expectation

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"
LN2 = math.log(2.0)


def report(num, ok, detail, elapsed, budget):
    line = (f"ACCEPTANCE #{num}: {'PASS' if ok else 'FAIL'} - {detail} "
            f"[{elapsed:.1f}s / budget {budget:.0f}s]")
    print(line)
    assert elapsed < budget, f"criterion {num} exceeded its runtime budget"
    return line


def test_criterion_1_entropy_gate(tmp_path):
    """The shipped compound-BSC example satisfies the margin construction's
    entropy gate: with state i the code index vector g = (0, i), the rate r
    lies strictly below the capacity 1 - H(p) of every region state and
    strictly above that of every state outside region and margin.  Margin
    states are a buffer zone where both a collision and a correct decode
    are expected outcomes, so no inequality is required there.

    The rule is checked here from the scenario file, and ``gepkit gate``
    (``cli.entropy_gate``) must reach the same verdict state by state and
    exit 0.  The three capacities are pinned to 2e-6 bits, so a broken
    ``binary_entropy`` still fails.  The PASS/FAIL line also prints where r
    sits against the margin states: on the shipped example
    1 - H(0.185) = 0.309106 bits < 0.31, i.e. r is just above their
    capacity, which the construction allows.
    """
    t0 = time.time()
    doc = json.loads((SCENARIOS / "bsc_compound_sec4.json").read_text())
    channel = doc["channel"]
    crossovers = channel["crossovers"]
    rate = channel["rate"] if channel["rate_unit"] == "bits" \
        else channel["rate"] / LN2
    pinned = {0.18: 0.319923, 0.185: 0.309106, 0.19: 0.298529}
    worst_pin = max(abs(1.0 - binary_entropy(p, unit="bits") - c)
                    for p, c in pinned.items())

    def states(key):
        members = [tuple(g) for g in doc.get(key, [])]
        assert all(len(g) == 2 and g[0] == 0 for g in members), members
        return {g[1] for g in members}

    region, margin = states("region"), states("margin")
    outside = set(range(len(crossovers))) - region - margin

    def cap(i):
        return 1.0 - binary_entropy(crossovers[i], unit="bits")

    def caps_of(group):
        return ", ".join(f"1-H({crossovers[i]})={cap(i):.6f}"
                         for i in sorted(group))

    below_region = [i for i in sorted(region) if not cap(i) > rate]
    above_outside = [i for i in sorted(outside) if not cap(i) < rate]
    scenario = SCENARIOS / "bsc_compound_sec4.json"
    gate_rate, gate_rows, gate_passed = entropy_gate(load_scenario(scenario))
    gate_roles = {i: role for i, _p, _c, role, _ok in gate_rows}
    roles = {i: "region" if i in region else "margin" if i in margin
             else "outside" for i in range(len(crossovers))}
    gate_agrees = (gate_roles == roles and gate_passed
                   and abs(gate_rate - rate) <= 1e-12
                   and all(c == cap(i) for i, _p, c, _r, _ok in gate_rows)
                   and main(["gate", "--scenario", str(scenario),
                             "--out", str(tmp_path)]) == 0)
    ok = (worst_pin <= 2e-6 and bool(region) and bool(outside)
          and not below_region and not above_outside and gate_agrees)
    margin_gap = rate - max((cap(i) for i in margin), default=rate)
    line = report(
        1, ok,
        f"r={rate:.6f} bits; region needs C > r: {caps_of(region)} "
        f"(violated by states {below_region}); outside needs C < r: "
        f"{caps_of(outside)} (violated by states {above_outside}); margin "
        f"{caps_of(margin)} "
        f"(no inequality required; r - max C = {margin_gap:+.2e}); "
        f"capacity pin dev {worst_pin:.1e} (tol 2e-6); `gepkit gate` "
        f"{'PASS' if gate_passed else 'FAIL'}, agrees: {gate_agrees}",
        time.time() - t0, 1.0)
    assert worst_pin <= 2e-6, line
    assert gate_agrees, line
    assert region and outside, line
    assert not below_region, line
    assert not above_outside, line


def test_criterion_2_shift_and_symmetry_laws():
    """Uniform alpha shifts move every exponent by exactly the shift, and
    the discrimination exponent is symmetric at equal weights."""
    t0 = time.time()
    rng = np.random.default_rng(20240202)
    worst_shift = 0.0
    worst_sym = 0.0
    for _ in range(100):
        m = random_model(rng, max_users=2)
        a = random_alpha(rng, m)
        c = float(rng.uniform(0.0, 0.8))
        g, gt = random_g(rng, m), random_g(rng, m)
        with small_search(16, 1):
            pairs = [
                (exponent_EmD(m, [0], [], g, gt, a).value,
                 exponent_EmD(m, [0], [], g, gt, a.shifted(c)).value),
                (exponent_EiD(m, [0], [], g, gt, a).value,
                 exponent_EiD(m, [0], [], g, gt, a.shifted(c)).value),
                (exponent_Ec(m, g, gt, a).value,
                 exponent_Ec(m, g, gt, a.shifted(c)).value),
            ]
        for v0, v1 in pairs:
            worst_shift = max(worst_shift, abs(v1 - v0 - c))
        fwd = exponent_Ec(m, g, gt, a).value
        rev = exponent_Ec(m, gt, g, a).value
        # equal weights at the two vectors make the functional symmetric
        if a(g) == a(gt):
            worst_sym = max(worst_sym, abs(fwd - rev))
    # symmetry at exactly equal alpha, on a dedicated sample
    for _ in range(100):
        m = random_model(rng, max_users=2)
        a = WeightFunction.zero(m).shifted(float(rng.uniform(0, 0.5)))
        g, gt = random_g(rng, m), random_g(rng, m)
        fwd = exponent_Ec(m, g, gt, a).value
        rev = exponent_Ec(m, gt, g, a).value
        worst_sym = max(worst_sym, abs(fwd - rev))
    ok = worst_shift <= 1e-9 and worst_sym <= 1e-9
    line = report(2, ok, f"shift dev {worst_shift:.2e}, "
                  f"symmetry dev {worst_sym:.2e} (tol 1e-9)",
                  time.time() - t0, 30.0)
    assert ok, line


def test_criterion_3_ensemble_factorization():
    """Per-symbol factorized ensemble expectations equal exhaustive
    enumeration over the full codebook product measure on every instance
    within the size caps (N <= 3, binary alphabets, <= 2 users,
    <= 2 codes)."""
    t0 = time.time()
    rng = np.random.default_rng(3)
    worst = 0.0
    cases = 0
    for seed in range(60):
        m = random_model(rng, max_users=2, max_codes=2, max_out=2)
        for N in (1, 2, 3):
            g = random_g(rng, m)
            y = rng.integers(0, m.dmc.output_size, N)
            Ds = [list(d) for r in range(1, m.K + 1)
                  for d in itertools.combinations(range(m.K), r)]
            for D in Ds:
                all_S = [list(s) for r in range(m.n_users)
                         for s in itertools.combinations(range(m.n_users), r)]
                for S in all_S:
                    fixed = sorted(set(D) & set(S))
                    xf = rng.integers(0, 2, (1, len(fixed), N))
                    a = float(rng.choice([0.25, 0.5, 1.0, 1.3]))
                    mine, = ensemble_log_expectation(m, D, S, g, y, xf, a)
                    oracle = brute_force_expectation(m, D, S, g, y, xf[0], a)
                    worst = max(worst, abs(mine - oracle))
                    cases += 1
    ok = worst <= 1e-9
    line = report(3, ok, f"{cases} instances, worst dev {worst:.2e} "
                  f"(tol 1e-9)", time.time() - t0, 60.0)
    assert ok, line


def test_criterion_4_bound_vs_simulation():
    """Decoder simulation of the two-state compound scenario stays within
    the assembled union bound at three standard errors."""
    t0 = time.time()
    scen = load_scenario(SCENARIOS / "compound_bsc_relaxed.json")
    assert scen.N == 12 and scen.trials >= 10_000
    tallies = run_trials(scen, scen.trials, scen.seed)
    est = empirical_gep(tallies, scen.alpha, scen.N)
    bound = gep_bound_D(scen.model, [0], scen.region, scen.alpha, scen.N,
                        cache=ExponentCache())
    passed = compare_bound(est, bound)
    line = report(4, passed,
                  f"estimate {est.point:.4f} (sigma {est.se:.4f}) <= "
                  f"bound {bound.value:.4f} + 3 sigma",
                  time.time() - t0, 300.0)
    assert passed, line


def test_criterion_5_detection_bound_vs_simulation():
    """Region-detection error frequency per true vector stays within the
    discrimination-exponent bound at three binomial sigmas."""
    t0 = time.time()
    scen = load_scenario(SCENARIOS / "detect_two_bsc.json")
    assert scen.N == 20 and scen.trials >= 10_000
    tallies = run_detection_trials(scen, scen.trials, scen.seed)
    per_g, passed = compare_per_g(tallies, detect_bounds(
        scen, scen.model.index_space(), ExponentCache()))
    parts = []
    for g, (n, e, b, _vac) in sorted(per_g.items()):
        parts.append(f"g={g}: {e}/{n} vs {b:.4f}")
    line = report(5, passed, "; ".join(parts), time.time() - t0, 60.0)
    assert passed, line


def test_criterion_6_decoder_matches_reference():
    """The subset decoder agrees with a naive exhaustive reference decoder
    on 1000 randomized tiny instances: on its decision, on each subset's
    winner and on the collision reason."""
    t0 = time.time()
    rng = np.random.default_rng(66)
    mismatches = 0
    for _ in range(1000):
        m, N, region, cb, D = random_instance(rng)
        a = WeightFunction(m, rng.uniform(0, 0.2, size=m.code_counts))
        with small_search(8, 0):
            tbl = build_thresholds(m, D, region, a, cache=ExponentCache())
        y = rng.integers(0, m.dmc.output_size, N)
        mine = decision(decode_one(tbl, cb, y))
        ref = reference_decode_subset(m, D, region, a, cb, y, tbl)
        if mine != ref:
            mismatches += 1
    ok = mismatches == 0
    line = report(6, ok, f"{mismatches} mismatches over 1000 instances",
                  time.time() - t0, 120.0)
    assert ok, line


def test_criterion_7_single_user_reduction():
    """With one user, no interferers, no weighting and the empty subset,
    the message-confusion exponent equals the independently coded classical
    random-coding functional max_rho [-rho r + E0(rho)] at 20 random
    (crossover, rate) pairs."""
    t0 = time.time()

    def e0(rho, p):
        s = (0.5 * np.array([[1 - p, p], [p, 1 - p]]) **
             (1.0 / (1.0 + rho))).sum(axis=0)
        return -math.log(float((s ** (1.0 + rho)).sum()))

    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(20):
        p = float(rng.uniform(0.02, 0.45))
        rate = float(rng.uniform(0.01, 0.5))
        m = bsc_model(p, rate)
        mine = exponent_EmD(m, [0], [], (0,), (0,),
                            WeightFunction.zero(m)).value
        res = minimize_scalar(lambda r_: -(-r_ * rate + e0(r_, p)),
                              bounds=(EPS, 1.0), method="bounded",
                              options={"xatol": 1e-13})
        oracle = max(-res.fun,
                     -1.0 * rate + e0(1.0, p),
                     -EPS * rate + e0(EPS, p))
        worst = max(worst, abs(mine - oracle))
    ok = worst <= 1e-9
    line = report(7, ok, f"worst dev {worst:.2e} over 20 pairs (tol 1e-9)",
                  time.time() - t0, 10.0)
    assert ok, line


def test_criterion_8_threshold_balance():
    """At the solved typicality threshold, the missed-detection and
    false-acceptance bound expressions coincide for every (g, S) of the
    criterion-4 scenario that has a nonempty exclusion set."""
    t0 = time.time()
    scen = load_scenario(SCENARIOS / "compound_bsc_relaxed.json")
    m, a, N = scen.model, scen.alpha, scen.N
    region = scen.region
    tbl = build_thresholds(m, [0], region, a, cache=ExponentCache())
    rng = np.random.default_rng(8)
    worst = 0.0
    checked = 0
    for g in sorted(region):
        for S in tbl.subsets_decode:
            params = tbl.get(g, S)
            if params.gstar is None:
                continue
            checked += 1
            sd = sorted(set(S) & {0})
            for _ in range(25):
                y = rng.integers(0, 2, N)
                xf = rng.integers(0, 2, (1, len(sd), N))
                tau, = typicality_threshold(m, [0], S, g, params, xf, y, a)
                s1, s2, rt = params.s1, params.s2, params.rho_t
                l1, = ensemble_log_expectation(m, [0], S, g, y, xf, 1 - s1) \
                    - N * (1 - s1) * a(g)
                l2, = ensemble_log_expectation(m, [0], S, g, y, xf, s2 / rt) \
                    - N * (s2 / rt) * a(g)
                l3, = ensemble_log_expectation(m, [0], S, params.gstar, y,
                                               xf, 1.0) - N * a(params.gstar)
                rate = sum(m.rate(k, g[k]) for k in {0} - set(S))
                lhs = l1 - N * s1 * tau
                rhs = l3 + rt * l2 + N * s2 * tau + N * rt * rate
                worst = max(worst, abs(lhs - rhs))
    ok = worst <= 1e-9 and checked > 0
    line = report(8, ok, f"{checked} thresholds, worst balance gap "
                  f"{worst:.2e} (tol 1e-9)", time.time() - t0, 10.0)
    assert ok, line


def test_criterion_9_margin_behavior(monkeypatch):
    """Margin scenario at blocklength 16: weighted margin-model error stays
    within the margin bound, and every wrong decode in a margin state is
    unavoidable: the decoded codeword is strictly more likely than the
    transmitted one under the decoded vector's channel.  The same is
    required of every wrong winner of a decode subset S, the decision the
    output is agreed from, including in trials that end in a collision.

    The margin decoder's winner is the accepted candidate of maximum
    weighted likelihood (an exact tie reports a collision), and the margin
    check can only veto.  Here K = 1 and both decode subsets miss D = {0},
    so the thresholds do not depend on the candidate; a wrong decode when
    the transmitted codeword is at least as likely would be a decoder
    fault.  Wrong decodes themselves are expected at N = 16: the rate sits
    at the margin states' capacity and nothing bounds the event (the
    margin bound is vacuous on this example).  The PASS/FAIL line prints
    them per margin state next to the avoidable count.

    ``decode_receiver``, ``decode_subset`` and ``classify_error`` are
    wrapped at the names their callers look up, so the scenario's own run
    is inspected and its tallies are unchanged.  The runner classifies
    each block of trials with their transmitted (g, w) right after
    decoding it, so the wrapped ``classify_error`` checks, trial by trial,
    the block decode that the wrapped ``decode_receiver`` last kept; the
    margin decoder is its one table, D = (0,), whose ``decode_subset``
    outcome on the same block holds each trial's subset winners.
    """
    t0 = time.time()
    scen = load_scenario(SCENARIOS / "bsc_compound_sec4.json")
    assert scen.N == 16 and scen.trials >= 10_000
    last = {}
    seen = []
    decodes, winners = [], []
    real_decode_receiver = montecarlo.decode_receiver
    real_decode_subset = decoder.decode_subset
    real_classify_error = montecarlo.classify_error
    decode_signature = inspect.signature(real_decode_receiver)
    classify_signature = inspect.signature(real_classify_error)

    def advantage(codebooks, y, w, g, choice):
        """Log-likelihood of a wrong (w_D, g) choice minus the transmitted
        codeword's, under the chosen vector's channel; None if correct."""
        w_dec, g_dec = choice
        if (w_dec[0], g_dec[0]) == (w[0], g[0]):
            return None
        lm = marginalize_out(scen.model, [0], g_dec).log_pmf()
        sent = codeword(codebooks, 0, g[0], w[0])
        chosen = codeword(codebooks, 0, g_dec[0], w_dec[0])
        return float(lm[chosen, y].sum() - lm[sent, y].sum())

    def recording_decode_subset(*args, **kwargs):
        last["sub"] = real_decode_subset(*args, **kwargs)
        return last["sub"]

    def recording_decode_receiver(*args, **kwargs):
        last.pop("sub", None)
        outcome = real_decode_receiver(*args, **kwargs)
        call = decode_signature.bind(*args, **kwargs).arguments
        last.update(codebooks=call["codebooks"], y=np.asarray(call["y"]),
                    outcome=outcome)
        return outcome

    def checking_classify_error(*args, **kwargs):
        call = classify_signature.bind(*args, **kwargs).arguments
        assert call["outcome"] is last["outcome"]
        for i, (g, w) in enumerate(zip(call["g"], call["w"])):
            g = tuple(g)
            outcome = trial_view(last["sub"], i, (0,))
            assert outcome.kind == trial_view(call["outcome"], i).kind
            if g in scen.margin:
                seen.append(g)
                codebooks, y = last["codebooks"].take([i]), last["y"][i]
                if outcome.decoded:
                    decodes.append(advantage(codebooks, y, w, g,
                                             outcome.winner))
                for choice in outcome.diagnostics["winners"]:
                    if choice not in (None, "tie"):
                        winners.append(advantage(codebooks, y, w, g, choice))
        return real_classify_error(*args, **kwargs)

    monkeypatch.setattr(montecarlo, "decode_receiver",
                        recording_decode_receiver)
    monkeypatch.setattr(decoder, "decode_subset", recording_decode_subset)
    monkeypatch.setattr(montecarlo, "classify_error", checking_classify_error)
    tallies = run_trials(scen, scen.trials, scen.seed)
    est = empirical_gep(tallies, scen.alpha, scen.N)
    bound = gep_bound_D(scen.model, [0], scen.region, scen.alpha, scen.N,
                        margin=scen.margin, cache=ExponentCache())
    passed = compare_bound(est, bound)

    # tallies are [trials, errors, decoded correctly, decoded wrongly]
    margin_trials = sum(tallies.get(g, [0])[0] for g in scen.margin)
    wrong_per_state = {g: tallies.get(g, [0] * 4)[3]
                       for g in sorted(scen.margin)}

    decodes = [d for d in decodes if d is not None]
    winners = [d for d in winners if d is not None]
    wrong_seen = len(decodes)
    avoidable = sum(1 for d in decodes if not d > 0.0)
    avoidable_winners = sum(1 for d in winners if not d > 0.0)
    wrong_in_margin = sum(wrong_per_state.values())
    ok = (passed and avoidable == 0 and avoidable_winners == 0
          and margin_trials > 0 and len(seen) == margin_trials
          and wrong_seen == wrong_in_margin)
    per_state = ", ".join(f"{g}: {n}" for g, n in wrong_per_state.items())
    line = report(
        9, ok,
        f"margin-GEP {est.point:.4f} <= bound {bound.value:.4f}"
        f"{' (vacuous)' if bound.vacuous else ''} (+3 sigma): "
        f"{passed}; wrong decodes in margin: {wrong_in_margin} of "
        f"{margin_trials} trials ({per_state}), avoidable: {avoidable} "
        f"(required 0); wrong subset winners: {len(winners)}, avoidable: "
        f"{avoidable_winners} (required 0)", time.time() - t0, 300.0)
    assert passed, line
    assert margin_trials > 0 and len(seen) == margin_trials, line
    assert wrong_seen == wrong_in_margin, line
    assert avoidable == 0, line
    assert avoidable_winners == 0, line
