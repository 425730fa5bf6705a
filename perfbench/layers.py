"""Per-layer metrics, computed from one traced round: one invocation each of
``exponents``, ``bound``, ``simulate`` and ``detect``.

Per-trial figures divide by the round's trial counts.  Counts and times not
marked per trial or per call are totals over the round.  Each metric reads
0 when the functions it is built on are no longer called.  Which
end-to-end metric each one should move, and on which workload, is listed
in ``perfbench/README.md``.
"""

from __future__ import annotations

import time

from tracer import LAYERS

UNITS = {
    "scenario.load_s": "s",
    "channel.marginalize_out.calls_per_trial": "count/trial",
    "channel.output_marginal.calls_per_trial": "count/trial",
    "ensemble.sample_codebook.us_per_call": "us",
    "ensemble.rng_floor_us_per_trial": "us",
    "ensemble.ensemble_log_expectation.calls_per_trial": "count/trial",
    "ensemble.ensemble_log_expectation.us_per_call": "us",
    "optimize.maximizations": "count",
    "optimize.evals_per_max": "count",
    "optimize.us_per_eval": "us",
    "optimize.polish_evals_share": "ratio",
    "exponents.EmD.maximizations": "count",
    "exponents.EiD.maximizations": "count",
    "exponents.Ec.maximizations": "count",
    "exponents.cache_hit_ratio": "ratio",
    "exponents.repeat_maximizations": "count",
    "exponents.assembly_self_s": "s",
    "decoder.build_thresholds_s": "s",
    "decoder.decode_us_per_trial": "us",
    "decoder.typicality_threshold.calls_per_trial": "count/trial",
    "decoder.typicality_threshold.us_per_call": "us",
    "decoder.candidates_per_trial": "count/trial",
    "decoder.threshold_solves_per_candidate": "ratio",
    "decoder.detect_region.us_per_call": "us",
    "montecarlo.trial_self_us": "us",
    "montecarlo.classify_error.us_per_call": "us",
    "montecarlo.detect_trial_self_us": "us",
    "montecarlo.estimate_s": "s",
    "cli.verdict_bound_s": "s",
    "cli.write_s": "s",
    "trace.overhead_frac": "ratio",
}
for _layer in LAYERS:
    UNITS[f"{_layer}.calls"] = "count"
    UNITS[f"{_layer}.busy_s"] = "s"
    UNITS[f"{_layer}.self_s"] = "s"

SIM, DET = "simulate", "detect"
TRIAL, DTRIAL = ("trial",), ("dtrial",)


def _ratio(a, b):
    return a / b if b else 0.0


def round_metrics(tr, spec) -> dict:
    """Every per-layer metric except the two measured outside the round
    (``ensemble.rng_floor_us_per_trial``, ``trace.overhead_frac``)."""
    T, Td = spec["sim_trials"], spec["detect_trials"]

    def calls(key, sub=None, phases=None):
        return tr.total(key, sub, phases, 0)

    def incl(key, sub=None, phases=None):
        return tr.total(key, sub, phases, 1)

    def us_per_call(key, sub=None, phases=None):
        return 1e6 * _ratio(incl(key, sub, phases), calls(key, sub, phases))

    maxes = calls("optimize.maximize_rho_s") + calls("optimize.maximize_scalar")
    polish = calls("exponents.objective.polish")
    evals = calls("exponents.objective") + polish
    eval_s = incl("exponents.objective") + incl("exponents.objective.polish")
    cache_calls = calls("exponents.ExponentCache.emd", "bound") + \
        calls("exponents.ExponentCache.eid", "bound")
    built = set(tr.exponent_keys[(SIM, "build")])
    repeats = sum(k in built for k in tr.exponent_keys[(SIM, "verdict")])
    candidates = tr.candidates[(SIM, "trial")]
    solves = calls("decoder.typicality_threshold", SIM, TRIAL)

    m = {
        "scenario.load_s": _ratio(incl("scenario.load_scenario"),
                                  calls("scenario.load_scenario")),
        "channel.marginalize_out.calls_per_trial":
            calls("channel.marginalize_out", SIM, TRIAL) / T,
        "channel.output_marginal.calls_per_trial":
            (calls("channel.output_marginal", SIM, TRIAL)
             + calls("channel.output_marginal", DET, DTRIAL)) / (T + Td),
        "ensemble.sample_codebook.us_per_call":
            us_per_call("ensemble.sample_codebook", SIM, TRIAL),
        "ensemble.ensemble_log_expectation.calls_per_trial":
            calls("ensemble.ensemble_log_expectation", SIM, TRIAL) / T,
        "ensemble.ensemble_log_expectation.us_per_call":
            us_per_call("ensemble.ensemble_log_expectation", SIM, TRIAL),
        "optimize.maximizations": maxes,
        "optimize.evals_per_max": _ratio(evals, maxes),
        "optimize.us_per_eval": 1e6 * _ratio(eval_s, evals),
        "optimize.polish_evals_share": _ratio(polish, evals),
        "exponents.EmD.maximizations": calls("exponents.exponent_EmD"),
        "exponents.EiD.maximizations": calls("exponents.exponent_EiD"),
        "exponents.Ec.maximizations": calls("exponents.exponent_Ec"),
        "exponents.cache_hit_ratio": _ratio(
            cache_calls - tr.nested_in("exponent", "cache", "bound", 0),
            cache_calls),
        "exponents.repeat_maximizations": repeats,
        "exponents.assembly_self_s":
            tr.group_busy("assembly", "bound")
            - tr.nested_in("maximize", "assembly", "bound"),
        "decoder.build_thresholds_s": incl("decoder.build_thresholds", SIM),
        "decoder.decode_us_per_trial":
            1e6 * tr.group_busy("layer:decoder", SIM, TRIAL) / T,
        "decoder.typicality_threshold.calls_per_trial": solves / T,
        "decoder.typicality_threshold.us_per_call":
            us_per_call("decoder.typicality_threshold", SIM, TRIAL),
        "decoder.candidates_per_trial": candidates / T,
        "decoder.threshold_solves_per_candidate": _ratio(solves, candidates),
        "decoder.detect_region.us_per_call":
            us_per_call("decoder.detect_region"),
        "montecarlo.trial_self_us":
            1e6 * tr.layer_self("montecarlo", SIM, TRIAL) / T,
        "montecarlo.classify_error.us_per_call":
            us_per_call("montecarlo.classify_error"),
        "montecarlo.detect_trial_self_us":
            1e6 * tr.layer_self("montecarlo", DET, DTRIAL) / Td,
        "montecarlo.estimate_s": incl("montecarlo.empirical_gep", SIM),
        "cli.verdict_bound_s": incl("cli.scenario_bound", SIM),
        "cli.write_s": sum(tr.write_s.values()),
    }
    for layer in LAYERS:
        m[f"{layer}.calls"] = tr.layer_calls(layer)
        m[f"{layer}.busy_s"] = tr.group_busy("layer:" + layer)
        m[f"{layer}.self_s"] = tr.layer_self(layer)
    return m


def rng_floor_us(scenario_path, trials: int, seed: int) -> float:
    """The seeding floor: per-trial streams, codebook draw and per-trial
    draws, made with the keys ``run_trials`` uses, in microseconds per
    trial.  0 when the seeding functions are gone."""
    try:
        from gepkit.ensemble import (message_count, sample_codebook,
                                     sample_from_pmf, stream)
        from gepkit.scenario import load_scenario
    except ImportError:
        return 0.0
    scenario = load_scenario(scenario_path)
    model, N = scenario.model, scenario.N
    g_list = list(model.index_space())
    counts = {(k, gk): message_count(model.rate(k, gk), N)
              for k in range(model.K)
              for gk in range(len(model.libraries[k]))}
    t0 = time.perf_counter()
    for t in range(trials):
        rng = stream((seed, t, 1))
        g = g_list[int(rng.integers(0, len(g_list)))]
        sample_codebook(model, N, (seed, t, 0))
        for k in range(model.K):
            rng.integers(1, counts[(k, g[k])] + 1)
        for k in range(model.K, model.n_users):
            sample_from_pmf(rng, model.input_pmf(k, g[k]), N)
        rng.random(N)
    return 1e6 * (time.perf_counter() - t0) / trials
