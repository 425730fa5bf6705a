import importlib
import inspect
import itertools
import math
import weakref
from collections import Counter
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import gepkit.decoder
import gepkit.montecarlo
from gepkit import (
    CodeSpec,
    SystemModel,
    build_thresholds,
    decode_subset,
    make_compound_bsc,
    make_dmc,
)
from gepkit.decoder import DecodeOutcome
from gepkit.errors import MismatchedParameters
from gepkit.exponents import (
    BoundReport,
    RegionPartition,
    WeightFunction,
    gep_bound_D,
    validate_region,
)
from gepkit.montecarlo import (
    MARGIN,
    RELAXED,
    STRICT,
    classify_error,
    compare_bound,
    empirical_gep,
    run_detection_trials,
    run_trials,
)
from gepkit.scenario import load_scenario

from conftest import load_perfbench

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"


def decoded(w1, g1):
    return DecodeOutcome(kind="decoded", w1=w1, g1=g1)


COLLIDE = DecodeOutcome(kind="collision")


def make_scenario(model, N, region, *, margin=frozenset(), decoder="plain",
                  error_model=RELAXED, partition=None, detection=None,
                  g_set=None):
    region = validate_region(model, region)
    if partition is None and decoder != "margin":
        partition = RegionPartition.build(
            model, {tuple(range(model.K)): region}, region)
    return SimpleNamespace(model=model, N=N,
                           alpha=WeightFunction.zero(model), region=region,
                           margin=frozenset(margin), decoder=decoder,
                           error_model=error_model, partition=partition,
                           detection=detection, g_sampling="uniform",
                           g_set=g_set)


class TestClassifyError:
    R = frozenset({(0, 0)})
    RH = frozenset({(0, 1)})

    def test_correct_inside_region_never_errs(self):
        for em in (RELAXED, STRICT, MARGIN):
            assert not classify_error(em, self.R, self.RH, (0, 0), (3,),
                                      decoded(3, 0))

    def test_collision_inside_region_always_errs(self):
        for em in (RELAXED, STRICT, MARGIN):
            assert classify_error(em, self.R, self.RH, (0, 0), (3,), COLLIDE)

    def test_correct_decode_outside_region_split(self):
        g, w = (0, 2), (3,)
        out = decoded(3, 0)
        assert not classify_error(RELAXED, self.R, self.RH, g, w, out)
        assert classify_error(STRICT, self.R, self.RH, g, w, out)

    def test_margin_collision_is_expected(self):
        assert not classify_error(MARGIN, self.R, self.RH, (0, 1), (3,),
                                  COLLIDE)
        assert not classify_error(MARGIN, self.R, self.RH, (0, 1), (3,),
                                  decoded(3, 0))
        assert classify_error(MARGIN, self.R, self.RH, (0, 1), (3,),
                              decoded(4, 0))

    def test_outside_everything_must_collide_under_margin(self):
        assert classify_error(MARGIN, self.R, self.RH, (0, 2), (3,),
                              decoded(3, 0))
        assert not classify_error(MARGIN, self.R, self.RH, (0, 2), (3,),
                                  COLLIDE)

    def test_strict_contains_relaxed(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            g = (0, int(rng.integers(0, 3)))
            w = (int(rng.integers(1, 4)),)
            if rng.random() < 0.4:
                out = COLLIDE
            else:
                out = decoded(int(rng.integers(1, 4)), 0)
            relaxed = classify_error(RELAXED, self.R, self.RH, g, w, out)
            strict = classify_error(STRICT, self.R, self.RH, g, w, out)
            assert strict or not relaxed

    def test_margin_sandwich(self):
        rng = np.random.default_rng(1)
        for _ in range(200):
            g = (0, int(rng.integers(0, 3)))
            w = (int(rng.integers(1, 4)),)
            if rng.random() < 0.4:
                out = COLLIDE
            else:
                out = decoded(int(rng.integers(1, 4)), 0)
            margin = classify_error(MARGIN, self.R, self.RH, g, w, out)
            strict = classify_error(STRICT, self.R, self.RH, g, w, out)
            relaxed = classify_error(RELAXED, self.R, self.RH, g, w, out)
            assert strict or not margin          # margin subset of strict
            if g not in self.RH:
                assert margin or not relaxed     # relaxed subset off-margin


class TestRunTrials:
    def test_noiseless_in_region_never_errs(self):
        m = SystemModel(
            dmc=make_dmc(np.eye(2)), K=1, M=0,
            libraries=((CodeSpec(math.log(2.0) / 8, np.array([0.5, 0.5])),),))
        scen = make_scenario(m, 8, [(0,)])
        recs = run_trials(scen, 60, 5)
        errors = sum(r.error for r in recs)
        # identical codewords can tie; exclude those duplicate-codebook trials
        assert all(r.decoded_correct or r.kind == "collision" for r in recs)
        assert errors <= sum(r.kind == "collision" for r in recs)

    def test_reproducible(self):
        m = make_compound_bsc([0.05, 0.3], [0.5, 0.5], 0.2)
        scen = make_scenario(m, 10, [(0, 0)])
        a = run_trials(scen, 40, 9)
        b = run_trials(scen, 40, 9)
        assert a == b

    def test_zero_capacity_channel_errs_inside_region(self):
        # crossover 1/2 carries nothing: in-region trials nearly all fail
        m = make_compound_bsc([0.5], [0.5, 0.5], 0.3)
        scen = make_scenario(m, 10, [(0, 0)])
        recs = run_trials(scen, 300, 3)
        rate = sum(r.error for r in recs) / len(recs)
        assert rate > 0.9

    def test_margin_decoder_runs(self, sec4_model):
        scen = make_scenario(sec4_model, 16, [(0, 0)],
                             margin=[(0, 1), (0, 2)], decoder="margin",
                             error_model=MARGIN)
        recs = run_trials(scen, 30, 2)
        assert len(recs) == 30

    def test_alpha_prior_sampling_concentrates(self):
        m = make_compound_bsc([0.05, 0.3], [0.5, 0.5], 0.2)
        scen = make_scenario(m, 10, [(0, 0)])
        scen.alpha = WeightFunction(m, {(0, 1): 2.0})
        scen.g_sampling = "alpha_prior"
        recs = run_trials(scen, 300, 17)
        n1 = sum(r.g == (0, 1) for r in recs)
        # prior weight of (0,1) is e^{-20}/(1 + e^{-20}): essentially never
        assert n1 == 0
        assert sum(r.g == (0, 0) for r in recs) == 300

    def test_trace_records_written(self, tmp_path):
        import json
        m = make_compound_bsc([0.05, 0.3], [0.5, 0.5], 0.2)
        scen = make_scenario(m, 8, [(0, 0)])
        path = tmp_path / "trace.jsonl"
        recs = run_trials(scen, 12, 4, trace_path=path)
        lines = path.read_text().splitlines()
        assert len(lines) == 12
        for rec, line in zip(recs, lines):
            doc = json.loads(line)
            assert doc["trial"] == rec.trial
            assert tuple(doc["g"]) == rec.g
            assert doc["outcome"] == rec.kind
            assert "per_S" in doc and doc["per_S"]

    def test_outcomes_do_not_outlive_their_trial(self, monkeypatch):
        # without a trace only the TrialRecords are kept: every decode
        # outcome, diagnostics included, is freed when its trial ends
        m = make_compound_bsc([0.05, 0.3], [0.5, 0.5], 0.2)
        scen = make_scenario(m, 8, [(0, 0)])
        original = gepkit.montecarlo.decode_receiver
        refs, alive = [], []

        def watched(*args, **kwargs):
            alive.append(sum(r() is not None for r in refs))
            out = original(*args, **kwargs)
            refs.append(weakref.ref(out))
            return out

        monkeypatch.setattr(gepkit.montecarlo, "decode_receiver", watched)
        recs = run_trials(scen, 12, 4)
        assert len(recs) == len(refs) == 12
        assert alive == [0] * 12
        assert all(r() is None for r in refs)


class TestSetUpOncePerRun:
    """Region and partition checks and log output marginals are work of the
    run, not of the trial: their call counts do not grow with the number
    of trials."""

    @staticmethod
    def _calls(monkeypatch, run):
        calls = Counter()
        for name in ("validate_region", "check_detection_partition",
                     "output_marginal"):
            original = getattr(gepkit.decoder, name)

            def counted(*args, _name=name, _original=original, **kwargs):
                calls[_name] += 1
                return _original(*args, **kwargs)

            monkeypatch.setattr(gepkit.decoder, name, counted)
        run()
        monkeypatch.undo()
        return calls

    @pytest.mark.parametrize("name, decoder", [
        ("bsc_compound_sec4.json", "margin"),
        ("compound_bsc_relaxed.json", "plain"),
        ("detect_two_bsc.json", "detect"),
    ])
    def test_trial_loop(self, monkeypatch, name, decoder):
        def run(trials):
            scen = load_scenario(SCENARIOS / name)
            scen.decoder = decoder
            return lambda: run_trials(scen, trials, 3)

        few = self._calls(monkeypatch, run(2))
        many = self._calls(monkeypatch, run(7))
        assert few == many

    def test_detection_trial_loop(self, monkeypatch):
        def run(trials):
            scen = load_scenario(SCENARIOS / "detect_two_bsc.json")
            return lambda: run_detection_trials(scen, trials, 3)

        few = self._calls(monkeypatch, run(5))
        many = self._calls(monkeypatch, run(60))
        assert few == many
        assert few["check_detection_partition"] == 1


class TestBenchmarkHooks:
    """The benchmark's tracer wraps gepkit functions by name: its phases
    must name functions gepkit defines, ``trials_per_s`` subtracts the
    threshold build timed at ``decoder.build_thresholds`` from the time in
    ``run_trials``, and the margin decoder is looked up at the name the
    trial runner calls and bound by argument name."""

    def test_tracer_phases_resolve(self):
        tracer = load_perfbench("tracer")
        assert tracer.PHASES
        for key in tracer.PHASES:
            layer, name = key.split(".")
            module = importlib.import_module("gepkit." + layer)
            fn = getattr(module, name, None)
            assert inspect.isfunction(fn), key
            assert fn.__module__ == module.__name__, key

    def test_trial_runner_calls_the_traced_names(self):
        assert gepkit.montecarlo.build_thresholds is \
            gepkit.decoder.build_thresholds
        params = inspect.signature(gepkit.montecarlo.decode_margin).parameters
        assert {"codebooks", "y", "truth"} <= set(params)


class TestEmpiricalGep:
    def test_all_errors_give_one(self):
        m = make_compound_bsc([0.5], [0.5, 0.5], 0.3)
        scen = make_scenario(m, 10, [(0, 0)])
        recs = run_trials(scen, 200, 3)
        forced = [r.__class__(**{**r.__dict__, "error": True}) for r in recs]
        est = empirical_gep(forced, scen.alpha, 10)
        assert est.point == 1.0 and est.se == 0.0

    def test_weight_concentration(self):
        m = make_compound_bsc([0.05, 0.3], [0.5, 0.5], 0.2)
        alpha = WeightFunction(m, {(0, 1): 50.0})
        scen = make_scenario(m, 6, [(0, 0)])
        recs = run_trials(scen, 200, 7)
        est = empirical_gep(recs, alpha, 6)
        n0, e0 = est.per_g[(0, 0)]
        assert est.point == pytest.approx(e0 / n0, abs=1e-10)

    def test_unestimated_stratum_flagged(self):
        m = make_compound_bsc([0.05, 0.3], [0.5, 0.5], 0.2)
        scen = make_scenario(m, 6, [(0, 0)], g_set=[(0, 0)])
        recs = run_trials(scen, 50, 7)
        est = empirical_gep(recs, scen.alpha, 6)
        assert est.unestimated == ((0, 1),)

    def test_exact_enumeration_fixture(self):
        # tiny system: exact error probability by enumerating codebooks,
        # messages and channel noise
        m = make_compound_bsc([0.2], [0.7, 0.3], math.log(2.0) / 2)
        N = 2
        alpha = WeightFunction.zero(m)
        region = validate_region(m, [(0, 0)])
        tbl = build_thresholds(m, [0], region, alpha)
        pm = m.input_pmf(0, 0)
        marg_pmf = np.array([[0.8, 0.2], [0.2, 0.8]])

        exact = 0.0
        words = list(itertools.product(range(2), repeat=N))
        for cw1 in words:
            p1 = np.prod([pm[x] for x in cw1])
            for cw2 in words:
                p2 = np.prod([pm[x] for x in cw2])
                cb = type("CB", (), {})()
                cb.tables = {(0, 0): np.array([cw1, cw2])}
                cb.counts = {(0, 0): 2}
                cb.codeword = lambda k, g, w, _c=cb: _c.tables[(k, g)][w - 1]
                for w in (1, 2):
                    x = cb.tables[(0, 0)][w - 1]
                    for y in words:
                        py = np.prod([marg_pmf[x[j], y[j]]
                                      for j in range(N)])
                        out = decode_subset(tbl, cb, np.array(y))
                        err = classify_error(RELAXED, region, frozenset(),
                                             (0, 0), (w,), out)
                        exact += p1 * p2 * 0.5 * py * err

        scen = make_scenario(m, N, region, g_set=[(0, 0)])
        recs = run_trials(scen, 4000, 11)
        est = empirical_gep(recs, alpha, N, weighting=[(0, 0)])
        assert abs(est.point - exact) <= 3 * max(est.se, 1e-3)

        # estimator consistency: quadrupling the trials roughly halves the
        # standard error and keeps the estimate within 3 sigma of exact
        small = empirical_gep(recs[:1000], alpha, N, weighting=[(0, 0)])
        assert abs(small.point - exact) <= 3 * max(small.se, 1e-3)
        assert est.se <= 0.65 * small.se


class TestCompareBound:
    def _bound(self, value, N, alpha):
        return BoundReport(value=value, raw=value, log_raw=math.log(value)
                           if value > 0 else -math.inf, N=N, terms=(),
                           vacuous=value >= 1, alpha_key=alpha.key())

    def test_zero_estimate_passes(self):
        m = make_compound_bsc([0.05, 0.3], [0.5, 0.5], 0.2)
        scen = make_scenario(m, 6, [(0, 0)])
        recs = run_trials(scen, 30, 1)
        clean = [r.__class__(**{**r.__dict__, "error": False}) for r in recs]
        est = empirical_gep(clean, scen.alpha, 6)
        v = compare_bound(est, self._bound(0.001, 6, scen.alpha))
        assert v.passed

    def test_vacuous_bound_passes_everything(self):
        m = make_compound_bsc([0.5], [0.5, 0.5], 0.3)
        scen = make_scenario(m, 10, [(0, 0)])
        recs = run_trials(scen, 100, 3)
        forced = [r.__class__(**{**r.__dict__, "error": True}) for r in recs]
        est = empirical_gep(forced, scen.alpha, 10)
        v = compare_bound(est, self._bound(1.0, 10, scen.alpha))
        assert v.passed

    def test_mismatched_parameters_rejected(self):
        m = make_compound_bsc([0.05, 0.3], [0.5, 0.5], 0.2)
        scen = make_scenario(m, 6, [(0, 0)])
        recs = run_trials(scen, 20, 1)
        est = empirical_gep(recs, scen.alpha, 6)
        with pytest.raises(MismatchedParameters):
            compare_bound(est, self._bound(0.5, 7, scen.alpha))
        other = WeightFunction(m, {(0, 1): 0.3})
        with pytest.raises(MismatchedParameters):
            compare_bound(est, self._bound(0.5, 6, other))

    def test_simulation_within_bound(self):
        m = make_compound_bsc([0.05, 0.3], [0.5, 0.5], 0.2)
        scen = make_scenario(m, 12, [(0, 0)])
        recs = run_trials(scen, 1500, 123)
        est = empirical_gep(recs, scen.alpha, 12)
        bound = gep_bound_D(m, [0], [(0, 0)], scen.alpha, 12)
        assert compare_bound(est, bound).passed
