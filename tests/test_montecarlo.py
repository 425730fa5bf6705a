import ast
import copy
import csv
import importlib
import inspect
import itertools
import json
import math
import subprocess
import sys
import tracemalloc
import weakref
from collections import Counter
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import gepkit.decoder
import gepkit.ensemble
import gepkit.exponents
import gepkit.montecarlo
from gepkit import (
    CodeSpec,
    SystemModel,
    build_thresholds,
    decode_subset,
    make_compound_bsc,
    make_dmc,
)
from gepkit.decoder import REASONS, DecodeOutcome
from gepkit.channel import output_marginal
from gepkit.cli import main
from gepkit.ensemble import (flatten_symbols, message_count, philox_keys,
                             sample_codebook, sample_from_pmf, stream)
from gepkit.errors import MismatchedParameters, ShapeMismatch
from gepkit.exponents import (
    BoundReport,
    ExponentCache,
    WeightFunction,
    check_detection_partition,
    gep_bound_D,
    validate_partition,
    validate_region,
)
from gepkit.montecarlo import (
    MARGIN,
    RELAXED,
    STRICT,
    _channel_sampler,
    _draw_g,
    _g_sampler,
    _read_own_streams,
    _trial_bytes,
    build_detector,
    classify_error,
    compare_bound,
    compare_per_g,
    empirical_gep,
    receiver_parts,
    run_detection_trials,
    run_trials,
)
from gepkit.scenario import load_scenario, parse_scenario

from conftest import (ROOT, key_paths, load_perfbench, load_workloads,
                      random_alpha, random_model, small_search)
from reference_decoder import (reference_classify_error,
                               reference_decode_receiver)

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"


def decoded(w1, g1):
    """A decode of (w1, g1), a block of one trial."""
    return DecodeOutcome(reason=np.array([0]), w1=np.array([w1]),
                         g1=np.array([g1]))


# a collision, a block of one trial
COLLIDE = DecodeOutcome(reason=np.array([REASONS.index("no_winner")]),
                        w1=np.array([0]), g1=np.array([0]))


def classify(error_model, region, margin, g, w, outcome) -> bool:
    """classify_error on a block of one trial."""
    (err,), _ = classify_error(error_model, region, margin, [g], [w],
                               outcome)
    return bool(err)


def make_scenario(model, N, region, *, margin=frozenset(), decoder="plain",
                  error_model=RELAXED, partition=None, detection=None,
                  g_set=None):
    region = validate_region(model, region)
    if partition is None and decoder != "margin":
        partition = validate_partition(
            model, {tuple(range(model.K)): region}, region)
    return SimpleNamespace(model=model, N=N,
                           alpha=WeightFunction.zero(model), region=region,
                           margin=frozenset(margin), decoder=decoder,
                           error_model=error_model, partition=partition,
                           detection=detection, g_sampling="uniform",
                           g_set=g_set)


def _decode_block_bytes(scenario, per_block):
    """BLOCK_BYTES that makes decoding blocks of ``per_block`` trials."""
    model = scenario.model
    counts = {(k, gk): message_count(model.rate(k, gk), scenario.N)
              for k in range(model.K)
              for gk in range(len(model.libraries[k]))}
    return per_block * _trial_bytes(scenario, counts)[1]


class TestClassifyError:
    R = frozenset({(0, 0)})
    RH = frozenset({(0, 1)})

    def test_correct_inside_region_never_errs(self):
        for em in (RELAXED, STRICT, MARGIN):
            assert not classify(em, self.R, self.RH, (0, 0), (3,),
                                decoded(3, 0))

    def test_collision_inside_region_always_errs(self):
        for em in (RELAXED, STRICT, MARGIN):
            assert classify(em, self.R, self.RH, (0, 0), (3,), COLLIDE)

    def test_correct_decode_outside_region_split(self):
        g, w = (0, 2), (3,)
        out = decoded(3, 0)
        assert not classify(RELAXED, self.R, self.RH, g, w, out)
        assert classify(STRICT, self.R, self.RH, g, w, out)

    def test_margin_collision_is_expected(self):
        assert not classify(MARGIN, self.R, self.RH, (0, 1), (3,),
                            COLLIDE)
        assert not classify(MARGIN, self.R, self.RH, (0, 1), (3,),
                            decoded(3, 0))
        assert classify(MARGIN, self.R, self.RH, (0, 1), (3,),
                        decoded(4, 0))

    def test_outside_everything_must_collide_under_margin(self):
        assert classify(MARGIN, self.R, self.RH, (0, 2), (3,),
                        decoded(3, 0))
        assert not classify(MARGIN, self.R, self.RH, (0, 2), (3,),
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
            relaxed = classify(RELAXED, self.R, self.RH, g, w, out)
            strict = classify(STRICT, self.R, self.RH, g, w, out)
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
            margin = classify(MARGIN, self.R, self.RH, g, w, out)
            strict = classify(STRICT, self.R, self.RH, g, w, out)
            relaxed = classify(RELAXED, self.R, self.RH, g, w, out)
            assert strict or not margin          # margin subset of strict
            if g not in self.RH:
                assert margin or not relaxed     # relaxed subset off-margin


class TestRunTrials:
    def test_noiseless_in_region_never_errs(self):
        m = SystemModel(
            dmc=make_dmc(np.eye(2)), K=1, M=0,
            libraries=((CodeSpec(math.log(2.0) / 8, np.array([0.5, 0.5])),),))
        scen = make_scenario(m, 8, [(0,)])
        (n, errors, correct, wrong), = run_trials(scen, 60, 5).values()
        # identical codewords can tie; exclude those duplicate-codebook trials
        assert n == 60 and wrong == 0
        assert errors <= n - correct

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
        tallies = run_trials(scen, 300, 3)
        rate = sum(e for _n, e, *_ in tallies.values()) / 300
        assert rate > 0.9

    def test_margin_decoder_runs(self, sec4_model):
        scen = make_scenario(sec4_model, 16, [(0, 0)],
                             margin=[(0, 1), (0, 2)], decoder="margin",
                             error_model=MARGIN)
        tallies = run_trials(scen, 30, 2)
        assert sum(n for n, *_ in tallies.values()) == 30

    def test_alpha_prior_sampling_concentrates(self):
        m = make_compound_bsc([0.05, 0.3], [0.5, 0.5], 0.2)
        scen = make_scenario(m, 10, [(0, 0)])
        scen.alpha = WeightFunction(m, {(0, 1): 2.0})
        scen.g_sampling = "alpha_prior"
        tallies = run_trials(scen, 300, 17)
        # prior weight of (0,1) is e^{-20}/(1 + e^{-20}): essentially never,
        # and only strata that drew a trial are tallied
        assert list(tallies) == [(0, 0)] and tallies[(0, 0)][0] == 300

    def test_outcomes_do_not_outlive_their_trial(self, monkeypatch):
        # only the tallies are kept: every block's decode outcome,
        # diagnostics included, is freed when its block ends; blocks of 5
        # trials make 3 blocks of 12 trials
        m = make_compound_bsc([0.05, 0.3], [0.5, 0.5], 0.2)
        scen = make_scenario(m, 8, [(0, 0)])
        monkeypatch.setattr(gepkit.montecarlo, "BLOCK_BYTES",
                            _decode_block_bytes(scen, 5))
        original = gepkit.montecarlo.decode_receiver
        refs, alive, sizes = [], [], []

        def watched(*args, **kwargs):
            alive.append(sum(r() is not None for r in refs))
            out = original(*args, **kwargs)
            refs.append(weakref.ref(out))
            sizes.append(len(out.reason))
            return out

        monkeypatch.setattr(gepkit.montecarlo, "decode_receiver", watched)
        tallies = run_trials(scen, 12, 4)
        assert sum(n for n, *_ in tallies.values()) == sum(sizes) == 12
        assert sizes == [5, 5, 2]
        assert alive == [0] * len(refs)
        assert all(r() is None for r in refs)


class TestSetUpOncePerRun:
    """Region and partition checks and log output marginals are work of the
    run, not of the trial: their call counts do not grow with the number
    of trials."""

    @staticmethod
    def _calls(monkeypatch, run):
        calls = Counter()
        for name in ("decoder_searches", "check_detection_partition",
                     "marginalize_out"):
            original = getattr(gepkit.decoder, name)

            def counted(*args, _name=name, _original=original, **kwargs):
                # of the marginals only P(Y | g), the empty subset's, is
                # set-up work; the candidates' P(Y | X_D, g) are per trial
                if _name != "marginalize_out" or args[1] == ():
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
        assert few["marginalize_out"] == 2  # P(Y | g) of both hypotheses

    @staticmethod
    def _constructions(monkeypatch, run):
        """How many SeedSequence and Philox objects gepkit builds in
        ``run``."""
        built = Counter()
        for name in ("SeedSequence", "Philox"):
            original = getattr(np.random, name)

            def counted(*args, _name=name, _original=original, **kwargs):
                built[_name] += 1
                return _original(*args, **kwargs)

            monkeypatch.setattr(np.random, name, counted)
        run()
        monkeypatch.undo()
        return built

    @pytest.mark.parametrize("name, decoder", [
        ("bsc_compound_sec4.json", "margin"),
        ("compound_bsc_relaxed.json", "plain"),
        ("detect_two_bsc.json", "detect"),
        ("detect_two_bsc.json", None),
    ])
    def test_no_stream_is_built_per_trial(self, monkeypatch, name, decoder):
        """The trial loops key reusable generators (one per purpose, one
        more for the code streams) and build no SeedSequence."""
        scen = load_scenario(SCENARIOS / name)
        scen.decoder = decoder or scen.decoder
        run = run_detection_trials if decoder is None else run_trials
        few = self._constructions(monkeypatch, lambda: run(scen, 2, 3))
        many = self._constructions(monkeypatch, lambda: run(scen, 40, 3))
        assert few == many == Counter(Philox=1 if decoder is None else 2)


class TestBenchmarkHooks:
    """The benchmark's tracer wraps gepkit functions by name: its phases
    must name functions gepkit defines, ``trials_per_s`` subtracts the
    threshold build timed at ``decoder.build_thresholds`` from the time in
    ``run_trials``, and the receiver is looked up at the name the trial
    runner calls and bound by argument name."""

    @staticmethod
    def _assert_defined(key):
        layer, name = key.split(".")
        module = importlib.import_module("gepkit." + layer)
        fn = getattr(module, name, None)
        assert inspect.isfunction(fn), key
        assert fn.__module__ == module.__name__, key

    def test_tracer_phases_resolve(self):
        tracer = load_perfbench("tracer")
        assert tracer.PHASES
        for key in tracer.PHASES:
            self._assert_defined(key)

    def test_run_timers_resolve(self):
        # ``trials_per_s`` subtracts the second timer from the first; run.py
        # is parsed, not imported, since importing it sets BLAS environment
        # variables for the whole process
        tree = ast.parse((ROOT / "perfbench" / "run.py").read_text())
        (timers,) = [ast.literal_eval(node.value) for node in tree.body
                     if isinstance(node, ast.Assign)
                     and any(getattr(t, "id", None) == "TIMERS"
                             for t in node.targets)]
        assert len(timers) == 2
        for key in timers:
            self._assert_defined(key)

    def test_trial_runner_calls_the_traced_names(self, monkeypatch):
        assert gepkit.montecarlo.build_thresholds is \
            gepkit.decoder.build_thresholds
        params = inspect.signature(
            gepkit.montecarlo.decode_receiver).parameters
        assert {"codebooks", "y"} <= set(params)
        # run_trials decodes every trial through the receiver at that
        # name, one block per call, whose arrays hold one entry per trial
        original = gepkit.montecarlo.decode_receiver
        blocks = []

        def spied(*args, **kwargs):
            call = inspect.signature(original).bind(*args, **kwargs)
            out = original(*args, **kwargs)
            books, y = call.arguments["codebooks"], call.arguments["y"]
            assert y.ndim == 2 and len(books) == len(y) == len(out.reason)
            blocks.append(len(y))
            return out

        monkeypatch.setattr(gepkit.montecarlo, "decode_receiver", spied)
        scen, seed, _trials = TRIAL_SCENARIOS["bsc_compound_sec4"]
        monkeypatch.setattr(gepkit.montecarlo, "BLOCK_BYTES",
                            _decode_block_bytes(scen, 29))
        tallies = run_trials(scen, 70, seed)
        assert sum(n for n, *_ in tallies.values()) == sum(blocks) == 70
        assert len(blocks) > 1

    def test_exponent_hooks_resolve_and_take_positional_args(self,
                                                              monkeypatch):
        # the tracer counts maximizations at these names and keys each one
        # by _exponent_key, which reads (model, D, S, g, g_other, alpha) by
        # position: the cache must pass them so, no keyword
        tracer = load_perfbench("tracer")
        for key in tracer.MAXIMIZERS | tracer.EXPONENTS:
            self._assert_defined(key)
        for key in tracer.CACHE:
            layer, owner, name = key.split(".")
            assert (layer, owner) == ("exponents", "ExponentCache"), key
            assert inspect.isfunction(
                getattr(gepkit.exponents.ExponentCache, name, None)), key
        seen = []
        for key in sorted(tracer.EXPONENTS):
            name = key.split(".")[1]
            fn = getattr(gepkit.exponents, name)

            def spy(*args, _key=key, _fn=fn, **kwargs):
                seen.append((_key, args, kwargs))
                return _fn(*args, **kwargs)
            monkeypatch.setattr(gepkit.exponents, name, spy)
        m = make_compound_bsc([0.05, 0.3], [0.5, 0.5], 0.2)
        a = WeightFunction.zero(m)
        cache = ExponentCache()
        with small_search(8, 0):
            cache.emd(m, (0,), (), (0, 0), (0, 1), a)
            cache.eid(m, (0,), (), (0, 0), (0, 1), a)
            cache.ec(m, (0, 0), (0, 1), a)
        assert [(k, len(args), kwargs) for k, args, kwargs in seen] == [
            ("exponents.exponent_EmD", 6, {}),
            ("exponents.exponent_EiD", 6, {}),
            ("exponents.exponent_Ec", 4, {})]
        for _key, args, _kwargs in seen:
            assert args[0] is m and args[-1] is a
        assert [tracer._exponent_key(k, args) for k, args, _ in seen] == [
            ("exponents.exponent_EmD", (0,), frozenset(), (0, 0), (0, 1)),
            ("exponents.exponent_EiD", (0,), frozenset(), (0, 0), (0, 1)),
            ("exponents.exponent_Ec", (0, 0), (0, 1))]

    @pytest.mark.parametrize("name", sorted(load_workloads().WORKLOADS))
    def test_setup_probe_runs_one_trial(self, name, tmp_path):
        # set-up time is perfbench/setup_probe.py's run in a fresh
        # interpreter, which run.py counts only when it exits 0 and prints
        # 1, the size of run_trials' tallies after one trial
        workloads = load_workloads()
        spec = workloads.WORKLOADS[name]
        path = workloads.scenario_path(spec["scenario"], ROOT, tmp_path)
        proc = subprocess.run(
            [sys.executable, str(ROOT / "perfbench" / "setup_probe.py"),
             str(path), str(spec["ref_seed"])],
            capture_output=True, text=True, timeout=120, check=False)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "1\n"

    def test_decode_subset_reports_its_candidate_count(self):
        # the tracer sums diagnostics["candidates_evaluated"] over the
        # decode_subset calls and reads a missing key as 0
        m = make_compound_bsc([0.05, 0.3], [0.5, 0.5], 0.2)
        region = validate_region(m, [(0, 0), (0, 1)])
        tbl = build_thresholds(m, (0,), region, WeightFunction.zero(m),
                               cache=ExponentCache())
        cb = sample_codebook(m, 10, 5)
        y = np.random.default_rng(0).integers(0, 2, 10)
        candidates = sum(cb.counts[(0, g[0])] for g in region)
        assert candidates > 0
        out = decode_subset(tbl, cb, y[None])
        assert out.diagnostics["candidates_evaluated"] == candidates
        # a block reports the sum over its trials
        out = decode_subset(tbl, cb.take([0] * 3), np.stack([y] * 3))
        assert out.diagnostics["candidates_evaluated"] == 3 * candidates


def with_errors(tallies, every):
    """``tallies`` with every trial counted as an error, or none."""
    return {g: [n, n if every else 0, *rest]
            for g, (n, _e, *rest) in tallies.items()}


class TestEmpiricalGep:
    def test_all_errors_give_one(self):
        m = make_compound_bsc([0.5], [0.5, 0.5], 0.3)
        scen = make_scenario(m, 10, [(0, 0)])
        tallies = run_trials(scen, 200, 3)
        est = empirical_gep(with_errors(tallies, True), scen.alpha, 10)
        assert est.point == 1.0 and est.se == 0.0

    def test_weight_concentration(self):
        m = make_compound_bsc([0.05, 0.3], [0.5, 0.5], 0.2)
        alpha = WeightFunction(m, {(0, 1): 50.0})
        scen = make_scenario(m, 6, [(0, 0)])
        tallies = run_trials(scen, 200, 7)
        est = empirical_gep(tallies, alpha, 6)
        n0, e0 = est.per_g[(0, 0)]
        assert est.point == pytest.approx(e0 / n0, abs=1e-10)

    def test_unestimated_stratum_flagged(self):
        m = make_compound_bsc([0.05, 0.3], [0.5, 0.5], 0.2)
        scen = make_scenario(m, 6, [(0, 0)], g_set=[(0, 0)])
        tallies = run_trials(scen, 50, 7)
        assert list(tallies) == [(0, 0)]
        est = empirical_gep(tallies, scen.alpha, 6)
        assert est.unestimated == ((0, 1),)
        assert est.per_g == {(0, 0): tallies[(0, 0)][:2], (0, 1): [0, 0]}

    def test_exact_enumeration_fixture(self):
        # tiny system: exact error probability by enumerating codebooks,
        # messages and channel noise
        m = make_compound_bsc([0.2], [0.7, 0.3], math.log(2.0) / 2)
        N = 2
        alpha = WeightFunction.zero(m)
        region = validate_region(m, [(0, 0)])
        tbl = build_thresholds(m, [0], region, alpha, cache=ExponentCache())
        pm = m.input_pmf(0, 0)
        marg_pmf = np.array([[0.8, 0.2], [0.2, 0.8]])

        exact = 0.0
        words = list(itertools.product(range(2), repeat=N))
        for cw1 in words:
            p1 = np.prod([pm[x] for x in cw1])
            for cw2 in words:
                p2 = np.prod([pm[x] for x in cw2])
                # a one-trial realization of just this table
                table = np.array([[cw1, cw2]])
                cb = SimpleNamespace(table=lambda k, g, _t=table: _t)
                for w in (1, 2):
                    x = table[0, w - 1]
                    for y in words:
                        py = np.prod([marg_pmf[x[j], y[j]]
                                      for j in range(N)])
                        out = decode_subset(tbl, cb, np.array([y]))
                        (err,), _ = classify_error(
                            RELAXED, region, frozenset(), [(0, 0)], [(w,)],
                            out)
                        exact += p1 * p2 * 0.5 * py * err

        scen = make_scenario(m, N, region, g_set=[(0, 0)])
        tallies = run_trials(scen, 4000, 11)
        est = empirical_gep(tallies, alpha, N)  # the index space is {(0, 0)}
        assert abs(est.point - exact) <= 3 * max(est.se, 1e-3)

        # estimator consistency: quadrupling the trials roughly halves the
        # standard error and keeps the estimate within 3 sigma of exact;
        # the first 1000 trials are the same whatever the run's length
        small = empirical_gep(run_trials(scen, 1000, 11), alpha, N)
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
        tallies = run_trials(scen, 30, 1)
        est = empirical_gep(with_errors(tallies, False), scen.alpha, 6)
        assert compare_bound(est, self._bound(0.001, 6, scen.alpha)) is True

    def test_vacuous_bound_passes_everything(self):
        m = make_compound_bsc([0.5], [0.5, 0.5], 0.3)
        scen = make_scenario(m, 10, [(0, 0)])
        tallies = run_trials(scen, 100, 3)
        est = empirical_gep(with_errors(tallies, True), scen.alpha, 10)
        assert compare_bound(est, self._bound(1.0, 10, scen.alpha)) is True

    def test_mismatched_parameters_rejected(self):
        m = make_compound_bsc([0.05, 0.3], [0.5, 0.5], 0.2)
        scen = make_scenario(m, 6, [(0, 0)])
        tallies = run_trials(scen, 20, 1)
        est = empirical_gep(tallies, scen.alpha, 6)
        with pytest.raises(MismatchedParameters):
            compare_bound(est, self._bound(0.5, 7, scen.alpha))
        other = WeightFunction(m, {(0, 1): 0.3})
        with pytest.raises(MismatchedParameters):
            compare_bound(est, self._bound(0.5, 6, other))

    def test_simulation_within_bound(self):
        m = make_compound_bsc([0.05, 0.3], [0.5, 0.5], 0.2)
        scen = make_scenario(m, 12, [(0, 0)])
        tallies = run_trials(scen, 1500, 123)
        est = empirical_gep(tallies, scen.alpha, 12)
        bound = gep_bound_D(m, [0], [(0, 0)], scen.alpha, 12,
                            cache=ExponentCache())
        assert compare_bound(est, bound) is True


class TestComparePerG:
    """The detect verdict: every g with trials has a frequency within three
    binomial sigmas of its own bound; a g without trials is not judged."""

    TALLIES = {(0, 0): [100, 10], (0, 1): [0, 0], (0, 2): [4, 4]}

    def test_three_sigma_margin(self):
        # p = 0.1 over 100 trials: sigma = 0.03, so the bound must reach 0.01
        bounds = {(0, 0): 0.011, (0, 1): 0.0, (0, 2): 1.0}
        per_g, passed = compare_per_g(self.TALLIES, bounds)
        assert passed is True
        assert per_g == {(0, 0): (100, 10, 0.011, False),
                         (0, 1): (0, 0, 0.0, False),
                         (0, 2): (4, 4, 1.0, True)}
        _per_g, passed = compare_per_g(self.TALLIES, {**bounds, (0, 0): 0.009})
        assert passed is False

    def test_one_failing_g_fails_the_run(self):
        # p = 1 has sigma 0: any bound below 1 fails
        bounds = {(0, 0): 0.5, (0, 1): 0.0, (0, 2): 0.99}
        assert compare_per_g(self.TALLIES, bounds)[1] is False


# ---------------------------------------------------------------------------
# the codebook tables a trial draws
# ---------------------------------------------------------------------------

def reference_trials(scenario, trials, master_seed):
    """run_trials as a loop over trials with every table drawn: each trial
    draws its whole realization with sample_codebook, reads the
    transmitted codewords from the drawn tables, and is decoded and
    classified by the per-trial reference decoder.  The trials are folded
    into tallies g -> [trials, errors, decoded correctly, decoded wrongly],
    g in the order of their first trials."""
    model, N = scenario.model, scenario.N
    g_list, g_probs = _g_sampler(scenario, model)
    transmit = _channel_sampler(model)
    tables = {D: build_thresholds(model, D, reg, scenario.alpha,
                                  margin=margin, cache=ExponentCache())
              for D, reg, margin in receiver_parts(scenario)}
    detector = build_detector(model, scenario.detection, scenario.alpha) \
        if scenario.decoder == "detect" else None
    tallies = {}
    for t in range(trials):
        rng = stream((master_seed, t, 1))
        g = _draw_g(rng, g_list, g_probs)
        cb = sample_codebook(model, N, (master_seed, t, 0))
        w = tuple(int(rng.integers(1, cb.counts[(k, g[k])] + 1))
                  for k in range(model.K))
        x = np.empty((model.n_users, N), dtype=np.int64)
        for k in range(model.K):
            x[k] = cb.tables[(k, g[k])][0, w[k] - 1]
        for k in range(model.K, model.n_users):
            x[k] = sample_from_pmf(rng, model.input_pmf(k, g[k]), N)
        y = transmit(x, rng.random(N))
        out = reference_decode_receiver(tables, cb, y, detector)
        err = reference_classify_error(scenario.error_model, scenario.region,
                                       scenario.margin, g, w, out)
        correct = out.decoded and (out.w1, out.g1) == (w[0], g[0])
        tally = tallies.setdefault(g, [0, 0, 0, 0])
        for j, count in enumerate((1, err, correct,
                                   out.decoded and not correct)):
            tally[j] += int(count)
    return tallies


def _trial_scenarios():
    """name -> (scenario, reference seed, trials) of the shipped scenarios
    and the benchmark's simulate workloads."""
    out = {}
    for path in sorted(SCENARIOS.glob("*.json")):
        scen = load_scenario(path)
        out[path.stem] = (scen, scen.seed, 200)
    workloads = load_workloads()
    for name, spec in workloads.WORKLOADS.items():
        ref = spec["scenario"]
        scen = parse_scenario(workloads.generate(ref, ROOT)) \
            if ref in workloads.GENERATORS else load_scenario(ROOT / ref)
        out[name] = (scen, spec["ref_seed"], spec["sim_trials"])
    return out


TRIAL_SCENARIOS = _trial_scenarios()


def _readable(scenario, cells=None):
    """The (k, g_k) of every region member of every receiver part, for
    each k of its D: of the members inside ``cells`` only, if given."""
    return sorted({(k, g[k]) for D, region, _margin in receiver_parts(scenario)
                   for g in region if cells is None or g in cells
                   for k in D})


class TestTablesDrawn:
    """A trial draws only the codebook tables its decoder can read, derives
    each (trial, code) stream key once, and gives the tallies of drawing
    the whole realization."""

    @pytest.mark.parametrize("seed", ["ref", 3, 91])
    @pytest.mark.parametrize("name", sorted(TRIAL_SCENARIOS))
    def test_records_equal_the_eager_loop(self, name, seed):
        scen, ref_seed, trials = TRIAL_SCENARIOS[name]
        seed = ref_seed if seed == "ref" else seed
        tallies = run_trials(scen, trials, seed)
        assert tallies == reference_trials(scen, trials, seed)
        assert sum(n for n, *_ in tallies.values()) == trials

    @staticmethod
    def _spy(monkeypatch, scen, trials, seed):
        """(derived, keyed, drawn, cells): how often each (trial, code)
        stream key was derived, the (trial, code) streams a realization
        was re-keyed to, the codes whose table each trial drew, and the
        detected cell of each trial under detect-then-decode, in trial
        order."""
        derived, keyed, drawn, cells = Counter(), set(), {}, []
        path_of = {}
        derive = gepkit.montecarlo.philox_keys
        rekey = gepkit.ensemble.rekey
        table = gepkit.ensemble.CodebookRealization.table
        detect = gepkit.decoder.detect_region

        def spy_derive(master_seed, *path):
            keys = derive(master_seed, *path)
            for key, entropy in zip(keys.reshape(-1, 2).tolist(),
                                    key_paths(master_seed, *path)):
                path_of[tuple(key)] = entropy
                if len(entropy) == 5:  # (master_seed, t, 0, k, g_k)
                    derived[entropy[1], entropy[3:]] += 1
            return keys

        def spy_rekey(rng, key, block):
            _seed, t, _zero, *code = path_of[tuple(key)]
            keyed.add((t, tuple(code)))
            return rekey(rng, key, block)

        def spy_table(codebooks, k, g_k):
            # a table not yet drawn is drawn for each trial of the block
            if (k, g_k) not in codebooks.tables:
                j = list(codebooks.counts).index((k, g_k))
                for row in codebooks.keys:
                    _seed, t, _zero, *code = path_of[tuple(row[j])]
                    assert tuple(code) == (k, g_k)
                    drawn.setdefault(t, []).append((k, g_k))
            return table(codebooks, k, g_k)

        def spy_detect(detector, y):
            found = detect(detector, y)
            cells.extend(found.tolist())
            return found

        monkeypatch.setattr(gepkit.montecarlo, "philox_keys", spy_derive)
        monkeypatch.setattr(gepkit.ensemble, "rekey", spy_rekey)
        monkeypatch.setattr(gepkit.ensemble.CodebookRealization, "table",
                            spy_table)
        monkeypatch.setattr(gepkit.decoder, "detect_region", spy_detect)
        run_trials(scen, trials, seed)
        monkeypatch.undo()
        return derived, keyed, drawn, cells

    @staticmethod
    def _each_code_once(scen, trials, derived):
        codes = [(k, g_k) for k in range(scen.model.K)
                 for g_k in range(len(scen.model.libraries[k]))]
        assert derived == Counter(itertools.product(range(trials), codes))

    def test_detect_draws_only_the_detected_cells_tables(self, monkeypatch):
        scen, seed, trials = TRIAL_SCENARIOS["bigcode-detect"]
        assert (seed, trials) == (2020, 150)
        derived, _keyed, drawn, cells = self._spy(monkeypatch, scen, trials,
                                                  seed)
        assert len(cells) == trials
        self._each_code_once(scen, trials, derived)
        nothing = 0
        for t, cell in enumerate(cells):
            want = _readable(scen, scen.detection[cell])
            assert sorted(drawn.get(t, [])) == want
            nothing += not want
        assert nothing == 71

    @pytest.mark.parametrize("name", ["bsc_compound_sec4",
                                      "compound_bsc_relaxed",
                                      "mac2-partition"])
    def test_plain_and_margin_draw_the_receiver_set(self, monkeypatch,
                                                    name):
        scen, seed, trials = TRIAL_SCENARIOS[name]
        derived, keyed, drawn, cells = self._spy(monkeypatch, scen, trials,
                                                 seed)
        assert not cells
        self._each_code_once(scen, trials, derived)
        want = _readable(scen)
        assert all(sorted(drawn[t]) == want for t in range(trials))
        if name == "mac2-partition":
            # no region member uses user 1's second code, whose stream
            # only transmitted codewords are read from
            assert (1, 1) not in want and (1, 1) in {
                code for _t, code in keyed}


class _SpyBitGenerator:
    """A Philox bit generator that logs "state" for each state write,
    "advance" for each advance and "random_raw" for each raw read."""

    def __init__(self, bit_generator, log):
        self._bits, self._log = bit_generator, log

    @property
    def state(self):
        return self._bits.state

    @state.setter
    def state(self, value):
        self._log.append("state")
        self._bits.state = value

    def advance(self, delta):
        self._log.append("advance")
        return self._bits.advance(delta)

    def random_raw(self, size):
        self._log.append("random_raw")
        return self._bits.random_raw(size)


class _SpyGenerator:
    """A Philox generator that logs the name of every method called on it,
    and its bit generator's state writes and advances."""

    def __init__(self, log):
        self._gen, self._log = np.random.Generator(np.random.Philox()), log
        self.bit_generator = _SpyBitGenerator(self._gen.bit_generator, log)

    def __getattr__(self, name):
        self._log.append(name)
        return getattr(self._gen, name)


class TestStreamReads:
    """A (trial, code) stream read writes the code generator's state once
    and draws once, with no advance; a codeword of a code whose table is
    drawn reads no stream.  Under the plain and margin decoders exactly
    the tables the decoder reads are drawn, before any codeword."""

    @pytest.mark.parametrize("name", ["bsc_compound_sec4", "mac2-partition",
                                      "bigcode-detect"])
    def test_one_state_write_and_one_draw_per_read(self, monkeypatch, name):
        scen, seed, _trials = TRIAL_SCENARIOS[name]
        log, drawn_rows, read_rows, codewords = [], [], [], []
        realization = gepkit.montecarlo.CodebookRealization
        table = realization.table
        codeword = realization.codeword

        def spy_realization(model, N, keys, _rng):
            return realization(model, N, keys, _SpyGenerator(log))

        def spy_table(codebooks, k, g_k):
            if (k, g_k) not in codebooks.tables:
                drawn_rows.append(len(codebooks))
            return table(codebooks, k, g_k)

        def spy_codeword(codebooks, k, g_k, w):
            drawn, before = (k, g_k) in codebooks.tables, len(log)
            out = codeword(codebooks, k, g_k, w)
            codewords.append(((k, g_k), drawn))
            assert len(log) - before == (0 if drawn else 2 * len(w))
            read_rows.append(0 if drawn else len(w))
            return out

        monkeypatch.setattr(gepkit.montecarlo, "CodebookRealization",
                            spy_realization)
        monkeypatch.setattr(realization, "table", spy_table)
        monkeypatch.setattr(realization, "codeword", spy_codeword)
        run_trials(scen, 40, seed)
        reads = sum(drawn_rows) + sum(read_rows)
        assert reads and log == ["state", "random"] * reads
        if scen.decoder != "detect":
            read = _readable(scen)
            assert sum(drawn_rows) == 40 * len(read)
            assert all(drawn == (code in read) for code, drawn in codewords)
            assert any(drawn for _code, drawn in codewords)


class TestDecodingBlocks:
    """Blocked decoding trials give the per-trial loop's tallies whatever
    the block size: one trial per block, 7 per block, and the default.
    detect_two_bsc runs detect-then-decode."""

    @pytest.mark.parametrize("name, decoder", [
        ("bsc_compound_sec4", "margin"), ("compound_bsc_relaxed", "plain"),
        ("detect_two_bsc", "detect"), ("mac2-partition", "plain")])
    def test_block_sizes(self, monkeypatch, name, decoder):
        scen, seed, _trials = TRIAL_SCENARIOS[name]
        scen = copy.copy(scen)
        scen.decoder = decoder
        default = gepkit.montecarlo.BLOCK_BYTES
        per_default = default // _decode_block_bytes(scen, 1)
        assert per_default > 7
        trials = 2 * per_default + 3
        original = gepkit.montecarlo.decode_receiver
        runs = []
        for per_block in (1, 7, per_default):
            sizes = []

            def spied(tables, codebooks, y, detector=None, _sizes=sizes):
                _sizes.append(len(y))
                return original(tables, codebooks, y, detector)

            monkeypatch.setattr(gepkit.montecarlo, "BLOCK_BYTES",
                                default if per_block == per_default
                                else _decode_block_bytes(scen, per_block))
            monkeypatch.setattr(gepkit.montecarlo, "decode_receiver", spied)
            runs.append(run_trials(scen, trials, seed))
            assert sizes == [min(per_block, trials - start)
                             for start in range(0, trials, per_block)]
        assert runs[0] == runs[1] == runs[2] == \
            reference_trials(scen, trials, seed)

    @staticmethod
    def _random_scenario(seed, K, decoder, g_sampling):
        """A random model with K regular users and an interferer, random
        alpha > 0, a random region, and the decoder's receiver: the margin
        decoder with a random margin, or a plain partition (D = (0,) and
        D = (0, 1) when K = 2), with a random 2-cell detector under
        "detect".  Every in-region vector has few candidates."""
        rng = np.random.default_rng(seed)
        while True:
            model = random_model(rng, max_users=3)
            N = int(rng.integers(2, 6))
            space = list(model.index_space())
            if model.K != K or model.M < 1 or len(space) < 3:
                continue
            order = [space[i] for i in rng.permutation(len(space))]
            cut = int(rng.integers(1, len(space)))
            region = order[:cut]
            grid = sum(math.prod(message_count(model.rate(k, g[k]), N)
                                 for k in range(K)) for g in region)
            if grid <= 24:
                break
        alpha = random_alpha(rng, model, hi=0.2)
        if decoder == "margin":
            rest = order[cut:]
            scen = make_scenario(model, N, region, decoder="margin",
                                 margin=rest[:int(rng.integers(len(rest)))],
                                 error_model=MARGIN)
        else:
            half = int(rng.integers(0, len(region) + 1)) if K == 2 \
                else len(region)
            scen = make_scenario(
                model, N, region, decoder=decoder,
                error_model=[RELAXED, STRICT][int(rng.integers(2))],
                partition=validate_partition(
                    model, {(0,): region[:half],
                            tuple(range(K)): region[half:]}
                    if K == 2 else {(0,): region}, region))
        if decoder == "detect":
            side = rng.permutation(len(space)) < rng.integers(1, len(space))
            scen.detection = [[g for g, s in zip(space, side) if s],
                              [g for g, s in zip(space, side) if not s]]
        scen.alpha = alpha
        scen.g_sampling = g_sampling
        return scen

    @pytest.mark.parametrize("g_sampling", ["uniform", "alpha_prior"])
    @pytest.mark.parametrize("decoder", ["plain", "margin", "detect"])
    @pytest.mark.parametrize("K", [1, 2])
    def test_random_models(self, monkeypatch, K, decoder, g_sampling):
        """Random models with an interferer and alpha > 0: the tallies at
        1, 7 and the default number of trials per block equal the fold of
        the per-trial loop."""
        seed = 10 * K + len(decoder) + len(g_sampling)
        scen = self._random_scenario(seed, K, decoder, g_sampling)
        assert scen.model.M >= 1 and np.any(scen.alpha.array > 0)
        trials = 40
        default = gepkit.montecarlo.BLOCK_BYTES
        assert default // _decode_block_bytes(scen, 1) >= trials
        original = gepkit.montecarlo.decode_receiver
        with small_search(8, 0):
            want = reference_trials(scen, trials, seed)
            for per_block in (1, 7, trials):
                sizes = []

                def spied(tables, codebooks, y, detector=None,
                          _sizes=sizes):
                    _sizes.append(len(y))
                    return original(tables, codebooks, y, detector)

                monkeypatch.setattr(gepkit.montecarlo, "BLOCK_BYTES",
                                    default if per_block == trials
                                    else _decode_block_bytes(scen,
                                                             per_block))
                monkeypatch.setattr(gepkit.montecarlo, "decode_receiver",
                                    spied)
                assert run_trials(scen, trials, seed) == want
                assert sizes == [min(per_block, trials - start)
                                 for start in range(0, trials, per_block)]
        assert sum(n for n, *_ in want.values()) == trials


# ---------------------------------------------------------------------------
# region-detection trials in blocks
# ---------------------------------------------------------------------------

def reference_detection_trials(scenario, trials, master_seed):
    """run_detection_trials as a loop over trials: each trial inverts its
    users' inputs and the channel one uniform row at a time, and scores
    every code index vector on its own output.  Returns the per-g tallies
    g -> [trials, errors]."""
    model = scenario.model
    N = scenario.N
    alpha = scenario.alpha
    g_list, g_probs = _g_sampler(scenario, model)
    cum = np.cumsum(model.dmc.pmf.reshape(-1, model.dmc.output_size), axis=1)
    cum[:, -1] = 1.0
    cleaned = check_detection_partition(model, scenario.detection)
    cell_of = {g: next(i for i, r in enumerate(cleaned) if g in r)
               for g in model.index_space()}
    hyps = []
    for g in model.index_space():
        with np.errstate(divide="ignore"):
            hyps.append((g, np.log(output_marginal(model, g)), alpha(g)))
    tallies = {g: [0, 0] for g in g_list}
    for t in range(trials):
        rng = stream((master_seed, t, 2))
        g = _draw_g(rng, g_list, g_probs)
        x = np.empty((model.n_users, N), dtype=np.int64)
        for k in range(model.n_users):
            cum_k = np.cumsum(model.input_pmf(k, g[k]))
            cum_k[-1] = 1.0
            x[k] = np.searchsorted(cum_k, rng.random(N), side="right")
        flat = flatten_symbols(model, range(model.n_users), x)
        u = rng.random(N)
        y = (cum[flat] <= u[:, None]).sum(axis=1)
        best, best_score = None, -math.inf
        for h, lp, a in hyps:
            score = float(lp[y].sum() - N * a)
            if score > best_score:
                best, best_score = h, score
        tallies[g][0] += 1
        tallies[g][1] += int(cell_of[best] != cell_of[g])
    return tallies


def _detect_scenario(model, N, detection, alpha=None, g_sampling="uniform"):
    return SimpleNamespace(model=model, N=N, detection=detection,
                           alpha=alpha or WeightFunction.zero(model),
                           g_sampling=g_sampling, g_set=None)


def _random_detect_scenario(seed):
    """A random model with 1 or 2 regular users, an interferer, random
    alpha > 0 and a random 2-cell detection partition."""
    rng = np.random.default_rng(seed)
    while True:
        model = random_model(rng, max_users=3)
        space = list(model.index_space())
        if model.M > 0 and len(space) >= 2:
            break
    side = rng.permutation(len(space)) < rng.integers(1, len(space))
    detection = [[g for g, s in zip(space, side) if s],
                 [g for g, s in zip(space, side) if not s]]
    return _detect_scenario(model, int(rng.integers(4, 12)), detection,
                            random_alpha(rng, model, hi=0.2))


def _block_bytes(scenario, per_block):
    """BLOCK_BYTES that makes blocks of ``per_block`` detection trials,
    each counting its uniforms and detection scores."""
    model = scenario.model
    return per_block * 8 * (model.n_users + 1 + model.space_size) * scenario.N


def _workload_detect_scenarios():
    workloads = load_workloads()
    out = {"detect_two_bsc": SCENARIOS / "detect_two_bsc.json"}
    for name, spec in workloads.WORKLOADS.items():
        out[name] = spec["detect_scenario"]
    return out


class TestDetectionBlocks:
    """Blocked detection trials give the per-trial loop's tallies exactly,
    whatever the block size, and hold at most BLOCK_BYTES per
    block array."""

    @pytest.mark.parametrize("name", sorted(_workload_detect_scenarios()))
    def test_shipped_and_workload_scenarios(self, name, tmp_path):
        ref = _workload_detect_scenarios()[name]
        path = ref if isinstance(ref, Path) else \
            load_workloads().scenario_path(ref, ROOT, tmp_path)
        scen = load_scenario(path)
        assert scen.detection
        assert run_detection_trials(scen, 700, 31) == \
            reference_detection_trials(scen, 700, 31)

    @pytest.mark.parametrize("seed", range(6))
    def test_random_models_with_interferers_and_alpha(self, seed):
        scen = _random_detect_scenario(seed)
        assert np.any(scen.alpha.array > 0)
        got = run_detection_trials(scen, 150, seed)
        assert got == reference_detection_trials(scen, 150, seed)

    def test_alpha_prior_sampling(self):
        m = make_compound_bsc([0.05, 0.2, 0.3], [0.6, 0.4], 0.2)
        alpha = WeightFunction(m, {(0, 1): 0.05, (0, 2): 0.1})
        scen = _detect_scenario(m, 10, [[(0, 0)], [(0, 1), (0, 2)]], alpha,
                                g_sampling="alpha_prior")
        got = run_detection_trials(scen, 300, 5)
        assert got == reference_detection_trials(scen, 300, 5)
        assert len({n for n, _e in got.values()}) == 3

    @pytest.mark.parametrize("per_block", [1, 7, None])
    @pytest.mark.parametrize("seed", [0, 3])
    def test_block_sizes(self, monkeypatch, per_block, seed):
        scen = _random_detect_scenario(seed)
        trials = 45
        per_block = per_block or trials
        monkeypatch.setattr(gepkit.montecarlo, "BLOCK_BYTES",
                            _block_bytes(scen, per_block))
        sizes = []
        original = gepkit.montecarlo.detect_region

        def spied(detector, y):
            sizes.append(len(y))
            return original(detector, y)

        monkeypatch.setattr(gepkit.montecarlo, "detect_region", spied)
        got = run_detection_trials(scen, trials, seed)
        assert sizes == [min(per_block, trials - start)
                         for start in range(0, trials, per_block)]
        assert got == reference_detection_trials(scen, trials, seed)

    def test_draws_are_the_successive_row_draws(self):
        m = make_compound_bsc([0.05, 0.2, 0.3], [0.6, 0.4], 0.2)
        scen = _detect_scenario(m, 13, [[(0, 0)], [(0, 1), (0, 2)]],
                                WeightFunction(m, {(0, 2): 0.1}))
        for rule in ("uniform", "alpha_prior"):
            scen.g_sampling = rule
            g_list, g_probs = _g_sampler(scen, m)
            for t in range(20):
                a, b, c = (stream((4, t, 2)) for _ in range(3))
                assert isinstance(a.bit_generator, np.random.Philox)
                g = _draw_g(a, g_list, g_probs)
                assert _draw_g(b, g_list, g_probs) == g
                assert _draw_g(c, g_list, g_probs) == g
                block = a.random((m.n_users + 1, scen.N))
                rows = np.array([b.random(scen.N)
                                 for _ in range(m.n_users + 1)])
                into = np.empty_like(block)
                c.random(out=into)
                assert block.tobytes() == rows.tobytes() == into.tobytes()
                assert a.random() == b.random() == c.random()

    def test_one_stream_per_trial_in_order(self, monkeypatch):
        """Each trial's key is derived once, in trial order, with the
        other keys of its read chunk: whole blocks of 4 trials, as a
        KEY_CHUNK of 3 trials holds no whole block; and the trial
        generator is re-keyed to each."""
        scen = _random_detect_scenario(2)
        monkeypatch.setattr(gepkit.montecarlo, "BLOCK_BYTES",
                            _block_bytes(scen, 4))
        chunk = 4
        monkeypatch.setattr(gepkit.montecarlo, "KEY_CHUNK", 3)
        derived, path_of, keyed = [], {}, []
        derive = gepkit.montecarlo.philox_keys
        rekey = gepkit.montecarlo.rekey

        def spy_derive(master_seed, *path):
            keys = derive(master_seed, *path)
            entropy = key_paths(master_seed, *path)
            derived.append(entropy)
            path_of.update(zip(map(tuple, keys.tolist()), entropy))
            return keys

        def spy_rekey(rng, key, block):
            keyed.append(path_of[tuple(key)])
            return rekey(rng, key, block)

        monkeypatch.setattr(gepkit.montecarlo, "philox_keys", spy_derive)
        monkeypatch.setattr(gepkit.montecarlo, "rekey", spy_rekey)
        run_detection_trials(scen, 11, 8)
        want = [(8, t, 2) for t in range(11)]
        assert derived == [want[i:i + chunk] for i in range(0, 11, chunk)]
        assert keyed == want

    def test_zero_trials_refused(self):
        scen = _random_detect_scenario(0)
        for trials in (0, -3):
            with pytest.raises(ShapeMismatch):
                run_detection_trials(scen, trials, 1)

    @pytest.mark.parametrize("N", [None, 40000])
    def test_block_arrays_stay_within_budget(self, monkeypatch, N):
        # N = None: one trial's uniforms and detection scores fill the
        # budget, so each block holds one trial and every block array fits
        # the budget; at N = 40000 one trial alone takes more, and a block
        # holds just that trial
        scen = load_scenario(SCENARIOS / "detect_two_bsc.json")
        one = 8 * (scen.model.n_users + 1 + scen.model.space_size)
        budget = gepkit.montecarlo.BLOCK_BYTES
        scen.N = N or budget // one
        limit = max(budget, one * scen.N)
        seen = []

        def watch(*arrays):
            for a in arrays:
                seen.append(a.nbytes)
                if a.base is not None:
                    seen.append(a.base.nbytes)

        inverse_cdf = gepkit.montecarlo._inverse_cdf
        channel_sampler = gepkit.montecarlo._channel_sampler
        detect = gepkit.montecarlo.detect_region

        def spied_inverse_cdf(pmf, u, dtype):
            out = inverse_cdf(pmf, u, dtype)
            watch(u, out)
            return out

        def spied_channel_sampler(model):
            transmit = channel_sampler(model)

            def spied_transmit(x, u):
                y = transmit(x, u)
                watch(x, u, y)
                return y

            return spied_transmit

        def spied_detect(detector, y):
            watch(y)
            return detect(detector, y)

        monkeypatch.setattr(gepkit.montecarlo, "_inverse_cdf",
                            spied_inverse_cdf)
        monkeypatch.setattr(gepkit.montecarlo, "_channel_sampler",
                            spied_channel_sampler)
        monkeypatch.setattr(gepkit.montecarlo, "detect_region", spied_detect)
        tallies = run_detection_trials(scen, 300, 2)
        assert sum(n for n, _e in tallies.values()) == 300
        assert seen and max(seen) <= limit
        assert (limit == budget) == (N is None)


class TestBlockTraffic:
    """At the default BLOCK_BYTES, the decoding and detection trials per
    block on each workload, the traffic the constant was chosen for."""

    @pytest.mark.parametrize("name, decoding, detection", [
        ("sec4-margin", 117, 1170), ("mac2-partition", 71, 1560),
        ("bigcode-detect", 1, 655)])
    def test_trials_per_block(self, monkeypatch, tmp_path, name, decoding,
                              detection):
        workloads = load_workloads()
        spec = workloads.WORKLOADS[name]
        scen, detect_scen = (
            load_scenario(workloads.scenario_path(spec[key], ROOT, tmp_path))
            for key in ("scenario", "detect_scenario"))
        sizes = []
        decode, detect = gepkit.montecarlo.decode_receiver, \
            gepkit.montecarlo.detect_region

        def spy_decode(tables, codebooks, y, detector=None):
            sizes.append(len(y))
            return decode(tables, codebooks, y, detector)

        def spy_detect(detector, y):
            sizes.append(len(y))
            return detect(detector, y)

        monkeypatch.setattr(gepkit.montecarlo, "decode_receiver", spy_decode)
        run_trials(scen, decoding + 1, 1)
        monkeypatch.setattr(gepkit.montecarlo, "detect_region", spy_detect)
        run_detection_trials(detect_scen, detection + 1, 1)
        assert sizes == [decoding, 1, detection, 1]


class TestMultiWordSeed:
    """At a master seed of two 32-bit words, simulate's and detect's
    tallies equal those of the stream()-based per-trial references."""

    SEED = 5000000000

    @pytest.mark.parametrize("name", ["compound_bsc_relaxed",
                                      "detect_two_bsc"])
    def test_simulate(self, name, tmp_path):
        path = SCENARIOS / f"{name}.json"
        scen = load_scenario(path)
        tallies = reference_trials(scen, 200, self.SEED)
        want = empirical_gep(tallies, scen.alpha, scen.N).per_g
        assert main(["simulate", "--scenario", str(path), "--trials", "200",
                     "--seed", str(self.SEED), "--out", str(tmp_path)]) \
            in (0, 1)
        with open(tmp_path / "trials.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert {row["g"]: [int(row["trials"]), int(row["errors"])]
                for row in rows} == \
            {" ".join(map(str, g)): n_e for g, n_e in want.items()}

    def test_detect(self, tmp_path):
        path = SCENARIOS / "detect_two_bsc.json"
        want = reference_detection_trials(load_scenario(path), 700,
                                          self.SEED)
        assert main(["detect", "--scenario", str(path), "--trials", "700",
                     "--seed", str(self.SEED), "--out", str(tmp_path)]) \
            in (0, 1)
        per_g = json.loads(
            (tmp_path / "detect_summary.json").read_text())["per_g"]
        assert {g: [v["trials"], v["errors"]] for g, v in per_g.items()} \
            == {" ".join(map(str, g)): n_e for g, n_e in want.items()}


def _lemire_rejects(h, n):
    """Whether numpy's bounded draw over n > 1 values rejects the 32-bit
    half h (Lemire's threshold)."""
    return n > 1 and (h * n) % 2**32 < (2**32 - n) % n


class TestOwnStreamReader:
    """_read_own_streams gives each trial the g, messages and uniforms of
    _draw_g, integers(1, M + 1) and random on its own stream, re-reads the
    trials its predicate names through those calls, and reads each stream
    with one state write and one random_raw."""

    # 3 * 2^24 makes numpy reject 1 half in 256
    COUNTS = [1, 2, 2**5, 2**17, 2**25, 3 * 2**24]

    @staticmethod
    def _numpy_calls(master_seed, trials, purpose, g_list, g_probs, bounds,
                     n_uniform):
        """Per trial t, (g index, messages, uniforms) drawn by the numpy
        calls on stream(master_seed, t, purpose); and a count that is
        nonzero iff numpy rejected a half in some trial: the halves are
        checked where they lie without redraws, so a trial's first
        rejection is always seen and only zero against nonzero counts."""
        out, rejected = [], 0
        for t in range(trials):
            rng = stream(master_seed, t, purpose)
            state = copy.deepcopy(rng.bit_generator.state)
            idx = g_list.index(_draw_g(rng, g_list, g_probs))
            w = [int(rng.integers(1, M + 1)) for M in bounds[idx].tolist()]
            out.append((idx, w, rng.random(n_uniform).tobytes()))
            rng.bit_generator.state = state
            raw = rng.bit_generator.random_raw(8).tolist()
            halves = [x >> 32 * i & 0xFFFFFFFF for x in raw for i in (0, 1)]
            first = [] if g_probs is not None else [len(g_list)]
            n = first + bounds[idx].tolist()
            at = 2 * (g_probs is not None)
            for bound in n:
                if bound > 1:
                    rejected += _lemire_rejects(halves[at], bound)
                    at += 1
        return out, rejected

    @pytest.mark.parametrize("rule", ["uniform", "alpha_prior"])
    def test_draws_equal_the_numpy_calls(self, rule):
        rng = np.random.default_rng(31 + len(rule))
        rejected = 0
        for case in range(40):
            master_seed = int(rng.integers(0, 2**40))
            G, coded = int(rng.integers(1, 65)), int(rng.integers(0, 4))
            g_list = [(i,) for i in range(G)]
            # probabilities with zeros, whose float sum need not be 1
            g_probs = None if rule == "uniform" else \
                rng.dirichlet(np.ones(G)) * (rng.random(G) < 0.8)
            if g_probs is not None:
                g_probs = g_probs / g_probs.sum() if g_probs.any() else \
                    np.eye(G)[-1]
            bounds = np.array(self.COUNTS, dtype=np.uint64)[
                rng.integers(0, len(self.COUNTS), (G, coded))]
            n_uniform, trials = int(rng.integers(1, 40)), 128
            purpose = int(rng.integers(0, 3))
            keys = philox_keys(master_seed, np.arange(trials),
                               purpose).tolist()
            idx, w, u = _read_own_streams(
                np.random.Generator(np.random.Philox()), keys, g_list,
                g_probs, bounds, n_uniform)
            want, n_rejected = self._numpy_calls(
                master_seed, trials, purpose, g_list, g_probs, bounds,
                n_uniform)
            rejected += n_rejected
            assert u.shape == (trials, n_uniform) and u.dtype == np.float64
            got = [(i, list(wi), ui.tobytes())
                   for i, wi, ui in zip(idx.tolist(), w.tolist(), u)]
            assert got == want, (case, master_seed, G, bounds.tolist())
        # the cases reach numpy's rejection, so the re-read path runs
        assert rejected > 0

    @staticmethod
    def _routed(monkeypatch, every):
        """Send every ``every``-th trial of each chunk to the re-read path;
        return the list that counts its _draw_g calls."""
        rereads = []
        draw_g = gepkit.montecarlo._draw_g

        def spy_draw_g(rng, g_list, g_probs):
            rereads.append(1)
            return draw_g(rng, g_list, g_probs)

        monkeypatch.setattr(gepkit.montecarlo, "_draw_g", spy_draw_g)
        monkeypatch.setattr(gepkit.montecarlo, "_may_redraw", lambda m, n: (
            np.arange(len(m)) % every == 0)[:, None])
        return rereads

    @pytest.mark.parametrize("every", [1, 2])
    @pytest.mark.parametrize("name", sorted(TRIAL_SCENARIOS))
    def test_rereads_give_the_reference_tallies(self, monkeypatch, name,
                                                 every):
        scen, seed, _trials = TRIAL_SCENARIOS[name]
        trials = 60
        want = reference_trials(scen, trials, seed)
        rereads = self._routed(monkeypatch, every)
        assert run_trials(scen, trials, seed) == want
        assert len(rereads) == len(range(0, trials, every))

    @pytest.mark.parametrize("every", [1, 2])
    @pytest.mark.parametrize("name", sorted(_workload_detect_scenarios()))
    def test_detection_rereads_give_the_reference_tallies(
            self, monkeypatch, tmp_path, name, every):
        ref = _workload_detect_scenarios()[name]
        path = ref if isinstance(ref, Path) else \
            load_workloads().scenario_path(ref, ROOT, tmp_path)
        scen = load_scenario(path)
        want = reference_detection_trials(scen, 300, 17)
        rereads = self._routed(monkeypatch, every)
        assert run_detection_trials(scen, 300, 17) == want
        assert len(rereads) == len(range(0, 300, every))

    @pytest.mark.parametrize("name, decoding, detection", [
        ("sec4-margin", 468, 1170), ("mac2-partition", 497, 1560),
        ("bigcode-detect", 512, 655)])
    def test_chunks_are_whole_blocks(self, monkeypatch, tmp_path, name,
                                     decoding, detection):
        """A chunk is as many whole blocks (TestBlockTraffic) as KEY_CHUNK
        trials hold, at least one."""
        workloads = load_workloads()
        spec = workloads.WORKLOADS[name]
        scen, detect_scen = (
            load_scenario(workloads.scenario_path(spec[key], ROOT, tmp_path))
            for key in ("scenario", "detect_scenario"))
        chunks = []
        read = gepkit.montecarlo._read_own_streams

        def spied(rng, keys, *args):
            chunks.append(len(keys))
            return read(rng, keys, *args)

        monkeypatch.setattr(gepkit.montecarlo, "_read_own_streams", spied)
        run_trials(scen, decoding + 1, 1)
        run_detection_trials(detect_scen, detection + 1, 1)
        assert chunks == [decoding, 1, detection, 1]

    @pytest.mark.parametrize("name, decoding, trials", [
        ("sec4-margin", True, 468), ("sec4-margin", False, 1170),
        ("mac2-partition", False, 1560)])
    def test_uniforms_are_not_copied_whole(self, monkeypatch, tmp_path, name,
                                           decoding, trials):
        """Converting a chunk's words to uniforms in place copies no more
        than a bounded slice: the read's peak stays below its words plus
        a second copy of its uniforms (numpy copies an operand that
        overlaps its output)."""
        workloads = load_workloads()
        spec = workloads.WORKLOADS[name]
        scen = load_scenario(workloads.scenario_path(
            spec["scenario" if decoding else "detect_scenario"], ROOT,
            tmp_path))
        reads = []
        read = gepkit.montecarlo._read_own_streams

        def measured(rng, keys, g_list, g_probs, bounds, n_uniform):
            tracemalloc.start()
            try:
                idx, w, u = read(rng, keys, g_list, g_probs, bounds,
                                 n_uniform)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            words = n_uniform + 1 + (bounds.shape[1] + 1) // 2
            reads.append((len(keys), peak, len(keys) * words * 8, u.nbytes))
            return idx, w, u

        monkeypatch.setattr(gepkit.montecarlo, "_read_own_streams", measured)
        (run_trials if decoding else run_detection_trials)(scen, trials, 1)
        (chunk, peak, words, uniforms), = reads
        assert chunk == trials
        assert peak < words + uniforms

    @pytest.mark.parametrize("decoding", [True, False])
    def test_one_state_write_and_one_raw_read_per_trial(self, monkeypatch,
                                                        tmp_path, decoding):
        scen, seed, _trials = TRIAL_SCENARIOS["mac2-partition"]
        if not decoding:
            scen = load_scenario(load_workloads().scenario_path(
                "mac2-partition", ROOT, tmp_path))
        log = []
        spies = [_SpyGenerator(log)]
        real = np.random.Generator
        monkeypatch.setattr(np.random, "Generator", lambda bits: spies.pop()
                            if spies else real(bits))
        # several blocks and chunks
        monkeypatch.setattr(gepkit.montecarlo, "BLOCK_BYTES",
                            _decode_block_bytes(scen, 5) if decoding
                            else _block_bytes(scen, 5))
        monkeypatch.setattr(gepkit.montecarlo, "KEY_CHUNK", 12)
        run = run_trials if decoding else run_detection_trials
        tallies = run(scen, 37, seed)
        assert sum(n for n, *_ in tallies.values()) == 37
        assert not spies and log == ["state", "random_raw"] * 37
