import ast
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
import gepkit.ensemble
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
from gepkit.channel import output_marginal
from gepkit.ensemble import (flatten_symbols, sample_codebook,
                             sample_from_pmf, stream)
from gepkit.errors import MismatchedParameters, ShapeMismatch
from gepkit.exponents import (
    BoundReport,
    ExponentCache,
    WeightFunction,
    check_detection_partition,
    detection_bound,
    gep_bound_D,
    is_vacuous,
    validate_partition,
    validate_region,
)
from gepkit.montecarlo import (
    MARGIN,
    RELAXED,
    STRICT,
    DetectionResult,
    TrialRecord,
    _channel_sampler,
    _draw_g,
    _g_sampler,
    _prepare_decoder,
    classify_error,
    compare_bound,
    empirical_gep,
    receiver_parts,
    run_detection_trials,
    run_trials,
)
from gepkit.scenario import load_scenario, parse_scenario

from conftest import (ROOT, load_perfbench, load_workloads, random_alpha,
                      random_model)

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"


def decoded(w1, g1):
    return DecodeOutcome(kind="decoded", w1=w1, g1=g1)


COLLIDE = DecodeOutcome(kind="collision")


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

    def test_trial_runner_calls_the_traced_names(self):
        assert gepkit.montecarlo.build_thresholds is \
            gepkit.decoder.build_thresholds
        params = inspect.signature(
            gepkit.montecarlo.decode_receiver).parameters
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
                cb.table = lambda k, g, _c=cb: _c.tables[(k, g)]
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


# ---------------------------------------------------------------------------
# the codebook tables a trial draws
# ---------------------------------------------------------------------------

def reference_trials(scenario, trials, master_seed):
    """run_trials' loop with every table drawn: each trial draws its whole
    realization with sample_codebook and reads the transmitted codewords
    from the drawn tables."""
    model, N = scenario.model, scenario.N
    g_list, g_probs = _g_sampler(scenario, model)
    transmit = _channel_sampler(model)
    run_decoder = _prepare_decoder(scenario, model)
    records = []
    for t in range(trials):
        rng = stream((master_seed, t, 1))
        g = _draw_g(rng, g_list, g_probs)
        cb = sample_codebook(model, N, (master_seed, t, 0))
        w = tuple(int(rng.integers(1, cb.counts[(k, g[k])] + 1))
                  for k in range(model.K))
        x = np.empty((model.n_users, N), dtype=np.int64)
        for k in range(model.K):
            x[k] = cb.tables[(k, g[k])][w[k] - 1]
        for k in range(model.K, model.n_users):
            x[k] = sample_from_pmf(rng, model.input_pmf(k, g[k]), N)
        out = run_decoder(cb, transmit(x, rng.random(N)), (w, g))
        err = classify_error(scenario.error_model, scenario.region,
                             scenario.margin, g, w, out)
        records.append(TrialRecord(trial=t, g=g, w=w, kind=out.kind,
                                   w1=out.w1, g1=out.g1, error=err))
    return records


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
    """A trial draws only the codebook tables its decoder can read, builds
    each (trial, code) stream once, and gives the records of drawing the
    whole realization."""

    @pytest.mark.parametrize("seed", ["ref", 3, 91])
    @pytest.mark.parametrize("name", sorted(TRIAL_SCENARIOS))
    def test_records_equal_the_eager_loop(self, name, seed):
        scen, ref_seed, trials = TRIAL_SCENARIOS[name]
        seed = ref_seed if seed == "ref" else seed
        assert run_trials(scen, trials, seed) == \
            reference_trials(scen, trials, seed)

    @staticmethod
    def _spy(monkeypatch, scen, trials, seed):
        """(built, drawn, cells): how often each (trial, code) stream was
        built, the codes whose table each trial drew, and the detected
        cell of each trial under detect-then-decode."""
        built, drawn, cells, owner = Counter(), {}, [], {}
        make_stream = gepkit.ensemble.stream
        draw_table = gepkit.ensemble.draw_table
        decode = gepkit.montecarlo.decode_with_detection

        def spy_stream(master_seed, *path):
            rng = make_stream(master_seed, *path)
            owner[id(rng)] = (rng, master_seed[1], path)  # keeps rng alive
            built[master_seed[1], path] += 1
            return rng

        def spy_draw(rng, *args):
            _rng, t, code = owner[id(rng)]
            drawn.setdefault(t, []).append(code)
            return draw_table(rng, *args)

        def spy_decode(*args, **kwargs):
            out = decode(*args, **kwargs)
            cells.append(out.diagnostics["detected_region"])
            return out

        monkeypatch.setattr(gepkit.ensemble, "stream", spy_stream)
        monkeypatch.setattr(gepkit.ensemble, "draw_table", spy_draw)
        monkeypatch.setattr(gepkit.montecarlo, "decode_with_detection",
                            spy_decode)
        run_trials(scen, trials, seed)
        monkeypatch.undo()
        return built, drawn, cells

    def test_detect_draws_only_the_detected_cells_tables(self, monkeypatch):
        scen, seed, trials = TRIAL_SCENARIOS["bigcode-detect"]
        assert (seed, trials) == (2020, 150)
        built, drawn, cells = self._spy(monkeypatch, scen, trials, seed)
        assert len(cells) == trials
        assert max(built.values()) == 1
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
        built, drawn, cells = self._spy(monkeypatch, scen, trials, seed)
        assert not cells
        assert max(built.values()) == 1
        want = _readable(scen)
        assert all(sorted(drawn[t]) == want for t in range(trials))
        if name == "mac2-partition":
            # no region member uses user 1's second code
            assert (1, 1) not in want and (1, 1) in {
                code for _t, code in built}


# ---------------------------------------------------------------------------
# region-detection trials in blocks
# ---------------------------------------------------------------------------

def reference_detection_trials(scenario, trials, master_seed):
    """run_detection_trials as a loop over trials: each trial inverts its
    users' inputs and the channel one uniform row at a time, and scores
    every code index vector on its own output."""
    model = scenario.model
    N = scenario.N
    alpha = scenario.alpha
    regions = scenario.detection
    g_list, g_probs = _g_sampler(scenario, model)
    cum = np.cumsum(model.dmc.pmf.reshape(-1, model.dmc.output_size), axis=1)
    cum[:, -1] = 1.0
    cleaned = check_detection_partition(model, regions)
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
    per_g = {}
    ok = True
    cache = ExponentCache()
    for g, (n, e) in tallies.items():
        rep = detection_bound(model, g, regions, alpha, N, cache)
        bound = min(1.0, float(np.exp(rep.log_raw + N * alpha(g))))
        per_g[g] = (n, e, bound, is_vacuous(bound))
        if n == 0:
            continue
        p = e / n
        sigma = float(np.sqrt(p * (1.0 - p) / n))
        ok = ok and p <= bound + 3.0 * sigma
    return DetectionResult(per_g=per_g, passed=ok)


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
    """DETECT_BLOCK_BYTES that makes blocks of ``per_block`` trials."""
    return per_block * 8 * (scenario.model.n_users + 1) * scenario.N


def _workload_detect_scenarios():
    workloads = load_workloads()
    out = {"detect_two_bsc": SCENARIOS / "detect_two_bsc.json"}
    for name, spec in workloads.WORKLOADS.items():
        out[name] = spec["detect_scenario"]
    return out


class TestDetectionBlocks:
    """Blocked detection trials give the per-trial loop's result exactly,
    whatever the block size, and hold at most DETECT_BLOCK_BYTES per
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
        assert len({n for n, *_ in got.per_g.values()}) == 3

    @pytest.mark.parametrize("per_block", [1, 7, None])
    @pytest.mark.parametrize("seed", [0, 3])
    def test_block_sizes(self, monkeypatch, per_block, seed):
        scen = _random_detect_scenario(seed)
        trials = 45
        per_block = per_block or trials
        monkeypatch.setattr(gepkit.montecarlo, "DETECT_BLOCK_BYTES",
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
        scen = _random_detect_scenario(2)
        monkeypatch.setattr(gepkit.montecarlo, "DETECT_BLOCK_BYTES",
                            _block_bytes(scen, 4))
        keys = []
        original = gepkit.montecarlo.stream

        def spied(*args):
            keys.append(args)
            return original(*args)

        monkeypatch.setattr(gepkit.montecarlo, "stream", spied)
        run_detection_trials(scen, 11, 8)
        assert keys == [((8, t, 2),) for t in range(11)]

    def test_zero_trials_refused(self):
        scen = _random_detect_scenario(0)
        for trials in (0, -3):
            with pytest.raises(ShapeMismatch):
                run_detection_trials(scen, trials, 1)

    @pytest.mark.parametrize("N", [None, 20000])
    def test_block_arrays_stay_within_budget(self, monkeypatch, N):
        # N = None: one trial's uniforms fill the budget, so each block holds
        # one trial and every block array fits the budget; at N = 20000 one
        # trial alone takes more, and a block holds just that trial
        scen = load_scenario(SCENARIOS / "detect_two_bsc.json")
        rows = scen.model.n_users + 1
        budget = gepkit.montecarlo.DETECT_BLOCK_BYTES
        scen.N = N or budget // (8 * rows)
        limit = max(budget, 8 * rows * scen.N)
        seen = []

        def watch(*arrays):
            for a in arrays:
                seen.append(a.nbytes)
                if a.base is not None:
                    seen.append(a.base.nbytes)

        inverse_cdf = gepkit.montecarlo._inverse_cdf
        channel_sampler = gepkit.montecarlo._channel_sampler
        detect = gepkit.montecarlo.detect_region

        def spied_inverse_cdf(pmf, u):
            out = inverse_cdf(pmf, u)
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
        result = run_detection_trials(scen, 300, 2)
        assert sum(n for n, *_ in result.per_g.values()) == 300
        assert seen and max(seen) <= limit
        assert (limit == budget) == (N is None)
