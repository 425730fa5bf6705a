"""Bit-identity of the fast paths against the routines they replace.

``_logsumexp`` and its scalar port ``_logsumexp_rows`` must reproduce
scipy.special.logsumexp byte for byte, the per-letter threshold tables must
reproduce the per-symbol formula they replaced byte for byte, and one
``simulate``, ``bound`` or ``exponents`` must maximize every exponent at
most once.  The comparison-count inverse CDF, the gathered candidate rows
and the region detector built once must reproduce the bisection, the
per-candidate loop and the per-g loop they replaced, kept here as
references.  A threshold solve on a block of fixed-symbol rows must give,
row by row, the per-row reference's bits.  The exponent memo, keyed by what
each objective computes, must return what a fresh maximization returns for
every lookup, maximize each distinct objective once, and tell apart
objectives that differ in any input.
"""

import itertools
import json
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.special import logsumexp

import gepkit.decoder
import gepkit.exponents
from gepkit import (
    CodeSpec,
    SystemModel,
    build_thresholds,
    decode_subset,
    make_compound_bsc,
    make_dmc,
    marginalize_out,
    output_marginal,
    sample_codebook,
)
from gepkit.cli import main
from gepkit.decoder import (
    ThresholdParams,
    _detection_scores,
    _enumerate_candidates,
    build_detector,
    detect_region,
    typicality_threshold,
)
from gepkit.ensemble import (
    _logsumexp,
    _logsumexp_rows,
    ensemble_log_expectation,
    flatten_symbols,
    marginal_log_table,
    sample_from_pmf,
    scale_log,
    stream,
)
from gepkit.errors import DomainError, NotAPartition
from gepkit.exponents import (
    ExponentCache,
    WeightFunction,
    check_detection_partition,
    ec_objective,
    eid_objective,
    emd_objective,
    exponent_Ec,
    exponent_EiD,
    exponent_EmD,
)
from gepkit.montecarlo import _channel_sampler
from gepkit.scenario import load_scenario, parse_scenario

from conftest import (
    _same,
    load_workloads,
    random_alpha,
    random_g,
    random_model,
    small_search,
    three_user_model,
    xor_model,
)

ROOT = Path(__file__).resolve().parent.parent
SCENARIOS = sorted((ROOT / "scenarios").glob("*.json"))
WORKLOAD_SCENARIOS = ("sec4-detect", "mac2-partition", "bigcode-detect")


def _random_array(rng, case):
    nd = int(rng.integers(1, 5))
    shape = tuple(int(n) for n in rng.integers(1, 7, nd))
    a = rng.normal(size=shape) * (1.0, 10.0, 300.0, 700.0)[case % 4]
    if case % 3 == 0:
        a = np.round(a)                       # ties at the maximum
    if case % 5 == 0:
        a[rng.random(shape) < 0.3] = -np.inf  # scattered -inf
    if case % 7 == 0:
        a[0] = -np.inf                        # an all -inf slice
    if case % 29 == 0:
        a[...] = -np.inf
    if case % 2 == 0:                         # non-contiguous layouts
        a = a.T if case % 4 else np.transpose(a, rng.permutation(nd))
    if case % 11 == 0:
        a = a[..., ::-1]
    return a


class TestLogsumexp:
    def test_matches_scipy_bit_for_bit(self):
        rng = np.random.default_rng(20261018)
        checked = 0
        for case in range(1500):
            a = _random_array(rng, case)
            for axis in list(range(a.ndim)) + [-1]:
                mine, ref = _logsumexp(a, axis), logsumexp(a, axis=axis)
                assert _same(mine, ref), (case, a.shape, a.strides, axis)
                checked += 1
        assert checked > 3000

    def test_edge_values(self):
        inf = np.inf
        for row in ([-inf, -inf], [inf, 1.0], [700.0, 700.0, -700.0],
                    [-745.0, -745.0], [0.0], [1e-300, -1e-300]):
            a = np.array(row)
            assert _same(_logsumexp(a, 0), logsumexp(a, axis=0)), row

    # the count m of maximal entries is formed only where some slice ties
    def test_every_slice_has_one_maximum(self):
        a = np.random.default_rng(3).normal(size=(40, 7)) * 30.0
        assert (a == a.max(axis=1, keepdims=True)).sum() == 40
        assert _same(_logsumexp(a, 1), logsumexp(a, axis=1))
        assert _same(_logsumexp(a.T, 0), logsumexp(a.T, axis=0))

    def test_mixed_slices(self):
        a = np.round(np.random.default_rng(4).normal(size=(40, 7)) * 2.0)
        ties = (a == a.max(axis=1, keepdims=True)).sum(axis=1)
        assert (ties == 1).any() and (ties > 1).any()
        assert _same(_logsumexp(a, 1), logsumexp(a, axis=1))

    def test_every_entry_ties(self):
        for value in (-3.5, 0.0, -0.0, 700.0):
            a = np.full((5, 4), value)
            assert _same(_logsumexp(a, 1), logsumexp(a, axis=1)), value
            assert _same(_logsumexp(a[0], 0), logsumexp(a[0], axis=0))

    def test_short_axes(self):
        """Over 2 to 8 entries the maximum is a chain of np.maximum calls:
        axes of 2 to 9 entries with ties, a ±0 tie and an all -inf slice."""
        rng = np.random.default_rng(28)
        for n in range(2, 10):
            a = np.round(rng.normal(size=(3, n, 4)) * 2.0)
            a[0, :, 0] = -0.0
            a[0, 1, 0] = 0.0
            a[1, :, 1] = -np.inf
            for axis in (0, 1, 2, -1):
                assert _same(_logsumexp(a, axis), logsumexp(a, axis=axis))

    def test_scalar_port(self):
        """``_logsumexp_rows`` gives each row of 1 to 7 entries the bits of
        ``_logsumexp`` (and scipy) on it; a row of 8 or more entries or
        with a non-finite maximum makes every row of the call nan."""
        rng = np.random.default_rng(29)
        for case in range(300):
            rows = []
            for _ in range(int(rng.integers(1, 6))):
                row = rng.normal(size=int(rng.integers(1, 8))) * \
                    (1.0, 30.0, 700.0)[case % 3]
                if case % 4 == 0:
                    row = np.round(row)                  # ties
                if case % 5 == 0:
                    row[rng.random(row.size) < 0.4] = -np.inf
                    row[0] = 0.0
                rows.append(row.tolist())
            got = _logsumexp_rows(rows)
            for row, value in zip(rows, got):
                want = _logsumexp(np.array(row), 0)
                assert _same(np.float64(value), want), row
                assert _same(want, logsumexp(np.array(row)))
        inf = np.inf
        for bad in ([0.0] * 8, [-inf, -inf], [inf, 0.0], [np.nan, 0.0]):
            assert np.isnan(_logsumexp_rows([[1.0, 2.0], bad])).all(), bad


def reference_log_expectation(model, D, S, g, y, x_fixed, a):
    """The per-symbol formula ensemble_log_expectation used before the
    per-letter tables: one scipy logsumexp per output symbol."""
    D = sorted(set(D))
    fixed = sorted(set(D) & set(S))
    y = np.asarray(y, dtype=np.int64)
    lm, logw = marginal_log_table(model, D, S, g)
    x_fixed = np.asarray(x_fixed, dtype=np.int64).reshape(len(fixed), len(y)) \
        if len(fixed) else np.zeros((0, len(y)), dtype=np.int64)
    fixed_flat = flatten_symbols(model, fixed, x_fixed)
    per_symbol = lm[y, fixed_flat, :]
    terms = logw[None, :] + scale_log(a, per_symbol)
    return float(np.sum(logsumexp(terms, axis=1)))


def _all_cases(model):
    """Every (D, S, g): D a nonempty set of regular users, S any set of
    users, g any code index vector."""
    regular = range(model.K)
    users = range(model.n_users)
    for r in range(1, model.K + 1):
        for D in itertools.combinations(regular, r):
            for q in range(model.n_users + 1):
                for S in itertools.combinations(users, q):
                    for g in model.index_space():
                        yield D, S, g


class TestLetterTables:
    @pytest.mark.parametrize("a", [0.0, 1e-6, 0.3, 1.0])
    def test_shipped_scenarios_bit_for_bit(self, a):
        rng = np.random.default_rng(7)
        checked = 0
        for path in SCENARIOS:
            model = load_scenario(path).model
            for D, S, g in _all_cases(model):
                fixed = sorted(set(D) & set(S))
                N = int(rng.integers(1, 41))
                y = rng.integers(0, model.dmc.output_size, N)
                xf = np.stack([rng.integers(0, model.dmc.input_sizes[k], N)
                               for k in fixed]) if fixed \
                    else np.zeros((0, N), dtype=np.int64)
                mine = ensemble_log_expectation(model, D, S, g, y, xf[None],
                                                a)
                ref = reference_log_expectation(model, D, S, g, y, xf, a)
                assert _same(mine, np.array([ref])), (path.name, D, S, g, a)
                checked += 1
        # D = (0,), 4 subsets S, and 2 + 2 + 4 code index vectors
        assert checked == 4 * (2 + 2 + 4)

    @pytest.mark.parametrize("a", [0.0, 1e-6, 0.3, 1.0])
    def test_multi_user_models_bit_for_bit(self, a):
        rng = np.random.default_rng(11)
        models = [xor_model(0.2)] + [random_model(rng, max_users=3,
                                                  max_codes=2, max_out=3)
                                     for _ in range(6)]
        for model in models:
            for D, S, g in _all_cases(model):
                fixed = sorted(set(D) & set(S))
                N = int(rng.integers(1, 25))
                y = rng.integers(0, model.dmc.output_size, N)
                xf = rng.integers(0, 2, (len(fixed), N))
                mine = ensemble_log_expectation(model, D, S, g, y, xf[None],
                                                a)
                ref = reference_log_expectation(model, D, S, g, y, xf, a)
                assert _same(mine, np.array([ref])), (D, S, g, a)

    def test_split_with_an_empty_part(self):
        """S cap D empty: one fixed column and every user of D free, under
        its input weights; D\\S empty: every user fixed and one free column
        of weight log 1 = 0.  Both parts list users ascending."""
        model = three_user_model(np.random.default_rng(5), 0.1)
        g = (1, 0, 0)
        lm = marginalize_out(model, (0, 1), g).log_pmf()  # (X_0, X_1, Y)
        flat = lm.reshape(-1, lm.shape[-1]).T             # (Y, X_0 X_1)
        for S in ((), (2,)):
            table, logw = marginal_log_table(model, (1, 0), S, g)
            assert _same(table, np.ascontiguousarray(flat[:, None, :]))
            assert _same(logw, (np.log([0.7, 0.3])[:, None]
                                + np.log([0.4, 0.6])).reshape(-1))
        for S in ((0, 1), (0, 1, 2)):
            table, logw = marginal_log_table(model, (1, 0), S, g)
            assert _same(table, np.ascontiguousarray(flat[:, :, None]))
            assert _same(logw, np.zeros(1))

    def test_zero_probability_output_matches(self):
        model = xor_model(0.2)  # noiseless: P(y | x1, x2) has zeros
        y = np.array([0, 1, 1, 0])
        xf = np.array([[0, 0, 1, 1], [0, 1, 0, 0]])
        for a in (0.0, 0.5, 1.0):
            mine = ensemble_log_expectation(model, [0, 1], [0, 1], (0, 0), y,
                                            xf[None], a)
            ref = reference_log_expectation(model, [0, 1], [0, 1], (0, 0), y,
                                            xf, a)
            assert _same(mine, np.array([ref])), a


# ---------------------------------------------------------------------------
# block threshold solves
# ---------------------------------------------------------------------------

def reference_threshold(model, D, S, g, params, x_fixed, y, alpha):
    """typicality_threshold for one row of fixed symbols, in Python floats,
    from reference_log_expectation."""
    N = len(y)
    s1, s2, rt = params.s1, params.s2, params.rho_t
    l1 = reference_log_expectation(model, D, S, g, y, x_fixed, 1.0 - s1) \
        - N * (1.0 - s1) * alpha(g)
    l2 = reference_log_expectation(model, D, S, g, y, x_fixed, s2 / rt) \
        - N * (s2 / rt) * alpha(g)
    l3 = reference_log_expectation(model, D, S, params.gstar, y, x_fixed,
                                   1.0) - N * alpha(params.gstar)
    rate_sum = sum(model.rate(k, g[k]) for k in set(D) - set(S))
    return (l1 - rt * l2 - l3) / (N * (s1 + s2)) - rt * rate_sum / (s1 + s2)


BLOCK_MODELS = [p.name for p in SCENARIOS] + list(WORKLOAD_SCENARIOS) + \
    ["xor", "three users"]


def _block_model(name):
    if name == "xor":
        return xor_model(0.2)   # noiseless: P(y | x1, x2) has zeros
    if name == "three users":
        return three_user_model(np.random.default_rng(17), 0.1)
    if name.endswith(".json"):
        return load_scenario(ROOT / "scenarios" / name).model
    return parse_scenario(load_workloads().generate(name, ROOT)).model


class TestBlockThresholds:
    """Every value of a block call, x_fixed of shape (m, |S cap D|, N), is
    the per-row reference's value bit for bit, for every (D, S, g) and under
    a nonzero alpha."""

    @pytest.mark.parametrize("name", BLOCK_MODELS)
    def test_block_rows_match_per_row_reference(self, name):
        model = _block_model(name)
        rng = np.random.default_rng(BLOCK_MODELS.index(name))
        alpha = random_alpha(rng, model)
        fixed_users = set()
        for D, S, g in _all_cases(model):
            fixed = sorted(set(D) & set(S))
            fixed_users.add(len(fixed))
            m, N = int(rng.integers(1, 6)), int(rng.choice([1, 7, 40, 300]))
            y = rng.integers(0, model.dmc.output_size, N)
            xf = np.stack([rng.integers(0, model.dmc.input_sizes[k], (m, N))
                           for k in fixed], axis=1) if fixed \
                else np.zeros((m, 0, N), dtype=np.int64)
            a = float(rng.choice([0.0, 0.3, 1.0]))
            mine = ensemble_log_expectation(model, D, S, g, y, xf, a)
            ref = [reference_log_expectation(model, D, S, g, y, row, a)
                   for row in xf]
            assert _same(mine, np.array(ref)), (name, D, S, g, a)
            rho_t = float(rng.uniform(0.3, 1.0))
            params = ThresholdParams(
                rho_t=rho_t, s2=rho_t * float(rng.uniform(0.05, 0.95)),
                s1=float(rng.uniform(0.05, 0.95)), gstar=random_g(rng, model))
            mine = typicality_threshold(model, D, S, g, params, xf, y, alpha)
            ref = [reference_threshold(model, D, S, g, params, row, y, alpha)
                   for row in xf]
            assert _same(mine, np.array(ref)), (name, D, S, g, params)
        assert max(fixed_users) == model.K

    def test_zero_probabilities_give_the_reference_nan(self):
        model = xor_model(0.2)
        alpha = WeightFunction(model, np.full(model.code_counts, 0.1))
        params = ThresholdParams(rho_t=0.8, s2=0.3, s1=0.4, gstar=(0, 0))
        y = np.array([0, 1, 1, 0])
        # rows 0 and 2 explain y exactly, row 1 contradicts it: with both
        # users fixed its expectations vanish and tau* is nan (never met),
        # computed without a RuntimeWarning
        xf = np.array([[[0, 0, 1, 1], [0, 1, 0, 1]],
                       [[0, 0, 1, 1], [0, 1, 0, 0]],
                       [[1, 1, 1, 1], [1, 0, 0, 1]]])
        values = []
        for S in ([0, 1], [0]):
            block = typicality_threshold(model, [0, 1], S, (0, 0), params,
                                         xf[:, :len(S)], y, alpha)
            ref = [reference_threshold(model, [0, 1], S, (0, 0), params,
                                       row[:len(S)], y, alpha) for row in xf]
            assert _same(block, np.array(ref)), S
            values += list(block)
        assert np.isnan(values).sum() == 1


def _count_maximizations(monkeypatch) -> Counter:
    """Counts calls of the three exponent functionals, keyed by functional
    and (D, S, g, g_other) or, for exponent_Ec, (g, g_tilde)."""
    calls = Counter()
    for fn in ("exponent_EiD", "exponent_EmD"):
        original = getattr(gepkit.exponents, fn)

        def counted(model, D, S, g, g_other, *args, _fn=fn,
                    _original=original, **kwargs):
            calls[(_fn, tuple(sorted(D)), frozenset(S), tuple(g),
                   tuple(g_other))] += 1
            return _original(model, D, S, g, g_other, *args, **kwargs)

        monkeypatch.setattr(gepkit.exponents, fn, counted)
    original_ec = gepkit.exponents.exponent_Ec

    def counted_ec(model, g, g_tilde, *args, **kwargs):
        calls[("exponent_Ec", tuple(g), tuple(g_tilde))] += 1
        return original_ec(model, g, g_tilde, *args, **kwargs)

    monkeypatch.setattr(gepkit.exponents, "exponent_Ec", counted_ec)
    return calls


def _one_cache_cases():
    """(scenario, command) of every command on the two shipped compound-BSC
    scenarios and the benchmark's derived ones; ``detect`` only where the
    scenario has detection cells."""
    for name in ["bsc_compound_sec4.json", "compound_bsc_relaxed.json",
                 *WORKLOAD_SCENARIOS]:
        for command in ("exponents", "bound", "simulate", "detect"):
            if command != "detect" or not name.endswith(".json"):
                yield pytest.param(name, command, id=f"{name}-{command}")


class TestOneCachePerSimulate:
    """Each command threads one exponent cache through every bound and
    threshold it builds, so it maximizes each exponent at most once."""

    @pytest.mark.parametrize("name, command", _one_cache_cases())
    def test_each_exponent_maximized_once(self, name, command, tmp_path,
                                          monkeypatch):
        scenario = ROOT / "scenarios" / name
        if name in WORKLOAD_SCENARIOS:
            scenario = tmp_path / f"{name}.json"
            scenario.write_text(json.dumps(
                load_workloads().generate(name, ROOT)))
        calls = _count_maximizations(monkeypatch)
        code = main([command, "--scenario", str(scenario),
                     "--out", str(tmp_path / "out"), "--trials", "20"])
        assert code in (0, 1)
        assert calls, f"{command} maximized no exponent"
        repeated = {k: n for k, n in calls.items() if n > 1}
        assert not repeated


class TestOneDetectionPath:
    """``bound`` and ``exponents`` on a detect-then-decode scenario build
    the decode, partitioned and per-g detection bounds from one cache, so
    each of the 2 distinct detection pairs is maximized once."""

    @pytest.mark.parametrize("command", ["bound", "exponents"])
    def test_each_exponent_maximized_once(self, command, tmp_path,
                                          monkeypatch):
        doc = json.loads((ROOT / "scenarios" / "detect_two_bsc.json")
                         .read_text())
        doc["decoder"] = "detect-then-decode"
        scenario = tmp_path / "dtd.json"
        scenario.write_text(json.dumps(doc))
        calls = _count_maximizations(monkeypatch)
        code = main([command, "--scenario", str(scenario),
                     "--out", str(tmp_path)])
        assert code == 0
        ec = {k: n for k, n in calls.items() if k[0] == "exponent_Ec"}
        assert ec == {("exponent_Ec", (0, 0), (0, 1)): 1,
                      ("exponent_Ec", (0, 1), (0, 0)): 1}
        repeated = {k: n for k, n in calls.items() if n > 1}
        assert not repeated

    def test_detect_bounds_only_the_sampled_g(self, tmp_path, monkeypatch):
        """``detect`` with ``"g_set": [[0, 0]]`` bounds g = (0, 0) alone:
        one detection-exponent lookup, not one per g of the index space."""
        doc = json.loads((ROOT / "scenarios" / "detect_two_bsc.json")
                         .read_text())
        doc["g_set"] = [[0, 0]]
        scenario = tmp_path / "one_g.json"
        scenario.write_text(json.dumps(doc))
        lookups = []
        real = ExponentCache.ec

        def spy(self, model, g, g_tilde, alpha):
            lookups.append((tuple(g), tuple(g_tilde)))
            return real(self, model, g, g_tilde, alpha)

        monkeypatch.setattr(ExponentCache, "ec", spy)
        out = tmp_path / "out"
        assert main(["detect", "--scenario", str(scenario), "--out", str(out),
                     "--trials", "50"]) in (0, 1)
        assert lookups == [((0, 0), (0, 1))]
        rows = (out / "detect.csv").read_text().splitlines()
        assert [row.split(",")[0] for row in rows] == ["g", "0 0"]


# ---------------------------------------------------------------------------
# inverse CDF
# ---------------------------------------------------------------------------

def reference_sample_from_pmf(rng, pmf, shape):
    """The bisection inverse CDF sample_from_pmf used before it counted
    comparisons."""
    cum = np.cumsum(pmf)
    cum[-1] = 1.0
    u = rng.random(shape)
    return np.searchsorted(cum, u, side="right").astype(np.int64)


class _FixedUniforms:
    """Stands in for a generator: ``random(shape)`` returns given values."""

    def __init__(self, u):
        self.u = u

    def random(self, shape):
        return self.u.reshape(shape)


_weights = st.lists(st.sampled_from([0.0, 0.0, 1e-300, 1e-17, 0.1, 0.25, 0.5,
                                     1.0, 3.0, 7.5]),
                    min_size=1, max_size=16).filter(lambda w: sum(w) > 0)


class TestInverseCdf:
    @given(weights=_weights,
           excess=st.sampled_from([0.0, 1e-16, 4e-16, 1e-12, 1e-9]),
           picks=st.lists(st.integers(0, 10**6), min_size=1, max_size=24),
           columns=st.sampled_from([None, 1, 3]))
    def test_counts_match_bisection(self, weights, excess, picks, columns):
        """Zero entries, sums slightly above 1, uniforms equal to
        cumulative entries, shapes (n,) and (n, N)."""
        pmf = np.asarray(weights) / sum(weights) * (1.0 + excess)
        cum = np.cumsum(pmf)
        cum[-1] = 1.0
        pool = np.concatenate([cum, np.nextafter(cum, 0.0),
                               np.nextafter(cum, 2.0),
                               [0.0, 0.5, np.nextafter(1.0, 0.0)]])
        pool = pool[(pool >= 0.0) & (pool < 1.0)]
        u = pool[np.asarray(picks) % len(pool)]
        if columns is not None:
            u = np.resize(u, (len(u), columns))
        shape = u.shape
        mine = sample_from_pmf(_FixedUniforms(u), pmf, shape)
        ref = reference_sample_from_pmf(_FixedUniforms(u), pmf, shape)
        assert mine.dtype == ref.dtype == np.int64
        assert mine.shape == ref.shape == shape
        assert np.array_equal(mine, ref)

    @pytest.mark.parametrize("pmf", [[1.0], [0.9, 0.1], [0.0, 1.0, 0.0, 0.0],
                                     [0.2, 0.0, 0.3, 0.5]])
    def test_same_draws_and_stream_position(self, pmf):
        pmf = np.asarray(pmf)
        for shape in (16, (31, 16)):
            rng_a, rng_b = stream(5, 0, 1), stream(5, 0, 1)
            a = sample_from_pmf(rng_a, pmf, shape)
            b = reference_sample_from_pmf(rng_b, pmf, shape)
            assert _same(a, b)
            assert rng_a.random() == rng_b.random()


    @pytest.mark.parametrize("seed", range(4))
    def test_channel_inversion_matches_bisection(self, seed):
        """transmit on a block of inputs, with uniforms on, just below and
        just above the cumulative output entries, gives each symbol's
        bisection inverse of its joint input's output row."""
        rng = np.random.default_rng(seed)
        model = random_model(rng, max_users=3, max_out=4)
        cum = np.cumsum(model.dmc.pmf.reshape(-1, model.dmc.output_size),
                        axis=1)
        cum[:, -1] = 1.0
        x = rng.integers(0, 2, (5, model.n_users, 40))
        flat = flatten_symbols(model, range(model.n_users), x)
        pool = np.concatenate([cum[flat], np.nextafter(cum[flat], 0.0),
                               np.nextafter(cum[flat], 2.0)], axis=-1)
        pick = rng.integers(0, pool.shape[-1], flat.shape)
        u = np.minimum(np.take_along_axis(pool, pick[..., None], -1)[..., 0],
                       np.nextafter(1.0, 0.0))
        y = _channel_sampler(model)(x, u)
        ref = [[np.searchsorted(cum[j], v, side="right")
                for j, v in zip(fr, ur)] for fr, ur in zip(flat, u)]
        assert y.dtype == np.int64
        assert np.array_equal(y, np.array(ref))
        one = _channel_sampler(model)(x[2], u[2])
        assert np.array_equal(one, y[2])


# ---------------------------------------------------------------------------
# candidate rows
# ---------------------------------------------------------------------------

def reference_candidates(model, D, g, codebooks, y):
    """Candidate message tuples, rows and log-likelihoods of one trial as
    _enumerate_candidates built them before the gathers: one Python
    iteration per candidate."""
    N = len(y)
    lm = marginalize_out(model, D, g).log_pmf()
    tables = [codebooks.tables[(k, g[k])][0] for k in D]
    counts = [t.shape[0] for t in tables]
    w_tuples = list(itertools.product(*[range(1, c + 1) for c in counts]))
    n = len(w_tuples)
    rows = np.empty((n, len(D), N), dtype=np.int64)
    for i, w in enumerate(w_tuples):
        for j, _k in enumerate(D):
            rows[i, j] = tables[j][w[j] - 1]
    if len(D) == 1:
        loglik = lm[rows[:, 0, :], y[None, :]].sum(axis=1)
    else:
        y_b = np.broadcast_to(y, (n, N))
        idx = tuple(rows[:, j, :] for j in range(len(D))) + (y_b,)
        loglik = lm[idx].sum(axis=1)
    return w_tuples, rows, loglik


_INPUT_PMFS = {2: [0.3, 0.7], 3: [0.45, 0.0, 0.55], 4: [0.2, 0.0, 0.3, 0.5]}


def _mac_model(sizes=(2, 2)):
    """Two regular users, with ``sizes`` input letters, and one binary
    interfering user on a random 3-output channel; each regular user has a
    1-message code (rate 0) and codes of 3 and 6 messages at N = 6."""
    rng = np.random.default_rng(11)
    t = rng.uniform(0.05, 1.0, size=sizes + (2, 3))
    t /= t.sum(axis=-1, keepdims=True)
    regular = [tuple(CodeSpec(r, np.array(_INPUT_PMFS[n]))
                     for r in (0.0, 0.2, 0.3)) for n in sizes]
    u = np.array([0.3, 0.7])
    interfering = (CodeSpec(0.0, u), CodeSpec(0.0, u[::-1].copy()))
    return SystemModel(dmc=make_dmc(t), K=2, M=1,
                       libraries=(*regular, interfering))


class TestCandidateRows:
    """_enumerate_candidates scores a block of trials, here the 3 trials
    of 3 realizations: trial i's candidates, in C order of the message
    grid, and their scores are the per-candidate loop's on trial i."""

    @pytest.mark.parametrize("D", [(0,), (0, 1)])
    def test_rows_and_logliks_match_loop(self, D):
        self._check(_mac_model(), D)

    @pytest.mark.parametrize("D", [(0,), (0, 1)])
    def test_wide_alphabets_match_loop(self, D):
        """Codes of 4 and 3 input letters: one-byte tables score as the
        loop's int64 rows do, bit for bit."""
        self._check(_mac_model((4, 3)), D)

    @staticmethod
    def _check(model, D):
        a = WeightFunction(model, np.random.default_rng(3).uniform(
            0.0, 0.2, size=model.code_counts))
        N = 6
        rng = np.random.default_rng(4)
        seen_counts = set()
        books = [sample_codebook(model, N, seed) for seed in range(3)]
        for g in model.index_space():
            y = rng.integers(0, 3, (len(books), N))
            tables = [np.concatenate([cb.tables[(k, g[k])] for cb in books])
                      for k in D]
            cand = _enumerate_candidates(model, D, g, tables, y, a)
            for i, cb in enumerate(books):
                w_ref, rows_ref, ll_ref = reference_candidates(
                    model, D, g, cb, y[i])
                # candidate j is message tuple j of the C-order grid
                assert [tuple(int(u) + 1 for u in np.unravel_index(
                    j, cand.grid)) for j in range(len(w_ref))] == w_ref
                rows = np.stack([t[i][np.array(w_ref)[:, j] - 1] for j, t
                                 in enumerate(cand.tables)], axis=1)
                assert rows.dtype == np.uint8  # <= 256 input letters
                assert np.array_equal(rows, rows_ref)
                assert _same(cand.loglik[i], ll_ref)
                assert _same(cand.score[i], ll_ref - N * a(g))
                assert _same(cand.wnll[i], -ll_ref / N + a(g))
                seen_counts.add(tuple(cb.counts[(k, g[k])] for k in D))
        assert {(1,) * len(D), (6,) * len(D)} <= seen_counts

    def test_single_code_table_is_not_copied(self, monkeypatch):
        """A single user's table is read as is: the candidates' tables are
        views of the realization's."""
        model = make_compound_bsc([0.05, 0.3], [0.5, 0.5], 0.2)
        cb = sample_codebook(model, 10, 1)
        seen = []

        def spied(*args):
            seen.append(_enumerate_candidates(*args))
            return seen[-1]

        monkeypatch.setattr(gepkit.decoder, "_enumerate_candidates", spied)
        tbl = build_thresholds(model, (0,), [(0, 1)],
                               WeightFunction.zero(model),
                               cache=ExponentCache())
        decode_subset(tbl, cb, np.zeros((1, 10), dtype=np.int64))
        cand, = seen
        assert np.shares_memory(cand.tables[0], cb.tables[(0, 0)])


# ---------------------------------------------------------------------------
# region detection
# ---------------------------------------------------------------------------

def reference_detect_region(model, regions, alpha, y):
    """detect_region of one output y without a detector: the partition is
    checked and every log output marginal recomputed on each call."""
    cleaned = check_detection_partition(model, regions)
    y = np.asarray(y, dtype=np.int64)
    N = len(y)
    best_g, best_score = None, -float("inf")
    for g in model.index_space():
        with np.errstate(divide="ignore"):
            lp = np.log(output_marginal(model, g))
        score = float(lp[y].sum() - N * alpha(g))
        if score > best_score:
            best_g, best_score = g, score
    return next(i for i, r in enumerate(cleaned) if best_g in r)


class TestDetectRegion:
    def test_ties_go_to_the_first_vector(self):
        # states (0, 1) and (0, 2) share a crossover, so they tie on every
        # output; only a tie broken toward (0, 2) would detect cell 2
        model = make_compound_bsc([0.05, 0.3, 0.3, 0.45], [0.9, 0.1], 0.2)
        regions = [[(0, 0)], [(0, 1), (0, 3)], [(0, 2)]]
        a = WeightFunction.zero(model)
        detector = build_detector(model, regions, a)
        cells = set()
        for bits in itertools.product(range(2), repeat=6):
            y = np.array(bits)
            got, = detect_region(detector, y[None])
            assert got == reference_detect_region(model, regions, a, y)
            cells.add(int(got))
        assert 1 in cells and 2 not in cells

    def test_alphas_and_partitions_do_not_mix(self):
        model = make_compound_bsc([0.05, 0.2, 0.35, 0.5], [0.7, 0.3], 0.2)
        alphas = [WeightFunction.zero(model),
                  WeightFunction(model, {(0, 0): 0.4, (0, 2): 0.05})]
        # JSON-style lists and tuples: both spellings build a detector
        partitions = ([[[0, 0], [0, 1]], [[0, 2], [0, 3]]],
                      [[(0, 0)], [(0, 1), (0, 2)], [(0, 3)]])
        detectors = {(i, j): build_detector(model, regions, a)
                     for i, regions in enumerate(partitions)
                     for j, a in enumerate(alphas)}
        rng = np.random.default_rng(8)
        differ = set()
        for _ in range(60):
            # at N = 12 alpha moves outputs across the cells of both
            # partitions; at N = 8 only within the first one's cells
            y = rng.integers(0, 2, 12)
            results = {}
            for i, regions in enumerate(partitions):
                for j, a in enumerate(alphas):
                    got, = detect_region(detectors[(i, j)], y[None])
                    assert got == reference_detect_region(model, regions, a,
                                                          y)
                    results[(i, j)] = got
            differ |= {i for i in range(2)
                       if results[(i, 0)] != results[(i, 1)]}
        assert differ == {0, 1}, "alpha never changed a detection"

    @pytest.mark.parametrize("seed", range(4))
    def test_block_scores_are_the_one_output_scores(self, seed):
        rng = np.random.default_rng(seed)
        model = random_model(rng, max_users=3, max_out=4)
        space = list(model.index_space())
        alpha = random_alpha(rng, model)
        regions = [space[:1], space[1:]] if len(space) > 1 else [space]
        detector = build_detector(model, regions, alpha)
        N = int(rng.integers(1, 300))
        ys = rng.integers(0, model.dmc.output_size, (17, N))
        block = _detection_scores(detector, ys)
        assert block.shape == (len(space), 17)
        cells = detect_region(detector, ys)
        for i, y in enumerate(ys):
            one = _detection_scores(detector, y[None])
            assert _same(block[:, i:i + 1], one)
            ref = [[float(np.log(output_marginal(model, g))[y].sum()
                          - N * alpha(g))] for g in space]
            assert _same(one, np.array(ref))
            cell, = detect_region(detector, y[None])
            assert cells[i] == cell
            assert cell == reference_detect_region(model, regions, alpha, y)

    def test_block_ties_go_to_the_first_vector(self):
        model = make_compound_bsc([0.05, 0.3, 0.3, 0.45], [0.9, 0.1], 0.2)
        regions = [[(0, 0)], [(0, 1), (0, 3)], [(0, 2)]]
        detector = build_detector(model, regions, WeightFunction.zero(model))
        ys = np.array(list(itertools.product(range(2), repeat=6)))
        cells = detect_region(detector, ys)
        assert 2 not in cells.tolist() and 1 in cells.tolist()
        assert [detect_region(detector, y[None]).tolist() for y in ys] == \
            [[cell] for cell in cells.tolist()]

    def test_impossible_output_raises(self):
        # both states always output 0, so y = (1, 1, 1) has no hypothesis
        model = make_compound_bsc([0.0, 0.0], [1.0, 0.0], 0.2)
        detector = build_detector(model, [[(0, 0)], [(0, 1)]],
                                  WeightFunction.zero(model))
        assert detect_region(detector, np.array([[0, 0, 0]])).tolist() == [0]
        with pytest.raises(DomainError):
            detect_region(detector, np.array([[1, 1, 1]]))
        with pytest.raises(DomainError):
            detect_region(detector, np.array([[0, 0, 0], [1, 1, 1]]))
        cells = detect_region(detector, np.zeros((2, 3), dtype=np.int64))
        assert cells.tolist() == [0, 0]

    def test_invalid_partition_raises_on_every_call(self):
        model = make_compound_bsc([0.1, 0.4], [0.9, 0.1], 0.2)
        a = WeightFunction.zero(model)
        for _ in range(3):
            with pytest.raises(NotAPartition):
                build_detector(model, [[(0, 0)]], a)
        detector = build_detector(model, [[(0, 0)], [(0, 1)]], a)
        assert detect_region(detector, np.array([[0, 0, 0]]))[0] == 0
        for _ in range(2):
            with pytest.raises(NotAPartition):
                build_detector(model, [[(0, 0)]], a)


# ---------------------------------------------------------------------------
# content-keyed exponent memo
# ---------------------------------------------------------------------------

# lookup name -> (unmemoized maximization, objective builder)
FRESH = {"emd": (exponent_EmD, emd_objective),
         "eid": (exponent_EiD, eid_objective),
         "ec": (exponent_Ec, ec_objective)}
MAXIMIZERS = {"exponent_EmD": "emd", "exponent_EiD": "eid",
              "exponent_Ec": "ec"}


def _content_key(name, model, alpha, args, kwargs):
    """Content key of the objective behind one lookup or maximization:
    ``args`` are its arguments after the model, up to alpha."""
    return FRESH[name][1](model, *args, alpha, **kwargs).key


@pytest.fixture(scope="module", params=[p.name for p in SCENARIOS]
                + list(WORKLOAD_SCENARIOS))
def memo_run(request, tmp_path_factory):
    """Runs exponents, bound, simulate and (where the scenario has cells)
    detect on one scenario, recording every exponent-cache lookup with its
    result and, per command, the content key of every maximization."""
    name = request.param
    work = tmp_path_factory.mktemp("memo")
    scenario = ROOT / "scenarios" / name if name.endswith(".json") else \
        load_workloads().scenario_path(name, ROOT, work)
    lookups, maximized = [], {}
    command = []
    with pytest.MonkeyPatch.context() as mp:
        for lookup in FRESH:
            original = getattr(ExponentCache, lookup)

            def recorded(self, *args, _lookup=lookup, _original=original,
                         **kwargs):
                result = _original(self, *args, **kwargs)
                lookups.append((self, _lookup, args, kwargs, result))
                return result

            mp.setattr(ExponentCache, lookup, recorded)
        for fn, lookup in MAXIMIZERS.items():
            original = getattr(gepkit.exponents, fn)

            def counted(model, *args, _lookup=lookup, _original=original,
                        **kwargs):
                # ExponentCache passes the lookup's arguments and alpha,
                # all by position
                maximized[command[0]].append(_content_key(
                    _lookup, model, args[-1], args[:-1], kwargs))
                return _original(model, *args, **kwargs)

            mp.setattr(gepkit.exponents, fn, counted)
        commands = ["exponents", "bound", "simulate"]
        if load_scenario(scenario).detection is not None:
            commands.append("detect")
        for cmd in commands:
            command[:] = [cmd]
            maximized[cmd] = []
            code = main([cmd, "--scenario", str(scenario),
                         "--out", str(work / cmd), "--trials", "3"])
            assert code in (0, 1), (name, cmd)
    return name, lookups, maximized


class TestContentKeyedMemo:
    def test_every_lookup_equals_a_fresh_maximization(self, memo_run):
        name, lookups, maximized = memo_run
        checked = {}
        for cache, lookup, args, kwargs, result in lookups:
            # one scenario per run: the model's content is fixed, alpha's
            # key stands for alpha
            identity = (lookup, args[1:-1], args[-1].key(),
                        tuple(sorted(kwargs.items())))
            if identity in checked:
                assert result == checked[identity], (name, identity)
                continue
            fresh = FRESH[lookup][0](*args, **kwargs)
            assert result == fresh, (name, identity)
            checked[identity] = fresh
        n_max = sum(len(keys) for keys in maximized.values())
        assert checked and n_max
        if name == "mac2-partition":  # the memo shared maximizations here
            assert len(checked) > len(set().union(*maximized.values()))

    def test_each_distinct_objective_maximized_once(self, memo_run):
        name, _lookups, maximized = memo_run
        for cmd, keys in maximized.items():
            repeated = [k for k, n in Counter(keys).items() if n > 1]
            assert not repeated, (name, cmd)
        expected = {"mac2-partition": {"exponents": 9, "bound": 13,
                                       "simulate": 8, "detect": 1},
                    "sec4-detect": {"bound": 5, "detect": 1}}.get(name, {})
        for cmd, n in expected.items():
            assert len(maximized[cmd]) == n, (name, cmd)


def _twin_model():
    """Two regular users and one interfering user, binary inputs, three
    outputs.  Regular code 1 copies code 0, code 2 differs from it only in
    rate and code 3 only in input pmf; interferer state 1 copies state 0
    and state 2 differs from it in pmf.  alpha is zero except at (1, 0, 0),
    so user 0's code 1 differs from code 0 only in alpha."""
    rng = np.random.default_rng(5)
    t = rng.uniform(0.05, 1.0, size=(2, 2, 2, 3))
    t /= t.sum(axis=-1, keepdims=True)
    u, v = np.array([0.3, 0.7]), np.array([0.6, 0.4])
    regular = (CodeSpec(0.2, u), CodeSpec(0.2, u), CodeSpec(0.35, u),
               CodeSpec(0.2, v))
    interfering = (CodeSpec(0.0, u), CodeSpec(0.0, u), CodeSpec(0.0, v))
    model = SystemModel(dmc=make_dmc(t), K=2, M=1,
                        libraries=(regular, regular, interfering))
    return model, WeightFunction(model, {(1, 0, 0): 0.1})


# (lookup, D, S); user 0 is in D\S in every one
KEYED_LOOKUPS = [("emd", (0, 1), ()), ("emd", (0, 1), (1,)),
                 ("eid", (0, 1), ()), ("eid", (0,), (1,)), ("ec", None, None)]
# the side (0: g, 1: the other vector) whose D\S rates the objective charges
RATE_SIDE = {"emd": 1, "eid": 0}
BASE = ((0, 0, 0), (0, 0, 0))


def _changes(lookup):
    """(what, side, user, code, shares the base key): one code of one of
    the two vectors replaced."""
    out = [("alpha(g)", 0, 0, 1, False), ("alpha(g~)", 1, 0, 1, False)]
    for side in (0, 1):
        out += [("free user's pmf", side, 0, 3, False),
                ("interferer's pmf", side, 2, 2, False),
                ("copy of user 1's code", side, 1, 1, True),
                ("copy of the interferer's state", side, 2, 1, True),
                ("rate of user 0's code", side, 0, 2,
                 side != RATE_SIDE.get(lookup))]
    return out


def _changed(side, user, code):
    pair = [list(BASE[0]), list(BASE[1])]
    pair[side][user] = code
    return tuple(pair[0]), tuple(pair[1])


def _arguments(lookup, D, S, pair):
    return pair if lookup == "ec" else (D, S) + pair


class TestKeyCompleteness:
    """Changing the rate of a D\\S user's code, alpha(g), alpha(g~), a free
    user's input pmf or an interfering user's pmf changes the content key;
    changing what the objective does not read keeps it."""

    def test_changed_inputs_change_the_key(self):
        model, alpha = _twin_model()
        for lookup, D, S in KEYED_LOOKUPS:
            base = _content_key(lookup, model, alpha,
                                _arguments(lookup, D, S, BASE), {})
            for what, side, user, code, shares in _changes(lookup):
                args = _arguments(lookup, D, S, _changed(side, user, code))
                key = _content_key(lookup, model, alpha, args, {})
                assert (key == base) == shares, (lookup, D, S, what, side)

    @small_search(8, 0)
    def test_one_cache_never_merges_them(self):
        model, alpha = _twin_model()
        cache = ExponentCache()
        for lookup, D, S in KEYED_LOOKUPS:
            values = set()
            for *_what, side, user, code, _shares in _changes(lookup):
                args = _arguments(lookup, D, S, _changed(side, user, code))
                got = getattr(cache, lookup)(model, *args, alpha)
                fresh = FRESH[lookup][0](model, *args, alpha)
                assert got == fresh, (lookup, D, S, side, user, code)
                values.add(got.value)
            assert len(values) > 1, (lookup, D, S)
