"""Bit-identity of the fast paths against the routines they replace.

``_logsumexp`` must reproduce scipy.special.logsumexp byte for byte, the
per-letter threshold tables must reproduce the per-symbol formula they
replaced byte for byte, and one ``simulate``, ``bound`` or ``exponents``
must maximize every exponent at most once.
"""

import itertools
import json
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from scipy.special import logsumexp

import gepkit.exponents
from gepkit.cli import main
from gepkit.ensemble import (
    _logsumexp,
    ensemble_log_expectation,
    flatten_symbols,
    marginal_log_table,
    scale_log,
    subset_weights_log,
)
from gepkit.scenario import load_scenario

from conftest import random_model, xor_model

ROOT = Path(__file__).resolve().parent.parent
SCENARIOS = sorted((ROOT / "scenarios").glob("*.json"))


def _same(mine, ref):
    """Same type, shape and bytes (so -0.0 != 0.0 and nan payloads count)."""
    return (type(mine) is type(ref) and np.shape(mine) == np.shape(ref)
            and np.asarray(mine).tobytes() == np.asarray(ref).tobytes())


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


def reference_log_expectation(model, D, S, g, y, x_fixed, a):
    """The per-symbol formula ensemble_log_expectation used before the
    per-letter tables: one scipy logsumexp per output symbol."""
    D = sorted(set(D))
    S = set(S)
    fixed = sorted(set(D) & S)
    free = sorted(set(D) - S)
    y = np.asarray(y, dtype=np.int64)
    lm = marginal_log_table(model, D, g, fixed, free)
    logw = subset_weights_log(model, free, g)
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
                mine = ensemble_log_expectation(model, D, S, g, y, xf, a)
                ref = reference_log_expectation(model, D, S, g, y, xf, a)
                assert _same(mine, ref), (path.name, D, S, g, a)
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
                mine = ensemble_log_expectation(model, D, S, g, y, xf, a)
                ref = reference_log_expectation(model, D, S, g, y, xf, a)
                assert _same(mine, ref), (D, S, g, a)

    def test_zero_probability_output_matches(self):
        model = xor_model(0.2)  # noiseless: P(y | x1, x2) has zeros
        y = np.array([0, 1, 1, 0])
        xf = np.array([[0, 0, 1, 1], [0, 1, 0, 0]])
        for a in (0.0, 0.5, 1.0):
            mine = ensemble_log_expectation(model, [0, 1], [0, 1], (0, 0), y,
                                            xf, a)
            ref = reference_log_expectation(model, [0, 1], [0, 1], (0, 0), y,
                                            xf, a)
            assert _same(mine, ref), a


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


class TestOneCachePerSimulate:
    @pytest.mark.parametrize("name", ["bsc_compound_sec4.json",
                                      "compound_bsc_relaxed.json"])
    def test_each_exponent_maximized_once(self, name, tmp_path, monkeypatch):
        calls = _count_maximizations(monkeypatch)
        code = main(["simulate", "--scenario", str(ROOT / "scenarios" / name),
                     "--out", str(tmp_path), "--trials", "20"])
        assert code in (0, 1)
        assert calls, "simulate maximized no exponent"
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
