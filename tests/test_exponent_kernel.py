"""Bit-identity of the exponent-objective kernel against the slow reference
of ``tests/reference_exponents.py``.

``_logsumexp`` skips the count of maximal entries where every slice has
one (checked against scipy in ``test_fast_paths.py``), ``scale_log``
returns the plain product where no log is -inf, and the E_mD objective
stacks its two sides into one log-sum-exp.  Each must give the
reference's bytes: ``scale_log`` on random tables, the objectives of
random models (channel zeros, tied maxima, scalar and vector s), and every
exponent search of ``bound`` and ``exponents`` on the shipped scenarios and
the benchmark's workloads, value and argmax.  The reference objectives take
a scalar rho, so their searches run under the row-by-row search of
``tests/reference_search.py``.

The E_mD and E_iD objectives carry a one-point twin, ``objective.point(rho,
s)``: float arithmetic around numpy's exp and log1p
(``ensemble._logsumexp_rows``), nan where a row has 8 or more entries or a
non-finite maximum.  The polishes evaluate single points through
``optimize._point_value``, which calls the twin and makes the one-point
array call where the twin is missing or nan.  The evaluator must give the
array objective's and the reference's bytes at every point, the twin must
be nan exactly where its port hands the point back, and no polish
evaluation of the searches above may hand its point back.
"""

import gc
import math
import warnings

import numpy as np
import pytest

import gepkit.exponents
from gepkit.channel import CodeSpec, SystemModel, make_dmc
from gepkit.cli import cmd_bound, cmd_exponents
from gepkit.ensemble import scale_log
from gepkit.exponents import (
    _scaled,
    ec_objective,
    eid_objective,
    emd_objective,
    proper_subsets,
    WeightFunction,
)
from gepkit.optimize import EPS, _point_value

from conftest import (
    _same,
    load_search_scenario,
    random_alpha,
    random_g,
    search_scenarios,
    variant_model,
)
from reference_exponents import FACTORIES, reference_scale_log
from reference_search import reference_maximize_rho_s


def _objective_pair(monkeypatch, build, *args):
    """The objective ``build(*args)`` returns, the reference objective of
    the same tables, and those tables."""
    seen = []
    with monkeypatch.context() as mp:
        for name in FACTORIES:
            real = getattr(gepkit.exponents, name)

            def spy(*tables, _name=name, _real=real):
                seen.append((_name, tables))
                return _real(*tables)

            mp.setattr(gepkit.exponents, name, spy)
        f = build(*args)
    (name, tables), = seen
    return f, FACTORIES[name](*tables), tables


def _s_values(rng):
    """Scalar and vector s: a float, one-entry arrays (s = 1 among them,
    where the coefficient 1 - s is zero) and a vector of the grid's size."""
    vec = np.sort(rng.uniform(EPS, 1.0, 64))
    vec[-1] = 1.0
    return [float(rng.uniform(EPS, 1.0)), 1.0, np.array([1.0]),
            np.array([rng.uniform(EPS, 1.0)]), vec]


class TestScaleLog:
    @pytest.mark.parametrize("with_neg_inf", [False, True])
    def test_scale_log_matches_the_reference(self, with_neg_inf):
        rng = np.random.default_rng(17)
        for _ in range(50):
            logs = np.log(rng.uniform(0.05, 1.0, size=(3, 2, 4)))
            if with_neg_inf:
                logs[rng.random(logs.shape) < 0.3] = -np.inf
                logs[0, 0, 0] = -np.inf
            c = rng.uniform(0.0, 2.0, size=(5, 1, 1, 1))
            c[rng.random(c.shape) < 0.4] = 0.0
            c[0] = 0.0
            for coef in (c, 0.0, 1.5, np.float64(0.0)):
                with warnings.catch_warnings():
                    warnings.simplefilter("error")
                    mine = scale_log(coef, logs)
                assert _same(mine, reference_scale_log(coef, logs))
            assert _same(scale_log(0.0, -np.inf),
                         reference_scale_log(0.0, -np.inf))
            assert _same(scale_log(2.0, -1.0), reference_scale_log(2.0, -1.0))
            # the point kernel's port, on lists
            for coef in (0.0, -0.0, 1.5, float(c[1, 0, 0, 0])):
                assert _same(np.array(_scaled(coef, logs.ravel().tolist())),
                             reference_scale_log(coef, logs).ravel())


class TestObjectives:
    @pytest.mark.parametrize("variant", ["plain", "zeros", "tied"])
    def test_random_models_match_the_reference(self, variant, monkeypatch):
        rng = np.random.default_rng({"plain": 5, "zeros": 6, "tied": 7}
                                    [variant])
        checked = 0
        for _ in range(12):
            model = variant_model(rng, variant)
            alpha = random_alpha(rng, model)
            g, g2 = random_g(rng, model), random_g(rng, model)
            builds = [(ec_objective, (model, g, g2, alpha))]
            for S in proper_subsets(model.n_users):
                D = tuple(sorted({0} | {k for k in range(model.K)
                                        if rng.random() < 0.5}))
                builds.append((eid_objective, (model, D, S, g, g2, alpha)))
                if set(D) - S:
                    builds.append((emd_objective,
                                   (model, D, S, g, g2, alpha)))
            for build, args in builds:
                mine, ref, _tables = _objective_pair(monkeypatch, build,
                                                     *args)
                rho = float(rng.uniform(EPS, 1.0))
                for s in _s_values(rng):
                    if build is ec_objective:
                        got, want = mine(s), ref(s)
                    else:
                        got, want = mine(rho, s), ref(rho, s)
                    assert _same(got, want), (build.__name__, args[1:], s)
                    checked += 1
        assert checked > 300


def _searches(monkeypatch, scenario, out, swaps):
    """Every search result of ``bound`` then ``exponents`` on ``scenario``,
    with the objective factories and searches of ``swaps`` (names in
    :mod:`gepkit.exponents`) swapped in, as the bytes of (value, *argmax);
    and the files both commands wrote."""
    results = []
    with monkeypatch.context() as mp:
        for name, swap in swaps.items():
            mp.setattr(gepkit.exponents, name, swap)
        for name in ("maximize_rho_s", "maximize_scalar"):
            real = getattr(gepkit.exponents, name)

            def record(*args, _real=real, **kwargs):
                res = _real(*args, **kwargs)
                results.append(np.array((res.value,) + res.argmax).tobytes())
                return res

            mp.setattr(gepkit.exponents, name, record)
        out.mkdir()
        cmd_bound(scenario, out)
        cmd_exponents(scenario, out)
    files = {p.name: p.read_bytes() for p in sorted(out.iterdir())}
    return results, files


@pytest.mark.parametrize("name", search_scenarios())
def test_every_search_matches_the_reference_objectives(name, tmp_path,
                                                        monkeypatch, capsys):
    scenario = load_search_scenario(name)
    mine = _searches(monkeypatch, scenario, tmp_path / "kernel", {})
    # the reference objectives take a scalar rho: the row-by-row search
    ref = _searches(monkeypatch, scenario, tmp_path / "reference",
                    {**FACTORIES, "maximize_rho_s": reference_maximize_rho_s})
    assert mine[0], "no exponent was maximized"
    assert mine == ref


def _rows_spy(mp):
    """Record every call of the point kernel's log-sum-exp port as (rows,
    whether it handed the point back to the array kernel: nan rows)."""
    calls = []
    real = gepkit.exponents._logsumexp_rows

    def spy(rows):
        out = real(rows)
        calls.append((rows, math.isnan(out[0])))
        return out

    mp.setattr(gepkit.exponents, "_logsumexp_rows", spy)
    return calls


def _point_builds(rng, model, alpha):
    """(factory, args) of the E_iD and E_mD objectives of every proper S."""
    g, g2 = random_g(rng, model), random_g(rng, model)
    builds = []
    for S in proper_subsets(model.n_users):
        D = tuple(sorted({0} | {k for k in range(model.K)
                                if rng.random() < 0.5}))
        builds.append((eid_objective, (model, D, S, g, g2, alpha)))
        if set(D) - S:
            builds.append((emd_objective, (model, D, S, g, g2, alpha)))
    return builds


def _check_points(monkeypatch, rng, builds):
    """Compare the single-point evaluator with the array objective and the
    reference at random (rho, s), at s = 1 (a zero coefficient 1 - s) and
    at the box's corners, and check that ``point`` is nan exactly where its
    port hands back; return the port's calls and the tables of every
    objective."""
    tables = []
    with monkeypatch.context() as mp:
        calls = _rows_spy(mp)
        for build, args in builds:
            mine, ref, objective_tables = _objective_pair(monkeypatch,
                                                          build, *args)
            tables.append(objective_tables)
            for rho, s in [(float(rng.uniform(EPS, 1.0)),
                            float(rng.uniform(EPS, 1.0))),
                           (float(rng.uniform(EPS, 1.0)), 1.0),
                           (EPS, EPS), (1.0, 1.0), (EPS, 1.0 - EPS)]:
                n = len(calls)
                twin = mine.point(rho, s)
                assert type(twin) is float
                assert math.isnan(twin) == any(b for _, b in calls[n:])
                got = _point_value(mine, rho, s)
                one = np.asarray([s])
                assert type(got) is float
                assert _same(got, float(mine(rho, one)[0])), (build, rho, s)
                assert _same(got, float(ref(rho, one)[0])), (build, rho, s)
    return calls, tables


class TestPointKernel:
    @pytest.mark.parametrize("variant", ["plain", "zeros", "tied"])
    def test_random_models_match_array_and_reference(self, variant,
                                                     monkeypatch):
        rng = np.random.default_rng({"plain": 21, "zeros": 22, "tied": 23}
                                    [variant])
        builds = []
        for _ in range(12):
            model = variant_model(rng, variant)
            builds += _point_builds(rng, model, random_alpha(rng, model))
        calls, tables = _check_points(monkeypatch, rng, builds)
        # rows the float kernel summed itself
        rows = [row for rs, back in calls if not back for row in rs]
        assert len(rows) > 500
        if variant == "zeros":  # -inf letters, met at s = 1 by E_mD
            assert any(b is emd_objective and any(
                np.isneginf(np.asarray(t, dtype=float)).any()
                for t in objective_tables) for (b, _), objective_tables
                in zip(builds, tables))
        if variant == "tied":
            assert any(row.count(max(row)) > 1 for row in rows)

    def test_objective_frees_on_its_last_reference(self):
        """``.point`` refers to nothing that refers back to the objective,
        so its tables go with it, without a garbage collection."""
        rng = np.random.default_rng(26)
        model = variant_model(rng, "plain")
        builds = _point_builds(rng, model, random_alpha(rng, model))
        gc.collect()
        gc.disable()
        try:
            for build, args in builds:
                build(*args).point(0.5, 0.25)
            assert gc.collect() == 0
        finally:
            gc.enable()

    def test_long_rows_hand_back(self, monkeypatch):
        """A 9-output channel: the outer rows hold 9 or more entries, which
        numpy sums pairwise, so every point goes to the array kernel."""
        rng = np.random.default_rng(24)
        t = rng.uniform(0.05, 1.0, size=(2, 9))
        model = SystemModel(
            dmc=make_dmc(t / t.sum(axis=1, keepdims=True)), K=1, M=0,
            libraries=((CodeSpec(0.1, np.array([0.3, 0.7])),
                        CodeSpec(0.2, np.array([0.6, 0.4]))),))
        builds = _point_builds(rng, model, random_alpha(rng, model))
        assert {b for b, _ in builds} == {eid_objective, emd_objective}
        calls, _ = _check_points(monkeypatch, rng, builds)
        assert any(max(map(len, rows)) >= 8 for rows, _ in calls)
        assert all(back for rows, back in calls if max(map(len, rows)) >= 8)

    def test_minus_inf_input_weight_hands_back(self, monkeypatch):
        """Input pmf (1, 0) and P(y=2 | x=0) = 0: the inner row of y = 2
        is all -inf, a non-finite maximum, so the point goes to the array
        kernel."""
        model = SystemModel(
            dmc=make_dmc(np.array([[0.9, 0.1, 0.0], [0.2, 0.3, 0.5]])),
            K=1, M=0, libraries=((CodeSpec(0.1, np.array([1.0, 0.0])),
                                  CodeSpec(0.2, np.array([0.4, 0.6]))),))
        alpha = WeightFunction(model, [0.0, 0.1])
        builds = [(emd_objective, (model, (0,), frozenset(), (0,), (0,),
                                   alpha)),
                  (eid_objective, (model, (0,), frozenset(), (0,), (1,),
                                   alpha))]
        calls, _ = _check_points(monkeypatch, np.random.default_rng(25),
                                 builds)
        assert any(back for _, back in calls)


@pytest.mark.parametrize("name", search_scenarios())
def test_no_polish_point_hands_back(name, tmp_path, monkeypatch, capsys):
    """Every polish evaluation of ``bound`` and ``exponents`` runs in the
    float kernel."""
    with monkeypatch.context() as mp:
        calls = _rows_spy(mp)
        scenario = load_search_scenario(name)
        cmd_bound(scenario, tmp_path)
        cmd_exponents(scenario, tmp_path)
    assert calls, "no polish point was evaluated"
    assert not any(back for _, back in calls)
