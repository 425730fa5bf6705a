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
"""

import warnings

import numpy as np
import pytest

import gepkit.exponents
from gepkit.cli import cmd_bound, cmd_exponents
from gepkit.ensemble import scale_log
from gepkit.exponents import (
    ec_objective,
    eid_objective,
    emd_objective,
    proper_subsets,
)
from gepkit.optimize import EPS

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
    """The objective ``build(*args)`` returns and the reference objective of
    the same tables."""
    seen = []
    real = gepkit.exponents._keyed

    def spy(make, *tables):
        seen.append((make.__name__, tables))
        return real(make, *tables)

    with monkeypatch.context() as mp:
        mp.setattr(gepkit.exponents, "_keyed", spy)
        f = build(*args)
    (name, tables), = seen
    return f, FACTORIES[name](*tables)


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
                mine, ref = _objective_pair(monkeypatch, build, *args)
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
