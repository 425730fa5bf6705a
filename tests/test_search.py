"""The (rho, s) exponent search against the row-by-row search it replaced
(``tests/reference_search.py``), bit for bit and call for call.

The E_mD and E_iD objectives pair rho with s elementwise, so one call on a
grid of rows, each with its own rho, must give every row the bytes of that
row's own call.  The search evaluates each scan stage in calls of at most
``SCAN_POINTS`` points and remembers every point its polish evaluated,
starting with the scan's incumbent.  It must return the reference search's
value and argmax bytes, scan the same points, polish at the same points
in the same order but that incumbent, none of them twice, each through the
objective's one-point twin ``f.point``, and call the objective less often.
"""

import math

import numpy as np
import pytest

import gepkit.exponents
from gepkit import optimize
from gepkit.cli import cmd_bound, cmd_exponents, scenario_bound
from gepkit.exponents import (
    ExponentCache,
    eid_objective,
    emd_objective,
    proper_subsets,
)
from gepkit.optimize import EPS, maximize_rho_s

from conftest import (
    _same,
    load_search_scenario,
    random_alpha,
    random_g,
    search_scenarios,
    variant_model,
)
from reference_search import reference_maximize_rho_s

VARIANTS = ("plain", "zeros", "tied")


def _random_objectives(variant, models):
    """(objective, coupled) of the E_iD and E_mD objectives of ``models``
    random models of ``variant`` (see ``conftest.variant_model``)."""
    rng = np.random.default_rng({"plain": 11, "zeros": 12, "tied": 13}
                                [variant])
    out = []
    for _ in range(models):
        model = variant_model(rng, variant)
        alpha = random_alpha(rng, model)
        g, g2 = random_g(rng, model), random_g(rng, model)
        for S in proper_subsets(model.n_users):
            D = tuple(sorted({0} | {k for k in range(model.K)
                                    if rng.random() < 0.5}))
            out.append((eid_objective(model, D, S, g, g2, alpha), True))
            if set(D) - S:
                out.append((emd_objective(model, D, S, g, g2, alpha), False))
    return out


def _bits(res):
    return np.array((res.value,) + res.argmax).tobytes()


class TestBroadcast:
    @pytest.mark.parametrize("variant", VARIANTS)
    def test_grid_call_equals_row_calls(self, variant):
        rng = np.random.default_rng(3)
        objectives = _random_objectives(variant, 6)
        assert {coupled for _, coupled in objectives} == {False, True}
        for f, coupled in objectives:
            rhos = np.sort(rng.uniform(EPS, 0.999, 6))
            rhos[0] = EPS
            if not coupled:
                rhos[-1] = 1.0  # s / rho = s
            caps = 1.0 - rhos if coupled else np.ones_like(rhos)
            # each row on its own s axis, ending at its cap (1 - s = 0
            # for E_mD)
            grid = np.sort(rng.uniform(EPS, 1.0, (6, 7)), axis=1) * \
                caps[:, None]
            grid[:, -1] = caps
            rho_grid = np.repeat(rhos, 7).reshape(6, 7)
            got = f(rho_grid, grid)
            assert got.shape == (42,)
            for i, rho in enumerate(rhos):
                assert _same(got.reshape(6, 7)[i], f(rho, grid[i]))
                assert _same(got.reshape(6, 7)[i], f(float(rho), grid[i]))
            # a call on a prefix of the points, as a scan chunk
            k = int(rng.integers(1, 42))
            assert _same(f(rho_grid.ravel()[:k], grid.ravel()[:k]), got[:k])
            # a float s still gives a length-1 array
            one = f(float(rhos[2]), float(grid[2, 3]))
            assert one.shape == (1,)
            assert _same(one, got[2 * 7 + 3:2 * 7 + 4])


class TestReferenceSearch:
    @pytest.mark.parametrize("name", search_scenarios())
    def test_every_search_equals_the_reference_search(self, name, tmp_path,
                                                      monkeypatch, capsys):
        """Every maximize_rho_s result of ``bound`` and ``exponents``."""
        pairs = []

        def both(f, coupled=False):
            res = maximize_rho_s(f, coupled=coupled)
            pairs.append((_bits(res),
                          _bits(reference_maximize_rho_s(f, coupled))))
            return res

        monkeypatch.setattr(gepkit.exponents, "maximize_rho_s", both)
        scenario = load_search_scenario(name)
        cmd_bound(scenario, tmp_path)
        cmd_exponents(scenario, tmp_path)
        assert pairs, "no (rho, s) search ran"
        assert all(mine == ref for mine, ref in pairs)

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_random_searches_equal_the_reference_search(self, variant):
        objectives = _random_objectives(variant, 2)
        assert len(objectives) >= 4
        for f, coupled in objectives:
            assert _bits(maximize_rho_s(f, coupled)) == \
                _bits(reference_maximize_rho_s(f, coupled))


def _call_points(search, f, coupled, sweeps):
    """The (rho, s) points of each objective call ``search`` makes, with at
    most ``sweeps`` polish sweeps, and which calls went to the one-point
    twin ``f.point``."""
    calls, to_point = [], []

    def counted(rho, s):
        r, s_ = np.broadcast_arrays(np.asarray(rho, dtype=float),
                                    np.asarray(s, dtype=float))
        calls.append(list(zip(r.ravel().tolist(), s_.ravel().tolist())))
        to_point.append(False)
        return f(rho, s)

    def point(rho, s):
        calls.append([(rho, s)])
        to_point.append(True)
        return f.point(rho, s)

    counted.point = point
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(optimize, "POLISH_SWEEPS", sweeps)
        search(counted, coupled)
    return calls, to_point


def _bound_searches(name):
    """(objective, coupled) of every (rho, s) search of the verdict bound."""
    found = []

    def record(f, coupled=False):
        found.append((f, coupled))
        return maximize_rho_s(f, coupled)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(gepkit.exponents, "maximize_rho_s", record)
        scenario_bound(load_search_scenario(name), ExponentCache())
    return found


@pytest.mark.parametrize("name", ["bsc_compound_sec4.json",
                                  "mac2-partition"])
def test_calls_per_search(name):
    """Each scan stage makes the calls its rows need at SCAN_POINTS points
    a call (the row-by-row search made one per row: 64 + 9 + 9), and the
    polish evaluates the reference's points in the reference's order, but
    the scan's incumbent, its first, and repeats, each once, through the
    one-point twin ``f.point``."""
    searches = _bound_searches(name)
    assert {coupled for _, coupled in searches} == {True, False}
    for f, coupled in searches:
        assert hasattr(f, "point")
        scan, scan_to_point = _call_points(maximize_rho_s, f, coupled, 0)
        ref_scan, _ = _call_points(reference_maximize_rho_s, f, coupled, 0)
        assert not any(scan_to_point)
        base_points = sum(len(c) for c in ref_scan
                          if len(c) == optimize.BASE_GRID)
        need = math.ceil(base_points / optimize.SCAN_POINTS) + \
            optimize.REFINE_ROUNDS * math.ceil(
                optimize.REFINE_POINTS ** 2 / optimize.SCAN_POINTS)
        assert len(scan) <= need < len(ref_scan)
        assert max(map(len, scan)) <= optimize.SCAN_POINTS
        assert sorted(p for c in scan for p in c) == \
            sorted(p for c in ref_scan for p in c)

        full, to_point = _call_points(maximize_rho_s, f, coupled,
                                      optimize.POLISH_SWEEPS)
        ref_full, ref_to_point = _call_points(
            reference_maximize_rho_s, f, coupled, optimize.POLISH_SWEEPS)
        assert all(to_point[len(scan):]) and not any(ref_to_point)
        polish = [p for c in full[len(scan):] for p in c]
        ref_polish = [p for c in ref_full[len(ref_scan):] for p in c]
        incumbent = ref_polish[0]
        assert incumbent in {p for c in scan for p in c}
        assert polish == list(dict.fromkeys(ref_polish))[1:]
        assert len(full) < len(ref_full)
