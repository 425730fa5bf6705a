"""The exponent maximizer: grid and refinement properties, and the bounded
Brent polish against the scipy routine it was ported from.

``reference_brent_max`` is the polish as it was when it called
``scipy.optimize.minimize_scalar(method="bounded")``.  The in-house port
must evaluate the same points in the same order and return the same bits,
on plain objectives and on the real exponent objectives of the Sec. 4 and
two-user workloads, and a fresh interpreter running gepkit must not import
scipy at all.
"""

import math
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import minimize_scalar

from gepkit import optimize
from gepkit.cli import detection_reports, scenario_bound
from gepkit.exponents import ExponentCache
from gepkit.optimize import (
    _axis,
    _brent_max,
    maximize_rho_s,
    maximize_scalar,
)
from gepkit.scenario import parse_scenario

from conftest import ROOT, load_workloads, small_search


def test_axis_is_nested_under_doubling():
    a = set(np.round(_axis(1e-6, 1.0, 16), 15))
    b = set(np.round(_axis(1e-6, 1.0, 32), 15))
    assert a <= b


def test_scalar_known_maximum():
    f = lambda x: -(np.asarray(x) - 0.37) ** 2
    res = maximize_scalar(f, 1e-6, 1.0)
    assert res.argmax[0] == pytest.approx(0.37, abs=1e-9)
    assert res.value == pytest.approx(0.0, abs=1e-15)


def test_scalar_boundary_maximum_exact():
    f = lambda x: np.asarray(x) * 2.0
    res = maximize_scalar(f, 1e-6, 1.0)
    assert res.argmax[0] == 1.0
    assert res.value == 2.0


def test_grid_refinement_monotone():
    f = lambda x: np.sin(7.0 * np.asarray(x))
    with small_search(16, 0):
        coarse = maximize_scalar(f, 1e-6, 1.0)
    with small_search(32, 0):
        fine = maximize_scalar(f, 1e-6, 1.0)
    assert fine.value >= coarse.value


def test_rho_s_known_maximum():
    def f(rho, s):
        s = np.asarray(s)
        return -(rho - 0.4) ** 2 - (s - 0.6) ** 2
    res = maximize_rho_s(f)
    assert res.argmax[0] == pytest.approx(0.4, abs=1e-7)
    assert res.argmax[1] == pytest.approx(0.6, abs=1e-7)
    assert res.value == pytest.approx(0.0, abs=1e-13)


def test_rho_s_coupled_constraint_respected():
    calls = []

    def f(rho, s):
        s = np.asarray(s)
        calls.append((rho, s.copy()))
        return rho + s  # pushes toward the s = 1 - rho boundary

    res = maximize_rho_s(f, coupled=True)
    for rho, s in calls:
        assert np.all(s <= 1.0 - rho + 1e-12)
    assert res.value == pytest.approx(1.0, abs=1e-9)


def test_shift_equivariance_is_exact():
    def base(rho, s):
        s = np.asarray(s)
        return -((rho - 0.3) ** 2) * (1 + s) - np.log1p(s * rho)

    r0 = maximize_rho_s(base)
    r1 = maximize_rho_s(lambda rho, s: base(rho, s) + 0.7)
    assert r1.value - r0.value == pytest.approx(0.7, abs=1e-12)


def reference_brent_max(f, lo, hi, x0, xatol):
    """The polish before the port: scipy's bounded Brent on -f, then the
    best of its point, the start point and both endpoints."""
    best_x, best_v = x0, f(x0)
    if hi - lo > 4 * xatol:
        res = minimize_scalar(lambda x: -f(x), bounds=(lo, hi),
                              method="bounded", options={"xatol": xatol})
        if np.isfinite(res.fun) and -res.fun > best_v:
            best_x, best_v = float(res.x), float(-res.fun)
    for x in (lo, hi):
        v = f(x)
        if v > best_v:
            best_x, best_v = x, v
    return best_x, best_v


def _bits(values):
    return [float(v).hex() for v in values]


def _polish_trace(brent_max, g, lo, hi, x0, xatol):
    """(x, v) of one polish and every point it evaluated, as bit strings.
    scipy's numpy scalars warn on inf - inf where Python floats do not."""
    points = []

    def f(x):
        points.append(x)
        return g(x)

    with np.errstate(all="ignore"):
        x, v = brent_max(f, lo, hi, x0, xatol)
    return _bits((x, v)), _bits(points)


def _objective(kind, c, w, cut, special, above):
    if kind == "quadratic":
        return lambda x: -(x - c) ** 2
    if kind == "sinusoid":
        return lambda x: math.sin(w * x + c)
    if kind == "flat":
        return lambda x: c
    if kind == "numpy scalars":
        return lambda x: np.float64(-abs(x - c)) * np.float64(w)
    # +inf, -inf or nan on one side of the cut, a quadratic on the other
    return lambda x: special if (x > cut) == above else -(x - c) ** 2


KINDS = ("quadratic", "sinusoid", "flat", "numpy scalars", "nonfinite")
XATOLS = (1e-12, 1e-8, 1e-5, 1e-2)


class TestBrentPort:
    """The port against scipy: same points evaluated, same result bits."""

    @pytest.mark.parametrize("kind", KINDS)
    @settings(max_examples=60)
    @given(c=st.floats(-1.0, 2.0), w=st.floats(0.1, 40.0),
           cut=st.floats(0.0, 1.0),
           special=st.sampled_from((math.inf, -math.inf, math.nan)),
           above=st.booleans(), lo=st.floats(0.0, 0.5),
           xatol=st.sampled_from(XATOLS),
           width=st.sampled_from(("skip", "just above", "wide")),
           wide=st.floats(1e-9, 1.5), u=st.floats(0.0, 1.0))
    def test_matches_scipy_point_for_point(self, kind, c, w, cut, special,
                                           above, lo, xatol, width, wide, u):
        # intervals at the 4 * xatol width below which Brent is skipped,
        # just above it, and wide
        hi = lo + {"skip": 4 * xatol, "just above": 4 * xatol * (1 + 1e-6),
                   "wide": wide}[width]
        x0 = lo + u * (hi - lo)
        g = _objective(kind, c, w, cut, special, above)
        mine = _polish_trace(_brent_max, g, lo, hi, x0, xatol)
        assert mine == _polish_trace(reference_brent_max, g, lo, hi, x0,
                                     xatol)

    def test_evaluation_cap(self):
        # the minimum at 0 with xatol = 0 never meets the tolerance, so
        # Brent stops at scipy's 500 evaluations (plus x0 and the endpoints)
        g = lambda x: -abs(x)
        mine = _polish_trace(_brent_max, g, -1.0, 1.0, 0.5, 0.0)
        assert len(mine[1]) == 1 + 500 + 2
        assert mine == _polish_trace(reference_brent_max, g, -1.0, 1.0, 0.5,
                                     0.0)


def _recorded_maximizations(scenario, monkeypatch):
    """Every (maximizer, objective, args, kwargs) that the scenario's bound
    and detection bound hand to the optimizer."""
    calls = []
    for name in ("maximize_rho_s", "maximize_scalar"):
        real = getattr(optimize, name)

        def record(f, *args, _name=name, _real=real, **kwargs):
            calls.append((_name, f, args, kwargs))
            return _real(f, *args, **kwargs)
        monkeypatch.setattr(f"gepkit.exponents.{name}", record)
    cache = ExponentCache()
    scenario_bound(scenario, cache)
    detection_reports(scenario, scenario.model.index_space(), cache)
    monkeypatch.undo()
    return calls


@pytest.mark.parametrize("name", ["sec4-detect", "mac2-partition"])
def test_real_objectives_give_the_reference_search_results(name,
                                                           monkeypatch):
    scenario = parse_scenario(load_workloads().generate(name, ROOT))
    calls = _recorded_maximizations(scenario, monkeypatch)
    kinds = {(n, kw.get("coupled", False)) for n, _, _, kw in calls}
    # EmD (uncoupled), EiD (s <= 1 - rho) and Ec (scalar) all occur
    assert kinds == {("maximize_rho_s", False), ("maximize_rho_s", True),
                     ("maximize_scalar", False)}
    mine = [getattr(optimize, n)(f, *a, **kw) for n, f, a, kw in calls]
    monkeypatch.setattr(optimize, "_brent_max", reference_brent_max)
    with np.errstate(all="ignore"):
        ref = [getattr(optimize, n)(f, *a, **kw) for n, f, a, kw in calls]
    for m, r in zip(mine, ref):
        assert _bits((m.value,) + m.argmax) == _bits((r.value,) + r.argmax)


def test_fresh_interpreter_imports_no_scipy():
    script = """
import importlib, pkgutil, sys
import gepkit, gepkit.cli
for mod in pkgutil.iter_modules(gepkit.__path__):
    importlib.import_module("gepkit." + mod.name)
from gepkit.montecarlo import run_trials
from gepkit.scenario import load_scenario
run_trials(load_scenario(sys.argv[1]), 1, 1)
print(sorted(m for m in sys.modules if m.startswith("scipy")))
"""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + [p for p in [env.get("PYTHONPATH")] if p])
    proc = subprocess.run(
        [sys.executable, "-c", script,
         str(ROOT / "scenarios" / "bsc_compound_sec4.json")],
        capture_output=True, text=True, env=env, check=True)
    assert proc.stdout.strip() == "[]"
