"""Maximization of the smooth exponent objectives over open unit boxes.

Strategy: coarse grid on the half-open parameter box, two rounds of local
grid refinement around the incumbent, then a coordinate-wise bounded-Brent
polish.  The reported value is the best point ever evaluated, so enabling
more stages can never decrease it, and doubling the base grid evaluates a
superset of points (grids are nested: lo + (hi-lo)*i/n for i = 1..n).

The polish stage exists because several contracts compare independently
computed maxima at 1e-9; a pure grid search stops near 1e-6.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.optimize import minimize_scalar

EPS = 1e-6  # open-interval floor for (0, 1] parameters


@dataclass(frozen=True)
class SearchSettings:
    base_grid: int = 64
    refine_rounds: int = 2
    refine_points: int = 9
    polish: bool = True
    polish_xatol: float = 1e-12
    polish_value_tol: float = 1e-13
    polish_sweeps: int = 60
    eps: float = EPS


DEFAULT_SETTINGS = SearchSettings()


@dataclass(frozen=True)
class SearchResult:
    value: float
    argmax: tuple[float, ...]
    grid_shape: tuple[int, ...]


def _axis(lo: float, hi: float, n: int) -> np.ndarray:
    """n points on (lo, hi]; doubling n yields a superset of points."""
    return lo + (hi - lo) * np.arange(1, n + 1) / n


def _brent_max(f, lo: float, hi: float, x0: float, xatol: float):
    """Bounded scalar maximization; returns the best of Brent's point, the
    start point and both endpoints (never regresses)."""
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


def maximize_scalar(f, lo: float, hi: float,
                    settings: SearchSettings = DEFAULT_SETTINGS) -> SearchResult:
    """Maximize a vectorized scalar function f(x_array) on (lo, hi]."""
    xs = _axis(lo, hi, settings.base_grid)
    vs = np.asarray(f(xs), dtype=float)
    i = int(np.nanargmax(vs))
    best_x, best_v = float(xs[i]), float(vs[i])
    step = (hi - lo) / settings.base_grid
    for _ in range(settings.refine_rounds):
        a, b = max(lo, best_x - step), min(hi, best_x + step)
        xs = np.linspace(a, b, settings.refine_points)
        vs = np.asarray(f(xs), dtype=float)
        i = int(np.nanargmax(vs))
        if vs[i] > best_v:
            best_x, best_v = float(xs[i]), float(vs[i])
        step = (b - a) / max(settings.refine_points - 1, 1)
    if settings.polish:
        fs = lambda x: float(f(np.asarray([x]))[0])
        x, v = _brent_max(fs, lo, hi, best_x, settings.polish_xatol)
        if v > best_v:
            best_x, best_v = x, v
    return SearchResult(best_v, (best_x,), (settings.base_grid,))


def maximize_rho_s(f, rho_hi: float = 1.0, s_cap=None,
                   settings: SearchSettings = DEFAULT_SETTINGS) -> SearchResult:
    """Maximize f(rho, s_array) over rho in (eps, rho_hi], s in (eps, s_max].

    ``s_cap``: None for s_max = 1 independent of rho, or a callable
    rho -> s_max (the coupled constraint s <= 1 - rho uses
    ``s_cap=lambda r: 1.0 - r``).  rho values whose s-range collapses below
    eps are skipped.
    """
    eps = settings.eps
    s_max = (lambda r: 1.0) if s_cap is None else s_cap

    def s_range_ok(r):
        return s_max(r) > eps

    best = (-np.inf, eps, eps)

    def scan(rhos, s_windows=None):
        nonlocal best
        for rho in rhos:
            if not s_range_ok(rho):
                continue
            if s_windows is None:
                ss = _axis(eps, s_max(rho), settings.base_grid)
            else:
                a, b = s_windows
                a, b = max(eps, a), min(s_max(rho), b)
                if b <= a:
                    continue
                ss = np.linspace(a, b, settings.refine_points)
            vs = np.asarray(f(rho, ss), dtype=float)
            j = int(np.nanargmax(vs))
            if vs[j] > best[0]:
                best = (float(vs[j]), float(rho), float(ss[j]))

    rho_grid = _axis(eps, rho_hi, settings.base_grid)
    scan(rho_grid)
    rho_step = (rho_hi - eps) / settings.base_grid
    for _ in range(settings.refine_rounds):
        _, r0, s0 = best
        a, b = max(eps, r0 - rho_step), min(rho_hi, r0 + rho_step)
        rhos = np.linspace(a, b, settings.refine_points)
        # s window scales with the current s grid step around the incumbent
        s_step = max(s_max(r0) - eps, eps) / settings.base_grid
        scan(rhos, s_windows=(s0 - s_step, s0 + s_step))
        rho_step = (b - a) / max(settings.refine_points - 1, 1)

    if settings.polish:
        fhat = lambda r, s: float(f(r, np.asarray([s]))[0])
        for _ in range(settings.polish_sweeps):
            v_prev, r0, s0 = best
            # s sweep at fixed rho
            s_hi = s_max(r0)
            if s_hi > eps:
                s_new, v = _brent_max(lambda s: fhat(r0, s), eps, s_hi,
                                      min(s0, s_hi), settings.polish_xatol)
                if v > best[0]:
                    best = (v, r0, s_new)
            # rho sweep at fixed s; under a coupled cap keep s <= s_max(rho)
            _, r0, s0 = best
            if s_cap is None:
                r_hi = rho_hi
            else:
                r_hi = _max_feasible_rho(s_max, s0, rho_hi, eps)
            if r_hi > eps:
                r_new, v = _brent_max(lambda r: fhat(r, s0), eps, r_hi,
                                      min(r0, r_hi), settings.polish_xatol)
                if v > best[0]:
                    best = (v, r_new, s0)
            if best[0] - v_prev < settings.polish_value_tol:
                break
    return SearchResult(best[0], (best[1], best[2]),
                        (settings.base_grid, settings.base_grid))


def _max_feasible_rho(s_max, s0: float, rho_hi: float, eps: float) -> float:
    """Largest rho in (eps, rho_hi] with s0 <= s_max(rho), by bisection
    (s_max is nonincreasing for the coupled constraint used here)."""
    if s0 <= s_max(rho_hi):
        return rho_hi
    if s0 > s_max(eps):
        return eps
    lo, hi = eps, rho_hi
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if s0 <= s_max(mid):
            lo = mid
        else:
            hi = mid
    return lo
