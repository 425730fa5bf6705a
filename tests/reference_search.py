"""The (rho, s) exponent search as it was before the broadcast scan and the
polish memo, kept as the reference for them.

``reference_maximize_rho_s`` scans the grid one row per objective call,
f(rho, s_row) with a scalar rho, and its polish calls f at every point
Brent asks for, repeats included.  It reads the search's constants, the
Brent polish and the feasible-rho bisection from :mod:`gepkit.optimize`
when called, so a test that patches them patches both searches.
"""

from __future__ import annotations

import numpy as np

from gepkit import optimize


def _row_axis(lo, hi, n):
    return lo + (hi - lo) * np.arange(1, n + 1) / n


def reference_maximize_rho_s(f, coupled=False) -> optimize.SearchResult:
    EPS, BASE_GRID = optimize.EPS, optimize.BASE_GRID
    REFINE_POINTS = optimize.REFINE_POINTS
    s_max = (lambda r: 1.0 - r) if coupled else (lambda r: 1.0)

    def s_range_ok(r):
        return s_max(r) > EPS

    best = (-np.inf, EPS, EPS)

    def scan(rhos, s_windows=None):
        nonlocal best
        for rho in rhos:
            if not s_range_ok(rho):
                continue
            if s_windows is None:
                ss = _row_axis(EPS, s_max(rho), BASE_GRID)
            else:
                a, b = s_windows
                a, b = max(EPS, a), min(s_max(rho), b)
                if b <= a:
                    continue
                ss = np.linspace(a, b, REFINE_POINTS)
            vs = np.asarray(f(rho, ss), dtype=float)
            j = int(np.nanargmax(vs))
            if vs[j] > best[0]:
                best = (float(vs[j]), float(rho), float(ss[j]))

    rho_grid = _row_axis(EPS, 1.0, BASE_GRID)
    scan(rho_grid)
    rho_step = (1.0 - EPS) / BASE_GRID
    for _ in range(optimize.REFINE_ROUNDS):
        _, r0, s0 = best
        a, b = max(EPS, r0 - rho_step), min(1.0, r0 + rho_step)
        rhos = np.linspace(a, b, REFINE_POINTS)
        s_step = max(s_max(r0) - EPS, EPS) / BASE_GRID
        scan(rhos, s_windows=(s0 - s_step, s0 + s_step))
        rho_step = (b - a) / (REFINE_POINTS - 1)

    fhat = lambda r, s: float(f(r, np.asarray([s]))[0])
    for _ in range(optimize.POLISH_SWEEPS):
        v_prev, r0, s0 = best
        s_hi = s_max(r0)
        if s_hi > EPS:
            s_new, v = optimize._brent_max(lambda s: fhat(r0, s), EPS, s_hi,
                                           min(s0, s_hi),
                                           optimize.POLISH_XATOL)
            if v > best[0]:
                best = (v, r0, s_new)
        _, r0, s0 = best
        r_hi = optimize._max_feasible_rho(s0) if coupled else 1.0
        if r_hi > EPS:
            r_new, v = optimize._brent_max(lambda r: fhat(r, s0), EPS, r_hi,
                                           min(r0, r_hi),
                                           optimize.POLISH_XATOL)
            if v > best[0]:
                best = (v, r_new, s0)
        if best[0] - v_prev < optimize.POLISH_VALUE_TOL:
            break
    return optimize.SearchResult(best[0], (best[1], best[2]))
