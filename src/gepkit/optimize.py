"""Maximization of the smooth exponent objectives over open unit boxes.

Strategy: coarse grid on the half-open parameter box, ``REFINE_ROUNDS``
rounds of local grid refinement around the incumbent, then a coordinate-wise
bounded-Brent polish.  The stages are fixed; the reported value is the best
point ever evaluated, so no later stage can lower what an earlier one found,
and doubling the base grid evaluates a superset of points (grids are nested:
lo + (hi-lo)*i/n for i = 1..n).

The polish stage exists because several contracts compare independently
computed maxima at 1e-9; a pure grid search stops near 1e-6.  It is Brent's
bounded method, ported from scipy 1.17.1 and tested against it bit for bit.
Its points are sequential, so the scalar and the (rho, s) polish evaluate
them through one single-point evaluator, :func:`_point_value`: the
objective's float twin ``f.point`` where it has one (the E_mD and E_iD
objectives) and it gives a number, a one-point array call's bits without
numpy's call overhead; otherwise the one-point array call itself.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

EPS = 1e-6  # open-interval floor for (0, 1] parameters
BASE_GRID = 64  # base grid points per axis
REFINE_ROUNDS = 2  # local refinement rounds after the base grid
REFINE_POINTS = 9  # points per axis of a refinement round's window
POLISH_XATOL = 1e-12  # the Brent polish's absolute argument tolerance
POLISH_VALUE_TOL = 1e-13  # a polish sweep gaining less ends the polish
POLISH_SWEEPS = 60  # at most this many (s, rho) polish sweeps
SCAN_POINTS = 1024  # most (rho, s) points one scan call evaluates
_SQRT_EPS = math.sqrt(2.2e-16)  # the Brent polish's constants, as in scipy
_GOLDEN = 0.5 * (3.0 - math.sqrt(5.0))


@dataclass(frozen=True)
class SearchResult:
    value: float
    argmax: tuple[float, ...]


def _axis(lo: float, hi, n: int) -> np.ndarray:
    """n points on (lo, hi]; doubling n yields a superset of points.  An
    array hi gives one such row per entry."""
    return lo + np.multiply.outer(hi - lo, np.arange(1, n + 1)) / n


def _brent_max(f, lo: float, hi: float, x0: float, xatol: float):
    """Bounded scalar maximization; returns the best of Brent's point, the
    start point and both endpoints (never regresses)."""
    best_x, best_v = x0, f(x0)
    if hi - lo > 4 * xatol:
        x, v = _bounded_brent(f, lo, hi, xatol)
        if np.isfinite(v) and v > best_v:
            best_x, best_v = float(x), float(v)
    for x in (lo, hi):
        v = f(x)
        if v > best_v:
            best_x, best_v = x, v
    return best_x, best_v


def _unit_step(r):  # np.sign(r) + (r == 0): nan for nan, else -1 or 1
    return -1.0 if r < 0 else 1.0 if r >= 0 else math.nan


def _bounded_brent(f, a, b, xatol):
    """Brent's bounded minimization of -f on [a, b] by scipy 1.17.1's float
    operations in their order, stopping after at most 500 evaluations as
    scipy does by default; returns Brent's final point and f there."""
    fulc = nfc = xf = a + _GOLDEN * (b - a)
    rat = e = 0.0
    fx = ffulc = fnfc = -f(xf)
    num = 1
    while True:
        xm = 0.5 * (a + b)
        tol1 = _SQRT_EPS * abs(xf) + xatol / 3.0
        tol2 = 2.0 * tol1
        if num >= 500 or not abs(xf - xm) > tol2 - 0.5 * (b - a):
            return xf, -fx
        golden = True
        if abs(e) > tol1:  # try a parabolic fit
            r = (xf - nfc) * (fx - ffulc)
            q = (xf - fulc) * (fx - fnfc)
            p = (xf - fulc) * q - (xf - nfc) * r
            q = 2.0 * (q - r)
            p = -p if q > 0.0 else p
            q = abs(q)
            r, e = e, rat
            if (abs(p) < abs(0.5 * q * r) and p > q * (a - xf)
                    and p < q * (b - xf)):
                golden = False
                rat = (p + 0.0) / q
                x = xf + rat
                if x - a < tol2 or b - x < tol2:
                    rat = tol1 * _unit_step(xm - xf)
        if golden:
            e = a - xf if xf >= xm else b - xf
            rat = _GOLDEN * e
        m = abs(rat)  # np.maximum(|rat|, tol1): nan if either is nan
        x = xf + _unit_step(rat) * (m if m >= tol1 or m != m else tol1)
        fu = -f(x)
        num += 1
        if fu <= fx:
            a, b = (xf, b) if x >= xf else (a, xf)
            fulc, ffulc, nfc, fnfc, xf, fx = nfc, fnfc, xf, fx, x, fu
        else:
            a, b = (x, b) if x < xf else (a, x)
            if fu <= fnfc or nfc == xf:
                fulc, ffulc, nfc, fnfc = nfc, fnfc, x, fu
            elif fu <= ffulc or fulc == xf or fulc == nfc:
                fulc, ffulc = x, fu


def _point_value(f, *x) -> float:
    """f at the one point x, f taking its last coordinate as an array: its
    float twin ``f.point(*x)`` where f has one and it is not nan (nan: the
    twin cannot give the array kernel's bits there), else ``f`` on a
    one-entry array."""
    v = f.point(*x) if hasattr(f, "point") else math.nan
    return v if v == v else float(f(*x[:-1], np.asarray([x[-1]]))[0])


def maximize_scalar(f, lo: float, hi: float) -> SearchResult:
    """Maximize a vectorized scalar function f(x_array) on (lo, hi]."""
    xs = _axis(lo, hi, BASE_GRID)
    vs = np.asarray(f(xs), dtype=float)
    i = int(np.nanargmax(vs))
    best_x, best_v = float(xs[i]), float(vs[i])
    step = (hi - lo) / BASE_GRID
    for _ in range(REFINE_ROUNDS):
        a, b = max(lo, best_x - step), min(hi, best_x + step)
        xs = np.linspace(a, b, REFINE_POINTS)
        vs = np.asarray(f(xs), dtype=float)
        i = int(np.nanargmax(vs))
        if vs[i] > best_v:
            best_x, best_v = float(xs[i]), float(vs[i])
        step = (b - a) / (REFINE_POINTS - 1)
    x, v = _brent_max(functools.partial(_point_value, f), lo, hi, best_x,
                      POLISH_XATOL)
    if v > best_v:
        best_x, best_v = x, v
    return SearchResult(best_v, (best_x,))


def maximize_rho_s(f, coupled=False) -> SearchResult:
    """Maximize f(rho, s) over rho in (EPS, 1], s in (EPS, s_max(rho)]:
    s_max = 1, or s_max = 1 - rho when ``coupled`` (the constraint
    s <= 1 - rho).

    ``f(rho, s)`` takes s as a float or an array and rho as a float or an
    array of s's shape, paired with s elementwise, and returns one value
    per point, flattened.  Each scan stage evaluates all its (rho, s) rows
    in calls of at most ``SCAN_POINTS`` points; the polish evaluates no
    point twice and starts from the scan's value at its incumbent.  rho
    values whose s-range collapses below EPS are skipped.
    """
    best = (-np.inf, EPS, EPS)

    def s_max(r):
        return 1.0 - r if coupled else 1.0

    def caps(rhos):
        return 1.0 - rhos if coupled else np.ones_like(rhos)

    def scan(rhos, ss):
        """Rows rho_i with s on ss[i], compared in order: a row's best point
        replaces the incumbent if it is larger."""
        nonlocal best
        if not len(rhos):
            return
        r, s = np.repeat(rhos, ss.shape[1]), ss.reshape(-1)
        vs = np.concatenate([
            np.asarray(f(r[i:i + SCAN_POINTS], s[i:i + SCAN_POINTS]),
                       dtype=float) for i in range(0, r.size, SCAN_POINTS)
        ]).reshape(ss.shape)
        js = np.nanargmax(vs, axis=1)
        row_best = vs[np.arange(len(js)), js]
        i = int(np.argmax(row_best))
        if row_best[i] > best[0]:
            best = (float(row_best[i]), float(rhos[i]), float(ss[i, js[i]]))

    rho_grid = _axis(EPS, 1.0, BASE_GRID)
    s_his = caps(rho_grid)
    keep = s_his > EPS
    scan(rho_grid[keep], _axis(EPS, s_his[keep], BASE_GRID))
    rho_step = (1.0 - EPS) / BASE_GRID
    for _ in range(REFINE_ROUNDS):
        _, r0, s0 = best
        a, b = max(EPS, r0 - rho_step), min(1.0, r0 + rho_step)
        rhos = np.linspace(a, b, REFINE_POINTS)
        # s window scales with the current s grid step around the incumbent
        s_step = max(s_max(r0) - EPS, EPS) / BASE_GRID
        s_lo, s_his = max(EPS, s0 - s_step), np.minimum(caps(rhos),
                                                        s0 + s_step)
        keep = s_his > s_lo
        scan(rhos[keep],
             np.linspace(s_lo, s_his[keep], REFINE_POINTS, axis=1))
        rho_step = (b - a) / (REFINE_POINTS - 1)

    # (rho, s) -> f there, f being deterministic; the scan's incumbent
    # is in it already (a scan call gives each point its own call's bits)
    seen = {} if best[0] == -np.inf else {best[1:]: best[0]}

    def value(r, s):
        if (r, s) not in seen:
            seen[r, s] = _point_value(f, r, s)
        return seen[r, s]

    for _ in range(POLISH_SWEEPS):
        v_prev, r0, s0 = best
        # s sweep at fixed rho
        s_hi = s_max(r0)
        if s_hi > EPS:
            s_new, v = _brent_max(lambda s: value(r0, s), EPS, s_hi,
                                  min(s0, s_hi), POLISH_XATOL)
            if v > best[0]:
                best = (v, r0, s_new)
        # rho sweep at fixed s; under the coupling keep s <= 1 - rho
        _, r0, s0 = best
        r_hi = _max_feasible_rho(s0) if coupled else 1.0
        if r_hi > EPS:
            r_new, v = _brent_max(lambda r: value(r, s0), EPS, r_hi,
                                  min(r0, r_hi), POLISH_XATOL)
            if v > best[0]:
                best = (v, r_new, s0)
        if best[0] - v_prev < POLISH_VALUE_TOL:
            break
    return SearchResult(best[0], (best[1], best[2]))


def _max_feasible_rho(s0: float) -> float:
    """Largest rho in (EPS, 1] with s0 <= 1 - rho, by bisection.  Not
    1 - s0, which lies some ulps away: the E_iD polish stops elsewhere."""
    if s0 <= 0.0:
        return 1.0
    if s0 > 1.0 - EPS:
        return EPS
    lo, hi = EPS, 1.0
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if s0 <= 1.0 - mid:
            lo = mid
        else:
            hi = mid
    return lo
