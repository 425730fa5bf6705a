"""The exponent-objective kernel as it was before the lean log-sum-exp and
the stacked E_mD objective, kept as the slow reference for them.

``reference_logsumexp`` and ``reference_scale_log`` are the two helpers
step for step; ``reference_emd``, ``reference_eid`` and ``reference_ec``
are the objective factories, each taking the same tables as its
counterpart in :mod:`gepkit.exponents` (``_emd``, ``_eid``, ``_ec``) and
evaluating one log-sum-exp per side.  :data:`FACTORIES` maps each
counterpart's name to its reference, so a test can swap them in.
"""

from __future__ import annotations

import numpy as np

_NEG_INF = float("-inf")


def reference_logsumexp(a, axis: int):
    a = np.asarray(a, dtype=float)
    if a.ndim == 0:
        a = a.reshape(1)
    a_max = a.max(axis=axis, keepdims=True)
    i_max = a == a_max
    m = i_max.sum(axis=axis, keepdims=True, dtype=float)
    if np.isfinite(a_max).all():
        e = np.exp(a - a_max)
        e[i_max] = 0.0
        s = e.sum(axis=axis, keepdims=True)
        out = np.log1p(s / m) + np.log(m) + a_max
    else:
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            shifted = np.array(a, copy=True)
            shifted[i_max] = _NEG_INF
            s = np.exp(shifted - a_max).sum(axis=axis, keepdims=True)
            s = np.where(s == 0, s, s / m)
            out = np.log1p(s) + np.log(m) + a_max
            out = np.where(np.isfinite(out), out,
                           np.log(np.exp(a).sum(axis=axis, keepdims=True)))
    out = out.squeeze(axis=axis)
    return out[()] if out.ndim == 0 else out


def reference_scale_log(c, logs):
    c = np.asarray(c, dtype=float)
    logs = np.asarray(logs, dtype=float)
    with np.errstate(invalid="ignore"):
        out = c * logs
    neg = np.isneginf(logs) & (np.broadcast_to(c, out.shape) == 0.0)
    if np.any(neg):
        out = np.where(neg, 0.0, out)
    return out


def _scaler(logs):
    if np.isneginf(logs).any():
        return lambda c: reference_scale_log(c, logs)
    return lambda c: np.asarray(c, dtype=float) * logs


def reference_emd(lw_g, a_g, lw_t, a_t, lw_fixed, rate_sum):
    scale_g, scale_t = _scaler(a_g[None]), _scaler(a_t[None])

    def objective(rho, s):
        s = np.asarray(s, dtype=float).reshape(-1, 1, 1, 1)
        t1 = reference_logsumexp(lw_g[None, None, None, :]
                                 + scale_g(1.0 - s), axis=3)
        t2 = reference_logsumexp(lw_t[None, None, None, :]
                                 + scale_t(s / rho), axis=3)
        combined = lw_fixed[None, None, :] + t1 + rho * t2
        total = reference_logsumexp(
            combined.reshape(combined.shape[0], -1), axis=1)
        return -rho * rate_sum - total

    return objective


def reference_eid(lw_g, a_g, t2c, lw_fixed, rate_sum):
    scale_g, scale_t2c = _scaler(a_g[None]), _scaler(t2c[None])

    def objective(rho, s):
        s = np.asarray(s, dtype=float).reshape(-1, 1, 1, 1)
        t1 = reference_logsumexp(lw_g[None, None, None, :]
                                 + scale_g(s / (s + rho)), axis=3)
        s2 = s.reshape(-1, 1, 1)
        combined = (lw_fixed[None, None, :] + reference_scale_log(s2 + rho, t1)
                    + scale_t2c(1.0 - s2))
        total = reference_logsumexp(
            combined.reshape(combined.shape[0], -1), axis=1)
        return -rho * rate_sum - total

    return objective


def reference_ec(lp, lq):
    scale_p, scale_q = _scaler(lp[None, :]), _scaler(lq[None, :])

    def objective(s):
        s = np.asarray(s, dtype=float).reshape(-1, 1)
        terms = scale_p(s) + scale_q(1.0 - s)
        return -reference_logsumexp(terms, axis=1)

    return objective


FACTORIES = {"_emd": reference_emd, "_eid": reference_eid,
             "_ec": reference_ec}
