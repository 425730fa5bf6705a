"""Random-coding ensemble: message spaces, codebook sampling, and the
per-symbol codebook-ensemble expectations used by thresholds and exponents.

Seeding rule (fixed so that trials parallelize deterministically): every
stream is a ``numpy.random.Philox`` generator keyed by a ``SeedSequence``
whose entropy is the tuple ``(master_seed..., user_index, code_index)``.
Message and symbol positions enter through the draw order inside the
stream, so a fixed (master_seed, user, code) always reproduces the same
codeword table bit for bit.  A :class:`CodebookRealization` draws each
table on its first read and reads a single codeword of an undrawn table by
skipping its stream ahead to the row.
"""

from __future__ import annotations

import math

import numpy as np

from .channel import SystemModel, marginalize_out
from .errors import (
    CodeOutOfRange,
    DomainError,
    MessageOutOfRange,
    ShapeMismatch,
)

_NEG_INF = float("-inf")


def message_count(rate: float, N: int) -> int:
    """Number of messages of a rate-``rate`` (nats/symbol) code at
    blocklength N: floor(e^{N r}), floored at 1 so zero-rate codes exist.

    The floor carries a 1e-12 relative slack so rates given as float logs
    of integers (e.g. log 2) yield the exact integer count.  A count past
    the float range raises DomainError.
    """
    if rate < 0:
        raise ShapeMismatch(f"rate must be >= 0, got {rate}")
    if N < 1:
        raise ShapeMismatch(f"blocklength must be >= 1, got {N}")
    try:
        return max(1, int(math.floor(math.exp(N * rate) * (1.0 + 1e-12))))
    except OverflowError:
        raise DomainError(f"e^(N r) messages at N={N}, r={rate} nats is "
                          f"past the float range") from None


def _as_entropy(master_seed) -> tuple[int, ...]:
    if isinstance(master_seed, (tuple, list)):
        return tuple(int(x) for x in master_seed)
    return (int(master_seed),)


def stream(master_seed, *path: int) -> np.random.Generator:
    """Deterministic generator for (master_seed, *path)."""
    ss = np.random.SeedSequence(_as_entropy(master_seed) + tuple(path))
    return np.random.Generator(np.random.Philox(ss))


def sample_from_pmf(rng: np.random.Generator, pmf: np.ndarray, shape):
    """i.i.d. draws from a finite pmf, one uniform each, by inverse CDF."""
    return _inverse_cdf(pmf, rng.random(shape))


def _inverse_cdf(pmf: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Symbols of the finite pmf at uniforms ``u``, elementwise.

    Each symbol is the number of cumulative entries <= its uniform u, one
    comparison per symbol.  The cumulative sums are nondecreasing and the
    last one is set to 1.0 > u, so that last entry needs no comparison and
    the count equals ``searchsorted(cum, u, side="right")``.
    """
    cum = np.cumsum(pmf)
    cum[-1] = 1.0
    idx = (u >= cum[0]).astype(np.int64)
    for c in cum[1:-1]:
        idx += u >= c
    return idx


def draw_table(rng: np.random.Generator, pmf: np.ndarray, shape):
    """A code's (messages, N) codeword table, drawn from its own stream:
    the one call behind every table draw, so a trace or a test sees each."""
    return sample_from_pmf(rng, pmf, shape)


class CodebookRealization:
    """One sampled draw of every regular user's codebook library.

    ``counts[(k, g_k)]`` = message_count(r_k(g_k), N) for every code g_k of
    every regular user k: the library.  ``tables`` holds the tables drawn
    so far, each an integer array of shape (counts[(k, g_k)], N) whose
    symbols are i.i.d. from the code's input pmf; :meth:`table` draws one
    from ``stream(master_seed, k, g_k)`` on its first call, so a table gets
    the same symbols whichever other tables are drawn.  Interfering users
    have no tables (the receiver only knows their input distributions).
    """

    def __init__(self, model: SystemModel, N: int, master_seed):
        if N < 1:
            raise ShapeMismatch(f"blocklength must be >= 1, got {N}")
        self.N = N
        self.master_seed = _as_entropy(master_seed)
        self.counts = {(k, g_k): message_count(spec.rate, N)
                       for k in range(model.K)
                       for g_k, spec in enumerate(model.libraries[k])}
        self.tables = {}
        self._model, self._rngs = model, {}

    def _stream(self, k: int, g_k: int) -> np.random.Generator:
        """The stream of code g_k of user k, built once."""
        if (k, g_k) not in self.counts:
            raise CodeOutOfRange(f"no code ({k}, {g_k}) in realization")
        if (k, g_k) not in self._rngs:
            self._rngs[k, g_k] = stream(self.master_seed, k, g_k)
        return self._rngs[k, g_k]

    def table(self, k: int, g_k: int) -> np.ndarray:
        """The codeword table of code g_k of user k, drawn on first call."""
        if (k, g_k) not in self.tables:
            self.tables[k, g_k] = draw_table(
                self._stream(k, g_k), self._model.input_pmf(k, g_k),
                (self.counts[k, g_k], self.N))
        return self.tables[k, g_k]

    def codeword(self, k: int, g_k: int, w: int) -> np.ndarray:
        """Codeword of message w (1-based) of code g_k of user k, without
        drawing an undrawn table: the N doubles at offset (w-1)*N of its
        stream, reached by ``advance((w-1)*N // 4)`` (Philox makes four per
        step) and (w-1)*N mod 4 discards.  The stream's state is restored,
        so a later full draw gets the same bits from the same stream."""
        rng = self._stream(k, g_k)
        n = self.counts[k, g_k]
        if not 1 <= w <= n:
            raise MessageOutOfRange(
                f"message {w} outside 1..{n} for user {k} code {g_k}")
        if (k, g_k) in self.tables:
            return self.tables[k, g_k][w - 1]
        skip = (w - 1) * self.N
        state = rng.bit_generator.state
        rng.bit_generator.advance(skip // 4)
        rng.random(skip % 4)
        row = sample_from_pmf(rng, self._model.input_pmf(k, g_k), self.N)
        rng.bit_generator.state = state
        return row


def sample_codebook(model: SystemModel, N: int,
                    master_seed) -> CodebookRealization:
    """Draw a fresh codebook realization with every table drawn."""
    codebooks = CodebookRealization(model, N, master_seed)
    for key in codebooks.counts:
        codebooks.table(*key)
    return codebooks


def _logsumexp(a, axis: int):
    """log(sum(exp(a))) along ``axis``, by scipy.special.logsumexp's
    real-input algorithm (scipy 1.17.1) step for step, so that results agree
    with it bit for bit: take the maximum a_max and the count m of maximal
    entries, sum exp(a - a_max) over the other entries, divide that sum by
    m where it is nonzero, and return log1p(s) + log(m) + a_max; where that
    is not finite, return log(sum(exp(a))) instead.

    When every a_max is finite no step can warn or yield a non-finite
    value, and the maximal entries' exp(a - a_max) = 1 are zeroed after the
    exponential rather than set to -inf before it; both give the same array.
    """
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


def scale_log(c, logs):
    """c * logs with the x^0 = 1 convention: a zero coefficient wipes a
    -inf log-probability instead of producing nan."""
    c = np.asarray(c, dtype=float)
    logs = np.asarray(logs, dtype=float)
    with np.errstate(invalid="ignore"):
        out = c * logs
    neg = np.isneginf(logs) & (np.broadcast_to(c, out.shape) == 0.0)
    if np.any(neg):
        out = np.where(neg, 0.0, out)
    return out


def subset_weights_log(model: SystemModel, users, g) -> np.ndarray:
    """Flattened log prod_k P_{X|g_k}(x_k) over the sorted user list; the
    empty list yields the single weight log 1 = 0."""
    users = sorted(users)
    w = np.zeros(1)
    for k in users:
        with np.errstate(divide="ignore"):
            lw = np.log(model.input_pmf(k, g[k]))
        w = (w[:, None] + lw[None, :]).reshape(-1)
    return w


def marginal_log_table(model: SystemModel, D, g, fixed, free) -> np.ndarray:
    """Log P(Y | X_D, g) with the D axes split and flattened into
    (|Y|, prod fixed sizes, prod free sizes); ``fixed``/``free`` partition D
    (each sorted ascending)."""
    D = sorted(set(fixed) | set(free))
    marg = marginalize_out(model, D, g)
    lm = marg.log_pmf()  # axes: (*sorted D, Y)
    order = [D.index(k) for k in sorted(fixed)] + \
            [D.index(k) for k in sorted(free)]
    lm = np.moveaxis(lm, -1, 0)  # (Y, *sorted D)
    lm = np.transpose(lm, axes=[0] + [1 + i for i in order])
    n_fixed = int(np.prod([model.dmc.input_sizes[k] for k in sorted(fixed)])) \
        if fixed else 1
    n_free = int(np.prod([model.dmc.input_sizes[k] for k in sorted(free)])) \
        if free else 1
    return np.ascontiguousarray(lm.reshape(lm.shape[0], n_fixed, n_free))


def flatten_symbols(model: SystemModel, users, rows: np.ndarray) -> np.ndarray:
    """Mixed-radix flatten of per-user symbol rows (..., len(users), N) into
    flat indices (..., N) matching :func:`marginal_log_table`'s fixed axis."""
    flat = np.zeros(rows.shape[:-2] + rows.shape[-1:], dtype=np.int64)
    for i, k in enumerate(sorted(users)):
        flat = flat * model.dmc.input_sizes[k] + rows[..., i, :]
    return flat


def _letter_table(model: SystemModel, D, fixed, free, g, a: float):
    """(|Y|, |X_fixed|) table of per-letter log expectations,
    log sum_{x_free} w(x_free) P(y | x_fixed, x_free, g)^a, memoized on the
    model per (D, fixed, g, a)."""
    key = (tuple(D), tuple(fixed), tuple(g), a)
    table = model._letter_cache.get(key)
    if table is None:
        lm = marginal_log_table(model, D, g, fixed, free)  # (Y, F, R)
        logw = subset_weights_log(model, free, g)          # (R,)
        table = _logsumexp(logw + scale_log(a, lm), axis=2)
        table.setflags(write=False)
        model._letter_cache[key] = table
    return table


def ensemble_log_expectation(model: SystemModel, D, S, g, y: np.ndarray,
                             x_fixed, a: float) -> float:
    """Log of the codebook-ensemble expectation of the candidate sequence
    likelihood raised to ``a``:

        sum_j log sum_{X_{D\\S}} prod_{k in D\\S} P_{X|g_k}(X_k)
                  * P(y_j | x_{S cap D, j}, X_{D\\S}, g)^a

    ``x_fixed`` holds the fixed symbols of users sorted(S cap D), shape
    (|S cap D|, N), or a block of m such rows, shape (m, |S cap D|, N), for
    which the m values come back as an array.  The free users D\\S are
    averaged under their code-g input pmfs.  The channel is memoryless, so
    this is a sum of per-letter table entries T[y_j, x_fixed_j]; a block
    row's sum equals the single row's bit for bit.  Returns -inf when the
    inner sum vanishes (possible for a > 0 on channels with zeros); never
    raises for that.
    """
    D = sorted(set(D))
    S = set(S)
    fixed = sorted(set(D) & S)
    free = sorted(set(D) - S)
    y = np.asarray(y, dtype=np.int64)
    table = _letter_table(model, D, fixed, free, g, a)
    x_fixed = np.asarray(x_fixed, dtype=np.int64)
    if x_fixed.ndim == 3:
        return table[y, flatten_symbols(model, fixed, x_fixed)].sum(axis=1)
    x_fixed = x_fixed.reshape(len(fixed), len(y))
    return float(np.sum(table[y, flatten_symbols(model, fixed, x_fixed)]))
