"""Random-coding ensemble: message spaces, codebook sampling, and the
per-symbol codebook-ensemble expectations used by thresholds and exponents.

Seeding rule (fixed so that trials parallelize deterministically): every
stream is a ``numpy.random.Philox`` generator keyed by a ``SeedSequence``
whose entropy is the tuple ``(master_seed..., user_index, code_index)``;
:func:`philox_keys` derives many such keys at once and :func:`rekey` moves a
reusable generator to a key's stream.  Message and symbol positions enter
through the draw order inside the stream, so a fixed (master_seed, user, code)
always reproduces the same codeword table bit for bit.  A
:class:`CodebookRealization` holds the codebooks of a block of trials: it
draws a table for every trial on the table's first read, one inverse CDF
over the block's uniforms; a codeword is a row of the drawn table, or else
one draw from each trial's stream re-keyed at the row's counter step.
Tables and codewords hold each symbol in the narrowest unsigned type of the
code's input letters.
"""

from __future__ import annotations

import copy
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

# NumPy's SeedSequence hash constants (NEP 19; numpy/random/bit_generator.pyx)
_MASK32, _INIT_A, _MULT_A = 0xFFFFFFFF, 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B, _MIX_L, _MIX_R = 0x8B51F9DD, 0x58F38DED, 0xCA01F9DD, \
    0x4973F715


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


def philox_keys(master_seed, *path) -> np.ndarray:
    """Philox keys of ``stream(master_seed, *path)`` for broadcasting path
    entries, shape (broadcast shape) + (2,): ``SeedSequence(entropy)
    .generate_state(2, np.uint64)`` on uint32 arrays.  A negative seed or
    an entry outside [0, 2^32) raises DomainError."""
    seed = _as_entropy(master_seed)
    words = [n >> 32 * i & _MASK32 for n in seed
             for i in range(-(-n.bit_length() // 32) or 1)]
    arrays = np.broadcast_arrays(*words, *path)
    if min(seed) < 0 or any(np.any((a < 0) | (a > _MASK32)) for a in arrays):
        raise DomainError(f"entropy {seed} + {path}: negative or over 32 bits")
    entropy = [a.reshape(-1).astype(np.uint32) for a in arrays]
    const = _INIT_A

    def hashmix(v, mult=_MULT_A):
        nonlocal const
        v, const = v ^ const, const * mult & _MASK32
        v = v * const
        return v ^ v >> 16

    def mix(x, y):
        v = x * _MIX_L - hashmix(y) * _MIX_R
        return v ^ v >> 16

    pool = [hashmix(v) for v in (entropy + [0 * entropy[0]] * 3)[:4]]
    for src in range(4):
        pool = [p if dst == src else mix(p, pool[src])
                for dst, p in enumerate(pool)]
    for word in entropy[4:]:
        pool = [mix(p, word) for p in pool]
    const = _INIT_B
    w = [hashmix(v, _MULT_B).astype(np.uint64) for v in pool]
    return np.stack([w[0] | w[1] << 32, w[2] | w[3] << 32],
                    axis=-1).reshape(arrays[0].shape + (2,))


def rekey(rng: np.random.Generator, key, block: int) -> np.random.Generator:
    """``rng``, a Philox generator, on the stream of ``key`` (a
    :func:`philox_keys` pair) where ``advance(block)`` puts :func:`stream`'s
    start: at its double 4 ``block`` (Philox makes four a counter step)."""
    rng.bit_generator.state = {"bit_generator": "Philox", "state": {
        "counter": (block, 0, 0, 0), "key": key}, "buffer": (0,) * 4,
        "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}
    return rng


def sample_from_pmf(rng: np.random.Generator, pmf: np.ndarray, shape):
    """i.i.d. int64 draws from a finite pmf, one uniform each, by inverse
    CDF."""
    return _inverse_cdf(pmf, rng.random(shape), np.int64)


def _inverse_cdf(pmf: np.ndarray, u: np.ndarray, dtype) -> np.ndarray:
    """Symbols of the finite pmf at uniforms ``u``, elementwise, as
    ``dtype``, by :func:`_count_at_or_below` on its cumulative sums."""
    return _count_at_or_below(np.cumsum(pmf)[:-1], u, dtype)


def _count_at_or_below(cum, u: np.ndarray, dtype) -> np.ndarray:
    """Inverse CDF at uniforms ``u``: how many entries of ``cum`` (scalars
    or arrays shaped like u) are <= u, elementwise, as ``dtype``.  ``cum``
    omits the last cumulative entry, taken as 1.0 > u, so the count equals
    ``searchsorted(cum + [1.0], u, side="right")``."""
    if not len(cum):
        return np.zeros(np.shape(u), dtype=dtype)
    idx = (u >= cum[0]).astype(dtype)
    for c in cum[1:]:
        idx += u >= c
    return idx


class CodebookRealization:
    """The codebook libraries of a block of B trials, each trial's its own.

    ``counts[(k, g_k)]`` = message_count(r_k(g_k), N) for every code g_k of
    every regular user k: the library.  ``keys`` holds, per trial, the
    stream keys of its codes in ``counts`` order (:func:`philox_keys`);
    ``rng`` is re-keyed to a trial's code stream before every read.
    ``tables`` holds the (B, counts[(k, g_k)], N) tables drawn so far, each
    trial's from its stream's start, so a table gets the same symbols
    whichever others are drawn, one byte each for up to 256 input letters
    (``np.min_scalar_type(|X_k| - 1)``).  Interfering users have no tables (the
    receiver only knows their input distributions)."""

    def __init__(self, model: SystemModel, N: int, keys,
                 rng: np.random.Generator):
        self.N, self.keys, self.tables = N, keys, {}
        self.counts = {(k, g_k): message_count(spec.rate, N)
                       for k in range(model.K)
                       for g_k, spec in enumerate(model.libraries[k])}
        self._model, self._rng = model, rng

    def __len__(self) -> int:
        return len(self.keys)

    def _count(self, k: int, g_k: int) -> int:
        if (k, g_k) not in self.counts:
            raise CodeOutOfRange(f"no code ({k}, {g_k}) in realization")
        return self.counts[k, g_k]

    def _draw(self, k: int, g_k: int, skips, n: int) -> np.ndarray:
        """Code g_k of user k's symbols at trial i's n uniforms from offset
        skips[i] of its stream, (B, n): one draw per trial, re-keyed at step
        skip // 4, into the end of its row of a (B, n + 3) buffer, skip mod
        4 discards ahead of the n doubles kept in the last n columns."""
        j = list(self.counts).index((k, g_k))
        u = np.empty((len(self), n + 3))
        for out, row, skip in zip(u, self.keys, skips):
            rekey(self._rng, row[j], skip // 4).random(out=out[3 - skip % 4:])
        pmf = self._model.input_pmf(k, g_k)
        return _inverse_cdf(pmf, u[:, 3:], np.min_scalar_type(len(pmf) - 1))

    def table(self, k: int, g_k: int) -> np.ndarray:
        """The (B, messages, N) table of code g_k of user k, drawn on first
        call."""
        if (k, g_k) not in self.tables:
            shape = (len(self), self._count(k, g_k), self.N)
            self.tables[k, g_k] = self._draw(
                k, g_k, [0] * len(self), shape[1] * self.N).reshape(shape)
        return self.tables[k, g_k]

    def codeword(self, k: int, g_k: int, w) -> np.ndarray:
        """Codewords of messages w (1-based, one per trial) of code g_k of
        user k, shape (B, N): rows of the drawn table, or without drawing it
        trial i's N symbols at offset (w_i - 1) N of its stream, the row."""
        n, w = self._count(k, g_k), np.asarray(w, dtype=np.int64)
        if w.shape != (len(self),):
            raise ShapeMismatch(f"need {len(self)} messages, got {w.shape}")
        w = w.tolist()
        if not all(1 <= v <= n for v in w):
            raise MessageOutOfRange(
                f"messages {w} not in 1..{n}, user {k} code {g_k}")
        if (k, g_k) in self.tables:
            return self.tables[k, g_k][range(len(w)), [v - 1 for v in w]]
        return self._draw(k, g_k, [(v - 1) * self.N for v in w], self.N)

    def take(self, at) -> "CodebookRealization":
        """The realization of this block's trials ``at`` (indices, repeats
        allowed), with their rows of every table drawn so far."""
        part = copy.copy(self)
        part.keys = [self.keys[i] for i in at]
        part.tables = {code: t[at] for code, t in self.tables.items()}
        return part


def sample_codebook(model: SystemModel, N: int,
                    master_seed) -> CodebookRealization:
    """A one-trial realization with every table drawn, code g_k of user k
    from ``stream(master_seed, k, g_k)``."""
    cb = CodebookRealization(model, N, [], np.random.Generator(
        np.random.Philox()))
    cb.keys = [philox_keys(master_seed, *zip(*cb.counts)).tolist()]
    for code in cb.counts:
        cb.table(*code)
    return cb


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
    When, besides, every slice has one maximal entry, m = 1 is not formed:
    s / 1 is s, log(1) is +0.0 and x + 0.0 is x for x = log1p(s) >= +0.0
    (s >= 0), so log1p(s) + a_max is the same double.  Over 2 to 8 entries
    a_max is a chain of exact ``np.maximum`` calls (±0 and nan alike).
    """
    a = np.asarray(a, dtype=float)
    if a.ndim == 0:
        a = a.reshape(1)
    if 2 <= a.shape[axis] <= 8:  # numpy loops over every short slice
        lead = (slice(None),) * (axis % a.ndim)
        a_max = a[lead + (slice(0, 1),)]
        for i in range(1, a.shape[axis]):
            a_max = np.maximum(a_max, a[lead + (slice(i, i + 1),)])
    else:
        a_max = np.maximum.reduce(a, axis=axis, keepdims=True)
    i_max = a == a_max
    if np.isfinite(a_max).all():
        e = np.exp(a - a_max)
        e[i_max] = 0.0
        s = np.add.reduce(e, axis=axis, keepdims=True)
        if np.count_nonzero(i_max) == a_max.size:
            out = np.log1p(s) + a_max
        else:
            m = np.add.reduce(i_max, axis=axis, keepdims=True, dtype=float)
            out = np.log1p(s / m) + np.log(m) + a_max
    else:
        m = np.add.reduce(i_max, axis=axis, keepdims=True, dtype=float)
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


_LOG_COUNT = np.log(np.arange(1.0, 8.0)).tolist()  # log m, m = 1..7


def _logsumexp_rows(rows) -> list:
    """The scalar port of :func:`_logsumexp`: the log-sum-exp of each row
    (a list of floats) with the bits ``_logsumexp`` gives it along an
    array's reduced axis.  Same steps on Python floats, which round as
    float64 does, with numpy's left-to-right sum order; exp and log1p run
    in numpy, one call on a flat list each, since ``math``'s libm differs
    from numpy's SIMD kernels in the last bit, and log m comes from a table
    numpy computed.  Every row comes back nan if a row has 8 or more entries
    (numpy sums those pairwise) or a non-finite maximum (the other branch).
    """
    maxes, counts, shifted = [], [], []
    for row in rows:
        a_max = max(row)
        if len(row) >= 8 or not -math.inf < a_max < math.inf:
            return [math.nan] * len(rows)
        maxes.append(a_max)
        counts.append(row.count(a_max))
        shifted += [x - a_max for x in row if x != a_max]
    e, sums = iter(np.exp(shifted).tolist()), []
    for row, m in zip(rows, counts):
        s = 0.0
        for _ in range(len(row) - m):
            s += next(e)
        sums.append(s if m == 1 else s / m)
    return [x + a_max if m == 1 else x + _LOG_COUNT[m - 1] + a_max
            for x, m, a_max in zip(np.log1p(sums).tolist(), counts, maxes)]


def scale_log(c, logs):
    """c * logs with the x^0 = 1 convention: a zero coefficient wipes a
    -inf log-probability instead of producing nan; without a -inf in
    ``logs`` it is the plain product."""
    c = np.asarray(c, dtype=float)
    logs = np.asarray(logs, dtype=float)
    neg = logs == _NEG_INF
    if not np.count_nonzero(neg):
        return c * logs
    with np.errstate(invalid="ignore"):
        out = c * logs
    neg = neg & (np.broadcast_to(c, out.shape) == 0.0)
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


def marginal_log_table(model: SystemModel, D, S, g):
    """The marginal channel of the decoded users D split by S: log
    P(Y | X_D, g) with its D axes flattened into (|Y|, |X_{S cap D}|,
    |X_{D\\S}|), users ascending within each part, and the log input
    weights of D\\S under g (:func:`subset_weights_log`)."""
    D = sorted(set(D))
    fixed = [k for k in D if k in S]
    free = [k for k in D if k not in S]
    lm = np.moveaxis(marginalize_out(model, D, g).log_pmf(), -1, 0)
    lm = np.transpose(lm, [0] + [1 + D.index(k) for k in fixed + free])
    sizes = model.dmc.input_sizes
    shape = (len(lm), math.prod(sizes[k] for k in fixed),
             math.prod(sizes[k] for k in free))
    return np.ascontiguousarray(lm.reshape(shape)), \
        subset_weights_log(model, free, g)


def flatten_symbols(model: SystemModel, users, rows: np.ndarray) -> np.ndarray:
    """Mixed-radix flatten of per-user symbol rows (..., len(users), N) into
    flat indices (..., N) matching :func:`marginal_log_table`'s fixed axis."""
    flat = np.zeros(rows.shape[:-2] + rows.shape[-1:], dtype=np.int64)
    for i, k in enumerate(sorted(users)):
        flat = flat * model.dmc.input_sizes[k] + rows[..., i, :]
    return flat


def as_block(rows, ndim: int, expected: str) -> np.ndarray:
    """``rows`` as an int64 block with ``ndim`` axes; a lone row or any
    other shape raises ShapeMismatch naming the ``expected`` one."""
    rows = np.asarray(rows, dtype=np.int64)
    if rows.ndim != ndim:
        raise ShapeMismatch(f"expected a block of shape {expected}, got "
                            f"shape {rows.shape}")
    return rows


def _letter_table(model: SystemModel, D, fixed, g, a: float):
    """(|Y|, |X_fixed|) table of per-letter log expectations,
    log sum_{x_free} w(x_free) P(y | x_fixed, x_free, g)^a with free =
    D minus fixed, memoized on the model per (D, fixed, g, a)."""
    key = (tuple(D), tuple(fixed), tuple(g), a)
    table = model._letter_cache.get(key)
    if table is None:
        lm, logw = marginal_log_table(model, D, fixed, g)  # (Y, F, R), (R,)
        table = _logsumexp(logw + scale_log(a, lm), axis=2)
        table.setflags(write=False)
        model._letter_cache[key] = table
    return table


def ensemble_log_expectation(model: SystemModel, D, S, g, y: np.ndarray,
                             x_fixed, a: float) -> np.ndarray:
    """Log of the codebook-ensemble expectation of each candidate sequence
    likelihood raised to ``a``:

        sum_j log sum_{X_{D\\S}} prod_{k in D\\S} P_{X|g_k}(X_k)
                  * P(y_j | x_{S cap D, j}, X_{D\\S}, g)^a

    ``x_fixed`` is a block of m candidates' fixed symbols of users
    sorted(S cap D), shape (m, |S cap D|, N); the m values come back as an
    array of shape (m,); any other shape raises ShapeMismatch.  The free
    users D\\S are averaged under their code-g input pmfs.  The channel is
    memoryless, so each value is a sum of per-letter table entries
    T[y_j, x_fixed_j].  A value is -inf when the inner sum vanishes
    (possible for a > 0 on channels with zeros); never raises for that.
    """
    D = sorted(set(D))
    fixed = [k for k in D if k in S]
    y = np.asarray(y, dtype=np.int64)
    x_fixed = as_block(x_fixed, 3, "(m, |S cap D|, N)")
    table = _letter_table(model, D, fixed, g, a)
    return table[y, flatten_symbols(model, fixed, x_fixed)].sum(axis=1)
