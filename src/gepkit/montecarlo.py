"""Trial engine and empirical weighted-error estimation.

One block trial engine (:func:`_run_blocks`) runs decoding and detection
trials and returns per-g tallies, since the GEP is a weighted sum of
Pr{err | g}.  Per-trial randomness is derived deterministically from
(master_seed, trial index, purpose), so runs reproduce bit for bit:
reusable generators are re-keyed to stream keys derived for many trials at
once (:func:`_trial_keys`).  Trials run in blocks of at most
``BLOCK_BYTES``: each trial writes the uniforms of its own streams into the
block's arrays, and the inverse CDF runs once per code per block.  A
decoding block has one :class:`~gepkit.ensemble.CodebookRealization` (each
trial its own codebooks), of which the decoder draws only what it reads.

The error estimator samples messages uniformly and averages, which lower
bounds the worst-case-over-messages definition; for the random ensembles
shipped here the error event is symmetric across messages, so the average
equals the worst case in expectation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .channel import SystemModel
from .decoder import (
    DecodeOutcome,
    build_detector,
    build_thresholds,
    decode_receiver,
    detect_region,
)
from .ensemble import (
    CodebookRealization,
    _count_at_or_below,
    _inverse_cdf,
    flatten_symbols,
    message_count,
    philox_keys,
    rekey,
)
from .errors import (
    DomainError,
    MemoryBudgetExceeded,
    MismatchedParameters,
    ShapeMismatch,
)
from .exponents import BoundReport, ExponentCache, WeightFunction, is_vacuous

RELAXED = "relaxed"
STRICT = "strict"
MARGIN = "margin"
ERROR_MODELS = (RELAXED, STRICT, MARGIN)

# Bytes one trial may hold: a decoding trial's codebooks and candidate grid
# (see _trial_bytes), or a detection trial's uniforms and detection
# scores.  The shipped scenarios and benchmark workloads need under 1 MiB.
TRIAL_BUDGET_BYTES = 256 * 2**20

# Bytes a block of trials may hold, unless one trial alone takes more: a
# decoding block's tables, gathers and scores (_trial_bytes), a detection
# block's uniforms and detection scores.  Chosen by trials/s and peak RSS
# over 256 KiB to 2 MiB (CHANGES.md).
BLOCK_BYTES = 2**20

# Trials whose stream keys are derived at once, 16 bytes per stream.
KEY_CHUNK = 512


def classify_error(error_model: str, region, margin, g, w,
                   outcome: DecodeOutcome) -> tuple:
    """Pure error classification of a block of trials under the active
    definition: g and w hold each trial's code index vector and messages,
    ``outcome`` the block's decisions; per trial, whether it errs and
    whether it decoded transmitter 1's own message and code, as two arrays.

    relaxed: inside R anything but correct decoding errs; outside R only a
    wrong decoding errs.  strict: outside R anything but a collision errs.
    margin: inside R as above, inside the margin only wrong decodings err,
    outside both anything but a collision errs.
    """
    if error_model not in ERROR_MODELS:
        raise DomainError(f"unknown error model {error_model!r}")
    decoded = outcome.decoded
    correct = decoded & (outcome.w1 == [wi[0] for wi in w]) \
        & (outcome.g1 == [gi[0] for gi in g])
    outside = decoded & ~correct if error_model == RELAXED else decoded
    if error_model == MARGIN and margin is not None:
        outside = np.where([gi in margin for gi in g], decoded & ~correct,
                           decoded)
    return np.where([gi in region for gi in g], ~correct, outside), correct


# ---------------------------------------------------------------------------
# trial running
# ---------------------------------------------------------------------------

def _g_sampler(scenario, model: SystemModel):
    rule = scenario.g_sampling
    if rule == "uniform":
        g_list = [model.check_g(g) for g in scenario.g_set] \
            if scenario.g_set else list(model.index_space())
        return g_list, None
    if rule == "alpha_prior":
        g_list = list(model.index_space())
        probs = scenario.alpha.prior(scenario.N).reshape(-1)
        return g_list, probs
    raise DomainError(f"unknown g sampling rule {rule!r}")


def _draw_g(rng, g_list, g_probs):
    """One code index vector: uniform over ``g_list``, or by ``g_probs``."""
    if g_probs is None:
        return g_list[int(rng.integers(0, len(g_list)))]
    return g_list[int(rng.choice(len(g_list), p=g_probs))]


def _trial_keys(master_seed: int, trials: int, purpose: int, codes):
    """Stream keys of trials t = 0, 1, ..., ``KEY_CHUNK`` trials at once:
    of (master_seed, t, purpose), purpose 1 to decode and 2 to detect, each
    paired with those of (master_seed, t, 0, k, g_k) for the (k, g_k) of
    ``codes``, or with None when ``codes`` is None."""
    for start in range(0, trials, KEY_CHUNK):
        t = np.arange(start, min(start + KEY_CHUNK, trials))
        own = philox_keys(master_seed, t, purpose).tolist()
        yield from zip(own, philox_keys(
            master_seed, t[:, None], 0, *zip(*codes)).tolist()
            if codes else [None] * len(own))


def _channel_sampler(model: SystemModel):
    """transmit(x, u) -> y for input symbols x of shape (..., n_users, N)
    and one uniform per output symbol, u of shape (..., N): each y is the
    inverse CDF (``_count_at_or_below``) of its joint input's output row."""
    cum = np.cumsum(model.dmc.pmf.reshape(-1, model.dmc.output_size), axis=1)
    columns = np.ascontiguousarray(cum[:, :-1].T)

    def transmit(x, u):
        flat = flatten_symbols(model, range(model.n_users), x)
        return _count_at_or_below([col[flat] for col in columns], u, np.int64)

    return transmit


def receiver_parts(scenario) -> list:
    """(D, region, margin) of each threshold decoder the scenario's receiver
    runs, in partition order: the margin decoder is one table over all
    regular users with the scenario's margin, every other variant one
    plain table (margin None) per partition part.  The trials build their
    tables from this list and the verdict bound sums its bounds over it."""
    if scenario.decoder == "margin":
        return [(tuple(range(scenario.model.K)), scenario.region,
                 scenario.margin)]
    return [(D, reg, None) for D, reg in scenario.partition]


def _read_codes(scenario) -> list:
    """The (k, g_k) of each k in D of every region member of every
    :func:`receiver_parts` entry: the tables the decoders read."""
    return sorted({(k, g[k]) for D, region, _margin in receiver_parts(scenario)
                   for g in region for k in D})


def _trial_bytes(scenario, counts: dict) -> tuple[int, int]:
    """Bytes one decoding trial may hold, and bytes it adds to a block.  It
    may hold every code's table, drawn or not, counted as the float64
    uniforms it is drawn from (message count x N x 8; the table itself
    takes a byte per symbol), and the candidate grid of its largest
    decoder: prod_{k in D} M_k candidates per in-region g, each with a
    likelihood gather and four scores,
    (N + 4) x 8 bytes, and over two or more users |D| gathered rows and
    their stacked copy, 2|D| x N x 8 bytes more (a single user's rows are
    views of its table).  It adds to a block its rows of each table the
    region members' candidates read and every decoder's gathers and
    scores."""
    N, parts = scenario.N, receiver_parts(scenario)
    cands = [sum(math.prod(counts[k, g[k]] for k in D) for g in region)
             for D, region, _margin in parts]
    grids = [n * ((2 * len(D) + 1) * N + 4 if len(D) > 1 else N + 4) * 8
             for n, (D, _region, _margin) in zip(cands, parts)]
    return (sum(n * N * 8 for n in counts.values()) + max(grids, default=0),
            8 * (N * sum(map(counts.get, _read_codes(scenario)))
                 + (N + 4) * sum(cands)))


def _check_trials(trials: int, need: int, what: str, N: int):
    """Refuse fewer than one trial, and a trial whose ``need`` bytes exceed
    ``TRIAL_BUDGET_BYTES`` (:class:`MemoryBudgetExceeded` naming ``what``)."""
    if trials < 1:
        raise ShapeMismatch(f"need at least 1 trial, got {trials}")
    if need > TRIAL_BUDGET_BYTES:
        raise MemoryBudgetExceeded(
            f"{what} {need} bytes, over the {TRIAL_BUDGET_BYTES}-byte budget "
            f"(N={N})")


def _run_blocks(scenario, trials: int, master_seed: int, trial_bytes: int,
                judge, counts) -> dict:
    """The block trial engine: tallies g -> [trials, *judged counts] of
    every g that drew a trial, in sampling order.

    ``counts`` (decoding: the regular users' message counts per (k, g_k);
    detecting: None) selects stream purpose 1 or 2.  Trial t draws g, then
    (decoding) a message per regular user, then N uniforms for each input
    no codebook sends and N for the channel, into its row of the block's
    (B, n_users + 1, N) array.  Unless the decoder is detect-then-decode,
    the block's :class:`CodebookRealization` first draws the tables of
    :func:`_read_codes`, whose codewords are their rows; other codewords
    come from the trials' own code streams.  A block holds
    ``BLOCK_BYTES // trial_bytes`` trials, at least one; its inputs are
    inverted once per (k, g_k), and ``judge(codebooks, gs, g_rows, ws, y)``
    returns arrays of B counts, one per tally column after the trials."""
    model, N = scenario.model, scenario.N
    g_list, g_probs = _g_sampler(scenario, model)
    transmit = _channel_sampler(model)
    coded = model.K if counts else 0        # users sending codewords
    keys = _trial_keys(master_seed, trials, 1 if counts else 2, counts)
    rng = np.random.Generator(np.random.Philox())
    code_rng = np.random.Generator(np.random.Philox()) if counts else None
    drawn = _read_codes(scenario) \
        if counts and scenario.decoder != "detect" else ()
    per_block = max(1, BLOCK_BYTES // trial_bytes)
    row_of = {g: j for j, g in enumerate(g_list)}
    g_array = np.array(g_list, dtype=np.int64)
    totals = 0                              # then (columns, len(g_list))
    for start in range(0, trials, per_block):
        u = np.empty((min(per_block, trials - start), model.n_users + 1, N))
        from_stream = u[:, coded:]           # rows the trial stream fills
        gs, ws, code_keys = [], [], []
        for i, (own, codes) in zip(range(len(u)), keys):
            gs.append(_draw_g(rekey(rng, own, 0), g_list, g_probs))
            if counts:
                ws.append(tuple(int(rng.integers(1, counts[k, gs[-1][k]] + 1))
                                for k in range(coded)))
                code_keys.append(codes)
            rng.random(out=from_stream[i])
        codebooks = CodebookRealization(model, N, code_keys, code_rng) \
            if counts else None
        for code in drawn:
            codebooks.table(*code)
        rows = np.array([row_of[g] for g in gs])
        g_rows = g_array[rows]
        x = np.empty((len(u), model.n_users, N), dtype=np.int64)
        for k, n_codes in enumerate(model.code_counts):
            for gk in range(n_codes):
                at = (g_rows[:, k] == gk).nonzero()[0]
                if not len(at):
                    continue
                x[at, k] = _inverse_cdf(model.input_pmf(k, gk), u[at, k],
                                        x.dtype) \
                    if k >= coded else codebooks.take(at).codeword(
                        k, gk, [ws[i][k] for i in at])
        judged = judge(codebooks, gs, g_rows, ws, transmit(x, u[:, -1]))
        totals = totals + np.array([
            np.bincount(rows, weights=column, minlength=len(g_list))
            for column in (np.ones(len(gs)),) + judged])
    return {g: tally for g, tally in zip(
        g_list, totals.T.astype(np.int64).tolist()) if tally[0]}


def run_trials(scenario, trials: int, master_seed: int,
               cache: ExponentCache | None = None) -> dict:
    """Simulate ``trials`` independent slots of the scenario: tallies
    g -> [trials, errors, decoded_correct, decoded_wrong] of every g that
    drew a trial, in sampling order.  A trial decodes correctly when
    transmitter 1's message and code come out; the rest are collisions.

    ``scenario`` provides: model, N, alpha, region, margin, error_model,
    decoder ("plain" | "margin" | "detect"), partition (decoded-subset ->
    region mapping for plain/detect), detection (cell list, detect only),
    g_sampling and g_set (None: the whole index space).

    Every trial resamples the codebook (the bounds are ensemble averages),
    but draws only the tables its decoder can read, with the symbols a
    full draw gives them: under the plain and margin decoders the (k, g_k)
    of every region member of every :func:`receiver_parts` entry, under
    detect-then-decode those of the detected cell's region members only.
    Before any threshold is built, one trial's bytes (:func:`_trial_bytes`)
    are checked against ``TRIAL_BUDGET_BYTES``; a larger scenario raises
    :class:`MemoryBudgetExceeded`.

    ``cache`` is the exponent cache the threshold tables are built from,
    a new one when None; passing the one the verdict bound will use spares
    that bound the maximizations the tables already ran.
    """
    model: SystemModel = scenario.model
    N = scenario.N
    counts = {(k, gk): message_count(model.rate(k, gk), N)
              for k in range(model.K)
              for gk in range(len(model.libraries[k]))}
    need, block_bytes = _trial_bytes(scenario, counts)
    _check_trials(trials, need, "one trial's codebooks and candidates take",
                  N)
    cache = cache or ExponentCache()
    tables = {D: build_thresholds(model, D, reg, scenario.alpha,
                                  margin=margin, cache=cache)
              for D, reg, margin in receiver_parts(scenario)}
    detector = build_detector(model, scenario.detection, scenario.alpha) \
        if scenario.decoder == "detect" else None

    def judge(codebooks, gs, _g_rows, ws, y):
        outcome = decode_receiver(tables, codebooks, y, detector)
        errors, correct = classify_error(scenario.error_model,
                                         scenario.region, scenario.margin,
                                         gs, ws, outcome)
        return errors, correct, outcome.decoded & ~correct

    return _run_blocks(scenario, trials, master_seed, block_bytes, judge,
                       counts)


# ---------------------------------------------------------------------------
# estimation and bound comparison
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GepEstimate:
    point: float
    se: float
    N: int
    alpha_key: bytes
    per_g: dict = field(repr=False)  # g -> (trials, errors)
    unestimated: tuple = ()


def empirical_gep(tallies: dict, alpha: WeightFunction,
                  N: int) -> GepEstimate:
    """Weighted average of per-g empirical error rates over the index
    space with weights e^{-N alpha(g)}, from :func:`run_trials`' tallies
    (g -> [trials, errors, ...]); the standard error propagates per-stratum
    binomial variance.  Strata with no trials contribute zero and are
    flagged unestimated.
    """
    g_all = list(alpha.model.index_space())
    tallies = {g: list(tallies.get(g, (0, 0))[:2]) for g in g_all}
    logw = np.array([-N * alpha(g) for g in g_all])
    w = np.exp(logw - logw.max())
    w /= w.sum()
    point = var = 0.0
    missing = [g for g in g_all if not tallies[g][0]]
    for wi, (n, e) in zip(w, tallies.values()):
        if n:
            p = e / n
            point += wi * p
            var += wi * wi * p * (1.0 - p) / n
    return GepEstimate(point=float(point), se=float(np.sqrt(var)), N=N,
                       alpha_key=alpha.key(), per_g=tallies,
                       unestimated=tuple(missing))


def compare_bound(estimate: GepEstimate, bound: BoundReport) -> bool:
    """PASS iff the point estimate does not exceed the bound by more than
    three standard errors."""
    if estimate.N != bound.N:
        raise MismatchedParameters(
            f"estimate at N={estimate.N}, bound at N={bound.N}")
    if estimate.alpha_key != bound.alpha_key:
        raise MismatchedParameters("estimate and bound use different alpha")
    return estimate.point <= bound.value + 3.0 * estimate.se


def compare_per_g(tallies: dict, bounds: dict) -> tuple[dict, bool]:
    """Per-g frequencies against per-g bounds on Pr{err | g}.

    ``tallies`` maps g to (trials, errors), ``bounds`` g to its bound.
    Returns (per_g, passed): per_g[g] is (trials, errors, bound, vacuous),
    and the run passes iff every g with trials has a frequency within 3
    binomial sigmas of its bound."""
    per_g = {}
    ok = True
    for g, (n, e) in tallies.items():
        bound = bounds[g]
        per_g[g] = (n, e, bound, is_vacuous(bound))
        if n == 0:
            continue
        p = e / n
        sigma = float(np.sqrt(p * (1.0 - p) / n))
        ok = ok and p <= bound + 3.0 * sigma
    return per_g, ok


# ---------------------------------------------------------------------------
# region-detection trials
# ---------------------------------------------------------------------------

def run_detection_trials(scenario, trials: int, master_seed: int) -> dict:
    """Region-detection trials: g -> [trials, errors] for every g the
    scenario samples, in sampling order.

    Trial t draws g and then one (n_users + 1, N) block of uniforms from
    its stream: row k < n_users is user k's input, the last row the
    channel's.  A trial takes its uniforms and detection scores, (n_users +
    1 + H) x N x 8 bytes for H code index vectors.  Trials are inverted,
    transmitted and detected together, in blocks of as many trials as
    ``BLOCK_BYTES`` holds.  Before any stream is keyed or drawn, one
    trial's bytes are checked against ``TRIAL_BUDGET_BYTES``; a larger
    scenario raises :class:`MemoryBudgetExceeded`."""
    model: SystemModel = scenario.model
    N = scenario.N
    need = (model.n_users + 1 + model.space_size) * N * 8
    _check_trials(trials, need, "one detection trial takes", N)
    detector = build_detector(model, scenario.detection, scenario.alpha)

    def judge(_codebooks, _gs, g_rows, _ws, y):
        true_cells = detector.cell[np.ravel_multi_index(g_rows.T,
                                                        model.code_counts)]
        return (detect_region(detector, y) != true_cells,)

    tallies = _run_blocks(scenario, trials, master_seed, need, judge, None)
    return {g: tallies.get(g, [0, 0]) for g in _g_sampler(scenario, model)[0]}
