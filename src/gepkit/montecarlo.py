"""Trial runner and empirical weighted-error estimation.

Each trial takes a fresh :class:`~gepkit.ensemble.CodebookRealization`
(ensemble-average semantics), a code index vector g and uniform messages,
transmits through the channel and decodes with the scenario's decoder; of the
realization it draws only the tables the decoder can read.  Per-trial
randomness is derived deterministically from (master_seed, trial index,
purpose), so runs reproduce bit for bit: reusable generators are re-keyed to
stream keys derived for many trials at once (:func:`_trial_keys`).  Trials run
in blocks of at most ``BLOCK_BYTES``: each trial draws from its own streams in
turn, then the block is transmitted and decoded, or detected, at once.

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
    sample_from_pmf,
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
# decoding block's tables, gathers and scores (_decode_bytes), a detection
# block's uniforms (its inputs and outputs take no more).
BLOCK_BYTES = 256 * 2**10

# Trials whose stream keys are derived at once, 16 bytes per stream.
KEY_CHUNK = 512


@dataclass(frozen=True)
class TrialRecord:
    trial: int
    g: tuple
    w: tuple
    kind: str          # "decoded" | "collision"
    w1: int | None
    g1: int | None
    error: bool

    @property
    def decoded_correct(self) -> bool:
        return self.kind == "decoded" and self.w1 == self.w[0] \
            and self.g1 == self.g[0]

    @property
    def decoded_wrong(self) -> bool:
        return self.kind == "decoded" and not self.decoded_correct


def classify_error(error_model: str, region, margin, g, w,
                   outcome: DecodeOutcome) -> np.ndarray:
    """Pure error classification of a block of trials under the active
    definition: g and w hold each trial's code index vector and messages,
    ``outcome`` the block's decisions; one bool per trial.

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
    return np.where([gi in region for gi in g], ~correct, outside)


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


def _trial_keys(master_seed: int, trials: int, purpose: int, codes=None):
    """Stream keys of trials t = 0, 1, ..., ``KEY_CHUNK`` trials at once:
    of (master_seed, t, purpose), purpose 1 to decode and 2 to detect, and
    given ``codes`` paired with those of (master_seed, t, 0, k, g_k)."""
    for start in range(0, trials, KEY_CHUNK):
        t = np.arange(start, min(start + KEY_CHUNK, trials))
        own = philox_keys(master_seed, t, purpose).tolist()
        yield from own if codes is None else zip(own, philox_keys(
            master_seed, t[:, None], 0, *zip(*codes)).tolist())


def _channel_sampler(model: SystemModel):
    """transmit(x, u) -> y for input symbols x of shape (..., n_users, N)
    and one uniform per output symbol, u of shape (..., N): each y is the
    inverse CDF (``_count_at_or_below``) of its joint input's output row."""
    cum = np.cumsum(model.dmc.pmf.reshape(-1, model.dmc.output_size), axis=1)
    columns = np.ascontiguousarray(cum[:, :-1].T)

    def transmit(x, u):
        flat = flatten_symbols(model, range(model.n_users), x)
        return _count_at_or_below([col[flat] for col in columns], u)

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


def _trial_bytes(scenario, counts: dict) -> int:
    """Bytes one decoding trial may hold: every code's table (message count
    x N x 8, drawn or not), plus the candidate grid of the largest decoder.
    A decoder holds prod_{k in D} M_k candidates per in-region g, each with
    a likelihood gather and four scores, (N + 4) x 8 bytes.  Over two or
    more users each also holds |D| gathered rows and their stacked copy,
    2|D| x N x 8 bytes more; a single user's rows are views of its table."""
    N = scenario.N
    grids = [sum(math.prod(counts[k, g[k]] for k in D) for g in region)
             * ((2 * len(D) + 1) * N + 4 if len(D) > 1 else N + 4) * 8
             for D, region, _margin in receiver_parts(scenario)]
    return sum(n * N * 8 for n in counts.values()) + max(grids, default=0)


def _decode_bytes(scenario, counts: dict, read) -> int:
    """Bytes one trial adds to a decoding block: its stacked copy of each
    table in ``read``, the tables the region members' candidates read, and
    per candidate a likelihood gather of N symbols and four score arrays."""
    cands = sum(math.prod(counts[k, g[k]] for k in D)
                for D, region, _margin in receiver_parts(scenario)
                for g in region)
    return 8 * (scenario.N * sum(map(counts.get, read))
                + (scenario.N + 4) * cands)


def run_trials(scenario, trials: int, master_seed: int,
               cache: ExponentCache | None = None) -> list[TrialRecord]:
    """Simulate ``trials`` independent slots of the scenario.

    ``scenario`` provides: model, N, alpha, region, margin, error_model,
    decoder ("plain" | "margin" | "detect"), partition (decoded-subset ->
    region mapping for plain/detect), detection (cell list, detect only),
    g_sampling and g_set (None: the whole index space).

    Every trial resamples the codebook (the bounds are ensemble averages),
    but draws only the tables its decoder can read, with the symbols a
    full draw gives them: under the plain and margin decoders, before the
    transmitted codewords are read, the (k, g_k) of every region member of
    every :func:`receiver_parts` entry; under detect-then-decode, after
    detection, those of the detected cell's region members only.  Before
    any threshold is built, one trial's codebook and candidate-grid bytes
    (:func:`_trial_bytes`) are checked against ``TRIAL_BUDGET_BYTES``; a
    larger scenario raises :class:`MemoryBudgetExceeded`.  Trials are
    decoded in blocks of as many as ``BLOCK_BYTES`` hold, at least one.

    ``cache`` is the exponent cache the threshold tables are built from,
    a new one when None; passing the one the verdict bound will use spares
    that bound the maximizations the tables already ran.
    """
    if trials < 1:
        raise ShapeMismatch(f"need at least 1 trial, got {trials}")
    model: SystemModel = scenario.model
    N = scenario.N
    counts = {(k, gk): message_count(model.rate(k, gk), N)
              for k in range(model.K)
              for gk in range(len(model.libraries[k]))}
    need = _trial_bytes(scenario, counts)
    if need > TRIAL_BUDGET_BYTES:
        raise MemoryBudgetExceeded(
            f"one trial's codebooks and candidates take {need} bytes, over "
            f"the {TRIAL_BUDGET_BYTES}-byte budget (N={N})")
    g_list, g_probs = _g_sampler(scenario, model)
    transmit = _channel_sampler(model)
    cache = cache or ExponentCache()
    tables = {D: build_thresholds(model, D, reg, scenario.alpha,
                                  margin=margin, cache=cache)
              for D, reg, margin in receiver_parts(scenario)}
    detector = build_detector(model, scenario.detection, scenario.alpha) \
        if scenario.decoder == "detect" else None
    read = sorted({(k, g[k]) for D, region, _margin in receiver_parts(
        scenario) for g in region for k in D})
    prefetch = () if scenario.decoder == "detect" else read
    keys = _trial_keys(master_seed, trials, 1, list(counts))
    rng, code_rng = (np.random.Generator(np.random.Philox()) for _ in range(2))

    def decode_block(block: range) -> list[TrialRecord]:
        drawn = []
        x = np.empty((len(block), model.n_users, N), dtype=np.int64)
        u = np.empty((len(block), N))
        for i, (t, (own, code_keys)) in enumerate(zip(block, keys)):
            g = _draw_g(rekey(rng, own), g_list, g_probs)
            codebooks = CodebookRealization(model, N, (master_seed, t, 0),
                                            code_keys, code_rng)
            for key in prefetch:
                codebooks.table(*key)
            w = tuple(int(rng.integers(1, counts[(k, g[k])] + 1))
                      for k in range(model.K))
            for k in range(model.K):
                x[i, k] = codebooks.codeword(k, g[k], w[k])
            for k in range(model.K, model.n_users):
                x[i, k] = sample_from_pmf(rng, model.input_pmf(k, g[k]), N)
            rng.random(out=u[i])
            drawn.append((g, w, codebooks))
        gs, ws, books = zip(*drawn)
        outcome = decode_receiver(tables, books, transmit(x, u), detector)
        errors = classify_error(scenario.error_model, scenario.region,
                                scenario.margin, gs, ws, outcome)
        return [TrialRecord(t, g, w, "decoded" if ok else "collision",
                            w1 if ok else None, g1 if ok else None, err)
                for t, g, w, ok, w1, g1, err in zip(
                    block, gs, ws, outcome.decoded.tolist(),
                    outcome.w1.tolist(), outcome.g1.tolist(), errors.tolist())]

    per_block = max(1, BLOCK_BYTES // _decode_bytes(scenario, counts, read))
    return [record for start in range(0, trials, per_block)
            for record in decode_block(
                range(start, min(start + per_block, trials)))]


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


def empirical_gep(records, alpha: WeightFunction, N: int) -> GepEstimate:
    """Weighted average of per-g empirical error rates over the index
    space with weights e^{-N alpha(g)}; the standard error propagates
    per-stratum binomial variance.  Strata with no trials contribute zero
    and are flagged unestimated.
    """
    g_all = list(alpha.model.index_space())
    tallies = {g: [0, 0] for g in g_all}
    for r in records:
        tallies[r.g][0] += 1
        tallies[r.g][1] += int(r.error)
    logw = np.array([-N * alpha(g) for g in g_all])
    w = np.exp(logw - logw.max())
    w /= w.sum()
    point = 0.0
    var = 0.0
    missing = []
    for wi, g in zip(w, g_all):
        n, e = tallies[g]
        if n == 0:
            missing.append(g)
            continue
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
    channel's.  Trials are inverted, transmitted and detected together, in
    blocks of as many trials as ``BLOCK_BYTES`` of uniforms hold.
    Before any stream is keyed or drawn, one trial's uniforms and
    detection scores ((n_users + 1 + H) x N x 8 bytes for H code index
    vectors) are checked against ``TRIAL_BUDGET_BYTES``; a larger scenario
    raises :class:`MemoryBudgetExceeded`."""
    if trials < 1:
        raise ShapeMismatch(f"need at least 1 trial, got {trials}")
    model: SystemModel = scenario.model
    N = scenario.N
    rows = model.n_users + 1
    need = (rows + model.space_size) * N * 8
    if need > TRIAL_BUDGET_BYTES:
        raise MemoryBudgetExceeded(
            f"one detection trial takes {need} bytes, over the "
            f"{TRIAL_BUDGET_BYTES}-byte budget (N={N})")
    g_list, g_probs = _g_sampler(scenario, model)
    transmit = _channel_sampler(model)
    detector = build_detector(model, scenario.detection, scenario.alpha)
    tallies = {g: [0, 0] for g in g_list}
    per_block = max(1, BLOCK_BYTES // (8 * rows * N))
    keys = _trial_keys(master_seed, trials, 2)
    rng = np.random.Generator(np.random.Philox())
    for start in range(0, trials, per_block):
        u = np.empty((min(per_block, trials - start), rows, N))
        gs = []
        for i, key in zip(range(len(u)), keys):
            gs.append(_draw_g(rekey(rng, key), g_list, g_probs))
            rng.random(out=u[i])
        g_rows = np.array(gs, dtype=np.int64)
        x = np.empty((len(u), model.n_users, N), dtype=np.int64)
        for k in range(model.n_users):
            for gk in range(model.code_counts[k]):
                drew = g_rows[:, k] == gk
                x[drew, k] = _inverse_cdf(model.input_pmf(k, gk), u[drew, k])
        cells = detect_region(detector, transmit(x, u[:, -1]))
        true_cells = detector.cell[np.ravel_multi_index(g_rows.T,
                                                        model.code_counts)]
        for g, err in zip(gs, (cells != true_cells).tolist()):
            tallies[g][0] += 1
            tallies[g][1] += err
    return tallies
