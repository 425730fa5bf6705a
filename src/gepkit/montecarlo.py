"""Trial runner and empirical weighted-error estimation.

Each trial takes a fresh :class:`~gepkit.ensemble.CodebookRealization`
(ensemble-average semantics), a code index vector g and uniform messages,
transmits through the channel and decodes with the scenario's decoder; of
the realization it draws only the tables the decoder can read.  Per-trial
randomness is derived deterministically from (master_seed, trial index,
purpose), so runs reproduce bit for bit.  Trials run serially;
region-detection trials draw from their streams one by one, then invert,
transmit and detect a block of trials at once.

The error estimator samples messages uniformly and averages, which lower
bounds the worst-case-over-messages definition; for the random ensembles
shipped here the error event is symmetric across messages, so the average
equals the worst case in expectation.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .channel import SystemModel
from .decoder import (
    DecodeOutcome,
    build_detector,
    build_thresholds,
    decode_receiver,
    decode_with_detection,
    detect_region,
)
from .ensemble import (
    CodebookRealization,
    _inverse_cdf,
    flatten_symbols,
    message_count,
    sample_from_pmf,
    stream,
)
from .errors import (
    DomainError,
    MemoryBudgetExceeded,
    MismatchedParameters,
    ShapeMismatch,
)
from .exponents import (
    BoundReport,
    ExponentCache,
    WeightFunction,
    detection_bound,
    is_vacuous,
)

RELAXED = "relaxed"
STRICT = "strict"
MARGIN = "margin"
ERROR_MODELS = (RELAXED, STRICT, MARGIN)

# Bytes one trial may hold: a decoding trial's codebooks, or a detection
# trial's uniforms and detection scores.  A decoding trial's peak memory is
# several times its codebook bytes (uniform draws, candidate rows,
# likelihood gathers); the shipped scenarios and benchmark workloads need
# under 1 MiB.
TRIAL_BUDGET_BYTES = 256 * 2**20

# Uniform-draw bytes a block of detection trials may hold, unless one trial's
# draws alone take more; the block's inputs and outputs take no more.
DETECT_BLOCK_BYTES = 64 * 2**10


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
                   outcome: DecodeOutcome) -> bool:
    """Pure error classification of one trial under the active definition.

    relaxed: inside R anything but correct decoding errs; outside R only a
    wrong decoding errs.  strict: outside R anything but a collision errs.
    margin: inside R as above, inside the margin only wrong decodings err,
    outside both anything but a collision errs.
    """
    if error_model not in ERROR_MODELS:
        raise DomainError(f"unknown error model {error_model!r}")
    g = tuple(g)
    correct = outcome.decoded and outcome.w1 == w[0] and outcome.g1 == g[0]
    wrong = outcome.decoded and not correct
    if g in region:
        return not correct
    if error_model == RELAXED:
        return wrong
    if error_model == STRICT:
        return outcome.decoded
    if margin is not None and g in margin:
        return wrong
    return outcome.decoded


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


def _channel_sampler(model: SystemModel):
    """transmit(x, u) -> y for input symbols x of shape (..., n_users, N)
    and one uniform per output symbol, u of shape (..., N): each y is the
    number of entries <= u of its joint input's cumulative output row, the
    last of which is 1.0 > u and needs no comparison."""
    cum = np.cumsum(model.dmc.pmf.reshape(-1, model.dmc.output_size), axis=1)
    cum[:, -1] = 1.0
    columns = np.ascontiguousarray(cum.T)

    def transmit(x, u):
        flat = flatten_symbols(model, range(model.n_users), x)
        y = (u >= columns[0][flat]).astype(np.int64)
        for col in columns[1:-1]:
            y += u >= col[flat]
        return y

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


def _prepare_decoder(scenario, model, cache=None):
    """run(codebooks, y, truth) -> DecodeOutcome of the scenario's receiver:
    one threshold table per :func:`receiver_parts` entry, with the region
    detected first under detect-then-decode."""
    tables = {D: build_thresholds(model, D, reg, scenario.alpha,
                                  margin=margin, cache=cache)
              for D, reg, margin in receiver_parts(scenario)}
    if scenario.decoder != "detect":
        return lambda codebooks, y, truth: decode_receiver(
            tables, codebooks, y, truth=truth)
    detector = build_detector(model, scenario.detection, scenario.alpha)
    return lambda codebooks, y, truth: decode_with_detection(
        detector, tables, codebooks, y, truth=truth)


def run_trials(scenario, trials: int, master_seed: int, trace_path=None,
               cache: ExponentCache | None = None) -> list[TrialRecord]:
    """Simulate ``trials`` independent slots of the scenario.

    ``scenario`` provides: model, N, alpha, region, margin, error_model,
    decoder ("plain" | "margin" | "detect"), partition (decoded-subset ->
    region mapping for plain/detect), detection (cell list, detect only),
    g_sampling and g_set (None: the whole index space).

    ``trace_path`` writes one JSON line per trial, as the trial finishes:
    transmitted (w, g), per-subset winners and candidate-independent
    thresholds, and the outcome.  Only the records outlive their trial.

    Every trial resamples the codebook (the bounds are ensemble averages),
    but draws only the tables its decoder can read, with the symbols a
    full draw gives them: under the plain and margin decoders, before the
    transmitted codewords are read, the (k, g_k) of every region member of
    every :func:`receiver_parts` entry; under detect-then-decode, after
    detection, those of the detected cell's region members only.  Before
    any threshold is built, one trial's codebook bytes (message count x N
    x 8, summed over every code, drawn or not) are checked against
    ``TRIAL_BUDGET_BYTES``; a larger scenario raises
    :class:`MemoryBudgetExceeded`.

    ``cache`` is the exponent cache the threshold tables are built from;
    passing the one the verdict bound will use spares that bound the
    maximizations the tables already ran.
    """
    if trials < 1:
        raise ShapeMismatch(f"need at least 1 trial, got {trials}")
    model: SystemModel = scenario.model
    N = scenario.N
    counts = {(k, gk): message_count(model.rate(k, gk), N)
              for k in range(model.K)
              for gk in range(len(model.libraries[k]))}
    need = sum(n * N * 8 for n in counts.values())
    if need > TRIAL_BUDGET_BYTES:
        raise MemoryBudgetExceeded(
            f"one trial's codebooks take {need} bytes, over the "
            f"{TRIAL_BUDGET_BYTES}-byte budget (N={N})")
    g_list, g_probs = _g_sampler(scenario, model)
    transmit = _channel_sampler(model)
    run_decoder = _prepare_decoder(scenario, model, cache)
    prefetch = () if scenario.decoder == "detect" else sorted(
        {(k, g[k]) for D, region, _margin in receiver_parts(scenario)
         for g in region for k in D})

    def one(t: int, trace) -> TrialRecord:
        rng = stream((master_seed, t, 1))
        g = _draw_g(rng, g_list, g_probs)
        codebooks = CodebookRealization(model, N, (master_seed, t, 0))
        for key in prefetch:
            codebooks.table(*key)
        w = tuple(int(rng.integers(1, counts[(k, g[k])] + 1))
                  for k in range(model.K))
        x = np.empty((model.n_users, N), dtype=np.int64)
        for k in range(model.K):
            x[k] = codebooks.codeword(k, g[k], w[k])
        for k in range(model.K, model.n_users):
            x[k] = sample_from_pmf(rng, model.input_pmf(k, g[k]), N)
        outcome = run_decoder(codebooks, transmit(x, rng.random(N)), (w, g))
        err = classify_error(scenario.error_model, scenario.region,
                             scenario.margin, g, w, outcome)
        rec = TrialRecord(trial=t, g=g, w=w, kind=outcome.kind,
                          w1=outcome.w1, g1=outcome.g1, error=err)
        if trace is not None:
            trace.write(json.dumps(_trace_line(rec, outcome), sort_keys=True))
            trace.write("\n")
        return rec

    if trace_path is None:
        return [one(t, None) for t in range(trials)]
    with open(trace_path, "w") as trace:
        return [one(t, trace) for t in range(trials)]


def _jsonable(value):
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, (np.integer,)):
        return int(value)
    if isinstance(value, (np.floating, float)):
        v = float(value)
        return v if np.isfinite(v) else repr(v)
    return value


def _trace_line(rec: TrialRecord, outcome: DecodeOutcome) -> dict:
    per_d = outcome.diagnostics["per_D"].items()
    return {
        "trial": rec.trial,
        "g": list(rec.g),
        "w": list(rec.w),
        "outcome": rec.kind,
        "w1": rec.w1,
        "g1": rec.g1,
        "error": rec.error,
        "per_S": _jsonable({D: sub.diagnostics["per_S"]
                            for D, sub in per_d}),
        "margin_checks": _jsonable({D: sub.diagnostics["margin_checks"]
                                    for D, sub in per_d
                                    if "margin_checks" in sub.diagnostics}),
    }


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


def empirical_gep(records, alpha: WeightFunction, N: int,
                  weighting=None) -> GepEstimate:
    """Weighted average of per-g empirical error rates with weights
    e^{-N alpha(g)}; the standard error propagates per-stratum binomial
    variance.  Strata in the weighting with no trials contribute zero and
    are flagged unestimated.
    """
    g_all = [tuple(g) for g in weighting] if weighting is not None \
        else list(alpha.model.index_space())
    tallies = {g: [0, 0] for g in g_all}
    for r in records:
        if r.g in tallies:
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


@dataclass(frozen=True)
class Verdict:
    passed: bool
    estimate: float
    se: float
    bound: float
    slack: float  # bound + 3 se - estimate


def compare_bound(estimate: GepEstimate, bound: BoundReport) -> Verdict:
    """PASS iff the point estimate does not exceed the bound by more than
    three standard errors."""
    if estimate.N != bound.N:
        raise MismatchedParameters(
            f"estimate at N={estimate.N}, bound at N={bound.N}")
    if estimate.alpha_key != bound.alpha_key:
        raise MismatchedParameters("estimate and bound use different alpha")
    limit = bound.value + 3.0 * estimate.se
    return Verdict(passed=estimate.point <= limit, estimate=estimate.point,
                   se=estimate.se, bound=bound.value,
                   slack=limit - estimate.point)


# ---------------------------------------------------------------------------
# region-detection trials
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DetectionResult:
    per_g: dict            # g -> (trials, errors, Pr{err | g} bound, vacuous)
    passed: bool


def run_detection_trials(scenario, trials: int,
                         master_seed: int) -> DetectionResult:
    """Empirical region-detection error per true g versus its analytic
    bound; PASS iff every g's frequency is within 3 binomial sigmas of its
    bound.

    Trial t draws g and then one (n_users + 1, N) block of uniforms from
    its stream: row k < n_users is user k's input, the last row the
    channel's.  Trials are inverted, transmitted and detected together, in
    blocks of as many trials as ``DETECT_BLOCK_BYTES`` of uniforms hold.
    Before any stream is drawn, one trial's uniforms and detection scores
    ((n_users + 1 + H) x N x 8 bytes for H code index vectors) are checked
    against ``TRIAL_BUDGET_BYTES``; a larger scenario raises
    :class:`MemoryBudgetExceeded`.

    :func:`detection_bound` bounds Pr{err | g} * e^{-N alpha(g)}; the
    frequency is compared against min(1, that bound * e^{N alpha(g)}), a
    bound on Pr{err | g} itself."""
    if trials < 1:
        raise ShapeMismatch(f"need at least 1 trial, got {trials}")
    model: SystemModel = scenario.model
    N = scenario.N
    alpha = scenario.alpha
    regions = scenario.detection
    rows = model.n_users + 1
    need = (rows + model.space_size) * N * 8
    if need > TRIAL_BUDGET_BYTES:
        raise MemoryBudgetExceeded(
            f"one detection trial takes {need} bytes, over the "
            f"{TRIAL_BUDGET_BYTES}-byte budget (N={N})")
    g_list, g_probs = _g_sampler(scenario, model)
    transmit = _channel_sampler(model)
    detector = build_detector(model, regions, alpha)
    tallies = {g: [0, 0] for g in g_list}
    per_block = max(1, DETECT_BLOCK_BYTES // (8 * rows * N))
    for start in range(0, trials, per_block):
        u = np.empty((min(per_block, trials - start), rows, N))
        gs = []
        for i in range(len(u)):
            rng = stream((master_seed, start + i, 2))
            gs.append(_draw_g(rng, g_list, g_probs))
            rng.random(out=u[i])
        g_rows = np.array(gs, dtype=np.int64)
        x = np.empty((len(u), model.n_users, N), dtype=np.int64)
        for k in range(model.n_users):
            for gk in range(model.code_counts[k]):
                drew = g_rows[:, k] == gk
                x[drew, k] = _inverse_cdf(model.input_pmf(k, gk), u[drew, k])
        cells, _ghat = detect_region(detector, transmit(x, u[:, -1]))
        truth = detector.cell[np.ravel_multi_index(g_rows.T,
                                                   model.code_counts)]
        for g, err in zip(gs, (cells != truth).tolist()):
            tallies[g][0] += 1
            tallies[g][1] += err
    per_g = {}
    ok = True
    cache = ExponentCache()
    for g, (n, e) in tallies.items():
        rep = detection_bound(model, g, regions, alpha, N, cache)
        bound = min(1.0, float(np.exp(rep.log_raw + N * alpha(g))))
        per_g[g] = (n, e, bound, is_vacuous(bound))
        if n == 0:
            continue
        p = e / n
        sigma = float(np.sqrt(p * (1.0 - p) / n))
        ok = ok and p <= bound + 3.0 * sigma
    return DetectionResult(per_g=per_g, passed=ok)
