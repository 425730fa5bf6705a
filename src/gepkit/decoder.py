"""Operational decoders: weighted-likelihood decoding with per-subset
typicality thresholds, cross-subset agreement, the operation-margin checks,
and output-distribution region detection.

A decoder instance is parametrized by a :class:`ThresholdTable` built once
per (model, D, R_D[, margin], alpha), its only per-run input; a table built
with a margin is the margin decoder, one without it the plain decoder.  For
every in-region code vector and every relevant user subset S it stores the
auxiliary exponents (rho_t, s2, s1) and the worst excluded vector used by
the threshold.  The auxiliary triple is the exact image of the optimized
false-acceptance exponent's (rho, s) under the variable change
rho_t = rho/(1-s), s2 = rho_t * s/(s+rho), s1 = 1 - s2/rho_t, which
equalizes the missed-detection and false-acceptance bound expressions; this
is also what keeps the analytic bounds valid for the decoder actually
simulated.  Region detection takes a :class:`RegionDetector` built once per
(model, detection cells, alpha).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field, replace

import numpy as np

from .channel import SystemModel, marginalize_out
from .ensemble import as_block, ensemble_log_expectation
from .errors import DomainError
from .exponents import (
    ExponentCache,
    WeightFunction,
    check_detection_partition,
    decoder_searches,
)

INF = float("inf")


# ---------------------------------------------------------------------------
# thresholds
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ThresholdParams:
    """Auxiliary values behind one (g, S) typicality threshold.  ``gstar``
    is None when no excluded vector is compatible with S, in which case the
    threshold is +inf (no constraint: the corresponding bound terms vanish).
    """

    rho_t: float
    s2: float
    s1: float
    gstar: tuple | None

    def __post_init__(self):
        if self.gstar is not None:
            if not (0.0 < self.rho_t <= 1.0 and 0.0 < self.s2 < self.rho_t):
                raise DomainError(f"inadmissible threshold params {self}")
            if not 0.0 < self.s1 < 1.0:
                raise DomainError(f"s1 = {self.s1} outside (0, 1)")


NO_CONSTRAINT = None  # sentinel meaning tau* = +inf
UNCONSTRAINED = ThresholdParams(rho_t=1.0, s2=0.5, s1=0.5, gstar=NO_CONSTRAINT)


def params_from_exponent(gstar, result) -> ThresholdParams:
    """Map the optimized (rho, s) of the false-acceptance exponent to the
    auxiliary triple that balances the two bound expressions."""
    rho, s = result.rho, result.s
    rho_t = min(1.0, rho / (1.0 - s))
    s2 = rho_t * s / (s + rho)
    s1 = 1.0 - s2 / rho_t
    return ThresholdParams(rho_t=rho_t, s2=s2, s1=s1, gstar=tuple(gstar))


def typicality_threshold(model: SystemModel, D, S, g,
                         params: ThresholdParams, x_fixed, y,
                         alpha: WeightFunction) -> np.ndarray:
    """Per-symbol typicality threshold tau* for candidate vector g and
    subset S at output y, one per candidate of a block x_fixed of shape
    (m, |S cap D|, N) holding the candidates' symbols on S cap D: an array
    of shape (m,).  y is one output of shape (N,) or one per candidate,
    shape (m, N).  Any other shape of x_fixed raises ShapeMismatch.

    Solves the balance between the missed-detection expression (exponent
    1 - s1 on the candidate's weighted likelihood) and the false-acceptance
    expression (exponent s2/rho_t plus the excluded vector's expected
    likelihood and the D\\S rate factor).  May be negative; +inf when the
    threshold is unconstrained; nan (never accepted) when two expectations
    vanish.
    """
    x_fixed = as_block(x_fixed, 3, "(m, |S cap D|, N)")
    if params.gstar is NO_CONSTRAINT:
        return np.full(len(x_fixed), INF)
    N = y.shape[-1]
    s1, s2, rt = params.s1, params.s2, params.rho_t
    a_g = alpha(g)
    a_star = alpha(params.gstar)
    l1 = ensemble_log_expectation(model, D, S, g, y, x_fixed, 1.0 - s1) \
        - N * (1.0 - s1) * a_g
    l2 = ensemble_log_expectation(model, D, S, g, y, x_fixed, s2 / rt) \
        - N * (s2 / rt) * a_g
    l3 = ensemble_log_expectation(model, D, S, params.gstar, y, x_fixed, 1.0) \
        - N * a_star
    rate_sum = sum(model.rate(k, g[k]) for k in set(D) - set(S))
    with np.errstate(invalid="ignore"):  # -inf - -inf in a row
        return (l1 - rt * l2 - l3) / (N * (s1 + s2)) \
            - rt * rate_sum / (s1 + s2)


@dataclass(frozen=True)
class ThresholdTable:
    """Precomputed threshold parameters for one (D, R_D[, margin]) decoder
    and the model, D, region and alpha they were solved under; a margin
    shows only as the covering subsets in ``subsets_margin``.  A (g, S)
    without a compatible excluded vector holds :data:`UNCONSTRAINED`."""

    model: SystemModel
    D: tuple
    region: frozenset
    alpha: WeightFunction
    params: dict             # (g, frozenset S) -> ThresholdParams
    subsets_decode: tuple    # proper S with D\S nonempty
    subsets_margin: tuple    # proper S covering D (margin decoder only)

    def get(self, g, S):
        return self.params[(tuple(g), frozenset(S))]


def build_thresholds(model: SystemModel, D, region, alpha: WeightFunction,
                     margin=None, *, cache: ExponentCache) -> ThresholdTable:
    """Select (rho_t, s2, s1, gstar) for every (in-region g, subset S).

    ``margin=None`` builds the plain decoder of the union-bound analysis;
    passing a (possibly empty) margin region builds the margin decoder,
    which additionally equips the subsets S covering D, whose
    excluded-vector search ranges outside region union margin (the
    searches of :func:`decoder_searches`).  Exponents are looked up in
    ``cache``.
    """
    (D, region, _margin), searches = decoder_searches(model, D, region,
                                                      margin)
    params = {}
    for g in sorted(region):
        for S, excluded, covers_D in searches:
            best = cache.best_excluded(model, D, S, g, excluded, alpha)
            params[(g, S)] = UNCONSTRAINED if best is None \
                else params_from_exponent(*best)
    return ThresholdTable(
        model=model, D=D, region=region, alpha=alpha, params=params,
        subsets_decode=tuple(S for S, _, covers in searches if not covers),
        subsets_margin=tuple(S for S, _, covers in searches if covers))


# ---------------------------------------------------------------------------
# decoding
# ---------------------------------------------------------------------------

# Collision reasons, indexed by DecodeOutcome.reason (0 is a decode): the
# first four from decode_subset, the last two from decode_receiver.
REASONS = (None, "tie", "no_winner", "disagreement", "margin_reject",
           "no_decoder_decoded", "cross_D_disagreement")
(TIE, NO_WINNER, DISAGREEMENT, MARGIN_REJECT, NO_DECODER_DECODED,
 CROSS_D_DISAGREEMENT) = range(1, len(REASONS))
# S-winner indices for no accepted candidate and a tie, below every index
_NONE, _TIED = -1, -2


@dataclass(frozen=True)
class DecodeOutcome:
    """Decisions on a block of B trials, one entry per trial in each array:
    ``reason`` indexes REASONS (0 on a decode), ``w1`` and ``g1`` are
    transmitter 1's decoded message and code (0 on a collision), and
    ``diagnostics`` holds only these keys:

    - ``candidates_evaluated``: the candidates scored, summed over trials;
    - ``winners``: from :func:`decode_subset`, per S of ``subsets_decode``
      and trial the S-winner's messages w_D (from 1) and code index vector
      g, shape (n_S, B, |D| + n_users); 0s for no winner, -1s for a tie.
    """

    reason: np.ndarray       # (B,) index into REASONS
    w1: np.ndarray           # (B,)
    g1: np.ndarray           # (B,)
    diagnostics: dict = field(default_factory=dict)

    @property
    def decoded(self) -> np.ndarray:
        return self.reason == 0


@dataclass
class _Candidates:
    """Flattened candidate list for one in-region code vector on a block of
    B trials: the message grid of D's codes in C order
    (``np.ravel_multi_index`` of the 0-based messages)."""

    g: tuple
    grid: tuple              # message count of each user of D
    tables: tuple            # (B, M_k, N) codeword table of each k in D
    loglik: np.ndarray       # (B, n_candidates) log P(y | x_D, g)
    score: np.ndarray        # loglik - N * alpha(g)
    wnll: np.ndarray         # -loglik/N + alpha(g), per-symbol units


def _enumerate_candidates(model, D, g, tables, y, alpha) -> _Candidates:
    """Score g's candidates on every trial: one gather of their symbols and
    the trial's output y (shape (B, N)) in the marginal channel's log
    table, summed over the symbols.  A single user's table is read as is."""
    N = y.shape[-1]
    lm = marginalize_out(model, D, g).log_pmf()
    grid = tuple(t.shape[1] for t in tables)
    gathered = tuple(tables) if len(D) == 1 else tuple(
        t[:, p] for t, p in zip(tables, np.indices(grid).reshape(len(D), -1)))
    loglik = lm[gathered + (y[:, None, :],)].sum(axis=-1)
    a = alpha(g)
    return _Candidates(g=g, grid=grid, tables=tuple(tables), loglik=loglik,
                       score=loglik - N * a, wnll=-loglik / N + a)


def _thresholds_for(model, D, S, cand: _Candidates, params, y, alpha):
    """tau* of one (g, S) on every trial's message grid, shape (B, *grid)
    with length-1 axes for the users outside S cap D.  tau* depends on a
    candidate only through its symbols on S cap D, so it is solved in one
    block call on the distinct rows of those users' messages in every
    trial (one zero-width row per trial when S cap D is empty)."""
    pos = [D.index(k) for k in sorted(set(S) & set(D))]
    sub = tuple(n if j in pos else 1 for j, n in enumerate(cand.grid))
    picks = np.indices(sub).reshape(len(D), -1)
    B, m, N = len(y), picks.shape[1], y.shape[-1]
    rows = np.empty((B, m, len(pos), N), dtype=np.int64)
    for i, j in enumerate(pos):
        rows[:, :, i] = cand.tables[j][:, picks[j]]
    tau = typicality_threshold(model, D, S, cand.g, params,
                               rows.reshape(B * m, len(pos), N),
                               np.repeat(y, m, axis=0), alpha)
    return tau.reshape((B,) + sub)


def _subset_winner(cands, accepted_masks):
    """Each trial's best accepted candidate for one S: its index in member
    order, _NONE when none is accepted, or _TIED when several reach the top
    score.  An accepted score is finite (its weighted neg-log-likelihood is
    below a threshold), so rejected ones score -inf and one argmax per
    trial finds the winner."""
    if not any(mask.any() for mask in accepted_masks):
        return _NONE
    scores = np.concatenate([np.where(mask, cand.score, -INF)
                             for cand, mask in zip(cands, accepted_masks)],
                            axis=1)
    j = scores.argmax(axis=1)
    top = scores[np.arange(len(j)), j]
    tied = np.count_nonzero(scores == top[:, None], axis=1) > 1
    return np.where(top == -INF, _NONE, np.where(tied, _TIED, j))


@functools.lru_cache(maxsize=64)
def _labels(members: tuple, width: int) -> np.ndarray:
    """Each candidate's (w_D, g) for members ((grid, g), ...), messages from
    1, then rows of -1s and 0s that _TIED and _NONE index from the end."""
    labels = np.concatenate([np.column_stack(
        (np.indices(grid).reshape(len(grid), -1).T + 1,
         np.tile(g, (math.prod(grid), 1)))) for grid, g in members]
        + [np.full((1, width), -1), np.zeros((1, width), dtype=np.int64)])
    labels.setflags(write=False)
    return labels


def decode_subset(thresholds: ThresholdTable, codebooks, y) -> DecodeOutcome:
    """One (D, R_D)-decoder on a block of B trials: ``codebooks`` is the
    block's :class:`CodebookRealization` and y the trials' outputs, shape
    (B, N).  Per subset S (proper, D\\S nonempty) keep the candidates whose
    per-symbol weighted neg-log-likelihood is strictly below tau*(g, S);
    the S-winner is the accepted candidate with maximum weighted
    likelihood.  A trial decodes iff every subset produced a winner and
    the winners coincide on the full (w_D, g); an empty candidate set for
    any S, a tie, or a disagreement reports a collision.  A table built
    with a margin then requires the agreed output itself to pass
    tau*(g, S) of every proper subset S covering D (thresholds built with
    the excluded-vector search outside region union margin); a failed
    check reports the collision "margin_reject".

    Requiring a winner from every subset (not just agreement among the
    subsets that produced one) is what the union-bound analysis charges:
    a wrong output must itself clear the threshold of the subset matching
    its agreement pattern with the transmitted vector, otherwise the
    false-acceptance terms would not cover it.
    """
    model, D, alpha = thresholds.model, thresholds.D, thresholds.alpha
    y = as_block(y, 2, "(B, N)")
    members = sorted(thresholds.region)
    cands = [_enumerate_candidates(
        model, D, g, [codebooks.table(k, g[k]) for k in D], y, alpha)
        for g in members]
    winners = np.full((len(thresholds.subsets_decode), len(y)), _NONE)
    for i, S in enumerate(thresholds.subsets_decode if cands else ()):
        masks = [(cand.wnll.reshape(cand.wnll.shape[:1] + cand.grid)
                  < _thresholds_for(model, D, S, cand,
                                    thresholds.get(cand.g, S), y, alpha))
                 .reshape(len(y), -1) for cand in cands]
        winners[i] = _subset_winner(cands, masks)
    labels = _labels(tuple((cand.grid, cand.g) for cand in cands),
                     len(D) + model.n_users)
    choices, low = labels[winners], winners.min(axis=0)
    reason = np.where(low == _TIED, TIE, np.where(
        low == _NONE, NO_WINNER,
        np.where(winners.max(axis=0) != low, DISAGREEMENT, 0)))
    for S in thresholds.subsets_margin if cands else ():
        wnll = np.concatenate([cand.wnll for cand in cands], axis=1)
        for cand in cands:
            # S covers D, so every symbol of the winner is fixed
            at = np.flatnonzero((reason == 0) & (choices[0, :, len(D):]
                                                 == cand.g).all(axis=1))
            rows = np.stack([t[at, w - 1] for t, w
                             in zip(cand.tables, choices[0, at, :len(D)].T)],
                            axis=1)
            tau = typicality_threshold(model, D, S, cand.g,
                                       thresholds.get(cand.g, S), rows,
                                       y[at], alpha)
            reason[at[~(wnll[at, winners[0, at]] < tau)]] = MARGIN_REJECT
    decoded = reason == 0
    return DecodeOutcome(
        reason=reason, w1=np.where(decoded, choices[0, :, D.index(0)], 0),
        g1=np.where(decoded, choices[0, :, len(D)], 0),
        diagnostics={"candidates_evaluated": len(y) * (len(labels) - 2),
                     "winners": choices})


def decode_receiver(thresholds_by_D: dict, codebooks, y,
                    detector=None) -> DecodeOutcome:
    """Run every table's (D, R_D)-decoder in partition order on a block of
    trials (``codebooks`` and y as in :func:`decode_subset`); a trial
    outputs (w1, g1) iff at least one decoded and all decoded outputs
    agree on (w1, g1).  With a :class:`RegionDetector` (detect-then-decode),
    the block's regions are detected first, in one call, and each detected
    cell's trials are decoded together on their part of the realization
    (``codebooks.take``) by each table with its region restricted to the
    cell: only the cell's candidates are scored, under the thresholds of
    the unrestricted regions.  A table whose restricted region is empty
    decodes nothing, so it is skipped."""
    y = as_block(y, 2, "(B, N)")
    diag = {"candidates_evaluated": 0}
    groups = [(None, np.arange(len(y)))]
    if detector is not None:
        cells = detect_region(detector, y)
        groups = [(detector.cells[c], np.flatnonzero(cells == c))
                  for c in sorted(set(cells.tolist()))]
    reason = np.zeros(len(y), dtype=np.int64)
    w1, g1 = np.zeros_like(reason), np.zeros_like(reason)
    for cell, at in groups:
        books, tables = codebooks, list(thresholds_by_D.values())
        if cell is not None:
            tables = [replace(t, region=part) for t in tables
                      if (part := t.region & cell)]
            if not tables:
                reason[at] = NO_DECODER_DECODED
                continue
            books = codebooks.take(at)
        outs = [decode_subset(t, books, y[at]) for t in tables]
        diag["candidates_evaluated"] += sum(
            out.diagnostics["candidates_evaluated"] for out in outs)
        # per D and trial: decoded, and the decoded (w1, g1)
        ok = np.array([out.decoded for out in outs])
        pairs = np.array([(out.w1, out.g1) for out in outs])
        first = pairs[ok.argmax(axis=0), :, np.arange(len(at))]
        w1[at], g1[at] = first.T
        clash = (ok & (pairs != first.T).any(axis=1)).any(axis=0)
        reason[at] = np.where(ok.any(axis=0), np.where(
            clash, CROSS_D_DISAGREEMENT, 0), NO_DECODER_DECODED)
    decoded = reason == 0
    return DecodeOutcome(reason=reason, w1=np.where(decoded, w1, 0),
                         g1=np.where(decoded, g1, 0), diagnostics=diag)


# ---------------------------------------------------------------------------
# region detection
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RegionDetector:
    """A detection partition's validated cells and its hypotheses, one per
    code index vector g in index_space() order, scored under one alpha."""

    cells: tuple             # frozenset of g per detection cell
    log_out: np.ndarray      # (H, |Y|) log P(Y | g)
    alpha: np.ndarray        # (H,) alpha(g)
    cell: np.ndarray         # (H,) index of the detection cell holding g


def build_detector(model: SystemModel, regions,
                   alpha: WeightFunction) -> RegionDetector:
    """Validate the detection cells (:class:`NotAPartition` unless they
    partition the code-index space) and score every hypothesis once."""
    cells = tuple(check_detection_partition(model, regions))
    gs = tuple(model.index_space())
    log_out = np.array([marginalize_out(model, (), g).log_pmf() for g in gs])
    return RegionDetector(
        cells, log_out, np.array([alpha(g) for g in gs]),
        np.array([next(i for i, r in enumerate(cells) if g in r)
                  for g in gs]))


def _detection_scores(detector: RegionDetector, y: np.ndarray) -> np.ndarray:
    """log P(y | g) - N alpha(g) per hypothesis g (axis 0) and output y."""
    N = y.shape[-1]
    return np.array([detector.log_out[h][y].sum(axis=-1) - N * a
                     for h, a in enumerate(detector.alpha.tolist())])


def detect_region(detector: RegionDetector, y) -> np.ndarray:
    """Detected cell of each output of a block y of shape (m, N): the index
    of the partition cell holding the maximum weighted output-marginal
    likelihood estimate of the code index vector, ties broken toward the
    lexicographically smallest vector; an array of shape (m,).
    :class:`ShapeMismatch` for any other shape of y, :class:`DomainError`
    when no vector gives an output a score above -inf.
    """
    y = as_block(y, 2, "(m, N)")
    scores = _detection_scores(detector, y)
    if (scores.max(axis=0) == -INF).any():
        raise DomainError("no code index vector can produce this output")
    return detector.cell[scores.argmax(axis=0)]
