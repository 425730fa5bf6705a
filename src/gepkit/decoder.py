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

import math
from dataclasses import dataclass, field

import numpy as np

from .channel import SystemModel, marginalize_out
from .ensemble import CodebookRealization, as_block, ensemble_log_expectation
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
    of shape (m,).  Any other shape of x_fixed raises ShapeMismatch.

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
    N = len(y)
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
    shows only as the covering subsets in ``subsets_margin``."""

    model: SystemModel
    D: tuple
    region: frozenset
    alpha: WeightFunction
    params: dict             # (g, frozenset S) -> ThresholdParams | None
    subsets_decode: tuple    # proper S with D\S nonempty
    subsets_margin: tuple    # proper S covering D (margin decoder only)

    def get(self, g, S):
        return self.params[(tuple(g), frozenset(S))]


def build_thresholds(model: SystemModel, D, region, alpha: WeightFunction,
                     margin=None,
                     cache: ExponentCache | None = None) -> ThresholdTable:
    """Select (rho_t, s2, s1, gstar) for every (in-region g, subset S).

    ``margin=None`` builds the plain decoder of the union-bound analysis;
    passing a (possibly empty) margin region builds the margin decoder,
    which additionally equips the subsets S covering D, whose
    excluded-vector search ranges outside region union margin (the
    searches of :func:`decoder_searches`).  Exponents are looked up in
    ``cache``, a fresh :class:`ExponentCache` when None.
    """
    (D, region, _margin), searches = decoder_searches(model, D, region,
                                                      margin)
    cache = cache or ExponentCache()
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

@dataclass
class DecodeOutcome:
    """Either a decoded (w1, g1) for transmitter 1 or a collision report.

    ``diagnostics`` holds only these keys:

    - ``reason``: why a collision was reported, one of "tie", "no_winner",
      "disagreement", "margin_reject" (:func:`decode_subset`),
      "no_decoder_decoded" and "cross_D_disagreement"
      (:func:`decode_receiver`); absent on a decode;
    - ``candidates_evaluated``: the number of candidates scored;
    - ``winners``: from :func:`decode_subset`, one entry per S of the
      table's ``subsets_decode``: the S-winner (w_D, g), None when no
      candidate was accepted, or "tie";
    - ``per_D``: from :func:`decode_receiver`, each D's
      :func:`decode_subset` outcome;
    - ``detected_region``: from :func:`decode_receiver` with a detector,
      the index of the detected cell.
    """

    kind: str                # "decoded" | "collision"
    w1: int | None = None
    g1: int | None = None
    winner: tuple | None = None   # (w_D tuple, full g tuple)
    diagnostics: dict = field(default_factory=dict)

    @property
    def decoded(self) -> bool:
        return self.kind == "decoded"


def _collision(diag, reason) -> DecodeOutcome:
    diag["reason"] = reason
    return DecodeOutcome(kind="collision", diagnostics=diag)


@dataclass
class _Candidates:
    """Flattened candidate list for one in-region code vector: the message
    grid of D's codes in C order (``np.ravel_multi_index`` of the 0-based
    messages)."""

    g: tuple
    grid: tuple              # message count of each user of D
    rows: np.ndarray         # (n_candidates, |D|, N) codeword symbols
    loglik: np.ndarray       # (n_candidates,) log P(y | x_D, g)
    score: np.ndarray        # loglik - N * alpha(g)
    wnll: np.ndarray         # -loglik/N + alpha(g), per-symbol units


def _enumerate_candidates(model, D, g, codebooks: CodebookRealization, y,
                          alpha) -> _Candidates:
    N = len(y)
    lm = marginalize_out(model, D, g).log_pmf()
    tables = [codebooks.table(k, g[k]) for k in D]
    counts = [t.shape[0] for t in tables]
    n = math.prod(counts)
    if len(D) == 1:
        rows = tables[0][:, None, :]
        loglik = lm[tables[0], y[None, :]].sum(axis=1)
    else:
        # row indices of every candidate in message-grid order
        picks = np.indices(counts).reshape(len(D), n)
        gathered = tuple(t[p] for t, p in zip(tables, picks))
        rows = np.stack(gathered, axis=1)
        loglik = lm[gathered + (np.broadcast_to(y, (n, N)),)].sum(axis=1)
    a = alpha(g)
    return _Candidates(g=g, grid=tuple(counts), rows=rows, loglik=loglik,
                       score=loglik - N * a, wnll=-loglik / N + a)


def _thresholds_for(model, D, S, cand: _Candidates, params, y, alpha):
    """tau* of one (g, S) over the candidates' message grid, in an array
    that broadcasts against it.  tau* depends on a candidate only through
    its symbols on S cap D, so it is solved in one block call on the
    distinct rows of those users' messages (one zero-width row when S cap
    D is empty), and the grid axes of the other users have length 1."""
    pos = [D.index(k) for k in sorted(set(S) & set(D))]
    # the messages of S cap D vary, every other user's stays the first
    first = tuple(slice(None) if j in pos else slice(1)
                  for j in range(len(D)))
    grid = cand.rows.reshape(cand.grid + cand.rows.shape[1:])
    fixed = grid[first].take(pos, axis=-2)
    rows = fixed.reshape(math.prod(fixed.shape[:-2]), len(pos), len(y))
    tau = typicality_threshold(model, D, S, cand.g, params, rows, y, alpha)
    return tau.reshape(fixed.shape[:-2])


def _subset_winner(cands, accepted_masks):
    """Best accepted candidate across all in-region vectors for one S:
    (w_D, g), None when no candidate is accepted, or "tie" when more than
    one accepted candidate reaches the top score.  An accepted candidate's
    score is finite (its weighted neg-log-likelihood is below a
    threshold), so rejected ones are scored -inf and one argmax over all
    candidates in member order finds the winner."""
    if not any(mask.any() for mask in accepted_masks):
        return None
    scores = np.concatenate([np.where(mask, cand.score, -INF)
                             for cand, mask in zip(cands, accepted_masks)])
    j = int(np.argmax(scores))
    if np.count_nonzero(scores == scores[j]) > 1:
        return "tie"
    for cand in cands:
        if j < len(cand.score):
            break
        j -= len(cand.score)
    w_D = tuple(int(i) + 1 for i in np.unravel_index(j, cand.grid))
    return w_D, cand.g


def decode_subset(thresholds: ThresholdTable,
                  codebooks: CodebookRealization, y,
                  restrict_to=None) -> DecodeOutcome:
    """One (D, R_D)-decoder: per subset S (proper, D\\S nonempty) keep the
    candidates whose per-symbol weighted neg-log-likelihood is strictly
    below tau*(g, S); the S-winner is the accepted candidate with maximum
    weighted likelihood.  Decoded iff every subset produced a winner and
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
    y = np.asarray(y, dtype=np.int64)
    members = sorted(thresholds.region)
    if restrict_to is not None:
        members = [g for g in members if g in restrict_to]
    cands = [_enumerate_candidates(model, D, g, codebooks, y, alpha)
             for g in members]
    winners = []
    for S in thresholds.subsets_decode:
        masks = [(cand.wnll.reshape(cand.grid) < _thresholds_for(
                     model, D, S, cand, thresholds.get(cand.g, S), y, alpha))
                 .ravel() for cand in cands]
        winners.append(_subset_winner(cands, masks))
    diag = {"candidates_evaluated": int(sum(len(c.score) for c in cands)),
            "winners": winners}
    if "tie" in winners:
        return _collision(diag, "tie")
    if None in winners:
        return _collision(diag, "no_winner")
    first = winners[0]
    if any(w != first for w in winners[1:]):
        return _collision(diag, "disagreement")
    w_D, g = first
    cand = cands[members.index(g)]
    j = np.ravel_multi_index(tuple(w - 1 for w in w_D), cand.grid)
    for S in thresholds.subsets_margin:
        # S covers D, so every symbol of the winner is fixed
        tau = typicality_threshold(model, D, S, g, thresholds.get(g, S),
                                   cand.rows[j:j + 1], y, alpha)
        if not cand.wnll[j] < tau[0]:
            return _collision(diag, "margin_reject")
    return DecodeOutcome(kind="decoded", w1=w_D[D.index(0)], g1=g[0],
                         winner=first, diagnostics=diag)


def decode_receiver(thresholds_by_D: dict, codebooks: CodebookRealization,
                    y, detector=None) -> DecodeOutcome:
    """Run every table's (D, R_D)-decoder in partition order; output (w1, g1)
    iff at least one decoded and all decoded outputs agree on (w1, g1).
    With a :class:`RegionDetector` (detect-then-decode), the region is
    detected first and the decoders score only the candidates inside the
    detected cell, under the thresholds of the unrestricted regions."""
    y = np.asarray(y, dtype=np.int64)
    diag = {"per_D": {}, "candidates_evaluated": 0}
    cell = None
    if detector is not None:
        diag["detected_region"] = int(detect_region(detector, y[None])[0])
        cell = detector.cells[diag["detected_region"]]
    pairs = []
    for D, thresholds in thresholds_by_D.items():
        out = decode_subset(thresholds, codebooks, y, restrict_to=cell)
        diag["per_D"][D] = out
        diag["candidates_evaluated"] += out.diagnostics["candidates_evaluated"]
        if out.decoded:
            pairs.append((out.w1, out.g1, out.winner))
    if not pairs:
        return _collision(diag, "no_decoder_decoded")
    first = pairs[0]
    if any(p[:2] != first[:2] for p in pairs[1:]):
        return _collision(diag, "cross_D_disagreement")
    return DecodeOutcome(kind="decoded", w1=first[0], g1=first[1],
                         winner=first[2], diagnostics=diag)


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
