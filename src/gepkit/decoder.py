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
from .ensemble import CodebookRealization, ensemble_log_expectation
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
    exponent: float  # optimized false-acceptance exponent against gstar

    def __post_init__(self):
        if self.gstar is not None:
            if not (0.0 < self.rho_t <= 1.0 and 0.0 < self.s2 < self.rho_t):
                raise DomainError(f"inadmissible threshold params {self}")
            if not 0.0 < self.s1 < 1.0:
                raise DomainError(f"s1 = {self.s1} outside (0, 1)")


NO_CONSTRAINT = None  # sentinel meaning tau* = +inf
UNCONSTRAINED = ThresholdParams(rho_t=1.0, s2=0.5, s1=0.5, gstar=NO_CONSTRAINT,
                                exponent=INF)


def params_from_exponent(gstar, result) -> ThresholdParams:
    """Map the optimized (rho, s) of the false-acceptance exponent to the
    auxiliary triple that balances the two bound expressions."""
    rho, s = result.rho, result.s
    rho_t = min(1.0, rho / (1.0 - s))
    s2 = rho_t * s / (s + rho)
    s1 = 1.0 - s2 / rho_t
    return ThresholdParams(rho_t=rho_t, s2=s2, s1=s1, gstar=tuple(gstar),
                           exponent=result.value)


def typicality_threshold(model: SystemModel, D, S, g,
                         params: ThresholdParams, x_fixed, y,
                         alpha: WeightFunction):
    """Per-symbol typicality threshold tau* for candidate vector g and
    subset S at output y, with the candidate's symbols on S cap D fixed:
    one float for rows x_fixed of shape (|S cap D|, N), an array of m for a
    block of shape (m, |S cap D|, N).

    Solves the balance between the missed-detection expression (exponent
    1 - s1 on the candidate's weighted likelihood) and the false-acceptance
    expression (exponent s2/rho_t plus the excluded vector's expected
    likelihood and the D\\S rate factor).  May be negative; +inf when the
    threshold is unconstrained; nan (never accepted) when two expectations
    vanish.
    """
    if params.gstar is NO_CONSTRAINT:
        return INF if np.ndim(x_fixed) < 3 else np.full(len(x_fixed), INF)
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
    with np.errstate(invalid="ignore"):  # -inf - -inf in a block row
        return (l1 - rt * l2 - l3) / (N * (s1 + s2)) \
            - rt * rate_sum / (s1 + s2)


@dataclass(frozen=True)
class ThresholdTable:
    """Precomputed threshold parameters for one (D, R_D[, margin]) decoder
    and the model, D, region, margin and alpha they were solved under."""

    model: SystemModel
    D: tuple
    region: frozenset
    margin: frozenset | None
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
    (D, region, margin), searches = decoder_searches(model, D, region,
                                                     margin)
    cache = cache or ExponentCache()
    params = {}
    for g in sorted(region):
        for S, excluded, covers_D in searches:
            best = cache.best_excluded(model, D, S, g, excluded, alpha,
                                       allow_empty_difference=covers_D)
            params[(g, S)] = UNCONSTRAINED if best is None \
                else params_from_exponent(*best)
    return ThresholdTable(
        model=model, D=D, region=region, margin=margin, alpha=alpha,
        params=params,
        subsets_decode=tuple(S for S, _, covers in searches if not covers),
        subsets_margin=tuple(S for S, _, covers in searches if covers))


# ---------------------------------------------------------------------------
# decoding
# ---------------------------------------------------------------------------

@dataclass
class DecodeOutcome:
    """Either a decoded (w1, g1) for transmitter 1 or a collision report."""

    kind: str                # "decoded" | "collision"
    w1: int | None = None
    g1: int | None = None
    winner: tuple | None = None   # (w_D tuple, full g tuple)
    diagnostics: dict = field(default_factory=dict)

    @property
    def decoded(self) -> bool:
        return self.kind == "decoded"


def _collision(diag) -> DecodeOutcome:
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
    """Per-candidate tau* array for one (g, S).  tau* depends on a candidate
    only through its symbols on S cap D, so it is solved in one block call
    on the distinct rows of those users' messages and broadcast over the
    message grid."""
    pos = [D.index(k) for k in sorted(set(S) & set(D))]
    if not pos or params.gstar is NO_CONSTRAINT:
        return np.full(len(cand.score), typicality_threshold(
            model, D, S, cand.g, params, np.zeros((0, len(y)), dtype=np.int64),
            y, alpha))
    # the messages of S cap D vary, every other user's stays the first
    first = tuple(slice(None) if j in pos else slice(1)
                  for j in range(len(D)))
    grid = cand.rows.reshape(cand.grid + cand.rows.shape[1:])
    fixed = grid[first][..., pos, :]
    tau = typicality_threshold(model, D, S, cand.g, params,
                               fixed.reshape(-1, len(pos), len(y)), y, alpha)
    return np.broadcast_to(tau.reshape(fixed.shape[:-2]), cand.grid).ravel()


def _subset_winner(cands, accepted_masks):
    """Best accepted candidate across all in-region vectors for one S.
    Returns (winner, n_accepted) where winner is (w_D, g), None when the
    candidate set is empty, or "tie" when more than one accepted candidate
    reaches the top score.  An accepted candidate's score is finite (its
    weighted neg-log-likelihood is below a threshold), so rejected ones
    are scored -inf and one argmax over all candidates in member order
    finds the winner."""
    n_acc = sum(int(mask.sum()) for mask in accepted_masks)
    if not n_acc:
        return None, 0
    scores = np.concatenate([np.where(mask, cand.score, -INF)
                             for cand, mask in zip(cands, accepted_masks)])
    j = int(np.argmax(scores))
    if np.count_nonzero(scores == scores[j]) > 1:
        return "tie", n_acc
    for cand in cands:
        if j < len(cand.score):
            break
        j -= len(cand.score)
    w_D = tuple(int(i) + 1 for i in np.unravel_index(j, cand.grid))
    return (w_D, cand.g), n_acc


def decode_subset(thresholds: ThresholdTable,
                  codebooks: CodebookRealization, y, truth=None,
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
    diag = {"per_S": {}, "candidates_evaluated":
            int(sum(len(c.score) for c in cands))}

    winners = []
    for S in thresholds.subsets_decode:
        masks = []
        taus = {}
        for cand in cands:
            tau = _thresholds_for(model, D, S, cand,
                                  thresholds.get(cand.g, S), y, alpha)
            # candidate-independent thresholds are worth tracing
            if not (set(S) & set(D)):
                taus[cand.g] = float(tau[0]) if len(tau) else None
            masks.append(cand.wnll < tau)
        winner, n_acc = _subset_winner(cands, masks)
        s_diag = {"winner": winner, "accepted": n_acc, "tau": taus}
        if truth is not None:
            s_diag.update(
                _truth_events(truth, D, cands, masks, winner, members))
        diag["per_S"][tuple(sorted(S))] = s_diag
        winners.append(winner)

    if any(w == "tie" for w in winners):
        diag["reason"] = "tie"
        return _collision(diag)
    if any(w is None for w in winners):
        diag["reason"] = "no_winner"
        return _collision(diag)
    first = winners[0]
    if any(w != first for w in winners[1:]):
        diag["reason"] = "disagreement"
        return _collision(diag)
    w_D, g = first
    cand = cands[members.index(g)]
    j = np.ravel_multi_index(tuple(w - 1 for w in w_D), cand.grid)
    for S in thresholds.subsets_margin:
        # S covers D, so every symbol of the winner is fixed
        tau = typicality_threshold(model, D, S, g, thresholds.get(g, S),
                                   cand.rows[j], y, alpha)
        diag.setdefault("margin_checks", {})[tuple(sorted(S))] = tau
        if not cand.wnll[j] < tau:
            diag["reason"] = "margin_reject"
            return _collision(diag)
    return DecodeOutcome(kind="decoded", w1=w_D[D.index(0)], g1=g[0],
                         winner=first, diagnostics=diag)


def _truth_events(truth, D, cands, masks, winner, members):
    """Diagnostic flags for the three analyzed event classes, given the
    transmitted (w over all regular users, g)."""
    w_full, g_true = truth
    g_true = tuple(g_true)
    w_D = tuple(w_full[k] for k in D)
    out = {}
    if g_true in members:
        i = members.index(g_true)
        try:
            j = np.ravel_multi_index(tuple(w - 1 for w in w_D),
                                     cands[i].grid)
        except ValueError:
            return {"miss": None}
        out["miss"] = not bool(masks[i][j])
        out["lost"] = winner not in (None, "tie") and winner != (w_D, g_true)
    else:
        out["false_accept"] = any(m.any() for m in masks)
    return out


def decode_receiver(thresholds_by_D: dict, codebooks: CodebookRealization,
                    y, truth=None, restrict_to=None) -> DecodeOutcome:
    """Run every table's (D, R_D)-decoder in partition order; output (w1, g1)
    iff at least one decoded and all decoded outputs agree on (w1, g1)."""
    y = np.asarray(y, dtype=np.int64)
    sub_outcomes = {}
    pairs = []
    evaluated = 0
    for D, thresholds in thresholds_by_D.items():
        out = decode_subset(thresholds, codebooks, y, truth=truth,
                            restrict_to=restrict_to)
        sub_outcomes[D] = out
        evaluated += out.diagnostics.get("candidates_evaluated", 0)
        if out.decoded:
            pairs.append((out.w1, out.g1, out.winner))
    diag = {"per_D": sub_outcomes, "candidates_evaluated": evaluated}
    if not pairs:
        diag["reason"] = "no_decoder_decoded"
        return _collision(diag)
    first = pairs[0]
    if any(p[:2] != first[:2] for p in pairs[1:]):
        diag["reason"] = "cross_D_disagreement"
        return _collision(diag)
    return DecodeOutcome(kind="decoded", w1=first[0], g1=first[1],
                         winner=first[2], diagnostics=diag)


# ---------------------------------------------------------------------------
# region detection
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RegionDetector:
    """A detection partition's validated cells and its hypotheses, one per
    code index vector in index_space() order, scored under one alpha."""

    cells: tuple             # frozenset of g per detection cell
    gs: tuple                # code index vector of each hypothesis
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
        cells, gs, log_out, np.array([alpha(g) for g in gs]),
        np.array([next(i for i, r in enumerate(cells) if g in r)
                  for g in gs]))


def _detection_scores(detector: RegionDetector, y: np.ndarray) -> np.ndarray:
    """log P(y | g) - N alpha(g) per hypothesis g (axis 0) and output y."""
    N = y.shape[-1]
    return np.array([detector.log_out[h][y].sum(axis=-1) - N * a
                     for h, a in enumerate(detector.alpha.tolist())])


def detect_region(detector: RegionDetector, y):
    """Maximum weighted output-marginal likelihood estimate of the code
    index vector, and the index of the partition cell containing it.  Ties
    break toward the lexicographically smallest vector.  A block of m
    outputs, y of shape (m, N), gives arrays of m cells and m vectors.
    :class:`DomainError` when no vector gives an output a score above -inf.
    """
    y = np.asarray(y, dtype=np.int64)
    scores = _detection_scores(detector, y)
    best = scores.argmax(axis=0)
    # one output gets a scalar test, much cheaper than an array's any()
    if (scores[best] == -INF) if y.ndim == 1 else \
            (scores.max(axis=0) == -INF).any():
        raise DomainError("no code index vector can produce this output")
    if y.ndim == 1:
        return int(detector.cell[best]), detector.gs[best]
    return detector.cell[best], np.array(detector.gs)[best]


def decode_with_detection(detector: RegionDetector, thresholds_by_D: dict,
                          codebooks: CodebookRealization, y,
                          truth=None) -> DecodeOutcome:
    """Detect the code-index region first, then run the receiver restricted
    to candidates inside the detected cell (thresholds stay those of the
    unrestricted regions)."""
    cell_idx, ghat = detect_region(detector, y)
    out = decode_receiver(thresholds_by_D, codebooks, y, truth=truth,
                          restrict_to=detector.cells[cell_idx])
    out.diagnostics["detected_region"] = cell_idx
    out.diagnostics["ghat"] = ghat
    return out
