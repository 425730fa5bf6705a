"""Operational decoders: weighted-likelihood decoding with per-subset
typicality thresholds, cross-subset agreement, the operation-margin variant,
and output-distribution region detection.

A decoder instance is parametrized by a :class:`ThresholdTable` built once
per (model, D, R_D[, margin], alpha): for every in-region code vector and
every relevant user subset S it stores the auxiliary exponents
(rho_t, s2, s1) and the worst excluded vector used by the threshold.  The
auxiliary triple is the exact image of the optimized false-acceptance
exponent's (rho, s) under the variable change rho_t = rho/(1-s),
s2 = rho_t * s/(s+rho), s1 = 1 - s2/rho_t, which equalizes the
missed-detection and false-acceptance bound expressions; this is also what
keeps the analytic bounds valid for the decoder actually simulated.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from .channel import SystemModel, marginalize_out, output_marginal
from .ensemble import CodebookRealization, ensemble_log_expectation
from .errors import (
    DomainError,
    MissingCodebook,
    OverlappingMargin,
    ShapeMismatch,
    UserOneMissing,
)
from .exponents import (
    DEFAULT_SETTINGS,
    ExponentCache,
    SearchSettings,
    WeightFunction,
    _cache_for,
    check_detection_partition,
    proper_subsets,
    validate_region,
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


@dataclass
class ThresholdTable:
    """Precomputed threshold parameters for one (D, R_D[, margin]) decoder."""

    D: tuple
    region: frozenset
    margin: frozenset | None
    alpha: WeightFunction
    params: dict             # (g, frozenset S) -> ThresholdParams | None
    subsets_decode: tuple    # proper S with D\S nonempty
    subsets_margin: tuple    # proper S covering D (margin mode only)

    def get(self, g, S):
        return self.params[(tuple(g), frozenset(S))]


def build_thresholds(model: SystemModel, D, region, alpha: WeightFunction,
                     margin=None,
                     settings: SearchSettings = DEFAULT_SETTINGS,
                     cache: ExponentCache | None = None) -> ThresholdTable:
    """Select (rho_t, s2, s1, gstar) for every (in-region g, subset S).

    ``margin=None`` builds the plain decoder of the union-bound analysis;
    passing a (possibly empty) margin region additionally equips the
    subsets S covering D, whose excluded-vector search ranges outside
    region union margin.
    """
    D = tuple(sorted(set(int(k) for k in D)))
    if 0 not in D:
        raise UserOneMissing(f"decoded subset {D} must contain user 0")
    region = validate_region(model, region)
    if margin is not None:
        margin = validate_region(model, margin)
        if region & margin:
            raise OverlappingMargin("operation region and margin intersect")
    cache = _cache_for(model, alpha, settings, cache)
    subsets_decode = tuple(S for S in proper_subsets(model.n_users)
                           if set(D) - S)
    subsets_margin = tuple(S for S in proper_subsets(model.n_users)
                           if not (set(D) - S)) if margin is not None else ()
    searches = [(S, region, False) for S in subsets_decode] + \
        [(S, region | margin, True) for S in subsets_margin]
    params = {}
    for g in sorted(region):
        for S, excluded, allow_empty in searches:
            best = cache.best_excluded(D, S, g, excluded,
                                       allow_empty_difference=allow_empty)
            params[(g, S)] = _unconstrained() if best is None \
                else params_from_exponent(*best)
    return ThresholdTable(D=D, region=region, margin=margin, alpha=alpha,
                          params=params, subsets_decode=subsets_decode,
                          subsets_margin=subsets_margin)


def _unconstrained() -> ThresholdParams:
    return ThresholdParams(rho_t=1.0, s2=0.5, s1=0.5, gstar=NO_CONSTRAINT,
                           exponent=INF)


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
    # a decode subset's winner as it was scored: its (|D|, N) symbols and
    # its -log P(y | x_D, g)/N + alpha(g)
    winner_rows: np.ndarray | None = field(default=None, repr=False)
    winner_wnll: float | None = None
    diagnostics: dict = field(default_factory=dict)

    @property
    def decoded(self) -> bool:
        return self.kind == "decoded"


def _collision(diag) -> DecodeOutcome:
    return DecodeOutcome(kind="collision", diagnostics=diag)


@dataclass
class _Candidates:
    """Flattened candidate list for one in-region code vector: the message
    grid of D's codes in C order."""

    g: tuple
    grid: tuple              # message count of each user of D
    w_tuples: list           # list of per-D message tuples (1-based)
    rows: np.ndarray         # (n_candidates, |D|, N) codeword symbols
    loglik: np.ndarray       # (n_candidates,) log P(y | x_D, g)
    score: np.ndarray        # loglik - N * alpha(g)
    wnll: np.ndarray         # -loglik/N + alpha(g), per-symbol units


def _enumerate_candidates(model, D, g, codebooks: CodebookRealization, y,
                          alpha) -> _Candidates:
    N = len(y)
    lm = marginalize_out(model, D, g).log_pmf()
    tables = []
    for k in D:
        if (k, g[k]) not in codebooks.tables:
            raise MissingCodebook(f"realization lacks user {k} code {g[k]}")
        tables.append(codebooks.tables[(k, g[k])])
    counts = [t.shape[0] for t in tables]
    w_tuples = list(itertools.product(*[range(1, c + 1) for c in counts]))
    n = len(w_tuples)
    if len(D) == 1:
        rows = tables[0][:, None, :]
        loglik = lm[tables[0], y[None, :]].sum(axis=1)
    else:
        # row indices of every candidate in itertools.product order
        picks = np.indices(counts).reshape(len(D), n)
        gathered = tuple(t[p] for t, p in zip(tables, picks))
        rows = np.stack(gathered, axis=1)
        loglik = lm[gathered + (np.broadcast_to(y, (n, N)),)].sum(axis=1)
    a = alpha(g)
    return _Candidates(g=g, grid=tuple(counts), w_tuples=w_tuples,
                       rows=rows, loglik=loglik, score=loglik - N * a,
                       wnll=-loglik / N + a)


def _thresholds_for(model, D, S, cand: _Candidates, params, y, alpha):
    """Per-candidate tau* array for one (g, S).  tau* depends on a candidate
    only through its symbols on S cap D, so it is solved in one block call
    on the distinct rows of those users' messages and broadcast over the
    message grid."""
    pos = [D.index(k) for k in sorted(set(S) & set(D))]
    if not pos or params.gstar is NO_CONSTRAINT:
        return np.full(len(cand.w_tuples), typicality_threshold(
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
    candidate set is empty, or "tie" on an exact score tie at the top."""
    best_score = -INF
    best = None
    tie = False
    n_acc = 0
    for cand, mask in zip(cands, accepted_masks):
        if not mask.any():
            continue
        n_acc += int(mask.sum())
        idx = np.flatnonzero(mask)
        scores = cand.score[idx]
        j = int(np.argmax(scores))
        top = float(scores[j])
        n_top = int(np.sum(scores == top))
        if top > best_score:
            best_score = top
            best = (cand.w_tuples[idx[j]], cand.g)
            tie = n_top > 1
        elif top == best_score:
            tie = True
    if best is None:
        return None, 0
    return ("tie" if tie else best), n_acc


def decode_subset(model: SystemModel, D, region, alpha: WeightFunction,
                  codebooks: CodebookRealization, y,
                  thresholds: ThresholdTable, truth=None,
                  restrict_to=None) -> DecodeOutcome:
    """One (D, R_D)-decoder: per subset S (proper, D\\S nonempty) keep the
    candidates whose per-symbol weighted neg-log-likelihood is strictly
    below tau*(g, S); the S-winner is the accepted candidate with maximum
    weighted likelihood.  Decoded iff every subset produced a winner and
    the winners coincide on the full (w_D, g); an empty candidate set for
    any S, a tie, or a disagreement reports a collision.

    Requiring a winner from every subset (not just agreement among the
    subsets that produced one) is what the union-bound analysis charges:
    a wrong output must itself clear the threshold of the subset matching
    its agreement pattern with the transmitted vector, otherwise the
    false-acceptance terms would not cover it.
    """
    D = tuple(sorted(set(int(k) for k in D)))
    if 0 not in D:
        raise UserOneMissing(f"decoded subset {D} must contain user 0")
    if D != thresholds.D or (region is not thresholds.region and
                             validate_region(model, region) != thresholds.region):
        raise ShapeMismatch(
            "threshold table was built for a different (D, region)")
    y = np.asarray(y, dtype=np.int64)
    members = sorted(thresholds.region)
    if restrict_to is not None:
        members = [g for g in members if g in restrict_to]
    cands = [_enumerate_candidates(model, D, g, codebooks, y, alpha)
             for g in members]
    diag = {"per_S": {}, "candidates_evaluated":
            int(sum(len(c.w_tuples) for c in cands))}

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
    return DecodeOutcome(kind="decoded", w1=w_D[D.index(0)], g1=g[0],
                         winner=first, winner_rows=cand.rows[j],
                         winner_wnll=float(cand.wnll[j]), diagnostics=diag)


def _truth_events(truth, D, cands, masks, winner, members):
    """Diagnostic flags for the three analyzed event classes, given the
    transmitted (w over all regular users, g)."""
    w_full, g_true = truth
    g_true = tuple(g_true)
    w_D = tuple(w_full[k] for k in D)
    out = {}
    if g_true in members:
        i = members.index(g_true)
        cand = cands[i]
        try:
            j = cand.w_tuples.index(w_D)
        except ValueError:
            return {"miss": None}
        out["miss"] = not bool(masks[i][j])
        out["lost"] = winner not in (None, "tie") and winner != (w_D, g_true)
    else:
        out["false_accept"] = any(m.any() for m in masks)
    return out


def decode_receiver(model: SystemModel, partition, alpha: WeightFunction,
                    codebooks: CodebookRealization, y, thresholds_by_D,
                    truth=None, restrict_to=None) -> DecodeOutcome:
    """Run every (D, R_D)-decoder of the partition; output (w1, g1) iff at
    least one decoded and all decoded outputs agree on (w1, g1)."""
    y = np.asarray(y, dtype=np.int64)
    sub_outcomes = {}
    pairs = []
    evaluated = 0
    for D, region in partition.items():
        out = decode_subset(model, D, region, alpha, codebooks, y,
                            thresholds_by_D[D], truth=truth,
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


def decode_margin(model: SystemModel, D, region, margin,
                  alpha: WeightFunction, codebooks: CodebookRealization, y,
                  thresholds: ThresholdTable, truth=None) -> DecodeOutcome:
    """Margin decoder: the plain (D, R_D) rule plus, for every proper subset
    S covering D, the requirement that the agreed output itself passes
    tau*(g, S) (thresholds built with the excluded-vector search outside
    region union margin).  Anything else reports a collision.

    Passing the threshold table's own ``region`` and ``margin`` objects
    skips their validation: :func:`build_thresholds` already did it."""
    if region is not thresholds.region or margin is not thresholds.margin:
        region = validate_region(model, region)
        margin = validate_region(model, margin)
        if region & margin:
            raise OverlappingMargin("operation region and margin intersect")
    if thresholds.margin is None:
        raise OverlappingMargin(
            "thresholds were built without a margin; use build_thresholds("
            "..., margin=...)")
    out = decode_subset(model, D, region, alpha, codebooks, y, thresholds,
                        truth=truth)
    if not out.decoded:
        return out
    g = out.winner[1]
    for S in thresholds.subsets_margin:
        # S covers D, so every symbol of the winner is fixed
        tau = typicality_threshold(model, thresholds.D, S, g,
                                   thresholds.get(g, S), out.winner_rows, y,
                                   alpha)
        out.diagnostics.setdefault("margin_checks", {})[
            tuple(sorted(S))] = tau
        if not out.winner_wnll < tau:
            out.diagnostics["reason"] = "margin_reject"
            return _collision(out.diagnostics)
    return out


# ---------------------------------------------------------------------------
# region detection
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class _Hypothesis:
    """One code index vector as the region detector scores it."""

    g: tuple
    log_out: np.ndarray      # log P(Y | g)
    alpha: float             # alpha(g)
    cell: int                # index of the detection cell holding g


def _detection_tables(model: SystemModel, regions, alpha: WeightFunction):
    """(validated cells, hypotheses in index_space() order) of a detection
    partition, memoized on the model per (cells, alpha).  A partition that
    fails validation is never stored, so it raises on every call."""
    cells = tuple(tuple(sorted(tuple(int(x) for x in g) for g in r))
                  for r in regions)
    key = (cells, alpha.key())
    memo = model._detect_cache.get(key)
    if memo is None:
        cleaned = tuple(check_detection_partition(model, cells))
        hyps = []
        for g in model.index_space():
            with np.errstate(divide="ignore"):
                lp = np.log(output_marginal(model, g))
            cell = next(i for i, r in enumerate(cleaned) if g in r)
            hyps.append(_Hypothesis(g, lp, alpha(g), cell))
        memo = (cleaned, tuple(hyps))
        model._detect_cache[key] = memo
    return memo


def detect_region(model: SystemModel, regions, alpha: WeightFunction, y):
    """Maximum weighted output-marginal likelihood estimate of the code
    index vector, and the index of the partition cell containing it.  Ties
    break toward the lexicographically smallest vector."""
    _cells, hyps = _detection_tables(model, regions, alpha)
    y = np.asarray(y, dtype=np.int64)
    N = len(y)
    best, best_score = None, -INF
    for h in hyps:
        score = float(h.log_out[y].sum() - N * h.alpha)
        if score > best_score:
            best, best_score = h, score
    return best.cell, best.g


def decode_with_detection(model: SystemModel, regions, partition,
                          alpha: WeightFunction,
                          codebooks: CodebookRealization, y, thresholds_by_D,
                          truth=None) -> DecodeOutcome:
    """Detect the code-index region first, then run the receiver restricted
    to candidates inside the detected cell (thresholds stay those of the
    unrestricted regions)."""
    cell_idx, ghat = detect_region(model, regions, alpha, y)
    restrict = _detection_tables(model, regions, alpha)[0][cell_idx]
    out = decode_receiver(model, partition, alpha, codebooks, y,
                          thresholds_by_D, truth=truth, restrict_to=restrict)
    out.diagnostics["detected_region"] = cell_idx
    out.diagnostics["ghat"] = ghat
    return out
