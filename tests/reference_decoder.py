"""The per-trial decoder, kept as the slow reference for the block decoder.

``reference_decode_subset`` and ``reference_decode_receiver`` decode one
trial: a one-trial realization and one output of shape (N,).  They make the
decisions the block decoder of :mod:`gepkit.decoder` makes for each trial
of a block, one Python pass per trial, per in-region vector and per subset
S.  ``trial_view`` puts trial i of a block outcome in the same shape, so
the two compare with ``==``; ``decode_one`` and ``receive_one`` run the
block decoder on one trial, a block of one, and return that view.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from gepkit import (
    decode_receiver,
    decode_subset,
    detect_region,
    marginalize_out,
    typicality_threshold,
)
from gepkit.decoder import REASONS
from gepkit.errors import DomainError
from gepkit.montecarlo import ERROR_MODELS, RELAXED, STRICT

INF = float("inf")


@dataclass
class Outcome:
    """One trial's decision: a decoded (w1, g1) for transmitter 1 or a
    collision.  ``diagnostics`` holds ``reason`` (collisions only),
    ``candidates_evaluated``, ``winners`` (subset decoders: one entry per
    S of the table's ``subsets_decode``, the S-winner (w_D, g), None or
    "tie")."""

    kind: str                # "decoded" | "collision"
    w1: int | None = None
    g1: int | None = None
    winner: tuple | None = None   # (w_D tuple, full g tuple)
    diagnostics: dict = field(default_factory=dict)

    @property
    def decoded(self) -> bool:
        return self.kind == "decoded"


def _collision(diag, reason) -> Outcome:
    diag["reason"] = reason
    return Outcome(kind="collision", diagnostics=diag)


@dataclass
class _Candidates:
    g: tuple
    grid: tuple              # message count of each user of D
    rows: np.ndarray         # (n_candidates, |D|, N) codeword symbols
    loglik: np.ndarray       # (n_candidates,) log P(y | x_D, g)
    score: np.ndarray        # loglik - N * alpha(g)
    wnll: np.ndarray         # -loglik/N + alpha(g), per-symbol units


def _enumerate_candidates(model, D, g, codebooks, y, alpha) -> _Candidates:
    N = len(y)
    lm = marginalize_out(model, D, g).log_pmf()
    tables = [codebooks.table(k, g[k])[0] for k in D]
    counts = [t.shape[0] for t in tables]
    n = math.prod(counts)
    if len(D) == 1:
        rows = tables[0][:, None, :]
        loglik = lm[tables[0], y[None, :]].sum(axis=1)
    else:
        picks = np.indices(counts).reshape(len(D), n)
        gathered = tuple(t[p] for t, p in zip(tables, picks))
        rows = np.stack(gathered, axis=1)
        loglik = lm[gathered + (np.broadcast_to(y, (n, N)),)].sum(axis=1)
    a = alpha(g)
    return _Candidates(g=g, grid=tuple(counts), rows=rows, loglik=loglik,
                       score=loglik - N * a, wnll=-loglik / N + a)


def _thresholds_for(model, D, S, cand: _Candidates, params, y, alpha):
    """tau* of one (g, S) over the candidates' message grid, solved on the
    distinct rows of the messages of S cap D."""
    pos = [D.index(k) for k in sorted(set(S) & set(D))]
    first = tuple(slice(None) if j in pos else slice(1)
                  for j in range(len(D)))
    grid = cand.rows.reshape(cand.grid + cand.rows.shape[1:])
    fixed = grid[first].take(pos, axis=-2)
    rows = fixed.reshape(math.prod(fixed.shape[:-2]), len(pos), len(y))
    tau = typicality_threshold(model, D, S, cand.g, params, rows, y, alpha)
    return tau.reshape(fixed.shape[:-2])


def _subset_winner(cands, accepted_masks):
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


def reference_decode_subset(thresholds, codebooks, y,
                            restrict_to=None) -> Outcome:
    """One (D, R_D)-decoder on one trial (see
    :func:`gepkit.decoder.decode_subset`)."""
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
        tau = typicality_threshold(model, D, S, g, thresholds.get(g, S),
                                   cand.rows[j:j + 1], y, alpha)
        if not cand.wnll[j] < tau[0]:
            return _collision(diag, "margin_reject")
    return Outcome(kind="decoded", w1=w_D[D.index(0)], g1=g[0],
                   winner=first, diagnostics=diag)


def reference_decode_receiver(thresholds_by_D: dict, codebooks, y,
                              detector=None) -> Outcome:
    """The receiver on one trial (see
    :func:`gepkit.decoder.decode_receiver`)."""
    y = np.asarray(y, dtype=np.int64)
    diag = {"candidates_evaluated": 0}
    cell = None
    if detector is not None:
        cell = detector.cells[int(detect_region(detector, y[None])[0])]
    pairs = []
    for thresholds in thresholds_by_D.values():
        out = reference_decode_subset(thresholds, codebooks, y,
                                      restrict_to=cell)
        diag["candidates_evaluated"] += out.diagnostics["candidates_evaluated"]
        if out.decoded:
            pairs.append((out.w1, out.g1, out.winner))
    if not pairs:
        return _collision(diag, "no_decoder_decoded")
    first = pairs[0]
    if any(p[:2] != first[:2] for p in pairs[1:]):
        return _collision(diag, "cross_D_disagreement")
    return Outcome(kind="decoded", w1=first[0], g1=first[1],
                   winner=first[2], diagnostics=diag)


def reference_classify_error(error_model: str, region, margin, g, w,
                             outcome: Outcome) -> bool:
    """Error of one trial (see :func:`gepkit.montecarlo.classify_error`)."""
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
# block outcomes in the reference's shape
# ---------------------------------------------------------------------------

def as_choice(row, n_decoded: int):
    """A row of a block outcome's ``winners`` as (w_D, g), None or "tie"."""
    row = [int(v) for v in row]
    if row[0] == 0:
        return None
    if row[0] == -1:
        return "tie"
    return tuple(row[:n_decoded]), tuple(row[n_decoded:])


def trial_view(out, i: int, D=()) -> Outcome:
    """Trial i of a block outcome as an :class:`Outcome`.  ``D`` is the
    decoded subset of a :func:`decode_subset` outcome, whose winners it
    reads; the receiver's outcome has none."""
    reason = REASONS[int(out.reason[i])]
    diag = {"candidates_evaluated": out.diagnostics["candidates_evaluated"]}
    if "winners" in out.diagnostics:
        diag["winners"] = [as_choice(row[i], len(D))
                           for row in out.diagnostics["winners"]]
    if reason is not None:
        return _collision(diag, reason)
    winner = diag["winners"][0] if "winners" in diag else None
    return Outcome(kind="decoded", w1=int(out.w1[i]), g1=int(out.g1[i]),
                   winner=winner, diagnostics=diag)


def decode_one(thresholds, codebooks, y) -> Outcome:
    """:func:`decode_subset` on one trial, a block of one."""
    out = decode_subset(thresholds, codebooks, np.asarray(y)[None])
    return trial_view(out, 0, thresholds.D)


def receive_one(thresholds_by_D, codebooks, y, detector=None) -> Outcome:
    """:func:`decode_receiver` on one trial, a block of one."""
    out = decode_receiver(thresholds_by_D, codebooks, np.asarray(y)[None],
                          detector)
    return trial_view(out, 0)
