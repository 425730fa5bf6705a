"""Error-exponent functionals and finite-blocklength bound assembly.

Three per-letter exponents drive everything:

* the message-confusion exponent (a two-parameter Gallager-style functional
  comparing a transmitted code vector against an in-region competitor),
* the false-acceptance exponent (transmitted vs. an excluded code vector,
  with the auxiliary parameters coupled by s + rho <= 1), and
* the output-marginal discrimination exponent (a Chernoff quantity between
  two hypotheses' output distributions, used by region detection).

All sums over outputs and input symbols run in log domain with max-shift
accumulation; the e^{-N alpha} weights would underflow linear-domain sums
already for N around 100.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .channel import SystemModel, marginalize_out
from .ensemble import (
    _logsumexp,
    _logsumexp_rows,
    marginal_log_table,
    message_count,
    scale_log,
    subset_weights_log,
)
from .errors import (
    DomainError,
    EmptyDifferenceSet,
    NotAPartition,
    OverlappingMargin,
    ShapeMismatch,
    UserOneMissing,
)
from .optimize import EPS, maximize_rho_s, maximize_scalar


# ---------------------------------------------------------------------------
# weights, regions, partitions
# ---------------------------------------------------------------------------

class WeightFunction:
    """Nonnegative per-code-vector weight exponent alpha(g), nats/symbol."""

    def __init__(self, model: SystemModel, values=None):
        self.model = model
        shape = model.code_counts
        if values is None:
            arr = np.zeros(shape)
        elif isinstance(values, dict):
            arr = np.zeros(shape)
            for g, v in values.items():
                arr[model.check_g(g)] = float(v)
        else:
            arr = np.asarray(values, dtype=float)
            if arr.shape != shape:
                raise ShapeMismatch(
                    f"alpha table shape {arr.shape} != index space {shape}")
        if np.any(arr < 0):
            raise DomainError("alpha(g) must be >= 0 for all g")
        arr.setflags(write=False)
        self.array = arr

    @classmethod
    def zero(cls, model: SystemModel) -> "WeightFunction":
        return cls(model)

    def __call__(self, g) -> float:
        return float(self.array[tuple(g)])

    def shifted(self, c: float) -> "WeightFunction":
        return WeightFunction(self.model, self.array + float(c))

    def log_total(self, N: int) -> float:
        """log sum_g e^{-N alpha(g)} over the full index space."""
        return float(_logsumexp((-N * self.array).reshape(-1), axis=0))

    def prior(self, N: int) -> np.ndarray:
        """Normalized e^{-N alpha(g)} prior over the index space."""
        logp = -N * self.array - self.log_total(N)
        return np.exp(logp)

    def key(self) -> bytes:
        return self.array.tobytes()


def validate_region(model: SystemModel, members) -> frozenset:
    """Region of code index vectors: members valid, duplicates forbidden."""
    members = [model.check_g(g) for g in members]
    if len(members) != len(set(members)):
        raise ShapeMismatch("region contains duplicate code index vectors")
    return frozenset(members)


def _decoded_subset(D) -> tuple:
    """A decoded subset as a sorted tuple of users; it must contain user 0."""
    D = tuple(sorted(set(int(k) for k in D)))
    if 0 not in D:
        raise UserOneMissing(f"decoded subset {D} must contain user 0")
    return D


def validate_partition(model: SystemModel, mapping, region) -> tuple:
    """Assignment of region vectors to decoded subsets D (every D names
    distinct regular users, user 0 among them, and no two entries name one
    D): the per-D regions must be disjoint and cover ``region``.  Returns
    the nonempty parts as ((D, frozenset of g), ...) sorted by D."""
    seen = set()
    parts = {}
    for D, members in mapping.items():
        if len(set(D)) != len(D):
            raise ShapeMismatch(f"decoded subset {tuple(D)} repeats a user")
        D = _decoded_subset(D)
        if not set(D) <= set(range(model.K)):
            raise ShapeMismatch(
                f"decoded subset {D} names a user outside 0..{model.K - 1}")
        if D in parts:
            raise ShapeMismatch(f"decoded subset {D} has a second entry")
        parts[D] = validate_region(model, members)
        if parts[D] & seen:
            raise ShapeMismatch("partition regions overlap")
        seen |= parts[D]
    if seen != validate_region(model, region):
        raise ShapeMismatch("partition does not cover the region")
    return tuple(sorted((D, reg) for D, reg in parts.items() if reg))


def proper_subsets(n_users: int):
    """All proper subsets S of the user set, smallest first (deterministic)."""
    for r in range(n_users):
        for combo in itertools.combinations(range(n_users), r):
            yield frozenset(combo)


def sub(g, S):
    """g restricted to sorted S."""
    return tuple(g[k] for k in sorted(S))


# ---------------------------------------------------------------------------
# exponent functionals
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ExponentResult:
    value: float
    rho: float | None
    s: float


def _check_DS(model: SystemModel, D, S):
    D = tuple(sorted(set(int(k) for k in D)))
    if not D:
        raise EmptyDifferenceSet("decoded subset D is empty")
    if any(not 0 <= k < model.K for k in D):
        raise ShapeMismatch(f"D={D} must contain regular users only")
    S = frozenset(int(k) for k in S)
    if any(not 0 <= k < model.n_users for k in S):
        raise ShapeMismatch(f"S={sorted(S)} outside the user range")
    return D, S


def _content_key(make, tables) -> tuple:
    """The content key of ``make(*tables)``, an objective that closes over
    nothing but ``tables``: the factory's name and the shape and bytes of
    every table.  Equal keys mean the same function, so
    :class:`ExponentCache` maximizes it once."""
    return (make.__name__,) + tuple(
        (np.shape(t), np.asarray(t, dtype=float).tobytes()) for t in tables)


def _scaled(c, logs) -> list:
    """:func:`scale_log` on a list of floats."""
    return [c * x if c or x != -math.inf else 0.0 for x in logs]


def _emd(lw_g, a_g, lw_t, a_t, lw_fixed, rate_sum):
    # g and g~ tables share one shape: stacked, one log-sum-exp gives both
    lw = np.stack([lw_g, lw_t]).reshape(2, 1, 1, 1, -1)
    a = np.stack([a_g, a_t])[:, None]

    def objective(rho, s):
        s = np.asarray(s, dtype=float).reshape(1, -1, 1, 1, 1)
        rho = np.asarray(rho, dtype=float).reshape(-1, 1, 1)
        c = np.concatenate([1.0 - s, s / rho[..., None]])
        t1, t2 = _logsumexp(lw + scale_log(c, a), axis=-1)
        combined = lw_fixed + t1 + rho * t2
        total = _logsumexp(combined.reshape(combined.shape[0], -1), axis=1)
        return -rho.reshape(-1) * rate_sum - total

    sides = [(w.tolist(), t.reshape(-1, t.shape[-1]).tolist())
             for w, t in ((lw_g, a_g), (lw_t, a_t))]
    fixed = lw_fixed.tolist() * len(a_g)

    def point(rho, s):
        inner = _logsumexp_rows([
            [w + x for w, x in zip(lw_side, _scaled(c, row))]
            for c, (lw_side, rows) in zip((1.0 - s, s / rho), sides)
            for row in rows])
        total, = _logsumexp_rows([[f + t1 + rho * t2 for f, t1, t2 in zip(
            fixed, inner[:len(fixed)], inner[len(fixed):])]])
        return -rho * rate_sum - total

    objective.point = point  # a nan defers to the array kernel
    return objective


def emd_objective(model: SystemModel, D, S, g, g_tilde, alpha: WeightFunction):
    """Objective (rho, s) -> values for the message-confusion exponent, rho
    paired with s elementwise (see :func:`maximize_rho_s`); maximize over
    rho in (0,1], s in (0,1]."""
    return _emd(*_emd_tables(model, D, S, g, g_tilde, alpha))


def _emd_tables(model, D, S, g, g_tilde, alpha) -> tuple:
    D, S = _check_DS(model, D, S)
    if not set(D) - S:
        raise EmptyDifferenceSet(f"D\\S is empty for D={D}, S={sorted(S)}")
    g = model.check_g(g)
    gt = model.check_g(g_tilde)
    lm_g, lw_g = marginal_log_table(model, D, S, g)
    lm_t, lw_t = marginal_log_table(model, D, S, gt)
    lw_fixed = subset_weights_log(model, set(D) & S, g)
    rate_sum = sum(model.rate(k, gt[k]) for k in set(D) - set(S))
    return lw_g, lm_g - alpha(g), lw_t, lm_t - alpha(gt), lw_fixed, rate_sum


def _eid(lw_g, a_g, t2c, lw_fixed, rate_sum):
    def objective(rho, s):
        s = np.asarray(s, dtype=float).reshape(-1, 1, 1, 1)
        rho = np.asarray(rho, dtype=float).reshape(-1, 1, 1, 1)
        s_rho = s + rho
        t1 = _logsumexp(lw_g + scale_log(s / s_rho, a_g), axis=3)
        combined = (lw_fixed + scale_log(s_rho[..., 0], t1)
                    + scale_log(1.0 - s[..., 0], t2c))
        total = _logsumexp(combined.reshape(combined.shape[0], -1), axis=1)
        return -rho.reshape(-1) * rate_sum - total

    lw, rows = lw_g.tolist(), a_g.reshape(-1, a_g.shape[-1]).tolist()
    fixed, t2 = lw_fixed.tolist() * len(a_g), t2c.ravel().tolist()

    def point(rho, s):
        s_rho = s + rho
        t1 = _logsumexp_rows([[w + x for w, x in zip(lw, _scaled(
            s / s_rho, row))] for row in rows])
        total, = _logsumexp_rows([[f + x + y for f, x, y in zip(
            fixed, _scaled(s_rho, t1), _scaled(1.0 - s, t2))]])
        return -rho * rate_sum - total

    objective.point = point  # a nan defers to the array kernel
    return objective


def eid_objective(model: SystemModel, D, S, g, g_prime, alpha: WeightFunction):
    """Objective (rho, s) -> values for the false-acceptance exponent, rho
    paired with s elementwise; maximize over rho in (0,1], s in (0, 1-rho]."""
    return _eid(*_eid_tables(model, D, S, g, g_prime, alpha))


def _eid_tables(model, D, S, g, g_prime, alpha) -> tuple:
    D, S = _check_DS(model, D, S)
    g = model.check_g(g)
    gp = model.check_g(g_prime)
    lm_g, lw_g = marginal_log_table(model, D, S, g)
    lm_p, lw_p = marginal_log_table(model, D, S, gp)
    lw_fixed = subset_weights_log(model, set(D) & S, g)
    # the excluded-vector factor carries exponent 1: s-independent, (Y, F)
    t2c = _logsumexp(lw_p[None, None, :] + (lm_p - alpha(gp)), axis=2)
    rate_sum = sum(model.rate(k, g[k]) for k in set(D) - set(S))
    return lw_g, lm_g - alpha(g), t2c, lw_fixed, rate_sum


def _ec(lp, lq):
    def objective(s):
        s = np.asarray(s, dtype=float).reshape(-1, 1)
        return -_logsumexp(scale_log(s, lp) + scale_log(1.0 - s, lq), axis=1)

    return objective


def ec_objective(model: SystemModel, g, g_tilde, alpha: WeightFunction):
    """Objective s_array -> values for the output-marginal discrimination
    exponent; maximize over s in (0, 1]."""
    return _ec(*_ec_tables(model, g, g_tilde, alpha))


def _ec_tables(model, g, g_tilde, alpha) -> tuple:
    g = model.check_g(g)
    gt = model.check_g(g_tilde)
    lp = marginalize_out(model, (), g).log_pmf() - alpha(g)
    lq = marginalize_out(model, (), gt).log_pmf() - alpha(gt)
    return lp, lq


def exponent_EmD(model: SystemModel, D, S, g, g_tilde,
                 alpha: WeightFunction) -> ExponentResult:
    """Message-confusion exponent for subset S, transmitted g, competitor
    g_tilde; the (rho, s) maximization runs over (0,1] x (0,1].
    :class:`EmptyDifferenceSet` when D\\S is empty."""
    f = emd_objective(model, D, S, g, g_tilde, alpha)
    res = maximize_rho_s(f)
    return ExponentResult(res.value, res.argmax[0], res.argmax[1])


def exponent_EiD(model: SystemModel, D, S, g, g_prime,
                 alpha: WeightFunction) -> ExponentResult:
    """False-acceptance exponent for subset S, in-region g, excluded
    g_prime; s is constrained to (0, 1-rho].

    D\\S may be empty (the margin bound's subsets S covering D), where the
    functional degenerates to a conditional Chernoff quantity.
    """
    f = eid_objective(model, D, S, g, g_prime, alpha)
    res = maximize_rho_s(f, coupled=True)
    return ExponentResult(res.value, res.argmax[0], res.argmax[1])


def exponent_Ec(model: SystemModel, g, g_tilde,
                alpha: WeightFunction) -> ExponentResult:
    """Output-marginal discrimination exponent between hypotheses g and
    g_tilde (region detection); maximized over s in (0, 1]."""
    f = ec_objective(model, g, g_tilde, alpha)
    res = maximize_scalar(f, EPS, 1.0)
    return ExponentResult(res.value, None, res.argmax[0])


class ExponentCache:
    """Memoizes exponent maximizations, keyed by what each objective
    computes (:func:`_content_key`).  The search is fixed
    (:mod:`.optimize`), a model and alpha enter an objective only through
    its tables, and no exponent depends on N, so one cache serves any
    model, alpha and blocklength without changing a result; codes enter
    only through their rates and input pmfs, so distinct (D, S, g, g')
    often share one maximization.  Every lookup builds its objective's
    tables, so its arguments are checked each time, and only a miss builds
    the objective (in the maximization it calls)."""

    def __init__(self):
        self._memo: dict = {}  # content key -> ExponentResult

    def _lookup(self, make, tables, maximize, *args) -> ExponentResult:
        key = _content_key(make, tables(*args))
        if key not in self._memo:
            self._memo[key] = maximize(*args)
        return self._memo[key]

    def emd(self, model, D, S, g, gt, alpha) -> ExponentResult:
        return self._lookup(_emd, _emd_tables, exponent_EmD, model, D, S, g,
                            gt, alpha)

    def eid(self, model, D, S, g, gp, alpha) -> ExponentResult:
        return self._lookup(_eid, _eid_tables, exponent_EiD, model, D, S, g,
                            gp, alpha)

    def ec(self, model, g, gt, alpha) -> ExponentResult:
        return self._lookup(_ec, _ec_tables, exponent_Ec, model, g, gt, alpha)

    def best_excluded(self, model, D, S, g, excluded_from, alpha):
        """Excluded vector g' minimizing the false-acceptance exponent among
        {g' not in excluded_from, g'_S = g_S}; None when the set is empty.
        Ties break lexicographically for determinism."""
        gs = sub(g, S)
        best = None
        for gp in model.index_space():
            if gp in excluded_from or sub(gp, S) != gs:
                continue
            res = self.eid(model, D, S, g, gp, alpha)
            if best is None or res.value < best[1].value:
                best = (gp, res)
        return best


# ---------------------------------------------------------------------------
# bound assembly
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BoundTerm:
    kind: str              # "miss" | "confusion" | "false_accept" | "detect"
    S: tuple
    g: tuple
    g_other: tuple | None  # competitor (confusion/detect) or excluded vector
    exponent: float
    rho: float | None
    s: float


VACUITY_TOL = 1e-9  # optimizer noise in a zero exponent scales by N
PARTITION_CAP = 4096  # most D-assignments gep_bound_partitioned tries


@dataclass(frozen=True)
class BoundReport:
    value: float           # raw clamped to 1 (weighted detection: raw)
    raw: float             # assembled sum before clamping
    log_raw: float
    N: int
    terms: tuple
    vacuous: bool
    alpha_key: bytes
    heuristic: bool = False
    components: dict = field(default_factory=dict)


def is_vacuous(raw: float) -> bool:
    """Whether a bound value says nothing: it reaches 1 up to optimizer
    noise."""
    return raw >= 1.0 - VACUITY_TOL


def bound_report(terms, N: int, alpha: WeightFunction, log_norm: float,
                 clamp: bool) -> BoundReport:
    """The report of a sum of terms: the raw bound is
    sum_t e^{-N exponent_t} / e^{log_norm} over ``terms``, and the value is
    the raw bound clamped to 1 when ``clamp``, the raw bound itself
    otherwise."""
    logs = np.array([-N * t.exponent for t in terms], dtype=float)
    log_raw = float(_logsumexp(logs, axis=0) - log_norm) if len(logs) \
        else float("-inf")
    raw = float(np.exp(log_raw))
    return BoundReport(value=min(1.0, raw) if clamp else raw, raw=raw,
                       log_raw=log_raw, N=N, terms=tuple(terms),
                       vacuous=is_vacuous(raw), alpha_key=alpha.key())


def summed_report(reports: dict, N: int, alpha: WeightFunction, extra: dict,
                  heuristic: bool) -> BoundReport:
    """The sum of per-D reports (D -> BoundReport) and ``extra`` named raw
    components as one report, clamped to 1, with the per-D terms in order."""
    components = {str(D): r.raw for D, r in reports.items()}
    components.update(extra)
    raw = sum(components.values())
    return BoundReport(value=min(1.0, raw), raw=raw,
                       log_raw=math.log(raw) if raw > 0 else float("-inf"),
                       N=N, terms=tuple(t for r in reports.values()
                                        for t in r.terms),
                       vacuous=is_vacuous(raw), alpha_key=alpha.key(),
                       heuristic=heuristic, components=components)


def _term(kind, S, g, g_other, res: ExponentResult) -> BoundTerm:
    return BoundTerm(kind=kind, S=tuple(sorted(S)), g=g, g_other=g_other,
                     exponent=res.value, rho=res.rho, s=res.s)


def confusion_feasible(model: SystemModel, N: int, D, S, g, gt) -> bool:
    """Whether the S-competitor relation between code vectors g (transmitted)
    and gt admits at least one message assignment: agreement on S, different
    codes off S outside D, and off S inside D either a different code or a
    code with at least two messages.  A code with N r > 1 has at least
    floor(e) = 2 messages, so its count, past the float range at large N,
    is never formed."""
    D, S = set(D), set(S)
    for k in range(model.n_users):
        if k in S:
            if g[k] != gt[k]:
                return False
        elif k in D:
            rate = model.rate(k, g[k])
            if g[k] == gt[k] and N * rate <= 1.0 and \
                    message_count(rate, N) < 2:
                return False
        else:
            if g[k] == gt[k]:
                return False
    return True


def _subset_terms(model, D, S, region, excluded, covers_D, alpha, N, cache):
    """Union-bound terms of one subset S: per in-region g a threshold-miss
    term (the false-acceptance exponent of the worst vector outside
    ``excluded``), followed, unless S covers D, by message-confusion terms
    against in-region competitors; then, per transmitted vector outside
    ``excluded``, the same worst-case false-acceptance term for every
    S-compatible in-region g."""
    region_sorted = sorted(region)
    terms, miss = [], {}
    for g in region_sorted:
        best = cache.best_excluded(model, D, S, g, excluded, alpha)
        if best is not None:
            miss[g] = best
            terms.append(_term("miss", S, g, *best))
        if covers_D:
            continue
        for gt in region_sorted:
            if sub(gt, S) == sub(g, S) and \
                    confusion_feasible(model, N, D, S, g, gt):
                terms.append(_term("confusion", S, g, gt,
                                   cache.emd(model, D, S, g, gt, alpha)))
    for gt in model.index_space():
        if gt in excluded:
            continue
        for g in region_sorted:
            if g in miss and sub(g, S) == sub(gt, S):
                terms.append(_term("false_accept", S, g, *miss[g]))
    return terms


def decoder_searches(model: SystemModel, D, region, margin=None):
    """The validated (D, region, margin) of a (D, R_D[, margin])-decoder and
    its excluded-vector searches in term order, as (S, excluded, covers_D):
    every proper subset S with D\\S nonempty searches outside the region;
    with a margin (None: none), every proper S covering D follows,
    searching outside region union margin.  D must contain user 0; region
    and margin must be valid and, by :class:`OverlappingMargin`, disjoint."""
    D = _decoded_subset(D)
    region = validate_region(model, region)
    subsets = list(proper_subsets(model.n_users))
    searches = [(S, region, False) for S in subsets if set(D) - S]
    if margin is not None:
        margin = validate_region(model, margin)
        if region & margin:
            raise OverlappingMargin("operation region and margin intersect")
        searches += [(S, region | margin, True) for S in subsets
                     if not set(D) - S]
    return (D, region, margin), searches


def gep_bound_D(model: SystemModel, D, region, alpha: WeightFunction, N: int,
                margin=None, *, cache: ExponentCache) -> BoundReport:
    """Achievable weighted-error bound for a single (D, R_D)-decoder: the
    terms of every proper subset S with D\\S nonempty, excluded vectors
    ranging outside the region.

    A (possibly empty) ``margin`` bounds the margin decoder instead: every
    proper subset S covering D adds threshold-miss terms for in-region
    vectors and false-acceptance terms for vectors outside region and
    margin, all with the excluded-vector search ranging outside region
    union margin.  Margin vectors themselves are charged no
    collision-failure term.  The subsets and their order are those of
    :func:`decoder_searches`.  Exponents are looked up in ``cache``."""
    (D, region, _margin), searches = decoder_searches(model, D, region,
                                                      margin)
    terms = [t for S, excluded, covers_D in searches
             for t in _subset_terms(model, D, S, region, excluded, covers_D,
                                    alpha, N, cache)]
    return bound_report(terms, N, alpha, alpha.log_total(N), True)


def gep_bound_partitioned(model: SystemModel, region, alpha: WeightFunction,
                          N: int, cache: ExponentCache):
    """Receiver-level bound: minimum over assignments of region vectors to
    decoded subsets D (all containing user 0) of the per-D bound sum.

    Exhaustive when the assignment count fits in ``PARTITION_CAP``;
    otherwise only the all-into-{0..K-1} assignment is evaluated and the
    report is flagged heuristic.  Exponents are looked up in ``cache``.
    """
    region = validate_region(model, region)
    others = list(range(1, model.K))
    subsets = sorted(tuple(sorted({0, *combo}))
                     for r in range(len(others) + 1)
                     for combo in itertools.combinations(others, r))
    members = sorted(region)
    n_assign = len(subsets) ** len(members)
    heuristic = n_assign > PARTITION_CAP
    if heuristic:
        assignments = [tuple([tuple(range(model.K))] * len(members))]
    else:
        assignments = itertools.product(subsets, repeat=len(members))

    best = None
    for assign in assignments:
        mapping = {}
        for g, D in zip(members, assign):
            mapping.setdefault(D, []).append(g)
        reports = {D: gep_bound_D(model, D, regs, alpha, N, cache=cache)
                   for D, regs in mapping.items()}
        raw = sum(r.raw for r in reports.values())
        if best is None or raw < best[0]:
            best = (raw, mapping, reports)
    _raw, mapping, reports = best
    return summed_report(reports, N, alpha, {}, heuristic), \
        validate_partition(model, mapping, region)


def check_detection_partition(model: SystemModel, regions):
    """Validate that regions cover the code-index space disjointly."""
    cleaned = [validate_region(model, r) for r in regions]
    total = sum(len(r) for r in cleaned)
    union = frozenset().union(*cleaned) if cleaned else frozenset()
    if total != len(union) or len(union) != model.space_size:
        raise NotAPartition(
            "detection regions must partition the code-index space")
    return cleaned


def detection_bound(model: SystemModel, g, regions, alpha: WeightFunction,
                    N: int, cache: ExponentCache) -> BoundReport:
    """Bound on the weighted region-detection error for true vector g:
    the sum over hypotheses outside g's cell of e^{-N E_c}, with E_c looked
    up in ``cache``.

    The raw sum bounds Pr{detected cell wrong | g} * e^{-N alpha(g)}; it is
    reported clamped as a probability only when alpha(g) = 0, and flagged
    vacuous whenever it reaches 1.
    """
    g = model.check_g(g)
    cleaned = check_detection_partition(model, regions)
    cell = next((r for r in cleaned if g in r), None)
    if cell is None:
        raise NotAPartition(f"no detection region contains {g}")
    terms = [_term("detect", (), g, gt, cache.ec(model, g, gt, alpha))
             for gt in model.index_space() if gt not in cell]
    return bound_report(terms, N, alpha, 0.0, alpha(g) == 0.0)
