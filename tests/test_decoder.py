import itertools
import math
import re
from collections import Counter

import numpy as np
import pytest

from gepkit import (
    CodeSpec,
    SystemModel,
    build_detector,
    build_thresholds,
    detect_region,
    make_compound_bsc,
    make_dmc,
    marginalize_out,
    sample_codebook,
    typicality_threshold,
)
from gepkit.decoder import (
    NO_CONSTRAINT,
    UNCONSTRAINED,
    ThresholdParams,
    params_from_exponent,
)
from gepkit.ensemble import ensemble_log_expectation, message_count
from gepkit.errors import (
    CodeOutOfRange,
    DomainError,
    GepkitError,
    NotAPartition,
    OverlappingMargin,
    ShapeMismatch,
)
from gepkit.exponents import (
    ExponentCache,
    WeightFunction,
    confusion_feasible,
    exponent_EiD,
    proper_subsets,
    validate_region,
)

from conftest import block_of, codeword, random_model, small_search, \
    three_user_model
from reference_decoder import decode_one, receive_one


def zero(model):
    return WeightFunction.zero(model)


# ---------------------------------------------------------------------------
# competitor relation
# ---------------------------------------------------------------------------

def competitor_match(S, D, pair_a, pair_b, n_users: int) -> bool:
    """Oracle: whether (w_D, g) and (w~_D, g~) are S-competitors: messages
    and codes agree on S inside D, codes agree on S outside D, (w_k, g_k)
    differs for every k in D outside S, and codes differ for every k outside
    both."""
    S, D = set(S), set(D)
    w_a, g_a = pair_a
    w_b, g_b = pair_b
    Ds = sorted(D)
    wa = dict(zip(Ds, w_a))
    wb = dict(zip(Ds, w_b))
    for k in range(n_users):
        if k in S and k in D:
            if wa[k] != wb[k] or g_a[k] != g_b[k]:
                return False
        elif k in S:
            if g_a[k] != g_b[k]:
                return False
        elif k in D:
            if wa[k] == wb[k] and g_a[k] == g_b[k]:
                return False
        else:
            if g_a[k] == g_b[k]:
                return False
    return True


def naive_competitor(S, D, pair_a, pair_b, n_users):
    """Literal clause-by-clause reimplementation."""
    S, D = set(S), set(D)
    (w_a, g_a), (w_b, g_b) = pair_a, pair_b
    wa = dict(zip(sorted(D), w_a))
    wb = dict(zip(sorted(D), w_b))
    c1 = all(wa[k] == wb[k] and g_a[k] == g_b[k] for k in S & D)
    c2 = all(g_a[k] == g_b[k] for k in S - D)
    c3 = all((wa[k], g_a[k]) != (wb[k], g_b[k]) for k in D - S)
    c4 = all(g_a[k] != g_b[k]
             for k in set(range(n_users)) - D - S)
    return c1 and c2 and c3 and c4


class TestCompetitorRelation:
    def test_identical_pairs_fail_difference_clause(self):
        pair = ((1,), (0, 0))
        assert not competitor_match([], [0], pair, pair, 2)

    def test_single_user_empty_subset(self):
        a = ((1,), (0, 1))
        b = ((2,), (0, 0))
        assert competitor_match([], [0], a, b, 2)

    def test_three_user_case(self):
        # 2 regular + 1 interfering, S = {1}: user-1 pair must match while
        # users 0 and 2 both change code index
        D = [0, 1]
        a = ((1, 2), (0, 1, 0))
        b = ((3, 2), (1, 1, 1))
        assert competitor_match([1], D, a, b, 3)
        c = ((3, 2), (1, 1, 0))  # user 2 unchanged
        assert not competitor_match([1], D, a, c, 3)

    def test_exhaustive_truth_table(self):
        n_users = 3
        D = [0, 1]
        words = [1, 2]
        codes = [0, 1]
        pairs = [(w, g) for w in itertools.product(words, repeat=2)
                 for g in itertools.product(codes, repeat=3)]
        subsets = [s for r in range(3)
                   for s in itertools.combinations(range(3), r)]
        for S in subsets:
            for a in pairs[:12]:
                for b in pairs:
                    assert competitor_match(S, D, a, b, n_users) == \
                        naive_competitor(S, D, a, b, n_users)

    def test_confusion_feasible_matches_message_enumeration(self):
        """The bound charges a confusion term for (S, g, g~) exactly when
        some messages make (w_D, g) and (w~_D, g~) S-competitors."""
        rng = np.random.default_rng(21)
        checked = {True: 0, False: 0}
        for _ in range(12):
            model = random_model(rng, max_users=3, max_codes=2)
            regular = range(1, model.K)
            for N, r in itertools.product((1, 2, 4), range(model.K)):
                for rest in itertools.combinations(regular, r):
                    D = (0,) + rest

                    def messages(g):
                        return itertools.product(*[
                            range(1, message_count(model.rate(k, g[k]), N)
                                  + 1) for k in D])

                    for S in proper_subsets(model.n_users):
                        for g, gt in itertools.product(model.index_space(),
                                                       repeat=2):
                            want = any(
                                competitor_match(S, D, (w, g), (wt, gt),
                                                 model.n_users)
                                for w in messages(g) for wt in messages(gt))
                            got = confusion_feasible(model, N, D, S, g, gt)
                            assert got == want, (N, D, sorted(S), g, gt)
                            checked[got] += 1
        assert min(checked.values()) > 100


# ---------------------------------------------------------------------------
# threshold machinery
# ---------------------------------------------------------------------------

class TestSelectGstar:
    def test_single_candidate(self):
        m = make_compound_bsc([0.05, 0.3], [0.5, 0.5], 0.2)
        gp, res = ExponentCache().best_excluded(
            m, [0], [], (0, 0), {(0, 0)}, zero(m))
        assert gp == (0, 1) and res.value > 0

    def test_empty_candidate_set(self):
        m = make_compound_bsc([0.05, 0.3], [0.5, 0.5], 0.2)
        best = ExponentCache().best_excluded(
            m, [0], [1], (0, 0), {(0, 0)}, zero(m))
        assert best is None

    def test_sec4_scan_matches_exhaustive(self, sec4_model):
        m = sec4_model
        a = zero(m)
        gp, res = ExponentCache().best_excluded(m, [0], [], (0, 0), {(0, 0)},
                                                a)
        vals = {g: exponent_EiD(m, [0], [], (0, 0), g, a).value
                for g in m.index_space() if g != (0, 0)}
        assert gp == min(sorted(vals), key=lambda g: vals[g])
        assert res.value == pytest.approx(min(vals.values()), abs=1e-12)


def bisect_threshold(model, D, S, g, params, x_fixed, y, alpha):
    """Scalar bisection on the balance equation, independent of the closed
    form used by the package, for a block x_fixed of one row."""
    N = len(y)
    s1, s2, rt = params.s1, params.s2, params.rho_t
    l1, = ensemble_log_expectation(model, D, S, g, y, x_fixed, 1 - s1) \
        - N * (1 - s1) * alpha(g)
    l2, = ensemble_log_expectation(model, D, S, g, y, x_fixed, s2 / rt) \
        - N * (s2 / rt) * alpha(g)
    l3, = ensemble_log_expectation(model, D, S, params.gstar, y, x_fixed,
                                   1.0) - N * alpha(params.gstar)
    rate = sum(model.rate(k, g[k]) for k in set(D) - set(S))

    def gap(tau):
        lhs = l1 - N * s1 * tau
        rhs = l3 + rt * l2 + N * s2 * tau + N * rt * rate
        return lhs - rhs

    lo, hi = -100.0, 100.0
    assert gap(lo) > 0 > gap(hi)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if gap(mid) > 0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


class TestTypicalityThreshold:
    def test_matches_bisection_oracle(self):
        m = make_compound_bsc([0.05, 0.3], [0.5, 0.5], 0.2)
        a = zero(m)
        tbl = build_thresholds(m, [0], [(0, 0)], a, cache=ExponentCache())
        params = tbl.get((0, 0), frozenset())
        rng = np.random.default_rng(3)
        for _ in range(10):
            y = rng.integers(0, 2, 6)
            xf = np.zeros((1, 0, 6), dtype=int)
            tau, = typicality_threshold(m, [0], [], (0, 0), params, xf, y, a)
            oracle = bisect_threshold(m, [0], [], (0, 0), params, xf, y, a)
            assert tau == pytest.approx(oracle, abs=1e-9)

    def test_per_symbol_normalized_under_repetition(self):
        m = make_compound_bsc([0.05, 0.3], [0.5, 0.5], 0.2)
        a = zero(m)
        tbl = build_thresholds(m, [0], [(0, 0)], a, cache=ExponentCache())
        params = tbl.get((0, 0), frozenset())
        y = np.array([0, 1, 1, 0])
        t1, = typicality_threshold(m, [0], [], (0, 0), params,
                                   np.zeros((1, 0, 4), dtype=int), y, a)
        y2 = np.concatenate([y, y])
        t2, = typicality_threshold(m, [0], [], (0, 0), params,
                                   np.zeros((1, 0, 8), dtype=int), y2, a)
        assert t1 == pytest.approx(t2, abs=1e-12)

    def test_deterministic_point_mass_single_symbol(self):
        # point-mass inputs on a deterministic channel: all ensemble
        # factors are powers of one likelihood, so the threshold has a
        # closed form in the two states' log-likelihoods
        t = np.zeros((2, 2, 2))
        t[:, 0, :] = np.array([[0.9, 0.1], [0.1, 0.9]])
        t[:, 1, :] = np.array([[0.6, 0.4], [0.4, 0.6]])
        m = SystemModel(dmc=make_dmc(t), K=1, M=1, libraries=(
            (CodeSpec(0.0, np.array([1.0, 0.0])),),
            (CodeSpec(0.0, np.array([1.0, 0.0])),
             CodeSpec(0.0, np.array([0.0, 1.0]))),
        ))
        a = zero(m)
        tbl = build_thresholds(m, [0], [(0, 0)], a, cache=ExponentCache())
        params = tbl.get((0, 0), frozenset())
        y = np.array([0])
        tau, = typicality_threshold(m, [0], [], (0, 0), params,
                                    np.zeros((1, 0, 1), dtype=int), y, a)
        s1, s2, rt = params.s1, params.s2, params.rho_t
        ll_g = math.log(0.9)   # x locked to 0, state 0
        ll_s = math.log(0.6)   # excluded state
        expect = ((1 - s1) * ll_g - s2 * ll_g - ll_s) / (s1 + s2)
        assert tau == pytest.approx(expect, abs=1e-12)

    def test_unconstrained_is_infinite(self):
        m = make_compound_bsc([0.05, 0.3], [0.5, 0.5], 0.2)
        tbl = build_thresholds(m, [0], [(0, 0)], zero(m),
                               cache=ExponentCache())
        params = tbl.get((0, 0), frozenset([1]))
        assert params.gstar is NO_CONSTRAINT
        tau = typicality_threshold(m, [0], [1], (0, 0), params,
                                   np.zeros((1, 0, 3), dtype=int),
                                   np.array([0, 1, 0]), zero(m))
        assert tau.tolist() == [math.inf]

    def test_params_inverse_map_admissible(self):
        m = make_compound_bsc([0.05, 0.3], [0.5, 0.5], 0.2)
        res = exponent_EiD(m, [0], [], (0, 0), (0, 1), zero(m))
        p = params_from_exponent((0, 1), res)
        assert 0 < p.s2 < p.rho_t <= 1.0
        assert 0 < p.s1 < 1.0
        # the map inverts back to the optimized point
        rho = p.rho_t * (p.rho_t - p.s2) / (p.rho_t - (1 - p.rho_t) * p.s2)
        s = 1 - (p.rho_t - p.s2) / (p.rho_t - (1 - p.rho_t) * p.s2)
        assert rho == pytest.approx(res.rho, abs=1e-9)
        assert s == pytest.approx(res.s, abs=1e-9)

    def test_inadmissible_params_raise_domain_error(self):
        # a GepkitError, so the CLI reports it and exits 2
        with pytest.raises(DomainError):
            ThresholdParams(rho_t=0.5, s2=0.6, s1=0.5, gstar=(0, 1))
        with pytest.raises(DomainError):
            ThresholdParams(rho_t=1.0, s2=0.5, s1=1.0, gstar=(0, 1))
        assert issubclass(DomainError, GepkitError)
        # no excluded vector: the values are placeholders and not checked
        ThresholdParams(rho_t=1.0, s2=0.5, s1=1.0, gstar=None)


# ---------------------------------------------------------------------------
# reference decoder (the oracle shared with the acceptance suite)
# ---------------------------------------------------------------------------

def reference_decode_subset(model, D, region, alpha, codebooks, y,
                            thresholds):
    """Naive candidate-by-candidate reimplementation of the decoding rule
    of a table without a margin, in the shape of :func:`decision`: the
    (kind, w1, g1) triple, each S's winner and the collision reason."""
    D = tuple(sorted(D))
    y = np.asarray(y)
    N = len(y)
    members = sorted(validate_region(model, region))
    candidates = []
    for g in members:
        lm = marginalize_out(model, D, g).pmf
        ranges = [range(1, codebooks.counts[(k, g[k])] + 1) for k in D]
        for w in itertools.product(*ranges):
            rows = [codeword(codebooks, k, g[k], w[i])
                    for i, k in enumerate(D)]
            ll = sum(math.log(lm[tuple(r[j] for r in rows) + (int(y[j]),)])
                     if lm[tuple(r[j] for r in rows) + (int(y[j]),)] > 0
                     else -math.inf for j in range(N))
            candidates.append((w, g, rows, ll))
    winners = []
    for S in thresholds.subsets_decode:
        sd = sorted(set(S) & set(D))
        accepted = []
        for w, g, rows, ll in candidates:
            params = thresholds.get(g, S)
            xf = np.array([rows[D.index(k)] for k in sd]) if sd \
                else np.zeros((0, N), dtype=int)
            tau, = typicality_threshold(model, D, S, g, params, xf[None], y,
                                        alpha)
            wnll = -ll / N + alpha(g)
            if wnll < tau:
                accepted.append((w, g, ll - N * alpha(g)))
        if not accepted:
            winners.append(None)
            continue
        best = max(s for _, _, s in accepted)
        top = [(w, g) for w, g, s in accepted if s == best]
        winners.append("tie" if len(top) > 1 else top[0])
    if "tie" in winners:
        reason = "tie"
    elif None in winners:
        reason = "no_winner"
    elif any(w != winners[0] for w in winners):
        reason = "disagreement"
    else:
        w, g = winners[0]
        return ("decoded", w[D.index(0)], g[0]), winners, None
    return ("collision", None, None), winners, reason


def decision(out):
    """A decode_subset outcome's (kind, w1, g1), winners and reason."""
    return ((out.kind, out.w1, out.g1), out.diagnostics["winners"],
            out.diagnostics.get("reason"))


def random_instance(rng):
    """Tiny decodable instance: <= 8 total codewords, N <= 6."""
    while True:
        m = random_model(rng, max_users=2, max_codes=2, max_out=2)
        N = int(rng.integers(2, 7))
        region_pool = list(m.index_space())
        size = int(rng.integers(1, min(3, len(region_pool)) + 1))
        idx = rng.choice(len(region_pool), size=size, replace=False)
        region = [region_pool[i] for i in idx]
        cb = sample_codebook(m, N, int(rng.integers(0, 2**31)))
        total = 0
        D = tuple(sorted(rng.choice(
            m.K, size=int(rng.integers(1, m.K + 1)), replace=False).tolist()))
        if 0 not in D:
            D = tuple(sorted(set(D) | {0}))
        for g in region:
            n = 1
            for k in D:
                n *= cb.counts[(k, g[k])]
            total += n
        if total <= 8:
            return m, N, region, cb, D


def three_user_instance(seed):
    """Three regular users, two 2-message codes each at N = 4, all decoded:
    S = {0, 1} and {1, 2} fix two users' symbols, so their thresholds vary
    over a 2 x 2 grid of rows.  The output is the channel's answer to one
    in-region vector's codewords."""
    rng = np.random.default_rng(seed)
    N = 4
    m = three_user_model(rng, math.log(2.0) / N)
    t = m.dmc.pmf
    region = [(0, 0, 0), (1, 0, 1)]
    cb = sample_codebook(m, N, seed)
    g = region[seed % 2]
    x = [codeword(cb, k, g[k], int(rng.integers(1, 3))) for k in range(3)]
    y = np.array([rng.choice(3, p=t[x[0][j], x[1][j], x[2][j]])
                  for j in range(N)])
    return m, N, region, cb, (0, 1, 2), y


class TestDecodeSubset:
    def test_noiseless_decode(self):
        m = SystemModel(
            dmc=make_dmc(np.eye(2)), K=1, M=0,
            libraries=((CodeSpec(math.log(2.0) / 4, np.array([0.5, 0.5])),),))
        a = zero(m)
        region = [(0,)]
        tbl = build_thresholds(m, [0], region, a, cache=ExponentCache())
        cb = sample_codebook(m, 4, 2)
        table = cb.tables[(0, 0)][0]
        assert not np.array_equal(table[0], table[1])  # distinct codewords
        y = codeword(cb, 0, 0, 2)
        out = decode_one(tbl, cb, y)
        assert out.decoded and out.w1 == 2 and out.g1 == 0

    def test_output_outside_every_threshold_collides(self):
        m = make_compound_bsc([0.02, 0.45], [0.5, 0.5], 0.3)
        a = zero(m)
        region = [(0, 0)]
        tbl = build_thresholds(m, [0], region, a, cache=ExponentCache())
        cb = sample_codebook(m, 10, 5)
        # an output sequence maximally atypical for the in-region state:
        # flip every symbol of codeword 1
        y = 1 - codeword(cb, 0, 0, 1)
        out = decode_one(tbl, cb, y)
        assert out.kind == "collision"

    def test_repeat_decode_is_identical(self):
        m = make_compound_bsc([0.05, 0.3], [0.5, 0.5], 0.2)
        a = zero(m)
        region = [(0, 0)]
        tbl = build_thresholds(m, [0], region, a, cache=ExponentCache())
        cb = sample_codebook(m, 10, 31)
        y = np.random.default_rng(2).integers(0, 2, 10)
        first = decode_one(tbl, cb, y)
        second = decode_one(tbl, cb, y)
        assert (first.kind, first.w1, first.g1, first.winner) == \
            (second.kind, second.w1, second.g1, second.winner)

    def test_code_missing_from_the_realization_raises(self):
        """A table needs code 1 of user 0; a realization of a model whose
        library holds only code 0 has no such code."""
        pmf = np.array([0.5, 0.5])
        two = SystemModel(dmc=make_dmc(np.eye(2)), K=1, M=0,
                          libraries=((CodeSpec(0.2, pmf),
                                      CodeSpec(0.1, pmf)),))
        one = SystemModel(dmc=make_dmc(np.eye(2)), K=1, M=0,
                          libraries=((CodeSpec(0.2, pmf),),))
        tbl = build_thresholds(two, [0], [(0,), (1,)], zero(two),
                               cache=ExponentCache())
        cb = block_of(one, 6, [4])
        with pytest.raises(CodeOutOfRange):
            decode_one(tbl, cb, np.zeros(6, dtype=np.int64))

    @small_search(8, 0)
    def test_matches_reference_on_random_instances(self):
        rng = np.random.default_rng(8)
        agree = 0
        reasons = Counter()
        for _ in range(60):
            m, N, region, cb, D = random_instance(rng)
            a = WeightFunction(
                m, rng.uniform(0, 0.2, size=m.code_counts))
            tbl = build_thresholds(m, D, region, a, cache=ExponentCache())
            y = rng.integers(0, m.dmc.output_size, N)
            mine = decision(decode_one(tbl, cb, y))
            ref = reference_decode_subset(m, D, region, a, cb, y, tbl)
            assert mine == ref
            agree += 1
            reasons[mine[2]] += 1
        assert agree == 60
        assert reasons["tie"] and reasons["no_winner"] and reasons[None]
        # two fixed users: grids of thresholds, none of them unconstrained
        kinds = set()
        for seed in range(8):
            m, N, region, cb, D, y = three_user_instance(seed)
            a = WeightFunction(m, rng.uniform(0, 0.2, size=m.code_counts))
            tbl = build_thresholds(m, D, region, a, cache=ExponentCache())
            assert all(tbl.get(g, S).gstar is not None for g in region
                       for S in ({0, 1}, {1, 2}))
            mine = decision(decode_one(tbl, cb, y))
            ref = reference_decode_subset(m, D, region, a, cb, y, tbl)
            assert mine == ref, seed
            kinds.add(mine[0][0])
        assert kinds == {"decoded", "collision"}


class TestDecodeReceiver:
    def test_single_subset_equivalent(self):
        m = make_compound_bsc([0.05, 0.3], [0.5, 0.5], 0.2)
        a = zero(m)
        region = validate_region(m, [(0, 0)])
        tbl = {(0,): build_thresholds(m, (0,), region, a,
                                      cache=ExponentCache())}
        cb = sample_codebook(m, 8, 11)
        rng = np.random.default_rng(0)
        for _ in range(10):
            y = rng.integers(0, 2, 8)
            a_out = receive_one(tbl, cb, y)
            b_out = decode_one(tbl[(0,)], cb, y)
            assert (a_out.kind, a_out.w1, a_out.g1) == \
                (b_out.kind, b_out.w1, b_out.g1)

    def test_one_decoder_decoding_while_other_collides_suffices(self):
        # K=2 partition: the singleton-subset decoder finds the codeword,
        # the joint decoder's region contains no matching codeword pair,
        # so it collides; the receiver still outputs user 0's estimate
        t = np.zeros((2, 2, 4))
        for x1 in range(2):
            for x2 in range(2):
                t[x1, x2, 2 * x1 + x2] = 1.0  # lossless two-user channel
        u = np.array([0.5, 0.5])
        m = SystemModel(dmc=make_dmc(t), K=2, M=0, libraries=(
            (CodeSpec(0.0, u), CodeSpec(0.0, u)),
            (CodeSpec(0.0, u), CodeSpec(0.0, u))))
        a = zero(m)
        tbl = {(0,): build_thresholds(m, (0,), [(0, 0)], a,
                                      cache=ExponentCache()),
               (0, 1): build_thresholds(m, (0, 1), [(1, 1)], a,
                                        cache=ExponentCache())}
        cb = sample_codebook(m, 6, 40)
        # transmit the (0, 0) pair's codewords
        x0 = codeword(cb, 0, 0, 1)
        x1 = codeword(cb, 1, 0, 1)
        y = 2 * x0 + x1
        sub0 = decode_one(tbl[(0,)], cb, y)
        sub01 = decode_one(tbl[(0, 1)], cb, y)
        out = receive_one(tbl, cb, y)
        if sub0.decoded and sub01.kind == "collision":
            assert out.decoded
            assert (out.w1, out.g1) == (sub0.w1, sub0.g1)

    def test_conflicting_decoders_collide(self):
        # two decoders with disjoint singleton regions on a noiseless
        # channel: whichever decodes, outputs differ in g1, forcing the
        # cross-subset agreement rule only when both decode
        m = SystemModel(
            dmc=make_dmc(np.eye(2)), K=1, M=0,
            libraries=((CodeSpec(0.0, np.array([0.5, 0.5])),
                        CodeSpec(0.0, np.array([0.5, 0.5]))),))
        a = zero(m)
        region = validate_region(m, [(0,), (1,)])
        tbl = {(0,): build_thresholds(m, (0,), region, a,
                                      cache=ExponentCache())}
        cb = sample_codebook(m, 6, 1)
        y = codeword(cb, 0, 0, 1)
        out = decode_one(tbl[(0,)], cb, y)
        if np.array_equal(codeword(cb, 0, 1, 1), y):
            assert out.kind == "collision"  # identical scores tie


class TestDecodeMargin:
    def test_empty_margin_with_no_covering_candidates_reduces(self, sec4_model):
        # complement margin: covering subsets get no excluded candidates,
        # so the third condition never binds
        m = make_compound_bsc([0.05, 0.3], [0.5, 0.5], 0.2)
        a = zero(m)
        region = [(0, 0)]
        complement = [(0, 1)]
        tbl_m = build_thresholds(m, [0], region, a, margin=complement,
                                 cache=ExponentCache())
        tbl_p = build_thresholds(m, [0], region, a, cache=ExponentCache())
        cb = sample_codebook(m, 8, 21)
        rng = np.random.default_rng(2)
        for _ in range(20):
            y = rng.integers(0, 2, 8)
            a_out = decode_one(tbl_m, cb, y)
            b_out = decode_one(tbl_p, cb, y)
            assert (a_out.kind, a_out.w1) == (b_out.kind, b_out.w1)

    def test_margin_reject_path(self, sec4_model):
        # with every symbol of the winner fixed, the covering-subset check
        # rejects iff the winner is likelier under the excluded vector
        # (0, 3) than under (0, 0), alpha included.  Under alpha = 0 the
        # decode thresholds only let through winners for which it is not;
        # weighting the region state by alpha = 0.02 nats/symbol makes it so.
        # The check is recomputed with typicality_threshold, the reference
        m = sec4_model
        a = WeightFunction(m, {(0, 0): 0.02})
        tbl = build_thresholds(m, [0], [(0, 0)], a, margin=[(0, 1), (0, 2)],
                               cache=ExponentCache())
        tbl_p = build_thresholds(m, [0], [(0, 0)], a, cache=ExponentCache())
        rng = np.random.default_rng(4)
        rejected = 0
        for seed in range(60):
            cb = sample_codebook(m, 16, seed)
            x = codeword(cb, 0, 0,
                         int(rng.integers(1, cb.counts[(0, 0)] + 1)))
            y = np.where(rng.random(16) < 0.18, 1 - x, x)
            out = decode_one(tbl, cb, y)
            plain = decode_one(tbl_p, cb, y)
            assert out.diagnostics["winners"] == plain.diagnostics["winners"]
            if not plain.decoded:
                assert out.diagnostics["reason"] == \
                    plain.diagnostics["reason"]
                continue
            (w_hat,), g_hat = plain.winner
            row = codeword(cb, 0, g_hat[0], w_hat)
            lm = marginalize_out(m, [0], g_hat).log_pmf()
            wnll = -lm[row, y].sum() / 16 + a(g_hat)
            passed = all(
                wnll < typicality_threshold(m, (0,), S, g_hat,
                                            tbl.get(g_hat, S),
                                            row[None, None], y, a)
                for S in tbl.subsets_margin)
            if passed:
                assert (out.kind, out.w1, out.g1, out.winner) == \
                    (plain.kind, plain.w1, plain.g1, plain.winner)
            else:
                assert out.diagnostics["reason"] == "margin_reject"
                rejected += 1
        assert rejected >= 10

    @small_search(8, 0)
    def test_checks_match_a_fresh_gather_of_the_winner(self, sec4_model):
        # the margin check reads the winner's rows from the block's tables
        # and reuses its score; regathering them from the codebook and
        # solving tau* with typicality_threshold gives the same decision
        rng = np.random.default_rng(12)
        two_users = three_user_model(rng, 0.2)
        two_users = SystemModel(dmc=two_users.dmc, K=2, M=1,
                                libraries=two_users.libraries)
        cases = [(sec4_model, (0,), [(0, 0)], [(0, 1), (0, 2)], 16),
                 (two_users, (0, 1), [(0, 0, 0), (1, 1, 0)],
                  [(0, 1, 0)], 6)]
        checked = []
        for m, D, region, margin, N in cases:
            checked.append(0)
            a = WeightFunction(m, rng.uniform(0, 0.2, size=m.code_counts))
            cache = ExponentCache()
            tbl = build_thresholds(m, D, region, a, margin=margin,
                                   cache=cache)
            tbl_p = build_thresholds(m, D, region, a, cache=cache)
            for seed in range(40):
                cb = sample_codebook(m, N, seed)
                g = region[seed % len(region)]
                x = [codeword(cb, k, g[k], 1) for k in D]
                x += [rng.choice(len(m.input_pmf(k, g[k])), size=N,
                                 p=m.input_pmf(k, g[k]))
                      for k in range(len(D), m.n_users)]
                y = np.array([rng.choice(m.dmc.output_size,
                                         p=m.dmc.pmf[tuple(r[j] for r in x)])
                              for j in range(N)])
                out = decode_one(tbl, cb, y)
                plain = decode_one(tbl_p, cb, y)
                if not plain.decoded:
                    continue
                w_D, g_hat = plain.winner
                rows = np.stack([codeword(cb, k, g_hat[k], w_D[i])
                                 for i, k in enumerate(D)])
                lm = marginalize_out(m, D, g_hat).log_pmf()
                wnll = float(-lm[tuple(rows) + (y,)].sum() / N + a(g_hat))
                passed = all(
                    wnll < typicality_threshold(m, D, S, g_hat,
                                                tbl.get(g_hat, S), rows[None],
                                                y, a)
                    for S in tbl.subsets_margin)
                assert out.decoded == passed
                assert (out.diagnostics.get("reason") == "margin_reject") \
                    == (not passed)
                checked[-1] += 1
        assert min(checked) >= 10

    def test_overlap_rejected(self):
        m = make_compound_bsc([0.05, 0.3], [0.5, 0.5], 0.2)
        with pytest.raises(OverlappingMargin):
            build_thresholds(m, [0], [(0, 0)], zero(m), margin=[(0, 0)],
                             cache=ExponentCache())

    def test_growing_margin_never_creates_wrong_decodes(self):
        # margin growth only moves the covering-subset veto (winner
        # selection is untouched), so on a fixed (codebooks, y) the decoded
        # output can appear or vanish but never change identity: a correct
        # decode can become a collision, never a wrong decode
        m = make_compound_bsc([0.05, 0.25, 0.45], [0.5, 0.5], 0.2)
        a = zero(m)
        region = [(0, 0)]
        small = []
        big = [(0, 1)]
        tbl_s = build_thresholds(m, [0], region, a, margin=small,
                                 cache=ExponentCache())
        tbl_b = build_thresholds(m, [0], region, a, margin=big,
                                 cache=ExponentCache())
        rng = np.random.default_rng(6)
        decoded_both = 0
        for t in range(80):
            cb = sample_codebook(m, 12, t)
            w = int(rng.integers(1, cb.counts[(0, 0)] + 1))
            x = codeword(cb, 0, 0, w)
            y = np.where(rng.random(12) < 0.05, 1 - x, x)
            o_s = decode_one(tbl_s, cb, y)
            o_b = decode_one(tbl_b, cb, y)
            if o_s.decoded and o_b.decoded:
                assert (o_s.w1, o_s.g1) == (o_b.w1, o_b.g1)
                decoded_both += 1
        assert decoded_both > 0


class TestDetectRegion:
    def test_single_region_always_chosen(self):
        m = make_compound_bsc([0.1, 0.4], [0.9, 0.1], 0.2)
        detector = build_detector(m, [list(m.index_space())], zero(m))
        cell, = detect_region(detector, np.array([[0, 1, 0]]))
        assert cell == 0

    def test_alpha_shift_invariance_on_every_output(self):
        m = make_compound_bsc([0.1, 0.4], [0.9, 0.1], 0.2)
        a = WeightFunction(m, {(0, 0): 0.2})
        regions = [[(0, 0)], [(0, 1)]]
        d0 = build_detector(m, regions, a)
        d1 = build_detector(m, regions, a.shifted(0.3))
        for bits in itertools.product(range(2), repeat=6):
            y = np.array([bits])
            assert detect_region(d0, y) == detect_region(d1, y)

    def test_likelihood_selects_nearer_state(self):
        # 3 ones among N=20 looks like the 0.18-output-rate hypothesis
        m = make_compound_bsc([0.1, 0.4], [0.9, 0.1], 0.2)
        y = np.zeros(20, dtype=int)
        y[:3] = 1
        detector = build_detector(m, [[(0, 0)], [(0, 1)]], zero(m))
        cell, = detect_region(detector, y[None])
        assert cell == 0

    def test_partition_validated(self):
        m = make_compound_bsc([0.1, 0.4], [0.9, 0.1], 0.2)
        with pytest.raises(NotAPartition):
            build_detector(m, [[(0, 0)]], zero(m))


@pytest.mark.parametrize("call", ["ensemble_log_expectation",
                                  "typicality_threshold",
                                  "unconstrained typicality_threshold",
                                  "detect_region"])
def test_one_row_is_refused(call):
    """Every per-letter solve takes blocks only: a lone row, which a block
    call would misread (an unconstrained threshold as |S cap D| infinities,
    an output as a 0-d cell), raises ShapeMismatch naming the shape."""
    m = make_compound_bsc([0.05, 0.3], [0.5, 0.5], 0.2)
    a = zero(m)
    y = np.array([0, 1, 1, 0])
    S = frozenset([0])
    params = build_thresholds(m, [0], [(0, 0)], a, margin=[],
                              cache=ExponentCache()).get((0, 0), S)
    assert params.gstar is not NO_CONSTRAINT
    detector = build_detector(m, [[(0, 0)], [(0, 1)]], a)
    solves = {
        "ensemble_log_expectation": lambda x: ensemble_log_expectation(
            m, [0], S, (0, 0), y, x, 0.5),
        "typicality_threshold": lambda x: typicality_threshold(
            m, [0], S, (0, 0), params, x, y, a),
        "unconstrained typicality_threshold": lambda x: typicality_threshold(
            m, [0], S, (0, 0), UNCONSTRAINED, x, y, a),
        "detect_region": lambda x: detect_region(detector, x),
    }
    # user 0's symbols, shape (|S cap D|, N) = (1, N), or one output (N,)
    row = y if call == "detect_region" else np.array([[1, 0, 1, 1]])
    expected = "(m, N)" if call == "detect_region" else "(m, |S cap D|, N)"
    assert len(solves[call](row[None])) == 1
    with pytest.raises(ShapeMismatch, match=re.escape(expected)):
        solves[call](row)


class TestDetectThenDecode:
    def _setup(self):
        m = make_compound_bsc([0.05, 0.3], [0.5, 0.5], 0.2)
        a = zero(m)
        region = validate_region(m, [(0, 0), (0, 1)])
        tbl = {(0,): build_thresholds(m, (0,), region, a,
                                      cache=ExponentCache())}
        return m, a, region, tbl

    def test_single_cell_equals_plain_receiver(self):
        m, a, region, tbl = self._setup()
        detector = build_detector(m, [list(m.index_space())], a)
        cb = sample_codebook(m, 8, 3)
        rng = np.random.default_rng(1)
        for _ in range(10):
            y = rng.integers(0, 2, 8)
            d = receive_one(tbl, cb, y, detector)
            p = receive_one(tbl, cb, y)
            assert (d.kind, d.w1, d.g1) == (p.kind, p.w1, p.g1)

    def test_matches_unrestricted_when_winners_inside_cell(self):
        m, a, region, tbl = self._setup()
        regions = [[(0, 0)], [(0, 1)]]
        detector = build_detector(m, regions, a)
        cb = sample_codebook(m, 10, 5)
        rng = np.random.default_rng(9)
        checked = 0
        for _ in range(40):
            y = rng.integers(0, 2, 10)
            d = receive_one(tbl, cb, y, detector)
            p = receive_one(tbl, cb, y)
            cell = regions[int(detect_region(detector, y[None])[0])]
            # the receiver's one decoder, D = (0,), gives its winners
            sub = decode_one(tbl[(0,)], cb, y)
            if p.decoded and sub.winner[1] in cell:
                ws = sub.diagnostics["winners"]
                if all(w not in (None, "tie") and w[1] in cell for w in ws):
                    assert (d.kind, d.w1, d.g1) == (p.kind, p.w1, p.g1)
                    checked += 1
        assert checked > 0

    def test_candidate_count_within_cell_budget(self):
        # only the detected cell's in-region codewords are scored
        m, a, region, tbl = self._setup()
        regions = [[(0, 0)], [(0, 1)]]
        cb = sample_codebook(m, 10, 5)
        y = np.random.default_rng(0).integers(0, 2, 10)
        detector = build_detector(m, regions, a)
        d = receive_one(tbl, cb, y, detector)
        cell = regions[int(detect_region(detector, y[None])[0])]
        assert d.diagnostics["candidates_evaluated"] == \
            sum(cb.counts[(0, g[0])] for g in cell if g in region)
