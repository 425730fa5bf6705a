import itertools
import math
import re
from pathlib import Path

import numpy as np
import pytest

import gepkit.exponents
from gepkit import CodeSpec, SystemModel, make_compound_bsc, make_dmc
from gepkit.decoder import build_thresholds
from gepkit.errors import (
    NotAPartition,
    OverlappingMargin,
    ShapeMismatch,
    UserOneMissing,
)
from gepkit.exponents import (
    ExponentCache,
    WeightFunction,
    detection_bound,
    gep_bound_D,
    gep_bound_partitioned,
    validate_partition,
    validate_region,
)
from gepkit.scenario import load_scenario

from conftest import random_alpha, random_model, small_search

LN2 = math.log(2.0)


def two_user_model(rate=0.2):
    """K=2 regular users on a noisy adder-ish channel, two codes each."""
    t = np.zeros((2, 2, 3))
    for x1 in range(2):
        for x2 in range(2):
            out = x1 + x2
            for y in range(3):
                t[x1, x2, y] = 0.8 if y == out else 0.1
    u = np.array([0.5, 0.5])
    q = np.array([0.7, 0.3])
    lib = (CodeSpec(rate, u), CodeSpec(rate / 2, q))
    return SystemModel(dmc=make_dmc(t), K=2, M=0, libraries=(lib, lib))


class TestDecoderBound:
    @small_search(16, 1)
    def test_empty_region_is_zero(self):
        m = make_compound_bsc([0.05, 0.3], [0.5, 0.5], 0.2)
        rep = gep_bound_D(m, [0], [], WeightFunction.zero(m), 10,
                          cache=ExponentCache())
        assert rep.value == 0.0 and rep.raw == 0.0

    @small_search(16, 1)
    def test_user_one_required(self):
        m = two_user_model()
        with pytest.raises(UserOneMissing):
            gep_bound_D(m, [1], [(0, 0)], WeightFunction.zero(m), 8,
                        cache=ExponentCache())

    def test_monotone_in_blocklength_when_exponents_positive(self):
        m = make_compound_bsc([0.05, 0.3], [0.5, 0.5], 0.05)
        a = WeightFunction.zero(m)
        cache = ExponentCache()
        values = [gep_bound_D(m, [0], [(0, 0)], a, N, cache=cache).raw
                  for N in (4, 8, 16, 32)]
        assert all(t.exponent > 0 for N in [4]
                   for t in gep_bound_D(m, [0], [(0, 0)], a, 4,
                                        cache=cache).terms)
        assert values == sorted(values, reverse=True)

    def test_acceptance_shape_compound(self):
        # one in-region vector: 2 miss/false-accept style terms + 1
        # confusion term survive the feasibility filters
        m = make_compound_bsc([0.05, 0.3], [0.5, 0.5], 0.2)
        a = WeightFunction.zero(m)
        rep = gep_bound_D(m, [0], [(0, 0)], a, 12, cache=ExponentCache())
        kinds = sorted(t.kind for t in rep.terms)
        assert kinds == ["confusion", "false_accept", "miss"]
        by_kind = {t.kind: t for t in rep.terms}
        assert by_kind["miss"].S == ()
        assert by_kind["confusion"].S == (1,)
        assert by_kind["miss"].g_other == (0, 1)
        expected = 0.5 * (2 * math.exp(-12 * by_kind["miss"].exponent)
                          + math.exp(-12 * by_kind["confusion"].exponent))
        assert rep.raw == pytest.approx(expected, rel=1e-12)


class TestPartitionedBound:
    def test_single_user_unique_partition(self):
        m = make_compound_bsc([0.05, 0.3], [0.5, 0.5], 0.2)
        a = WeightFunction.zero(m)
        rep, part = gep_bound_partitioned(m, [(0, 0)], a, 12,
                                          cache=ExponentCache())
        direct = gep_bound_D(m, [0], [(0, 0)], a, 12, cache=ExponentCache())
        assert rep.raw == pytest.approx(direct.raw, rel=1e-12)
        assert part == (((0,), frozenset({(0, 0)})),)

    def test_empty_region(self):
        m = make_compound_bsc([0.05, 0.3], [0.5, 0.5], 0.2)
        rep, part = gep_bound_partitioned(m, [], WeightFunction.zero(m), 12,
                                          cache=ExponentCache())
        assert rep.value == 0.0 and part == ()

    @small_search(16, 1)
    def test_two_user_enumeration_matches_brute_force(self):
        m = two_user_model()
        a = WeightFunction.zero(m)
        region = [(0, 0), (1, 1)]
        cache = ExponentCache()
        rep, part = gep_bound_partitioned(m, region, a, 6, cache=cache)
        subsets = [(0,), (0, 1)]
        best = math.inf
        for assign in itertools.product(subsets, repeat=2):
            mapping = {}
            for g, D in zip(sorted(validate_region(m, region)), assign):
                mapping.setdefault(D, []).append(g)
            total = sum(gep_bound_D(m, D, regs, a, 6, cache=cache).raw
                        for D, regs in mapping.items())
            best = min(best, total)
        assert rep.raw == pytest.approx(best, rel=1e-12)

    @small_search(16, 1)
    def test_heuristic_flag_when_over_cap(self, monkeypatch):
        m = two_user_model()
        a = WeightFunction.zero(m)
        monkeypatch.setattr(gepkit.exponents, "PARTITION_CAP", 1)
        rep, part = gep_bound_partitioned(m, [(0, 0), (1, 1)], a, 6,
                                          cache=ExponentCache())
        assert rep.heuristic
        assert part[0][0] == (0, 1)


class TestMarginBound:
    def test_complement_margin_reduces_to_plain(self):
        m = make_compound_bsc([0.05, 0.3], [0.5, 0.5], 0.2)
        a = WeightFunction.zero(m)
        region = [(0, 0)]
        complement = [g for g in m.index_space() if g != (0, 0)]
        plain = gep_bound_D(m, [0], region, a, 12, cache=ExponentCache())
        margin = gep_bound_D(m, [0], region, a, 12, margin=complement,
                             cache=ExponentCache())
        assert margin.raw == pytest.approx(plain.raw, rel=1e-12)

    def test_empty_margin_adds_covering_subset_terms(self):
        m = make_compound_bsc([0.05, 0.3], [0.5, 0.5], 0.2)
        a = WeightFunction.zero(m)
        plain = gep_bound_D(m, [0], [(0, 0)], a, 12, cache=ExponentCache())
        with_empty = gep_bound_D(m, [0], [(0, 0)], a, 12, margin=[],
                                 cache=ExponentCache())
        assert with_empty.raw > plain.raw
        extra = [t for t in with_empty.terms if t.S == (0,)]
        assert extra and all(t.g_other == (0, 1) for t in extra)

    def test_overlap_rejected(self):
        m = make_compound_bsc([0.05, 0.3], [0.5, 0.5], 0.2)
        with pytest.raises(OverlappingMargin):
            gep_bound_D(m, [0], [(0, 0)], WeightFunction.zero(m), 12,
                        margin=[(0, 0)], cache=ExponentCache())

    def test_sec4_binding_pair_is_widest_gap(self, sec4_model):
        # with the two middle states inside the margin, the covering-subset
        # threshold terms are driven by the far state, giving a strictly
        # larger exponent than the no-margin nearest-state pair
        m = sec4_model
        a = WeightFunction.zero(m)
        with_margin = gep_bound_D(m, [0], [(0, 0)], a, 16,
                                  margin=[(0, 1), (0, 2)],
                                  cache=ExponentCache())
        no_margin = gep_bound_D(m, [0], [(0, 0)], a, 16, margin=[],
                                cache=ExponentCache())
        pick = lambda rep: {t.g_other for t in rep.terms
                            if t.S == (0,) and t.kind == "miss"}
        assert pick(with_margin) == {(0, 3)}
        assert pick(no_margin) == {(0, 1)}
        e_with = [t.exponent for t in with_margin.terms if t.S == (0,)]
        e_without = [t.exponent for t in no_margin.terms if t.S == (0,)]
        assert min(e_with) > min(e_without)


class TestDetectionBound:
    def test_single_region_is_zero(self):
        m = make_compound_bsc([0.1, 0.4], [0.9, 0.1], 0.2)
        rep = detection_bound(m, (0, 0), [list(m.index_space())],
                              WeightFunction.zero(m), 20,
                              cache=ExponentCache())
        assert rep.raw == 0.0 and rep.value == 0.0

    def test_identical_hypotheses_vacuous_unclamped_raw(self):
        m = make_compound_bsc([0.2, 0.2], [0.5, 0.5], 0.2)
        rep = detection_bound(m, (0, 0), [[(0, 0)], [(0, 1)]],
                              WeightFunction.zero(m), 20,
                              cache=ExponentCache())
        assert rep.vacuous
        assert rep.raw == pytest.approx(1.0, abs=1e-12)
        assert rep.value <= 1.0  # probability clamp at alpha(g) = 0

    def test_not_a_partition_rejected(self):
        m = make_compound_bsc([0.1, 0.4], [0.9, 0.1], 0.2)
        a = WeightFunction.zero(m)
        with pytest.raises(NotAPartition):
            detection_bound(m, (0, 0), [[(0, 0)]], a, 20,
                            cache=ExponentCache())
        with pytest.raises(NotAPartition):
            detection_bound(m, (0, 0), [[(0, 0), (0, 1)], [(0, 1)]], a, 20,
                            cache=ExponentCache())

    def test_weighted_form_left_unclamped(self):
        m = make_compound_bsc([0.2, 0.2], [0.5, 0.5], 0.2)
        a = WeightFunction(m, {(0, 0): 0.01, (0, 1): 0.01})
        rep = detection_bound(m, (0, 0), [[(0, 0)], [(0, 1)]], a, 20,
                              cache=ExponentCache())
        assert rep.value == rep.raw  # bound on Pr * e^{-N alpha}, no clamp


class TestReportMechanics:
    def test_alpha_key_distinguishes(self):
        rng = np.random.default_rng(3)
        m = random_model(rng, max_users=2)
        a1 = random_alpha(rng, m)
        a2 = a1.shifted(0.1)
        assert a1.key() != a2.key()

    def test_region_duplicates_rejected(self):
        m = make_compound_bsc([0.1, 0.4], [0.9, 0.1], 0.2)
        with pytest.raises(ShapeMismatch):
            validate_region(m, [(0, 0), (0, 0)])

    def test_partition_build_checks_cover_and_overlap(self):
        m = two_user_model()
        region = validate_region(m, [(0, 0), (1, 1)])
        with pytest.raises(Exception):
            validate_partition(m, {(0,): [(0, 0)]}, region)
        with pytest.raises(Exception):
            validate_partition(
                m, {(0,): [(0, 0), (1, 1)], (0, 1): [(1, 1)]}, region)

    @pytest.mark.parametrize("mapping, message", [
        ({(0, 1): [(0, 0)], (1, 0): [(1, 1)]}, "(0, 1) has a second entry"),
        ({(0, 0): [(0, 0)], (0,): [(1, 1)]}, "(0, 0) repeats a user"),
        ({(0, -1): [(0, 0), (1, 1)]}, "(-1, 0) names a user outside 0..1"),
    ], ids=["same-D", "repeated-user", "negative-user"])
    def test_partition_refuses_a_decoded_subset_it_would_misread(
            self, mapping, message):
        # normalizing D to a sorted set would merge these entries or keep
        # a user the receiver has no table for
        m = two_user_model()
        region = validate_region(m, [(0, 0), (1, 1)])
        with pytest.raises(ShapeMismatch, match=re.escape(message)):
            validate_partition(m, mapping, region)


class TestCacheAlphaGuard:
    """An ExponentCache memoizes maximizations by the content of their
    objectives, which alpha and the model enter through their tables, so
    one cache shared across models, alphas and blocklengths gives exactly
    what fresh caches give."""

    SCENARIO = Path(__file__).resolve().parent.parent / "scenarios" / \
        "compound_bsc_relaxed.json"
    N = 12

    def _builds(self, m, alpha, cache):
        """Every bound and threshold builder on model m under alpha."""
        D, region, margin = (0,), [(0, 0)], [(0, 1)]
        cells = [[g] for g in m.index_space()]
        return (
            gep_bound_D(m, D, region, alpha, self.N, cache=cache),
            gep_bound_D(m, D, region, alpha, self.N, margin=margin,
                        cache=cache),
            gep_bound_D(m, D, region, alpha, self.N, margin=[], cache=cache),
            gep_bound_partitioned(m, region, alpha, self.N, cache=cache),
            build_thresholds(m, D, region, alpha, cache=cache).params,
            build_thresholds(m, D, region, alpha, margin=margin,
                             cache=cache).params,
            [detection_bound(m, g, cells, alpha, self.N, cache=cache)
             for g in m.index_space()],
        )

    def test_one_cache_across_models_and_alphas(self):
        models = [make_compound_bsc(p, [0.5, 0.5], 0.2)
                  for p in ([0.05, 0.3], [0.10, 0.2])]
        alphas = [{}, {(0, 1): 0.2}, {(0, 0): 0.05, (0, 1): 0.3}]
        shared = ExponentCache()
        for m in models:
            for values in alphas:
                alpha = WeightFunction(m, values)
                assert self._builds(m, alpha, shared) == \
                    self._builds(m, alpha, ExponentCache()), (m, values)
        # the raw bound of the second model, which a cache that ignored
        # the model would have answered with the first model's 0.5334
        second = gep_bound_D(models[1], [0], [(0, 0)],
                             WeightFunction.zero(models[1]), self.N,
                             cache=shared)
        assert second.raw == pytest.approx(1.030525729635, abs=1e-10)

    def test_decoder_bound_under_another_alpha(self):
        scen = load_scenario(self.SCENARIO)
        m = scen.model
        (D, region), = scen.partition
        used = ExponentCache()
        gep_bound_D(m, D, region, WeightFunction.zero(m), scen.N, cache=used)
        alpha = WeightFunction(m, {(0, 1): 0.2})
        reused = gep_bound_D(m, D, region, alpha, scen.N, cache=used)
        assert reused.value == pytest.approx(0.355879916, abs=1e-8)
        assert reused == gep_bound_D(m, D, region, alpha, scen.N,
                                     cache=ExponentCache())

    def test_reuse_across_blocklengths_and_parses(self):
        scen = load_scenario(self.SCENARIO)
        m = scen.model
        (D, region), = scen.partition
        alpha = WeightFunction(m, {(0, 1): 0.2})
        other = load_scenario(self.SCENARIO).model  # a separate parse
        shared = ExponentCache()
        gep_bound_D(m, D, region, alpha, scen.N, cache=shared)
        for N in (scen.N, 2 * scen.N):
            fresh = gep_bound_D(other, D, region,
                                WeightFunction(other, {(0, 1): 0.2}), N,
                                cache=ExponentCache())
            reused = gep_bound_D(other, D, region,
                                 WeightFunction(other, {(0, 1): 0.2}), N,
                                 cache=shared)
            assert reused.raw == fresh.raw
        assert build_thresholds(other, D, region,
                                WeightFunction(other, {(0, 1): 0.2}),
                                cache=shared).params == \
            build_thresholds(m, D, region, alpha, cache=ExponentCache()).params
