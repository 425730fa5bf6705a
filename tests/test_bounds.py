import itertools
import math
from pathlib import Path

import numpy as np
import pytest

from gepkit import CodeSpec, SystemModel, make_compound_bsc, make_dmc
from gepkit.decoder import build_thresholds
from gepkit.errors import (
    MismatchedParameters,
    NotAPartition,
    OverlappingMargin,
    UserOneMissing,
)
from gepkit.exponents import (
    ExponentCache,
    RegionPartition,
    WeightFunction,
    detection_bound,
    gep_bound_D,
    gep_bound_margin,
    gep_bound_partitioned,
    validate_region,
)
from gepkit.optimize import SearchSettings
from gepkit.scenario import load_scenario

from conftest import random_alpha, random_model

FAST = SearchSettings(base_grid=16, refine_rounds=1, polish=False)
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
    def test_empty_region_is_zero(self):
        m = make_compound_bsc([0.05, 0.3], [0.5, 0.5], 0.2)
        rep = gep_bound_D(m, [0], [], WeightFunction.zero(m), 10, FAST)
        assert rep.value == 0.0 and rep.raw == 0.0

    def test_user_one_required(self):
        m = two_user_model()
        with pytest.raises(UserOneMissing):
            gep_bound_D(m, [1], [(0, 0)], WeightFunction.zero(m), 8, FAST)

    def test_monotone_in_blocklength_when_exponents_positive(self):
        m = make_compound_bsc([0.05, 0.3], [0.5, 0.5], 0.05)
        a = WeightFunction.zero(m)
        cache = ExponentCache(m, a)
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
        rep = gep_bound_D(m, [0], [(0, 0)], a, 12)
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
        rep, part = gep_bound_partitioned(m, [(0, 0)], a, 12)
        direct = gep_bound_D(m, [0], [(0, 0)], a, 12)
        assert rep.raw == pytest.approx(direct.raw, rel=1e-12)
        assert part.items() == (((0,), frozenset({(0, 0)})),)

    def test_empty_region(self):
        m = make_compound_bsc([0.05, 0.3], [0.5, 0.5], 0.2)
        rep, part = gep_bound_partitioned(m, [], WeightFunction.zero(m), 12)
        assert rep.value == 0.0 and part.items() == ()

    def test_two_user_enumeration_matches_brute_force(self):
        m = two_user_model()
        a = WeightFunction.zero(m)
        region = [(0, 0), (1, 1)]
        cache = ExponentCache(m, a, FAST)
        rep, part = gep_bound_partitioned(m, region, a, 6, cache=cache,
                                          settings=FAST)
        subsets = [(0,), (0, 1)]
        best = math.inf
        for assign in itertools.product(subsets, repeat=2):
            mapping = {}
            for g, D in zip(sorted(validate_region(m, region)), assign):
                mapping.setdefault(D, []).append(g)
            total = sum(gep_bound_D(m, D, regs, a, 6, FAST, cache).raw
                        for D, regs in mapping.items())
            best = min(best, total)
        assert rep.raw == pytest.approx(best, rel=1e-12)

    def test_heuristic_flag_when_over_cap(self):
        m = two_user_model()
        a = WeightFunction.zero(m)
        rep, part = gep_bound_partitioned(m, [(0, 0), (1, 1)], a, 6,
                                          partition_cap=1, settings=FAST)
        assert rep.heuristic
        assert part.items()[0][0] == (0, 1)


class TestMarginBound:
    def test_complement_margin_reduces_to_plain(self):
        m = make_compound_bsc([0.05, 0.3], [0.5, 0.5], 0.2)
        a = WeightFunction.zero(m)
        region = [(0, 0)]
        complement = [g for g in m.index_space() if g != (0, 0)]
        plain = gep_bound_D(m, [0], region, a, 12)
        margin = gep_bound_margin(m, [0], region, complement, a, 12)
        assert margin.raw == pytest.approx(plain.raw, rel=1e-12)

    def test_empty_margin_adds_covering_subset_terms(self):
        m = make_compound_bsc([0.05, 0.3], [0.5, 0.5], 0.2)
        a = WeightFunction.zero(m)
        plain = gep_bound_D(m, [0], [(0, 0)], a, 12)
        with_empty = gep_bound_margin(m, [0], [(0, 0)], [], a, 12)
        assert with_empty.raw > plain.raw
        extra = [t for t in with_empty.terms if t.S == (0,)]
        assert extra and all(t.g_other == (0, 1) for t in extra)

    def test_overlap_rejected(self):
        m = make_compound_bsc([0.05, 0.3], [0.5, 0.5], 0.2)
        with pytest.raises(OverlappingMargin):
            gep_bound_margin(m, [0], [(0, 0)], [(0, 0)],
                             WeightFunction.zero(m), 12)

    def test_sec4_binding_pair_is_widest_gap(self, sec4_model):
        # with the two middle states inside the margin, the covering-subset
        # threshold terms are driven by the far state, giving a strictly
        # larger exponent than the no-margin nearest-state pair
        m = sec4_model
        a = WeightFunction.zero(m)
        with_margin = gep_bound_margin(m, [0], [(0, 0)], [(0, 1), (0, 2)],
                                       a, 16)
        no_margin = gep_bound_margin(m, [0], [(0, 0)], [], a, 16)
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
                              WeightFunction.zero(m), 20)
        assert rep.raw == 0.0 and rep.value == 0.0

    def test_identical_hypotheses_vacuous_unclamped_raw(self):
        m = make_compound_bsc([0.2, 0.2], [0.5, 0.5], 0.2)
        rep = detection_bound(m, (0, 0), [[(0, 0)], [(0, 1)]],
                              WeightFunction.zero(m), 20)
        assert rep.vacuous
        assert rep.raw == pytest.approx(1.0, abs=1e-12)
        assert rep.value <= 1.0  # probability clamp at alpha(g) = 0

    def test_not_a_partition_rejected(self):
        m = make_compound_bsc([0.1, 0.4], [0.9, 0.1], 0.2)
        a = WeightFunction.zero(m)
        with pytest.raises(NotAPartition):
            detection_bound(m, (0, 0), [[(0, 0)]], a, 20)
        with pytest.raises(NotAPartition):
            detection_bound(m, (0, 0), [[(0, 0), (0, 1)], [(0, 1)]], a, 20)

    def test_weighted_form_left_unclamped(self):
        m = make_compound_bsc([0.2, 0.2], [0.5, 0.5], 0.2)
        a = WeightFunction(m, {(0, 0): 0.01, (0, 1): 0.01})
        rep = detection_bound(m, (0, 0), [[(0, 0)], [(0, 1)]], a, 20)
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
        from gepkit.errors import ShapeMismatch
        with pytest.raises(ShapeMismatch):
            validate_region(m, [(0, 0), (0, 0)])

    def test_partition_build_checks_cover_and_overlap(self):
        m = two_user_model()
        region = validate_region(m, [(0, 0), (1, 1)])
        with pytest.raises(Exception):
            RegionPartition.build(m, {(0,): [(0, 0)]}, region)
        with pytest.raises(Exception):
            RegionPartition.build(
                m, {(0,): [(0, 0), (1, 1)], (0, 1): [(1, 1)]}, region)


class TestCacheAlphaGuard:
    """An ExponentCache memoizes exponents under its own alpha and search
    settings; handing it to a builder called with another alpha or other
    settings must raise, not reuse them."""

    SCENARIO = Path(__file__).resolve().parent.parent / "scenarios" / \
        "compound_bsc_relaxed.json"

    def _setup(self):
        scen = load_scenario(self.SCENARIO)
        m = scen.model
        alpha = WeightFunction(m, {(0, 1): 0.2})
        stale = ExponentCache(m, WeightFunction.zero(m))
        (D, region), = scen.partition.items()
        return scen, m, alpha, stale, D, region

    def test_decoder_bound_rejects_other_alpha(self):
        scen, m, alpha, stale, D, region = self._setup()
        assert gep_bound_D(m, D, region, alpha, scen.N).value == \
            pytest.approx(0.355879916, abs=1e-8)
        with pytest.raises(MismatchedParameters):
            gep_bound_D(m, D, region, alpha, scen.N, cache=stale)

    def test_every_builder_rejects_other_alpha(self):
        scen, m, alpha, stale, D, region = self._setup()
        with pytest.raises(MismatchedParameters):
            gep_bound_partitioned(m, region, alpha, scen.N, cache=stale)
        with pytest.raises(MismatchedParameters):
            gep_bound_margin(m, D, region, [], alpha, scen.N, cache=stale)
        with pytest.raises(MismatchedParameters):
            build_thresholds(m, D, region, alpha, cache=stale)
        with pytest.raises(MismatchedParameters):
            detection_bound(m, (0, 0), [[g] for g in m.index_space()],
                            alpha, scen.N, cache=stale)

    def test_every_builder_rejects_other_settings(self):
        scen, m, _alpha, _stale, D, region = self._setup()
        a0 = WeightFunction.zero(m)
        fast = ExponentCache(m, a0, FAST)
        # the FAST maxima differ: reusing them would move the bound
        assert gep_bound_D(m, D, region, a0, scen.N, FAST, fast).raw == \
            pytest.approx(0.5334481298, abs=1e-10)
        assert gep_bound_D(m, D, region, a0, scen.N).raw == \
            pytest.approx(0.5333823886, abs=1e-10)
        with pytest.raises(MismatchedParameters):
            gep_bound_D(m, D, region, a0, scen.N, cache=fast)
        with pytest.raises(MismatchedParameters):
            gep_bound_partitioned(m, region, a0, scen.N, cache=fast)
        with pytest.raises(MismatchedParameters):
            gep_bound_margin(m, D, region, [], a0, scen.N, cache=fast)
        with pytest.raises(MismatchedParameters):
            build_thresholds(m, D, region, a0, cache=fast)
        with pytest.raises(MismatchedParameters):
            detection_bound(m, (0, 0), [[g] for g in m.index_space()], a0,
                            scen.N, cache=fast)

    def test_reuse_across_blocklengths_and_parses(self):
        scen, m, alpha, _stale, D, region = self._setup()
        other = load_scenario(self.SCENARIO).model  # a separate parse
        shared = ExponentCache(m, WeightFunction(m, {(0, 1): 0.2}))
        for N in (scen.N, 2 * scen.N):
            fresh = gep_bound_D(other, D, region,
                                WeightFunction(other, {(0, 1): 0.2}), N)
            reused = gep_bound_D(other, D, region,
                                 WeightFunction(other, {(0, 1): 0.2}), N,
                                 cache=shared)
            assert reused.raw == fresh.raw
        assert build_thresholds(other, D, region,
                                WeightFunction(other, {(0, 1): 0.2}),
                                cache=shared).params == \
            build_thresholds(m, D, region, alpha).params
