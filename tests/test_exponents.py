import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gepkit import make_compound_bsc
from gepkit.ensemble import message_count
from gepkit.exponents import (
    WeightFunction,
    confusion_feasible,
    ec_objective,
    eid_objective,
    emd_objective,
    exponent_Ec,
    exponent_EiD,
    exponent_EmD,
)
from gepkit.errors import DomainError, EmptyDifferenceSet

from conftest import (
    bsc_model,
    random_alpha,
    random_g,
    random_model,
    small_search,
)


def zero(model):
    return WeightFunction.zero(model)


class TestWeightFunction:
    def test_rejects_negative(self):
        m = bsc_model(0.1, 0.2)
        with pytest.raises(DomainError):
            WeightFunction(m, {(0,): -0.5})

    def test_prior_normalizes(self):
        m = make_compound_bsc([0.1, 0.2, 0.3], [0.5, 0.5], 0.2)
        a = WeightFunction(m, {(0, 1): 0.4})
        pr = a.prior(10)
        assert pr.sum() == pytest.approx(1.0, abs=1e-12)
        assert pr[0, 1] < pr[0, 0]

    def test_log_total_matches_direct_sum(self):
        m = make_compound_bsc([0.1, 0.2], [0.5, 0.5], 0.2)
        a = WeightFunction(m, {(0, 0): 0.1, (0, 1): 0.7})
        direct = math.exp(-5 * 0.1) + math.exp(-5 * 0.7)
        assert a.log_total(5) == pytest.approx(math.log(direct), abs=1e-12)


class TestMessageConfusionExponent:
    def test_noiseless_uniform_is_log2(self):
        from gepkit import CodeSpec, SystemModel, make_dmc
        m = SystemModel(dmc=make_dmc(np.eye(2)), K=1, M=0,
                        libraries=((CodeSpec(0.0, np.array([0.5, 0.5])),),))
        res = exponent_EmD(m, [0], [], (0,), (0,), zero(m))
        assert res.value == pytest.approx(math.log(2.0), abs=1e-12)
        assert res.rho == pytest.approx(1.0)

    def test_empty_difference_rejected(self):
        m = bsc_model(0.1, 0.2)
        with pytest.raises(EmptyDifferenceSet):
            exponent_EmD(m, [0], [0], (0,), (0,), zero(m))

    def test_reevaluation_reproduces_value(self):
        m = bsc_model(0.11, 0.15)
        a = zero(m)
        res = exponent_EmD(m, [0], [], (0,), (0,), a)
        f = emd_objective(m, [0], [], (0,), (0,), a)
        again = float(f(res.rho, np.array([res.s]))[0])
        assert again == pytest.approx(res.value, abs=1e-12)


class TestFalseAcceptanceExponent:
    def test_identical_marginal_zero_rate_nonnegative(self):
        m = make_compound_bsc([0.2, 0.2], [0.5, 0.5], 0.0)
        res = exponent_EiD(m, [0], [], (0, 0), (0, 1), zero(m))
        assert res.value >= -1e-12

    def test_dense_grid_oracle(self):
        m = make_compound_bsc([0.05, 0.3], [0.5, 0.5], 0.2)
        a = zero(m)
        res = exponent_EiD(m, [0], [], (0, 0), (0, 1), a)
        f = eid_objective(m, [0], [], (0, 0), (0, 1), a)
        best = -np.inf
        for rho in np.linspace(1e-6, 1 - 1e-6, 512):
            ss = np.linspace(1e-6, 1.0 - rho, 512)
            best = max(best, float(f(rho, ss).max()))
        assert res.value >= best - 1e-12
        assert res.value == pytest.approx(best, abs=1e-4)

    def test_s_constraint_boundary_attained(self):
        m = make_compound_bsc([0.05, 0.3], [0.5, 0.5], 0.2)
        res = exponent_EiD(m, [0], [], (0, 0), (0, 1), zero(m))
        assert res.s <= 1.0 - res.rho + 1e-12

    def test_small_rho_limit_matches_discrimination_exponent(self):
        # at rho -> 0 and zero rate the functional becomes the Chernoff
        # quantity between the two output marginals
        m = make_compound_bsc([0.1, 0.4], [0.9, 0.1], 0.0)
        a = zero(m)
        ec = exponent_Ec(m, (0, 0), (0, 1), a).value
        f = eid_objective(m, [0], [], (0, 0), (0, 1), a)
        small = float(f(1e-6, np.linspace(1e-6, 1 - 1e-6, 4001)).max())
        assert small == pytest.approx(ec, abs=1e-4)

    def test_empty_difference_admitted(self):
        # the margin bound's subsets S covering D leave D\S empty
        m = make_compound_bsc([0.18, 0.19], [0.5, 0.5], 0.2)
        res = exponent_EiD(m, [0], [0], (0, 0), (0, 1), zero(m))
        assert np.isfinite(res.value)


class TestDiscriminationExponent:
    def test_identical_marginals_zero(self):
        m = make_compound_bsc([0.185, 0.185], [0.5, 0.5], 0.2)
        res = exponent_Ec(m, (0, 0), (0, 1), zero(m))
        assert res.value == pytest.approx(0.0, abs=1e-12)

    def test_statistically_identical_states_zero(self, sec4_model):
        # the two middle compound states share the crossover value
        res = exponent_Ec(sec4_model, (0, 1), (0, 2), zero(sec4_model))
        assert res.value == pytest.approx(0.0, abs=1e-12)

    def test_dense_grid_oracle_and_symmetry(self):
        m = make_compound_bsc([0.1, 0.4], [0.9, 0.1], 0.2)
        a = zero(m)
        fwd = exponent_Ec(m, (0, 0), (0, 1), a).value
        rev = exponent_Ec(m, (0, 1), (0, 0), a).value
        f = ec_objective(m, (0, 0), (0, 1), a)
        dense = float(f(np.linspace(1e-6, 1.0, 100_000)).max())
        assert fwd == pytest.approx(dense, abs=1e-6)
        assert abs(fwd - rev) <= 1e-9

    @small_search(16, 1)
    def test_nonnegative_at_zero_alpha(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            m = random_model(rng)
            res = exponent_Ec(m, random_g(rng, m), random_g(rng, m), zero(m))
            assert res.value >= -1e-12


class TestShiftLaws:
    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=20)
    def test_uniform_shift_adds_constant(self, seed):
        rng = np.random.default_rng(seed)
        m = random_model(rng, max_users=2)
        a = random_alpha(rng, m)
        c = float(rng.uniform(0.0, 0.8))
        g, gt = random_g(rng, m), random_g(rng, m)
        D = [0]
        with small_search(16, 1):
            em0 = exponent_EmD(m, D, [], g, gt, a).value
            em1 = exponent_EmD(m, D, [], g, gt, a.shifted(c)).value
            ei0 = exponent_EiD(m, D, [], g, gt, a).value
            ei1 = exponent_EiD(m, D, [], g, gt, a.shifted(c)).value
            ec0 = exponent_Ec(m, g, gt, a).value
            ec1 = exponent_Ec(m, g, gt, a.shifted(c)).value
        assert em1 - em0 == pytest.approx(c, abs=1e-9)
        assert ei1 - ei0 == pytest.approx(c, abs=1e-9)
        assert ec1 - ec0 == pytest.approx(c, abs=1e-9)


class TestGridMonotonicity:
    def test_doubling_never_decreases(self):
        rng = np.random.default_rng(17)
        for _ in range(5):
            m = random_model(rng, max_users=2)
            a = random_alpha(rng, m)
            g, gt = random_g(rng, m), random_g(rng, m)
            for n in (8, 16, 32):
                with small_search(n, 0):
                    lo = exponent_EmD(m, [0], [], g, gt, a).value
                with small_search(2 * n, 0):
                    hi = exponent_EmD(m, [0], [], g, gt, a).value
                assert hi >= lo - 1e-15


class TestConfusionFeasibleAtLargeN:
    """A code confuses with itself iff it has at least two messages.  The
    test skips the count where N r > 1, so a count past the float range is
    never formed; everywhere the count is finite the answer is the count's.
    """

    @staticmethod
    def _rates(N):
        out = []
        for r in (math.log(2.0) / N, 1.0 / N):
            lo = hi = r
            for _ in range(4):
                lo, hi = np.nextafter(lo, 0.0), np.nextafter(hi, 1.0)
                out += [lo, hi]
            out.append(r)
        return out + [0.0, 5e-324, 0.5 / N, 1.5 / N, 0.3, 2.0]

    def test_grid_around_two_messages(self):
        seen = {True: 0, False: 0}
        for N in (1, 2, 3, 7, 16, 100, 1000, 4000, 10**6):
            for r in self._rates(N):
                got = confusion_feasible(bsc_model(0.1, float(r)), N, (0,),
                                         (), (0,), (0,))
                try:
                    count = message_count(float(r), N)
                except DomainError:
                    assert got and N * r > 700
                    continue
                assert got == (count >= 2), (N, r, count)
                seen[got] += 1
        assert min(seen.values()) > 20

    def test_count_past_float_range_raises(self):
        assert message_count(700.0 / 4000, 4000) > 10**303
        for r, N in ((0.3, 4000), (1.0, 710), (2.0, 10**6)):
            with pytest.raises(DomainError):
                message_count(r, N)
