import itertools
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from gepkit import (
    binary_entropy,
    make_compound_bsc,
    make_dmc,
    marginalize_out,
    output_marginal,
)
from gepkit.errors import (
    DomainError,
    EmptyCrossoverList,
    NonStochastic,
    SubsetOutOfRange,
)

from conftest import bsc_model, bsc_table, random_g, random_model, xor_model

LN2 = math.log(2.0)


class TestMakeDmc:
    def test_identity_channel_is_valid(self):
        dmc = make_dmc(np.eye(2))
        assert dmc.input_sizes == (2,)
        assert dmc.pmf[0, 0] == 1.0

    def test_row_sum_off_by_tenth_rejected(self):
        bad = np.array([[0.5, 0.4], [0.5, 0.5]])
        with pytest.raises(NonStochastic):
            make_dmc(bad)

    def test_negative_entry_rejected(self):
        with pytest.raises(NonStochastic):
            make_dmc(np.array([[1.2, -0.2], [0.5, 0.5]]))

    def test_bsc_018_entry(self):
        dmc = make_dmc(bsc_table(0.18))
        assert dmc.pmf[0, 1] == pytest.approx(0.18, abs=1e-15)

    def test_small_rounding_renormalized(self):
        t = bsc_table(0.3)
        t[0] *= 1 + 1e-10  # JSON-ish rounding within tolerance
        dmc = make_dmc(t)
        assert abs(dmc.pmf[0].sum() - 1.0) < 1e-15

    @given(st.integers(0, 2**32 - 1))
    def test_rows_stochastic_after_normalization(self, seed):
        rng = np.random.default_rng(seed)
        t = rng.uniform(0.01, 1.0, size=(2, 3, 2))
        t /= t.sum(axis=-1, keepdims=True)
        dmc = make_dmc(t)
        assert np.abs(dmc.pmf.sum(axis=-1) - 1.0).max() < 1e-12


class TestCompoundBsc:
    def test_sec4_library_size(self):
        m = make_compound_bsc([0.18, 0.185, 0.185, 0.19], [0.5, 0.5],
                              0.31 * LN2)
        assert m.K == 1 and m.M == 1
        assert m.code_counts == (1, 4)
        assert m.rate(0, 0) == pytest.approx(0.31 * LN2)
        assert m.rate(1, 2) == 0.0

    def test_zero_crossover_gives_identity_marginal(self):
        m = make_compound_bsc([0.0], [0.5, 0.5], 0.1)
        marg = marginalize_out(m, [0], (0, 0))
        assert np.allclose(marg.pmf, np.eye(2))

    def test_output_marginal_hand_value(self):
        # 0.1 * 0.9 + 0.9 * 0.1 with input pmf (0.9, 0.1) on BSC(0.1)
        m = make_compound_bsc([0.1, 0.4], [0.9, 0.1], 0.2)
        out = output_marginal(m, (0, 0))
        assert out[1] == pytest.approx(0.18, abs=1e-12)

    def test_empty_crossovers_rejected(self):
        with pytest.raises(EmptyCrossoverList):
            make_compound_bsc([], [0.5, 0.5], 0.1)

    def test_crossover_domain_checked(self):
        with pytest.raises(DomainError):
            make_compound_bsc([0.1, 1.5], [0.5, 0.5], 0.1)


class TestMarginalize:
    def test_full_subset_no_interferers_is_identity(self):
        m = xor_model()
        marg = marginalize_out(m, [0, 1], (0, 0))
        assert np.array_equal(marg.pmf, m.dmc.pmf)

    def test_xor_uniform_partner_is_flat(self):
        m = xor_model()
        marg = marginalize_out(m, [0], (0, 0))
        assert np.allclose(marg.pmf, 0.5)

    def test_compound_selects_bsc(self):
        m = make_compound_bsc([0.18, 0.185, 0.185, 0.19], [0.5, 0.5], 0.2)
        marg = marginalize_out(m, [0], (0, 0))
        assert np.allclose(marg.pmf, bsc_table(0.18))
        marg = marginalize_out(m, [0], (0, 3))
        assert np.allclose(marg.pmf, bsc_table(0.19))

    def test_non_regular_subset_rejected(self):
        m = make_compound_bsc([0.1, 0.2], [0.5, 0.5], 0.2)
        with pytest.raises(SubsetOutOfRange):
            marginalize_out(m, [1], (0, 0))

    @given(st.integers(0, 2**32 - 1))
    def test_rows_stochastic(self, seed):
        rng = np.random.default_rng(seed)
        m = random_model(rng)
        g = random_g(rng, m)
        D = sorted(rng.choice(m.K, size=int(rng.integers(1, m.K + 1)),
                              replace=False).tolist())
        marg = marginalize_out(m, D, g)
        assert np.abs(marg.pmf.sum(axis=-1) - 1.0).max() < 1e-12


class TestOutputMarginal:
    def test_uniform_input_bsc_is_flat(self):
        m = bsc_model(0.23, 0.1)
        assert np.allclose(output_marginal(m, (0,)), 0.5)

    def test_point_mass_identity_channel(self):
        from gepkit import CodeSpec, SystemModel
        m = SystemModel(dmc=make_dmc(np.eye(2)), K=1, M=0,
                        libraries=((CodeSpec(0.0, np.array([1.0, 0.0])),),))
        assert np.allclose(output_marginal(m, (0,)), [1.0, 0.0])

    @given(st.integers(0, 2**32 - 1))
    def test_matches_joint_enumeration(self, seed):
        # brute-force sum over the full input product space
        rng = np.random.default_rng(seed)
        m = random_model(rng)
        g = random_g(rng, m)
        out = output_marginal(m, g)
        brute = np.zeros(m.dmc.output_size)
        for xs in itertools.product(*[range(n) for n in m.dmc.input_sizes]):
            w = np.prod([m.input_pmf(k, g[k])[x] for k, x in enumerate(xs)])
            brute += w * m.dmc.pmf[xs]
        assert np.abs(out - brute).max() < 1e-12
        assert out.sum() == pytest.approx(1.0, abs=1e-12)


class TestBinaryEntropy:
    def test_half_is_one_bit(self):
        assert binary_entropy(0.5, unit="bits") == pytest.approx(1.0)

    def test_degenerate_is_zero(self):
        assert binary_entropy(0.0) == 0.0
        assert binary_entropy(1.0) == 0.0

    def test_unit_conversion(self):
        assert binary_entropy(0.3) == pytest.approx(
            binary_entropy(0.3, unit="bits") * LN2)

    def test_operating_point_brackets(self):
        # where r = 0.31 actually sits among the compound-example
        # capacities: above the 0.19 and 0.185 states, below 0.18
        c18 = 1.0 - binary_entropy(0.18, unit="bits")
        c185 = 1.0 - binary_entropy(0.185, unit="bits")
        c19 = 1.0 - binary_entropy(0.19, unit="bits")
        assert c19 == pytest.approx(0.298529, abs=2e-6)
        assert c185 == pytest.approx(0.309106, abs=2e-6)
        assert c18 == pytest.approx(0.319923, abs=2e-6)
        assert c19 < c185 < 0.31 < c18

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            binary_entropy(-0.1)
        with pytest.raises(DomainError):
            binary_entropy(1.1)
        with pytest.raises(DomainError):
            binary_entropy(0.5, unit="trits")
