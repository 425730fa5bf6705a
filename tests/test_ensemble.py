import itertools
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from gepkit import (
    CodeSpec,
    SystemModel,
    ensemble_log_expectation,
    make_compound_bsc,
    make_dmc,
    marginalize_out,
    message_count,
    sample_codebook,
)
from gepkit.ensemble import CodebookRealization, sample_from_pmf, stream
from gepkit.errors import CodeOutOfRange, MessageOutOfRange

from conftest import random_g, random_model


class TestMessageCount:
    def test_zero_rate_has_one_message(self):
        assert message_count(0.0, 10) == 1

    def test_exact_power_of_two(self):
        assert message_count(math.log(2.0), 3) == 8

    def test_fractional_floor(self):
        assert message_count(0.2, 12) == 11  # floor(e^2.4)


class TestSampling:
    def test_point_mass_codewords_constant(self):
        m = SystemModel(
            dmc=make_dmc(np.eye(2)), K=1, M=0,
            libraries=((CodeSpec(0.3, np.array([0.0, 1.0])),),))
        cb = sample_codebook(m, 8, 5)
        assert np.all(cb.tables[(0, 0)] == 1)

    def test_same_seed_identical(self):
        m = make_compound_bsc([0.1, 0.3], [0.5, 0.5], 0.4)
        a = sample_codebook(m, 16, (11, 22))
        b = sample_codebook(m, 16, (11, 22))
        assert a.counts == b.counts
        for key in a.tables:
            assert np.array_equal(a.tables[key], b.tables[key])

    def test_different_seed_differs(self):
        m = make_compound_bsc([0.1, 0.3], [0.5, 0.5], 0.4)
        a = sample_codebook(m, 16, 1)
        b = sample_codebook(m, 16, 2)
        assert any(not np.array_equal(a.tables[k], b.tables[k])
                   for k in a.tables)

    def test_interfering_users_never_materialized(self):
        m = make_compound_bsc([0.1, 0.3], [0.5, 0.5], 0.4)
        cb = sample_codebook(m, 8, 3)
        assert all(k == 0 for (k, _gk) in cb.tables)

    def test_symbol_frequency_near_pmf(self):
        # law of large numbers at ~4 sigma over 10^4 symbols
        m = SystemModel(
            dmc=make_dmc(np.eye(2)), K=1, M=0,
            libraries=((CodeSpec(math.log(100.0) / 100.0,
                                 np.array([0.5, 0.5])),),))
        cb = sample_codebook(m, 100, 77)  # 100 codewords x 100 symbols
        frac = cb.tables[(0, 0)].mean()
        assert abs(frac - 0.5) < 0.02


class TestEncode:
    def test_single_message_lookup(self):
        m = make_compound_bsc([0.2], [0.5, 0.5], 0.0)
        cb = sample_codebook(m, 6, 9)
        cw = cb.codeword(0, 0, 1)
        assert cw.shape == (6,)

    def test_message_out_of_range(self):
        m = make_compound_bsc([0.2], [0.5, 0.5], 0.0)
        cb = sample_codebook(m, 6, 9)
        with pytest.raises(MessageOutOfRange):
            cb.codeword(0, 0, 2)

    def test_code_out_of_range(self):
        m = make_compound_bsc([0.2], [0.5, 0.5], 0.0)
        cb = sample_codebook(m, 6, 9)
        with pytest.raises(CodeOutOfRange):
            cb.codeword(0, 3, 1)

    def test_round_trip_row_index(self):
        m = make_compound_bsc([0.2, 0.3], [0.5, 0.5], 0.5)
        cb = sample_codebook(m, 10, 13)
        table = cb.tables[(0, 0)]
        for w in (1, cb.counts[(0, 0)]):
            row = cb.codeword(0, 0, w)
            assert np.array_equal(table[w - 1], row)


class TestRowSkip:
    """``codeword`` on an undrawn table skips its stream ahead to the row:
    the row equals the fully drawn table's, and the stream is left where
    it was, so drawing the table afterwards gives a fresh draw's bits."""

    @staticmethod
    def _model(N):
        # seven messages of a ternary, non-uniform code at every N
        return SystemModel(
            dmc=make_dmc(np.eye(3)), K=1, M=0,
            libraries=((CodeSpec(0.0, np.array([0.5, 0.5, 0.0])),
                        CodeSpec(math.log(7.0) / N,
                                 np.array([0.2, 0.5, 0.3]))),))

    @pytest.mark.parametrize("N", [1, 3, 5, 13, 16, 21, 40])
    def test_rows_of_an_undrawn_table(self, N):
        m = self._model(N)
        seed = (5, 8, 0)
        full = sample_codebook(m, N, seed).tables[(0, 1)]
        # an eager draw of the table: every row in order from its stream
        fresh = sample_from_pmf(stream(seed, 0, 1),
                                m.input_pmf(0, 1), (7, N))
        assert np.array_equal(full, fresh)
        lazy = CodebookRealization(m, N, seed)
        assert lazy.counts[(0, 1)] == 7
        for w in (1, 2, 7, 2):
            assert np.array_equal(lazy.codeword(0, 1, w), fresh[w - 1])
        assert not lazy.tables
        assert np.array_equal(lazy.table(0, 1), fresh)
        assert list(lazy.tables) == [(0, 1)]
        for w in (1, 2, 7):  # now read from the drawn table
            assert np.array_equal(lazy.codeword(0, 1, w), fresh[w - 1])

    def test_unknown_codes_and_messages_on_undrawn_tables(self):
        lazy = CodebookRealization(self._model(5), 5, 3)
        assert (0, 1) in lazy.counts and (0, 2) not in lazy.counts
        assert list(lazy.counts) == [(0, 0), (0, 1)]
        assert lazy.tables == {}
        with pytest.raises(CodeOutOfRange):
            lazy.codeword(0, 2, 1)
        with pytest.raises(CodeOutOfRange):
            lazy.codeword(1, 0, 1)
        for w in (0, 8):
            with pytest.raises(MessageOutOfRange):
                lazy.codeword(0, 1, w)
        with pytest.raises(CodeOutOfRange):
            lazy.table(0, 2)
        assert lazy.tables == {}


def brute_force_expectation(model, D, S, g, y, x_fixed, a):
    """Exhaustive average over every free-user symbol assignment."""
    D = sorted(set(D))
    fixed = sorted(set(D) & set(S))
    free = sorted(set(D) - set(S))
    marg = marginalize_out(model, D, g)
    N = len(y)
    ranges = [range(model.dmc.input_sizes[k]) for k in free for _ in range(N)]
    total = 0.0
    for combo in itertools.product(*ranges):
        assign = np.array(combo, dtype=int).reshape(len(free), N) \
            if free else np.zeros((0, N), dtype=int)
        prob = 1.0
        for i, k in enumerate(free):
            pm = model.input_pmf(k, g[k])
            prob *= float(np.prod(pm[assign[i]]))
        lik = 1.0
        for j in range(N):
            idx = []
            for k in D:
                if k in fixed:
                    idx.append(int(x_fixed[fixed.index(k), j]))
                else:
                    idx.append(int(assign[free.index(k), j]))
            lik *= float(marg.pmf[tuple(idx) + (int(y[j]),)]) ** a
        total += prob * lik
    return math.log(total) if total > 0 else float("-inf")


class TestEnsembleExpectation:
    def test_a_one_is_marginal_likelihood(self):
        m = make_compound_bsc([0.1, 0.3], [0.5, 0.5], 0.2)
        y = np.array([0, 1, 1, 0])
        val = ensemble_log_expectation(m, [0], [], (0, 0), y,
                                       np.zeros((0, 4)), 1.0)
        pm = m.input_pmf(0, 0)
        marg = marginalize_out(m, [0], (0, 0)).pmf
        expect = sum(math.log(sum(pm[x] * marg[x, yj] for x in range(2)))
                     for yj in y)
        assert val == pytest.approx(expect, abs=1e-12)

    def test_empty_free_set_degenerates(self):
        m = make_compound_bsc([0.1, 0.3], [0.5, 0.5], 0.2)
        y = np.array([0, 1, 0])
        xf = np.array([[1, 0, 1]])
        val = ensemble_log_expectation(m, [0], [0, 1], (0, 1), y, xf, 0.6)
        lm = np.log(marginalize_out(m, [0], (0, 1)).pmf)
        expect = 0.6 * sum(lm[xf[0, j], y[j]] for j in range(3))
        assert val == pytest.approx(expect, abs=1e-12)

    @given(st.integers(0, 2**32 - 1))
    def test_matches_exhaustive_enumeration(self, seed):
        rng = np.random.default_rng(seed)
        m = random_model(rng, max_users=2, max_codes=2, max_out=2)
        N = int(rng.integers(1, 4))
        g = random_g(rng, m)
        D = sorted(rng.choice(m.K, size=int(rng.integers(1, m.K + 1)),
                              replace=False).tolist())
        S = sorted(rng.choice(m.n_users,
                              size=int(rng.integers(0, m.n_users)),
                              replace=False).tolist())
        y = rng.integers(0, m.dmc.output_size, N)
        fixed = sorted(set(D) & set(S))
        xf = rng.integers(0, 2, (len(fixed), N))
        a = float(rng.uniform(0.05, 1.5))
        mine = ensemble_log_expectation(m, D, S, g, y, xf, a)
        oracle = brute_force_expectation(m, D, S, g, y, xf, a)
        assert mine == pytest.approx(oracle, abs=1e-9)

    def test_zero_probability_reports_neg_inf(self):
        m = SystemModel(
            dmc=make_dmc(np.eye(2)), K=1, M=0,
            libraries=((CodeSpec(0.0, np.array([1.0, 0.0])),),))
        # input locked to 0 on the identity channel, but y = 1
        val = ensemble_log_expectation(m, [0], [], (0,), np.array([1]),
                                       np.zeros((0, 1)), 1.0)
        assert val == float("-inf")
