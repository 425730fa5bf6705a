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
from gepkit.ensemble import philox_keys, rekey, sample_from_pmf, stream
from gepkit.errors import (CodeOutOfRange, DomainError, GepkitError,
                           MessageOutOfRange, ShapeMismatch)
from gepkit.montecarlo import _channel_sampler
from gepkit.scenario import load_scenario

from conftest import ROOT, block_of, codeword, random_g, random_model


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
        assert len(cb) == 1
        assert cb.codeword(0, 0, [1]).shape == (1, 6)

    def test_message_out_of_range(self):
        m = make_compound_bsc([0.2], [0.5, 0.5], 0.0)
        cb = sample_codebook(m, 6, 9)
        with pytest.raises(MessageOutOfRange):
            cb.codeword(0, 0, [2])

    def test_code_out_of_range(self):
        m = make_compound_bsc([0.2], [0.5, 0.5], 0.0)
        cb = sample_codebook(m, 6, 9)
        with pytest.raises(CodeOutOfRange):
            cb.codeword(0, 3, [1])

    def test_one_message_per_trial(self):
        m = make_compound_bsc([0.2], [0.5, 0.5], 0.5)
        cb = sample_codebook(m, 6, 9)
        for w in (1, [1, 1], [[1]]):
            with pytest.raises(ShapeMismatch):
                cb.codeword(0, 0, w)

    def test_round_trip_row_index(self):
        m = make_compound_bsc([0.2, 0.3], [0.5, 0.5], 0.5)
        cb = sample_codebook(m, 10, 13)
        table = cb.tables[(0, 0)][0]
        for w in (1, cb.counts[(0, 0)]):
            assert np.array_equal(table[w - 1], codeword(cb, 0, 0, w))


class TestRowSkip:
    """``codeword`` on an undrawn table skips its stream ahead to the row:
    the row equals the fully drawn table's, and every read starts from the
    stream's start, so drawing the table afterwards gives a fresh draw's
    bits."""

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
        full = sample_codebook(m, N, seed).tables[(0, 1)][0]
        # an eager draw of the table: every row in order from its stream
        fresh = sample_from_pmf(stream(seed, 0, 1),
                                m.input_pmf(0, 1), (7, N))
        assert np.array_equal(full, fresh)
        lazy = block_of(m, N, [seed])
        assert lazy.counts[(0, 1)] == 7
        for w in (1, 2, 7, 2):
            assert np.array_equal(codeword(lazy, 0, 1, w), fresh[w - 1])
        assert not lazy.tables
        assert np.array_equal(lazy.table(0, 1), fresh[None])
        assert list(lazy.tables) == [(0, 1)]
        for w in (1, 2, 7):  # a drawn table does not move the stream
            assert np.array_equal(codeword(lazy, 0, 1, w), fresh[w - 1])

    def test_unknown_codes_and_messages_on_undrawn_tables(self):
        lazy = block_of(self._model(5), 5, [3])
        assert (0, 1) in lazy.counts and (0, 2) not in lazy.counts
        assert list(lazy.counts) == [(0, 0), (0, 1)]
        assert lazy.tables == {}
        with pytest.raises(CodeOutOfRange):
            codeword(lazy, 0, 2, 1)
        with pytest.raises(CodeOutOfRange):
            codeword(lazy, 1, 0, 1)
        for w in (0, 8):
            with pytest.raises(MessageOutOfRange):
                codeword(lazy, 0, 1, w)
        with pytest.raises(CodeOutOfRange):
            lazy.table(0, 2)
        assert lazy.tables == {}


class TestStreamOffsets:
    """At an odd N a row's offset (w - 1) N takes every residue mod 4, so a
    codeword read re-keys its stream at step (w - 1) N // 4 and discards 0
    to 3 doubles.  Every read path gives the symbols of the code's stream
    read from its start, on compound_bsc_relaxed's code: trial t's is
    ``stream(11, t, 0, 0, 0)``."""

    TRIALS = (0, 1, 4)

    @pytest.mark.parametrize("N", [13, 15])
    def test_every_read_path_is_the_stream(self, N):
        model = load_scenario(
            ROOT / "scenarios" / "compound_bsc_relaxed.json").model
        M = message_count(model.rate(0, 0), N)
        cum = np.cumsum(model.input_pmf(0, 0))[:-1]
        want = np.array([np.searchsorted(
            cum, stream(11, t, 0, 0, 0).random(M * N), side="right")
            for t in self.TRIALS]).reshape(len(self.TRIALS), M, N)
        messages = [[1, 2, 3], [4, 5, M], [M - 1, 1, 4]]
        assert {(v - 1) * N % 4 for w in messages for v in w} == \
            {0, 1, 2, 3}
        lazy = block_of(model, N, [(11, t, 0) for t in self.TRIALS])
        rows = np.arange(len(self.TRIALS))
        for w in messages:
            assert np.array_equal(lazy.codeword(0, 0, w),
                                  want[rows, np.subtract(w, 1)])
        assert not lazy.tables
        assert np.array_equal(lazy.table(0, 0), want)
        for w in messages:
            assert np.array_equal(lazy.codeword(0, 0, w),
                                  want[rows, np.subtract(w, 1)])


class TestBlockRealization:
    """A block realization is its trials' one-trial realizations side by
    side: each trial's table and codewords are those ``sample_codebook``
    draws from the trial's own streams, and ``take`` selects trials."""

    SEEDS = [(7, t, 0) for t in (0, 1, 2, 5, 3)]

    @pytest.mark.parametrize("N", [1, 4, 13])
    def test_trials_are_their_own_realizations(self, N):
        m = TestRowSkip._model(N)
        ones = [sample_codebook(m, N, seed) for seed in self.SEEDS]
        block = block_of(m, N, self.SEEDS)
        assert len(block) == len(self.SEEDS)
        w = [1, 7, 3, 7, 2]
        rows = block.codeword(0, 1, w)
        assert rows.shape == (len(w), N) and not block.tables
        for i, (one, wi) in enumerate(zip(ones, w)):
            assert np.array_equal(rows[i], one.tables[(0, 1)][0, wi - 1])
        for code in ((0, 1), (0, 0)):
            assert np.array_equal(
                block.table(*code),
                np.concatenate([one.tables[code] for one in ones]))
        assert np.array_equal(block.codeword(0, 1, w), rows)

    def test_take_selects_trials_and_their_drawn_rows(self):
        N = 6
        m = TestRowSkip._model(N)
        block = block_of(m, N, self.SEEDS)
        table = block.table(0, 1)
        part = block.take([3, 1, 3])
        assert len(part) == 3 and list(part.tables) == [(0, 1)]
        assert np.array_equal(part.table(0, 1), table[[3, 1, 3]])
        assert np.array_equal(part.table(0, 0),
                              block.table(0, 0)[[3, 1, 3]])
        assert list(block.tables) == [(0, 1), (0, 0)]
        undrawn = block_of(m, N, self.SEEDS).take([4, 0])
        assert not undrawn.tables
        assert np.array_equal(undrawn.codeword(0, 1, [2, 5]),
                              table[[4, 0], [1, 4]])


# master seeds of one word (0 and below 2^32), of two words and of three or
# more, alone or in a tuple; paths of 0 to 6 entries put the entropy below,
# at and above SeedSequence's 4-word pool
WORD = st.integers(0, 2**32 - 1)
SEED = st.one_of(st.just(0), WORD, st.integers(2**32, 2**64 - 1),
                 st.integers(2**64, 2**100))
MASTER = st.one_of(SEED, st.lists(SEED, min_size=1, max_size=3).map(tuple))
PATH = st.one_of(st.lists(WORD, max_size=6),
                 st.tuples(WORD, st.just(2)),                    # detection
                 st.tuples(WORD, st.just(0), WORD, WORD))        # code


class TestOneByteSymbols:
    """Tables and codewords hold each symbol in the narrowest unsigned type
    of the code's input letters (one byte here), with the values the int64
    inverse CDF gives the same uniforms; ``sample_from_pmf`` and the
    channel outputs stay int64."""

    N = 5
    SEEDS = [(5, 8), (6, 1)]
    PMFS = [[1.0], [0.9, 0.1], [0.0, 1.0, 0.0, 0.0], [0.2, 0.0, 0.3, 0.5]]

    @classmethod
    def _model(cls, pmf):
        """One regular user, one 7-message code drawn from ``pmf``, on a
        channel that ignores the input."""
        return SystemModel(
            dmc=make_dmc(np.full((len(pmf), 2), 0.5)), K=1, M=0,
            libraries=((CodeSpec(math.log(7.0) / cls.N, np.array(pmf)),),))

    @classmethod
    def _reference(cls, pmf):
        """Each trial's table by the int64 inverse CDF of its stream."""
        return np.stack([sample_from_pmf(stream(seed, 0, 0), np.array(pmf),
                                         (7, cls.N)) for seed in cls.SEEDS])

    @pytest.mark.parametrize("pmf", PMFS)
    def test_table_and_row_skip_match_int64_draws(self, pmf):
        m, ref = self._model(pmf), self._reference(pmf)
        assert ref.dtype == np.int64
        lazy = block_of(m, self.N, self.SEEDS)
        for w in ([1, 7], [4, 2], [7, 7]):
            rows = lazy.codeword(0, 0, w)
            assert rows.dtype == np.uint8
            assert np.array_equal(rows, ref[[0, 1], np.array(w) - 1])
        assert not lazy.tables
        table = lazy.table(0, 0)
        assert table.dtype == np.uint8 and table.shape == ref.shape
        assert np.array_equal(table, ref)
        assert lazy.take([1, 1]).table(0, 0).dtype == np.uint8

    @pytest.mark.parametrize("letters", [2, 4])
    def test_uniforms_on_cumulative_entries(self, letters):
        """A pmf whose cumulative sums hit a uniform of the stream exactly
        (u >= 1/2, so 1 - u and the sum are exact): at that uniform both
        counts include the entry equal to it."""
        u = stream(self.SEEDS[0], 0, 0).random(7 * self.N)
        p = self.N + int(np.argmax(u[self.N:] >= 0.5))  # past row 1
        pmf = [u[p], 1.0 - u[p]] if letters == 2 \
            else [0.0, u[p], 0.0, 1.0 - u[p]]
        m = self._model(pmf)
        assert np.cumsum(m.input_pmf(0, 0))[letters - 2] == u[p]
        lazy = block_of(m, self.N, self.SEEDS)
        row = lazy.codeword(0, 0, [p // self.N + 1, 1])[0]
        assert row[p % self.N] == letters - 1
        ref = self._reference(m.input_pmf(0, 0))
        assert ref[0].flat[p] == letters - 1
        assert np.array_equal(lazy.table(0, 0), ref)

    def test_large_table_takes_one_byte_per_symbol(self):
        m = make_compound_bsc([0.1, 0.4], [0.9, 0.1], 0.2)
        table = block_of(m, 40, [3]).table(0, 0)
        assert table.shape == (1, 2980, 40) and table.nbytes == 119_200

    @pytest.mark.parametrize("pmf", PMFS)
    def test_samples_and_channel_outputs_stay_int64(self, pmf):
        m = self._model(pmf)
        assert sample_from_pmf(stream(3, 0, 0), np.array(pmf),
                               (2, 4)).dtype == np.int64
        x = block_of(m, self.N, self.SEEDS).codeword(0, 0, [3, 5])
        y = _channel_sampler(m)(x[:, None, :], np.full(x.shape, 0.5))
        assert y.dtype == np.int64 and np.array_equal(y, np.ones(x.shape))


def _oracle(master_seed, path):
    """The one-stream definition, built from NumPy's own SeedSequence."""
    seed = master_seed if isinstance(master_seed, tuple) else (master_seed,)
    ss = np.random.SeedSequence(seed + tuple(path))
    return ss.generate_state(2, np.uint64), stream(master_seed, *path)


class TestPhiloxKeys:
    """philox_keys is SeedSequence's key, many streams at once, and a
    re-keyed generator draws what stream() draws."""

    @given(MASTER, PATH)
    def test_key_equals_seed_sequence(self, master_seed, path):
        key, rng = _oracle(master_seed, path)
        mine = philox_keys(master_seed, *path)
        assert mine.dtype == np.uint64 and mine.shape == (2,)
        assert mine.tolist() == key.tolist() == \
            rng.bit_generator.state["state"]["key"].tolist()

    @given(MASTER, PATH, st.integers(0, 40), st.integers(0, 2**20))
    def test_rekeyed_generator_draws_the_stream(self, master_seed, path, n,
                                                steps):
        _key, ref = _oracle(master_seed, path)
        # a used generator, mid-buffer and with a saved uint32
        mine = stream(99, 1)
        mine.random(3)
        mine.integers(0, 7, dtype=np.int32)
        key = philox_keys(master_seed, *path).tolist()
        rekey(mine, key, 0)
        assert mine.integers(0, 2**31, 3, dtype=np.int32).tolist() == \
            ref.integers(0, 2**31, 3, dtype=np.int32).tolist()
        assert mine.random(n).tobytes() == ref.random(n).tobytes()
        assert mine.integers(1, 1000, 5).tolist() == \
            ref.integers(1, 1000, 5).tolist()
        p = [0.1, 0.25, 0.6, 0.05]
        assert mine.choice(4, p=p) == ref.choice(4, p=p)
        mine.bit_generator.advance(steps)
        ref.bit_generator.advance(steps)
        assert mine.random(7).tobytes() == ref.random(7).tobytes()
        # re-keyed at a counter step: where advance puts the stream's start
        ref = _oracle(master_seed, path)[1]
        ref.bit_generator.advance(steps)
        assert rekey(mine, key, steps).random(n).tobytes() == \
            ref.random(n).tobytes()

    @given(MASTER, st.integers(0, 2**32 - 5), st.lists(WORD, min_size=2,
                                                       max_size=2))
    def test_arrays_broadcast_to_one_key_per_stream(self, master_seed, t0,
                                                    codes):
        t = np.arange(5) + t0
        codes = np.array(codes)
        keys = philox_keys(master_seed, t[:, None], 0, codes, 1)
        assert keys.shape == (5, 2, 2)
        for i, j in itertools.product(range(5), range(2)):
            path = (int(t[i]), 0, int(codes[j]), 1)
            assert keys[i, j].tolist() == \
                _oracle(master_seed, path)[0].tolist()

    @pytest.mark.parametrize("master_seed, path", [
        (3, (2**32, 2)), (3, (1, 0, 0, 2**40)), (3, (2**64,)), (3, (-1,)),
        (-1, (0, 1)),
        ((4, -2), (0,))])
    def test_entries_outside_32_bits_refused(self, master_seed, path):
        with pytest.raises(DomainError) as err:
            philox_keys(master_seed, *path)
        assert isinstance(err.value, GepkitError)


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
        val, = ensemble_log_expectation(m, [0], [], (0, 0), y,
                                        np.zeros((1, 0, 4)), 1.0)
        pm = m.input_pmf(0, 0)
        marg = marginalize_out(m, [0], (0, 0)).pmf
        expect = sum(math.log(sum(pm[x] * marg[x, yj] for x in range(2)))
                     for yj in y)
        assert val == pytest.approx(expect, abs=1e-12)

    def test_empty_free_set_degenerates(self):
        m = make_compound_bsc([0.1, 0.3], [0.5, 0.5], 0.2)
        y = np.array([0, 1, 0])
        xf = np.array([[1, 0, 1]])
        val, = ensemble_log_expectation(m, [0], [0, 1], (0, 1), y, xf[None],
                                        0.6)
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
        mine, = ensemble_log_expectation(m, D, S, g, y, xf[None], a)
        oracle = brute_force_expectation(m, D, S, g, y, xf, a)
        assert mine == pytest.approx(oracle, abs=1e-9)

    def test_zero_probability_reports_neg_inf(self):
        m = SystemModel(
            dmc=make_dmc(np.eye(2)), K=1, M=0,
            libraries=((CodeSpec(0.0, np.array([1.0, 0.0])),),))
        # input locked to 0 on the identity channel, but y = 1
        val, = ensemble_log_expectation(m, [0], [], (0,), np.array([1]),
                                        np.zeros((1, 0, 1)), 1.0)
        assert val == float("-inf")
