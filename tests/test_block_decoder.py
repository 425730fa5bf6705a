"""The block decoder against the per-trial reference kept in
``reference_decoder.py``.

Every trial of a block must get the reference's decision, w1/g1, each
subset S's winner (including None and "tie") and collision reason, from
every (D, R_D)-decoder and from the receiver.  The trials are those of the
shipped scenarios, the detect scenario of sec4-margin run as
detect-then-decode, and the benchmark's simulate workloads, at each
reference seed and at seeds 3 and 91; and random small instances with
planted duplicate codewords, which reach every collision reason.
"""

from collections import Counter
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from gepkit import (
    CodeSpec,
    ExponentCache,
    SystemModel,
    build_detector,
    build_thresholds,
    decode_receiver,
    decode_subset,
    detect_region,
    make_dmc,
    sample_codebook,
)
from gepkit.decoder import REASONS
from gepkit.ensemble import message_count, sample_from_pmf, stream
from gepkit.montecarlo import (
    _channel_sampler,
    _draw_g,
    _g_sampler,
    receiver_parts,
)
from gepkit.scenario import load_scenario, parse_scenario

from conftest import ROOT, block_of, codeword, load_workloads, \
    random_alpha, random_model, small_search, stack_books
from reference_decoder import (
    reference_decode_receiver,
    reference_decode_subset,
    trial_view,
)

SCENARIOS = ROOT / "scenarios"
BLOCK = 16


def _key(out):
    """What the two decoders must agree on, trial by trial."""
    return (out.kind, out.w1, out.g1, out.diagnostics.get("reason"),
            out.diagnostics.get("winners"))


def _compare(tables, detector, books, ys, block=BLOCK, refs=None) -> Counter:
    """Decode the trials of the block realization ``books`` and outputs
    ``ys`` in blocks with the receiver and with each table's decode_subset
    (the table's region restricted to each trial's detected cell under a
    detector), and trial by trial with the reference on ``refs`` (``books``
    when None); assert they agree.  Returns the collision reasons seen."""
    seen = Counter()
    refs = books if refs is None else refs
    for start in range(0, len(books), block):
        idx = np.arange(start, min(start + block, len(books)))
        out = decode_receiver(tables, books.take(idx), ys[idx], detector)
        outs = [reference_decode_receiver(tables, refs.take([i]), ys[i],
                                          detector) for i in idx]
        for j, ref in enumerate(outs):
            assert _key(trial_view(out, j)) == _key(ref)
            seen[ref.diagnostics.get("reason")] += 1
        cells = [None] * len(idx) if detector is None else \
            [detector.cells[c] for c in detect_region(detector, ys[idx])]
        for cell in set(cells):
            at = idx[[j for j, c in enumerate(cells) if c == cell]]
            for D, tbl in tables.items():
                mine = tbl if cell is None else \
                    replace(tbl, region=tbl.region & cell)
                sub = decode_subset(mine, books.take(at), ys[at])
                for j, i in enumerate(at):
                    ref = reference_decode_subset(tbl, refs.take([i]), ys[i],
                                                  restrict_to=cell)
                    assert _key(trial_view(sub, j, D)) == _key(ref)
                    assert trial_view(sub, j, D).winner == ref.winner
                    seen[ref.diagnostics.get("reason")] += 1
    return seen


def _draws(scenario, trials, master_seed):
    """run_trials' draws: the realization of all trials, one block, and
    each trial's channel output."""
    model, N = scenario.model, scenario.N
    g_list, g_probs = _g_sampler(scenario, model)
    transmit = _channel_sampler(model)
    seeds = [(master_seed, t, 0) for t in range(trials)]
    ys = []
    for t in range(trials):
        rng = stream((master_seed, t, 1))
        g = _draw_g(rng, g_list, g_probs)
        cb = block_of(model, N, seeds[t:t + 1])
        w = [int(rng.integers(1, message_count(model.rate(k, g[k]), N) + 1))
             for k in range(model.K)]
        x = np.array([codeword(cb, k, g[k], w[k]) for k in range(model.K)]
                     + [sample_from_pmf(rng, model.input_pmf(k, g[k]), N)
                        for k in range(model.K, model.n_users)])
        ys.append(transmit(x, rng.random(N)))
    return block_of(model, N, seeds), np.array(ys)


def _scenarios():
    """name -> (scenario, reference seed, trials)."""
    out = {}
    for path in sorted(SCENARIOS.glob("*.json")):
        scen = load_scenario(path)
        out[path.stem] = (scen, scen.seed, 200)
    workloads = load_workloads()
    sec4 = parse_scenario(workloads.generate("sec4-detect", ROOT))
    sec4.decoder = "detect"
    out["sec4-detect"] = (sec4, sec4.seed, 300)
    for name, spec in workloads.WORKLOADS.items():
        ref = spec["scenario"]
        scen = parse_scenario(workloads.generate(ref, ROOT)) \
            if ref in workloads.GENERATORS else load_scenario(ROOT / ref)
        out[name] = (scen, spec["ref_seed"], spec["sim_trials"])
    return out


SCENARIO_TRIALS = _scenarios()


@pytest.mark.parametrize("seed", ["ref", 3, 91])
@pytest.mark.parametrize("name", sorted(SCENARIO_TRIALS))
def test_scenario_trials_match_the_reference(name, seed):
    scen, ref_seed, trials = SCENARIO_TRIALS[name]
    seed = ref_seed if seed == "ref" else seed
    tables = {D: build_thresholds(scen.model, D, reg, scen.alpha,
                                  margin=margin, cache=ExponentCache())
              for D, reg, margin in receiver_parts(scen)}
    detector = build_detector(scen.model, scen.detection, scen.alpha) \
        if scen.decoder == "detect" else None
    books, ys = _draws(scen, trials, seed)
    seen = _compare(tables, detector, books, ys)
    assert sum(seen.values()) >= trials


# ---------------------------------------------------------------------------
# random small instances
# ---------------------------------------------------------------------------

def _random_receiver(rng, variant):
    """A small random model, blocklength and receiver: the margin decoder
    over every regular user, or one or two plain decoders (D = (0,) and
    D = all regular users, disjoint regions), with a random 2-cell
    detector under "detect".  Every in-region vector has few candidates."""
    while True:
        model = random_model(rng, max_users=3, max_codes=2, max_out=3)
        N = int(rng.integers(2, 6))
        space = list(model.index_space())
        # a margin check needs a proper subset covering D, so an
        # interferer; two plain decoders need two regular users
        if (model.M if variant == "margin" else model.K - 1) < 1 \
                or len(space) < 3:
            continue
        order = [space[i] for i in rng.permutation(len(space))]
        cut = int(rng.integers(1, len(space)))
        if variant == "margin":
            # at least one vector stays outside, so the covering subsets
            # have an excluded vector and their check can reject
            rest = order[cut:]
            parts = [(tuple(range(model.K)), order[:cut],
                      rest[:int(rng.integers(0, len(rest)))])]
        elif len(model.libraries[0]) > 1 and rng.random() < 0.5:
            # the joint decoder's region mirrors the first one's with user
            # 0's other code: with that code's codewords copied over
            # (_plant_duplicates), both can decode one message
            region = sorted({(0,) + g[1:] for g in order[:cut]})
            parts = [((0,), region, None),
                     (tuple(range(model.K)),
                      [(1,) + g[1:] for g in region], None)]
        else:
            parts = [((0,), order[:cut], None),
                     (tuple(range(model.K)), order[cut:], None)]
        grid = sum(np.prod([message_count(model.rate(k, g[k]), N)
                            for k in D]) for D, region, _m in parts
                   for g in region)
        if grid <= 24:
            break
    detector = None
    if variant == "detect":
        side = rng.permutation(len(space)) < rng.integers(1, len(space))
        cells = [[g for g, s in zip(space, side) if s],
                 [g for g, s in zip(space, side) if not s]]
        detector = cells
    return model, N, parts, detector


def _plant_duplicates(rng, model, cb):
    """Copy one codeword of a random multi-message table onto another, so
    that two candidates of one vector score exactly alike; or copy user
    0's first code's codewords onto its second code's, so that two
    decoders can decode one message under different codes."""
    if len(model.libraries[0]) > 1 and rng.random() < 0.5:
        n = min(cb.counts[0, 0], cb.counts[0, 1])
        cb.tables[0, 1][:, :n] = cb.tables[0, 0][:, :n]
        return
    keys = [key for key, n in cb.counts.items() if n > 1]
    if keys:
        k, gk = keys[int(rng.integers(len(keys)))]
        src, dst = rng.choice(cb.counts[k, gk], size=2, replace=False)
        cb.tables[k, gk][:, dst] = cb.tables[k, gk][:, src]


def _random_block(rng, model, N, trials):
    """One block realization, its trials' tables with planted duplicates,
    and their outputs: half sent through the channel from a random code
    index vector's codewords, half uniform."""
    transmit = _channel_sampler(model)
    sent = list(model.index_space())
    books, ys = [], []
    for _ in range(trials):
        cb = sample_codebook(model, N, int(rng.integers(2**31)))
        if rng.random() < 0.7:
            _plant_duplicates(rng, model, cb)
        if rng.random() < 0.5:
            ys.append(rng.integers(0, model.dmc.output_size, N))
        else:
            g = sent[int(rng.integers(len(sent)))]
            x = np.array([cb.tables[k, g[k]][0, int(rng.integers(
                cb.counts[k, g[k]]))] for k in range(model.K)]
                + [sample_from_pmf(rng, model.input_pmf(k, g[k]), N)
                   for k in range(model.K, model.n_users)])
            ys.append(transmit(x, rng.random(N)))
        books.append(cb)
    return stack_books(books), np.array(ys)


def test_random_instances_match_the_reference():
    """Hypothesis draws the instances; over all of them every collision
    reason must occur, so each branch of the block decoder is compared."""
    seen = Counter()

    @settings(max_examples=120, derandomize=True, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(seed=st.integers(0, 2**32 - 1),
           variant=st.sampled_from(["margin", "plain", "detect"]),
           block=st.integers(1, 9))
    def check(seed, variant, block):
        rng = np.random.default_rng(seed)
        model, N, parts, cells = _random_receiver(rng, variant)
        alpha = random_alpha(rng, model, hi=0.2)
        with small_search(8, 0):
            tables = {D: build_thresholds(model, D, region, alpha,
                                          margin=margin, cache=ExponentCache())
                      for D, region, margin in parts if region}
        detector = None if cells is None \
            else build_detector(model, cells, alpha)
        books, ys = _random_block(rng, model, N, 16)
        seen.update(_compare(tables, detector, books, ys, block))

    check()
    assert set(seen) - {None} == set(REASONS[1:]), seen


def test_wide_alphabets_decide_as_on_int64_tables():
    """Codes of 4 and 3 input letters have one-byte tables; the block
    decoder decides each trial as the reference does on int64 copies of
    them, under D = (0,) and under D = (0, 1), whose candidates gather rows
    of both tables."""
    seen = Counter()
    for seed in range(6):
        rng = np.random.default_rng(seed)
        t = rng.uniform(0.05, 1.0, size=(4, 3, 2, 3))
        model = SystemModel(
            dmc=make_dmc(t / t.sum(axis=-1, keepdims=True)), K=2, M=1,
            libraries=((CodeSpec(0.3, np.array([0.2, 0.0, 0.3, 0.5])),
                        CodeSpec(0.2, np.full(4, 0.25))),
                       (CodeSpec(0.25, np.array([0.45, 0.0, 0.55])),
                        CodeSpec(0.1, np.array([0.2, 0.3, 0.5]))),
                       (CodeSpec(0.0, np.array([0.4, 0.6])),)))
        space = list(model.index_space())
        order = [space[i] for i in rng.permutation(len(space))]
        cut = int(rng.integers(1, len(space)))
        parts = [((0,), order[:cut]), ((0, 1), order[cut:])]
        alpha = random_alpha(rng, model, hi=0.2)
        with small_search(8, 0):
            tables = {D: build_thresholds(model, D, region, alpha,
                                          cache=ExponentCache())
                      for D, region in parts}
        books, ys = _random_block(rng, model, 4, 16)
        wide = books.take(range(len(books)))
        wide.tables = {code: t.astype(np.int64)
                       for code, t in books.tables.items()}
        assert {t.dtype for t in books.tables.values()} == {np.dtype("uint8")}
        assert max(t.max() for t in books.tables.values()) == 3
        seen.update(_compare(tables, None, books, ys, refs=wide))
    assert None in seen and len(seen) > 1, seen
