import contextlib
import importlib.util
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import settings

from gepkit import CodeSpec, SystemModel, make_compound_bsc, make_dmc
from gepkit import optimize
from gepkit.ensemble import CodebookRealization, philox_keys
from gepkit.exponents import WeightFunction
from gepkit.scenario import load_scenario, parse_scenario

settings.register_profile("ci", deadline=None, max_examples=25)
settings.load_profile("ci")

LN2 = math.log(2.0)
ROOT = Path(__file__).resolve().parent.parent


def load_perfbench(name):
    """A module of the benchmark, ``perfbench/<name>.py``, loaded read only
    and without importing the benchmark as a package."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_" + name, ROOT / "perfbench" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def load_workloads():
    """The benchmark's workload module, ``perfbench/workloads.py``: it
    generates the derived scenarios."""
    return load_perfbench("workloads")


@contextlib.contextmanager
def small_search(base_grid, refine_rounds):
    """Within it (a ``with`` block or a decorated test), every exponent
    search uses ``base_grid`` points per axis, ``refine_rounds`` refinement
    rounds and no Brent polish: the objective is only evaluated once more
    at the grid's best point.  A smaller search gives other exponents, so
    an ExponentCache filled inside it must not be read outside it."""
    mp = pytest.MonkeyPatch()
    mp.setattr(optimize, "BASE_GRID", base_grid)
    mp.setattr(optimize, "REFINE_ROUNDS", refine_rounds)
    mp.setattr(optimize, "_brent_max",
               lambda f, lo, hi, x0, xatol: (x0, f(x0)))
    try:
        yield
    finally:
        mp.undo()


def _same(mine, ref):
    """Same type, shape and bytes (so -0.0 != 0.0 and nan payloads count)."""
    return (type(mine) is type(ref) and np.shape(mine) == np.shape(ref)
            and np.asarray(mine).tobytes() == np.asarray(ref).tobytes())


def bsc_table(p):
    return np.array([[1.0 - p, p], [p, 1.0 - p]])


def bsc_model(p, rate, pmf=(0.5, 0.5)):
    """Single regular user over a plain BSC."""
    return SystemModel(
        dmc=make_dmc(bsc_table(p)), K=1, M=0,
        libraries=((CodeSpec(rate, np.asarray(pmf, float)),),))


def xor_model(rate=0.0):
    """Two regular users, Y = X1 xor X2, uniform inputs."""
    t = np.zeros((2, 2, 2))
    for x1 in range(2):
        for x2 in range(2):
            t[x1, x2, x1 ^ x2] = 1.0
    u = np.array([0.5, 0.5])
    return SystemModel(dmc=make_dmc(t), K=2, M=0,
                       libraries=((CodeSpec(rate, u),), (CodeSpec(rate, u),)))


def three_user_model(rng, rate):
    """Three regular users with two codes of rate ``rate`` each (input pmfs
    (0.4, 0.6) and (0.7, 0.3)) on a random binary-input, 3-output channel:
    D = (0, 1, 2) with S = {0, 1} fixes two users' symbols."""
    t = rng.uniform(0.05, 1.0, size=(2, 2, 2, 3))
    t /= t.sum(axis=-1, keepdims=True)
    codes = (CodeSpec(rate, np.array([0.4, 0.6])),
             CodeSpec(rate, np.array([0.7, 0.3])))
    return SystemModel(dmc=make_dmc(t), K=3, M=0, libraries=(codes,) * 3)


def random_model(rng, max_users=3, max_codes=2, max_out=3, min_prob=0.05):
    """Small random system: binary inputs, K >= 1 regular users."""
    users = int(rng.integers(1, max_users + 1))
    K = int(rng.integers(1, users + 1))
    M = users - K
    n_out = int(rng.integers(2, max_out + 1))
    t = rng.uniform(min_prob, 1.0, size=tuple([2] * users + [n_out]))
    t /= t.sum(axis=-1, keepdims=True)
    libs = []
    for _ in range(users):
        lib = []
        for _ in range(int(rng.integers(1, max_codes + 1))):
            pm = rng.uniform(min_prob, 1.0, size=2)
            pm /= pm.sum()
            lib.append(CodeSpec(rate=float(rng.uniform(0.0, 0.4)),
                                input_pmf=pm))
        libs.append(tuple(lib))
    return SystemModel(dmc=make_dmc(t), K=K, M=M, libraries=tuple(libs))


def with_zeros(rng, model):
    """``model`` with about a third of its channel entries set to zero (each
    row keeps one nonzero entry) and, on every other call, a zero in one
    input pmf: -inf logs in the objectives' tables."""
    t = model.dmc.pmf.copy()
    t[rng.random(t.shape) < 0.35] = 0.0
    rows = t.reshape(-1, t.shape[-1])
    rows[rows.sum(axis=1) == 0, 0] = 1.0
    t /= t.sum(axis=-1, keepdims=True)
    libs = [list(lib) for lib in model.libraries]
    if rng.random() < 0.5:
        k = int(rng.integers(0, len(libs)))
        libs[k][0] = CodeSpec(libs[k][0].rate, np.array([1.0, 0.0]))
    return SystemModel(dmc=make_dmc(t), K=model.K, M=model.M,
                       libraries=tuple(tuple(lib) for lib in libs))


def tied(model):
    """``model`` with uniform input pmfs, so that at a zero coefficient every
    entry of an inner log-sum-exp slice ties."""
    libs = tuple(tuple(CodeSpec(c.rate, np.array([0.5, 0.5])) for c in lib)
                 for lib in model.libraries)
    return SystemModel(dmc=model.dmc, K=model.K, M=model.M, libraries=libs)


def variant_model(rng, variant):
    """A :func:`random_model` as drawn ("plain"), with channel zeros
    ("zeros", :func:`with_zeros`) or with tied maxima ("tied")."""
    model = random_model(rng)
    if variant == "zeros":
        return with_zeros(rng, model)
    return tied(model) if variant == "tied" else model


def random_alpha(rng, model, hi=0.3):
    return WeightFunction(
        model, rng.uniform(0.0, hi, size=model.code_counts))


def random_g(rng, model):
    return tuple(int(rng.integers(0, n)) for n in model.code_counts)


@pytest.fixture
def sec4_model():
    return make_compound_bsc([0.18, 0.185, 0.185, 0.19], [0.5, 0.5],
                             0.31 * LN2)


WORKLOAD_SCENARIOS = ("sec4-detect", "mac2-partition", "bigcode-detect")


def search_scenarios():
    """The shipped scenarios and the benchmark's derived ones, as pytest
    parameters for :func:`load_search_scenario`."""
    return [pytest.param(path.name, id=path.stem)
            for path in sorted((ROOT / "scenarios").glob("*.json"))] + \
        [pytest.param(name, id=name) for name in WORKLOAD_SCENARIOS]


def load_search_scenario(name):
    """A shipped scenario by file name, or a derived one by workload name."""
    if name in WORKLOAD_SCENARIOS:
        return parse_scenario(load_workloads().generate(name, ROOT))
    return load_scenario(ROOT / "scenarios" / name)


def key_paths(master_seed, *path):
    """The (master_seed, *path) entropy of each key one
    ``philox_keys(master_seed, *path)`` call derives, in its row order."""
    entries = np.broadcast_arrays(*path)
    return [(master_seed, *p)
            for p in zip(*(e.reshape(-1).tolist() for e in entries))]


def codeword(codebooks, k, g_k, w):
    """Codeword of message w of code g_k of user k in a one-trial
    realization (such as ``sample_codebook``'s): a row of shape (N,)."""
    return codebooks.codeword(k, g_k, [w])[0]


def block_of(model, N, trial_seeds):
    """The realization of a block with one trial per entry of
    ``trial_seeds``, trial i's code g_k of user k keyed as
    ``stream(trial_seeds[i], k, g_k)``; no table drawn."""
    codes = [(k, g_k) for k in range(model.K)
             for g_k in range(len(model.libraries[k]))]
    return CodebookRealization(
        model, N, [philox_keys(seed, *zip(*codes)).tolist()
                   for seed in trial_seeds],
        np.random.Generator(np.random.Philox()))


def stack_books(books):
    """One block realization of one-trial realizations with every table
    drawn (``sample_codebook``'s, perhaps edited), trial i being books[i]."""
    block = books[0].take([0] * len(books))
    block.keys = [cb.keys[0] for cb in books]
    block.tables = {code: np.concatenate([cb.tables[code] for cb in books])
                    for code in books[0].tables}
    return block
