import importlib.util
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import settings

from gepkit import CodeSpec, SystemModel, make_compound_bsc, make_dmc
from gepkit.exponents import WeightFunction

settings.register_profile("ci", deadline=None, max_examples=25)
settings.load_profile("ci")

LN2 = math.log(2.0)
ROOT = Path(__file__).resolve().parent.parent


def load_workloads():
    """The benchmark's workload module, ``perfbench/workloads.py``, read
    only: it generates the derived scenarios."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", ROOT / "perfbench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


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


def random_alpha(rng, model, hi=0.3):
    return WeightFunction(
        model, rng.uniform(0.0, hi, size=model.code_counts))


def random_g(rng, model):
    return tuple(int(rng.integers(0, n)) for n in model.code_counts)


@pytest.fixture
def sec4_model():
    return make_compound_bsc([0.18, 0.185, 0.185, 0.19], [0.5, 0.5],
                             0.31 * LN2)
