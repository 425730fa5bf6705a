"""Finite discrete memoryless channel algebra.

Channels are stored as dense linear-domain tensors ``pmf[x_1, ..., x_U, y]``.
All downstream exponent and decoder math converts to log domain at the
boundary; tables here stay linear because they are small and conversion
happens once.

Users are indexed 0-based throughout the package; user 0 is the transmitter
whose message the receiver cares about.  Users ``0..K-1`` are regular
(codebooks known to the receiver), users ``K..K+M-1`` are interfering
(only their per-code input distributions are known).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DomainError,
    EmptyCrossoverList,
    NonStochastic,
    ShapeMismatch,
    SubsetOutOfRange,
)

# user-supplied tables may carry JSON rounding
INPUT_TOL = 1e-9


def _normalize_rows(table: np.ndarray, tol: float, what: str) -> np.ndarray:
    """Validate row-stochasticity within ``tol`` and renormalize exactly."""
    arr = np.asarray(table, dtype=float)
    if np.any(arr < -1e-12):
        bad = float(arr.min())
        raise NonStochastic(f"{what}: negative entry {bad:.3e}")
    arr = np.clip(arr, 0.0, None)
    sums = arr.sum(axis=-1)
    worst = float(np.abs(sums - 1.0).max()) if sums.size else 0.0
    if worst > tol:
        raise NonStochastic(f"{what}: row sum off by {worst:.3e} (> {tol:.0e})")
    return arr / sums[..., None]


@dataclass(frozen=True)
class Dmc:
    """Discrete memoryless channel P(Y | X_1, ..., X_U)."""

    input_sizes: tuple[int, ...]
    output_size: int
    pmf: np.ndarray  # shape (*input_sizes, output_size), rows renormalized

    def __post_init__(self):
        self.pmf.setflags(write=False)

    @property
    def n_users(self) -> int:
        return len(self.input_sizes)


def make_dmc(table) -> Dmc:
    """Validate a raw probability table into a :class:`Dmc`.

    ``table`` has one axis per user plus a trailing output axis, which set
    the input alphabet sizes and the output size.
    """
    arr = np.asarray(table, dtype=float)
    if arr.ndim < 2:
        raise ShapeMismatch(f"channel table needs >= 2 axes, got {arr.ndim}")
    pmf = _normalize_rows(arr, INPUT_TOL, "channel table")
    return Dmc(tuple(arr.shape[:-1]), int(arr.shape[-1]), pmf)


@dataclass(frozen=True)
class CodeSpec:
    """One entry of a user's code library: a rate (nats/symbol) and the
    input distribution codeword symbols are drawn from."""

    rate: float
    input_pmf: np.ndarray

    def __post_init__(self):
        if self.rate < 0:
            raise DomainError(f"rate must be >= 0, got {self.rate}")
        pmf = _normalize_rows(np.asarray(self.input_pmf, dtype=float),
                              INPUT_TOL, "input pmf")
        object.__setattr__(self, "input_pmf", pmf)
        self.input_pmf.setflags(write=False)


@dataclass
class SystemModel:
    """Channel plus per-user code libraries and the regular/interfering split.

    Immutable after construction; safe to share across concurrent readers.
    Marginalizations and the decoder's per-letter threshold tables are
    memoized per instance.
    """

    dmc: Dmc
    K: int
    M: int
    libraries: tuple[tuple[CodeSpec, ...], ...]
    _marg_cache: dict = field(default_factory=dict, repr=False, compare=False)
    _letter_cache: dict = field(default_factory=dict, repr=False,
                                compare=False)

    def __post_init__(self):
        if self.K < 1:
            raise DomainError(f"need K >= 1 regular users, got {self.K}")
        if self.M < 0:
            raise DomainError(f"need M >= 0 interfering users, got {self.M}")
        if self.dmc.n_users != self.K + self.M:
            raise ShapeMismatch(
                f"channel has {self.dmc.n_users} users, model declares "
                f"{self.K}+{self.M}")
        self.libraries = tuple(tuple(lib) for lib in self.libraries)
        if len(self.libraries) != self.K + self.M:
            raise ShapeMismatch(
                f"{len(self.libraries)} libraries for {self.K + self.M} users")
        for k, lib in enumerate(self.libraries):
            if not lib:
                raise ShapeMismatch(f"user {k} has an empty code library")
            for idx, spec in enumerate(lib):
                if spec.input_pmf.shape != (self.dmc.input_sizes[k],):
                    raise ShapeMismatch(
                        f"user {k} code {idx}: input pmf length "
                        f"{spec.input_pmf.shape[0]} != alphabet "
                        f"{self.dmc.input_sizes[k]}")

    # -- basic lookups -------------------------------------------------------

    @property
    def n_users(self) -> int:
        return self.K + self.M

    @property
    def code_counts(self) -> tuple[int, ...]:
        return tuple(len(lib) for lib in self.libraries)

    def rate(self, k: int, g_k: int) -> float:
        return self.libraries[k][g_k].rate

    def input_pmf(self, k: int, g_k: int) -> np.ndarray:
        return self.libraries[k][g_k].input_pmf

    def index_space(self):
        """Iterate all code index vectors g in lexicographic order."""
        return itertools.product(*[range(n) for n in self.code_counts])

    @property
    def space_size(self) -> int:
        return int(np.prod(self.code_counts))

    def check_g(self, g) -> tuple[int, ...]:
        g = tuple(int(x) for x in g)
        if len(g) != self.n_users:
            raise ShapeMismatch(
                f"code index vector length {len(g)} != {self.n_users} users")
        for k, gk in enumerate(g):
            if not 0 <= gk < len(self.libraries[k]):
                raise ShapeMismatch(
                    f"code index {gk} out of range for user {k}")
        return g


@dataclass(frozen=True)
class MarginalChannel:
    """P(Y | X_D, g): channel conditioned on the inputs of user subset D,
    all other users' symbols averaged out under their code-g input pmfs."""

    users: tuple[int, ...]  # sorted conditioned subset D
    pmf: np.ndarray         # shape (*sizes_D, |Y|)
    _log: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self.pmf.setflags(write=False)
        with np.errstate(divide="ignore"):
            log = np.log(self.pmf)
        log.setflags(write=False)
        object.__setattr__(self, "_log", log)

    def log_pmf(self) -> np.ndarray:
        """log P(Y | X_D, g), computed once per marginal (read only)."""
        return self._log


def marginalize_out(model: SystemModel, D, g) -> MarginalChannel:
    """Average the channel over the users outside D.

    Returns P(Y | X_D, g) = sum over the complement's symbols of the product
    of their code-g input pmfs times the channel law.  D must be a subset of
    the regular users.
    """
    D = tuple(sorted(set(int(k) for k in D)))
    for k in D:
        if not 0 <= k < model.K:
            raise SubsetOutOfRange(
                f"user {k} not a regular user (K={model.K})")
    g = model.check_g(g)
    key = (D, g)
    cached = model._marg_cache.get(key)
    if cached is not None:
        return cached

    table = model.dmc.pmf
    # contract complement axes against input pmfs, highest axis first so
    # remaining axis numbers stay valid
    for k in sorted(set(range(model.n_users)) - set(D), reverse=True):
        table = np.tensordot(model.input_pmf(k, g[k]), table, axes=([0], [k]))
    result = MarginalChannel(D, np.ascontiguousarray(table))
    model._marg_cache[key] = result
    return result


def output_marginal(model: SystemModel, g) -> np.ndarray:
    """P(Y | g): output distribution with every user's input averaged out
    (the marginal of the empty subset, read only)."""
    return marginalize_out(model, (), g).pmf


def binary_entropy(p: float, unit: str = "nats") -> float:
    """H(p) with the 0 log 0 = 0 convention; ``unit`` is 'nats' or 'bits'."""
    if not 0.0 <= p <= 1.0:
        raise DomainError(f"entropy argument {p} outside [0, 1]")
    h = 0.0
    for q in (p, 1.0 - p):
        if q > 0.0:
            h -= q * math.log(q)
    if unit == "nats":
        return h
    if unit == "bits":
        return h / math.log(2.0)
    raise DomainError(f"unknown entropy unit {unit!r}")


def make_compound_bsc(crossovers, input_pmf, rate: float) -> SystemModel:
    """Single-user communication over a compound BSC, modeled as K=1, M=1.

    User 0 is the real transmitter (one code: ``rate`` nats/symbol, binary
    ``input_pmf``).  User 1 is a virtual interfering user whose code index
    selects the channel realization: its input alphabet has one symbol per
    crossover value, each code is a point mass, and the channel realizes
    BSC(crossovers[i]) on user 0 whenever x_1 = i.
    """
    crossovers = [float(p) for p in crossovers]
    if not crossovers:
        raise EmptyCrossoverList("need at least one crossover value")
    for p in crossovers:
        if not 0.0 <= p <= 1.0:
            raise DomainError(f"crossover {p} outside [0, 1]")
    L = len(crossovers)
    table = np.empty((2, L, 2), dtype=float)
    for i, p in enumerate(crossovers):
        table[0, i, :] = (1.0 - p, p)
        table[1, i, :] = (p, 1.0 - p)
    dmc = make_dmc(table)
    user0 = (CodeSpec(rate=rate, input_pmf=np.asarray(input_pmf, float)),)
    virtual = tuple(
        CodeSpec(rate=0.0, input_pmf=np.eye(L)[i]) for i in range(L))
    return SystemModel(dmc=dmc, K=1, M=1, libraries=(user0, virtual))
