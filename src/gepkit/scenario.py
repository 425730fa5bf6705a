"""Scenario files: the JSON surface describing a model, alpha weights, regions,
decoder and trial plan.

Schema (all code index vectors are 0-based lists, one entry per user):

    {
      "channel": {"type": "bsc_compound", "crossovers": [..],
                  "rate": 0.31, "rate_unit": "bits",
                  "input_pmf": [0.5, 0.5]}
               | {"type": "table", "pmf": [...nested, last axis = output]},
      "users":  [{"kind": "regular" | "interfering",
                  "codes": [{"rate": r, "rate_unit": "nats" | "bits",
                             "input_pmf": [..]}]}],   # table channels only
      "N": 16,
      "alpha": {"default": 0.0, "entries": [{"g": [..], "value": v}]},
      "region": [[..], ..],
      "margin": [[..], ..],                  # optional
      "partition": [{"D": [0], "region": [[..]]}],    # optional
      "detection": [[[..], ..], [[..], ..]],          # optional cell list
      "error_model": "relaxed" | "strict" | "margin",
      "decoder": "plain" | "margin" | "detect-then-decode",
      "g_sampling": "uniform" | "alpha_prior",        # optional
      "g_set": [[..], ..],            # optional, distinct; uniform only
      "trials": 10000,
      "seed": 7
    }

Rates are converted to nats on load.  No other field depends on N, so
``dataclasses.replace(scenario, N=n)`` is the scenario at blocklength n.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass, field

import numpy as np

from .channel import CodeSpec, SystemModel, make_compound_bsc, make_dmc
from .errors import GepkitError, IntegrityError, ParseError, SchemaError
from .exponents import (
    WeightFunction,
    check_detection_partition,
    validate_partition,
    validate_region,
)
from .montecarlo import ERROR_MODELS

DECODERS = {"plain": "plain", "margin": "margin",
            "detect-then-decode": "detect"}
LN2 = math.log(2.0)


@dataclass
class Scenario:
    model: SystemModel
    N: int
    alpha: WeightFunction
    region: frozenset
    margin: frozenset
    partition: tuple        # ((D, region of D), ...) sorted by D
    detection: list | None
    error_model: str
    decoder: str            # "plain" | "margin" | "detect"
    g_sampling: str
    g_set: list | None
    trials: int
    seed: int
    channel_spec: dict = field(repr=False)


def _need(obj: dict, key: str, types, path: str):
    """obj[key], of one of ``types``; a JSON boolean is not a number."""
    if not isinstance(obj, dict):
        raise SchemaError(f"{path}: expected an object")
    if key not in obj:
        raise SchemaError(f"{path}.{key}: missing")
    val = obj[key]
    if types is not None and (not isinstance(val, types) or
                              isinstance(val, bool)):
        raise SchemaError(
            f"{path}.{key}: expected {types}, got {type(val).__name__}")
    return val


def _list(val, path: str) -> list:
    if not isinstance(val, list):
        raise SchemaError(f"{path}: expected a list, got {type(val).__name__}")
    return val


def _number(val, path: str) -> float:
    """A finite JSON number as a float; booleans, NaN and +-inf are not."""
    if isinstance(val, (int, float)) and not isinstance(val, bool) and \
            abs(val) <= sys.float_info.max:
        return float(val)
    raise SchemaError(f"{path}: expected a finite number, got {val!r}")


def _numbers(val, path: str, nested: bool = False) -> list:
    """A list of finite numbers, as floats; with ``nested``, entries may be
    such lists in turn (a table channel's pmf)."""
    return [_numbers(v, f"{path}[{i}]", nested)
            if nested and isinstance(v, list) else _number(v, f"{path}[{i}]")
            for i, v in enumerate(_list(val, path))]


def _indices(val, path: str) -> list:
    """A list of integer indices (users or codes)."""
    if not all(isinstance(i, int) and not isinstance(i, bool)
               for i in _list(val, path)):
        raise SchemaError(f"{path}: expected a list of integer indices")
    return val


def _checked(error, path: str, build, *args):
    """build(*args), with a validator's error re-raised as ``error`` naming
    ``path``."""
    try:
        return build(*args)
    except GepkitError as exc:
        raise error(f"{path}: {exc}") from exc


def _rate_nats(entry: dict, path: str) -> float:
    rate = _number(_need(entry, "rate", None, path), f"{path}.rate")
    unit = _need(entry, "rate_unit", str, path)
    if unit == "nats":
        return rate
    if unit == "bits":
        return rate * LN2
    raise SchemaError(f"{path}.rate_unit: must be 'nats' or 'bits'")


def _build_model(doc: dict) -> tuple[SystemModel, dict]:
    channel = _need(doc, "channel", dict, "$")
    ctype = _need(channel, "type", str, "$.channel")
    if ctype == "bsc_compound":
        crossovers = _numbers(_need(channel, "crossovers", None, "$.channel"),
                              "$.channel.crossovers")
        rate = _rate_nats(channel, "$.channel")
        input_pmf = _numbers(channel.get("input_pmf", [0.5, 0.5]),
                             "$.channel.input_pmf")
        if "users" in doc:
            raise SchemaError(
                "$.users: not allowed with a bsc_compound channel")
        model = make_compound_bsc(crossovers, input_pmf, rate)
        spec = {"type": "bsc_compound",
                "crossovers": crossovers, "rate": rate, "rate_unit": "nats",
                "input_pmf": input_pmf}
        return model, spec
    if ctype == "table":
        pmf = _numbers(_need(channel, "pmf", None, "$.channel"),
                       "$.channel.pmf", nested=True)
        try:
            table = np.asarray(pmf, dtype=float)
        except ValueError as exc:  # numpy refuses a ragged pmf
            raise SchemaError("$.channel.pmf: rows of unequal length") from exc
        users = _need(doc, "users", list, "$")
        if not users:
            raise SchemaError("$.users: at least one user required")
        libraries = []
        K = 0
        seen_interfering = False
        for i, user in enumerate(users):
            path = f"$.users[{i}]"
            kind = _need(user, "kind", str, path)
            if kind not in ("regular", "interfering"):
                raise SchemaError(f"{path}.kind: must be regular|interfering")
            if kind == "regular":
                if seen_interfering:
                    raise SchemaError(
                        f"{path}: regular users must precede interfering")
                K += 1
            else:
                seen_interfering = True
            codes = _need(user, "codes", list, path)
            if not codes:
                raise SchemaError(f"{path}.codes: must be nonempty")
            lib = []
            for j, code in enumerate(codes):
                cpath = f"{path}.codes[{j}]"
                r = _rate_nats(code, cpath)
                pmf_in = _numbers(_need(code, "input_pmf", None, cpath),
                                  f"{cpath}.input_pmf")
                lib.append(_checked(SchemaError, cpath, CodeSpec, r, pmf_in))
            libraries.append(tuple(lib))
        M = len(users) - K
        if K < 1:
            raise SchemaError("$.users: need at least one regular user")
        model = _checked(SchemaError, "$.channel/users", lambda: SystemModel(
            dmc=make_dmc(table), K=K, M=M, libraries=tuple(libraries)))
        return model, {"type": "table"}
    raise SchemaError("$.channel.type: must be 'table' or 'bsc_compound'")


def _g_list(model, doc_val, path: str):
    out = []
    for i, g in enumerate(_list(doc_val, path)):
        _indices(g, f"{path}[{i}]")
        out.append(_checked(IntegrityError, f"{path}[{i}]", model.check_g, g))
    return out


def parse_scenario(doc: dict) -> Scenario:
    if not isinstance(doc, dict):
        raise SchemaError("$: top level must be an object")
    model, channel_spec = _build_model(doc)
    N = _need(doc, "N", int, "$")
    if N < 1:
        raise SchemaError("$.N: must be >= 1")
    trials = _need(doc, "trials", int, "$")
    if trials < 1:
        raise SchemaError("$.trials: must be >= 1")
    seed = _need(doc, "seed", int, "$")
    if seed < 0:
        raise SchemaError("$.seed: must be >= 0")

    alpha_doc = doc.get("alpha", {})
    if not isinstance(alpha_doc, dict):
        raise SchemaError("$.alpha: expected an object")
    default = _number(alpha_doc.get("default", 0.0), "$.alpha.default")
    if default < 0:
        raise SchemaError("$.alpha.default: must be >= 0")
    table = np.full(model.code_counts, default)
    seen = set()
    for i, entry in enumerate(_list(alpha_doc.get("entries", []),
                                    "$.alpha.entries")):
        path = f"$.alpha.entries[{i}]"
        g = _g_list(model, [_need(entry, "g", list, path)], path)[0]
        if g in seen:
            raise IntegrityError(f"{path}: a second entry for g = {list(g)}")
        seen.add(g)
        val = _number(_need(entry, "value", None, path), f"{path}.value")
        if val < 0:
            raise SchemaError(f"{path}.value: must be >= 0")
        table[g] = val
    alpha = WeightFunction(model, table)

    region_members = _g_list(model, _need(doc, "region", list, "$"),
                             "$.region")
    region = _checked(IntegrityError, "$.region", validate_region, model,
                      region_members)

    margin_members = _g_list(model, doc.get("margin", []), "$.margin")
    margin = frozenset(margin_members)
    if len(margin) != len(margin_members):
        raise IntegrityError("$.margin: duplicate code index vectors")
    if region & margin:
        raise IntegrityError("$.margin: overlaps the operation region")

    if "partition" in doc:
        mapping = {}
        for i, part in enumerate(_list(doc["partition"], "$.partition")):
            path = f"$.partition[{i}]"
            D = tuple(sorted(_indices(_need(part, "D", list, path),
                                      f"{path}.D")))
            members = _g_list(model, _need(part, "region", list, path),
                              f"{path}.region")
            mapping[D] = mapping.get(D, []) + members
        partition = _checked(IntegrityError, "$.partition",
                             validate_partition, model, mapping, region)
    else:
        partition = validate_partition(
            model, {tuple(range(model.K)): region}, region)

    detection = None
    if "detection" in doc:
        cells = [
            _g_list(model, cell, f"$.detection[{i}]")
            for i, cell in enumerate(_need(doc, "detection", list, "$"))]
        detection = _checked(IntegrityError, "$.detection",
                             check_detection_partition, model, cells)

    error_model = doc.get("error_model", "relaxed")
    if error_model not in ERROR_MODELS:
        raise SchemaError(
            f"$.error_model: must be one of {ERROR_MODELS}")
    decoder = doc.get("decoder", "plain")
    decoder = DECODERS.get(decoder) if isinstance(decoder, str) else None
    if decoder is None:
        raise SchemaError(
            f"$.decoder: must be one of {sorted(DECODERS)}")
    if decoder == "detect" and detection is None:
        raise IntegrityError(
            "$.detection: required for the detect-then-decode decoder")

    g_sampling = doc.get("g_sampling", "uniform")
    if g_sampling not in ("uniform", "alpha_prior"):
        raise SchemaError("$.g_sampling: must be uniform|alpha_prior")
    g_set = None
    if "g_set" in doc:
        g_set = _g_list(model, _need(doc, "g_set", list, "$"), "$.g_set")
        if not g_set or len(set(g_set)) != len(g_set):
            raise IntegrityError("$.g_set: needs distinct vectors, at least 1")
        if g_sampling != "uniform":
            raise SchemaError("$.g_set: only with uniform g_sampling")

    return Scenario(model=model, N=N, alpha=alpha, region=region,
                    margin=margin, partition=partition, detection=detection,
                    error_model=error_model, decoder=decoder,
                    g_sampling=g_sampling, g_set=g_set, trials=trials,
                    seed=seed, channel_spec=channel_spec)


def load_scenario(path) -> Scenario:
    """Read, parse and validate a scenario JSON file."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ParseError(f"{path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}: invalid JSON: {exc}") from exc
    return parse_scenario(doc)
