"""Call-site tracer for gepkit's layers.

``Tracer`` replaces gepkit's functions by timing wrappers at every name a
caller looks them up by: ``gepkit.decoder.ensemble_log_expectation`` as well
as ``gepkit.ensemble.ensemble_log_expectation``, and
``gepkit.optimize.minimize_scalar`` for the scipy routine the optimizer
calls.  Leaving the context restores every name it replaced.  A function
that a later version of gepkit deletes is simply not wrapped, and a function
that is no longer called records nothing, so the metrics built on it read 0.

Each call is recorded under (subcommand, phase, key), where the key is
``"<layer>.<name>"`` and the layer is the gepkit module that defines the
function.  The phase is set by the outermost phase-setting function on the
stack (``PHASES``), so that, for instance, exponent maximizations made while
building threshold tables are told apart from those of the verdict bound.
For every key it keeps calls, inclusive time and self time (inclusive time
minus the time spent in wrapped callees).  Groups of keys, the layers among
them, additionally keep busy time: the time spent inside any member,
counted once when members nest.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from collections import defaultdict

LAYERS = ("scenario", "channel", "ensemble", "optimize", "exponents",
          "decoder", "montecarlo", "cli")

# Helpers called per symbol, per objective evaluation or per candidate.  A
# wrapper would cost about as much as the call, so their time is charged
# to the caller.  ``stream`` and ``sample_from_pmf`` stay unwrapped so that
# the trial loop's own random draws count as montecarlo self time.
UNWRAPPED = frozenset({
    "ensemble.stream", "ensemble.sample_from_pmf", "ensemble.scale_log",
    "ensemble.flatten_symbols", "ensemble.subset_weights_log",
    "ensemble.message_count", "exponents.sub", "exponents.confusion_feasible",
    "decoder.competitor_match", "channel.binary_entropy",
})

# Names wrapped besides the public functions: the polish stage, the scipy
# routine it calls, and the exponent cache's lookups.
EXTRA = {
    "optimize": ("_brent_max", "minimize_scalar"),
    "exponents": ("ExponentCache.emd", "ExponentCache.eid"),
}

PHASES = {
    "montecarlo.run_trials": "trial",
    "montecarlo.run_detection_trials": "dtrial",
    "decoder.build_thresholds": "build",
    "cli.scenario_bound": "verdict",
}

MAXIMIZERS = frozenset({"optimize.maximize_rho_s", "optimize.maximize_scalar"})
EXPONENTS = frozenset({"exponents.exponent_EmD", "exponents.exponent_EiD",
                       "exponents.exponent_Ec"})
CACHE = frozenset({"exponents.ExponentCache.emd", "exponents.ExponentCache.eid"})
POLISH = "optimize._brent_max"
OBJECTIVE = "exponents.objective"
# (inner, outer) group pairs whose nesting the metrics need
NESTED = (("exponent", "cache"), ("maximize", "assembly"))


def _groups(key: str) -> tuple:
    layer = key.split(".", 1)[0]
    name = key.split(".", 1)[1]
    out = ["layer:" + layer]
    if key in MAXIMIZERS:
        out.append("maximize")
    if key in EXPONENTS:
        out.append("exponent")
    if key in CACHE:
        out.append("cache")
    if key == POLISH:
        out.append("polish")
    if layer == "exponents" and (name.startswith("gep_bound_")
                                 or name == "detection_bound"):
        out.append("assembly")
    return tuple(out)


def _exponent_key(name, args):
    """Identity of one exponent maximization: the functional and its
    (D, S, g, g_other) arguments.  None when the arguments do not have the
    expected shape, so that a changed signature only loses the count."""
    try:
        if name == "exponents.exponent_Ec":
            return name, tuple(args[1]), tuple(args[2])
        return (name, tuple(sorted(args[1])), frozenset(args[2]),
                tuple(args[3]), tuple(args[4]))
    except (IndexError, TypeError):
        return None


class _Frame:
    __slots__ = ("child", "phase")

    def __init__(self, phase):
        self.child = 0.0
        self.phase = phase


class Tracer:
    """Records calls into gepkit while installed (``with Tracer(): ...``).

    ``only`` limits wrapping to the given keys, for the untraced runs that
    need just two timers."""

    def __init__(self, only=None):
        self.only = None if only is None else frozenset(only)
        self.subcommand = "-"
        self.calls = defaultdict(lambda: [0, 0.0, 0.0])  # calls, incl, self
        self.busy = defaultdict(float)          # (sub, phase, group)
        self.nested = defaultdict(lambda: [0, 0.0])  # (sub, inner, outer)
        self.exponent_keys = defaultdict(list)  # (sub, phase) -> keys
        self.candidates = defaultdict(int)      # (sub, phase)
        self.write_s = defaultdict(float)       # sub
        self._stack = []
        self._active = defaultdict(int)         # group -> depth
        self._patched = []                      # (owner, name, original)

    # -- installation --------------------------------------------------------

    def _targets(self):
        """(key, owner, attribute, function) for every function to wrap."""
        for layer in LAYERS:
            try:
                mod = importlib.import_module("gepkit." + layer)
            except ImportError:
                continue
            names = [n for n, obj in vars(mod).items()
                     if inspect.isfunction(obj) and not n.startswith("_")
                     and obj.__module__ == mod.__name__
                     and not inspect.isgeneratorfunction(obj)]
            names += EXTRA.get(layer, ())
            for name in names:
                key = f"{layer}.{name}"
                if key in UNWRAPPED or (self.only and key not in self.only):
                    continue
                owner, attr = mod, name
                if "." in name:
                    owner = getattr(mod, name.split(".")[0], None)
                    attr = name.split(".")[1]
                fn = getattr(owner, attr, None) if owner is not None else None
                if callable(fn):
                    yield key, owner, attr, fn

    def __enter__(self):
        targets = list(self._targets())
        modules = [m for n, m in list(sys.modules.items())
                   if n == "gepkit" or n.startswith("gepkit.")]
        for key, owner, attr, fn in targets:
            wrapper = self._wrap(key, fn)
            if inspect.isclass(owner):
                self._patch(owner, attr, wrapper)
                continue
            for mod in modules:
                for name, obj in list(vars(mod).items()):
                    if obj is fn:
                        self._patch(mod, name, wrapper)
        if self.only is None:
            for mod in modules:
                self._patch(mod, "open", self._open)
        return self

    def __exit__(self, *exc):
        for owner, name, original in reversed(self._patched):
            if original is _MISSING:
                delattr(owner, name)
            else:
                setattr(owner, name, original)
        self._patched.clear()
        return False

    def _patch(self, owner, name, value):
        self._patched.append((owner, name, vars(owner).get(name, _MISSING)))
        setattr(owner, name, value)

    # -- recording -----------------------------------------------------------

    def _wrap(self, key, fn):
        groups = _groups(key)
        new_phase = PHASES.get(key)
        takes_objective = key in MAXIMIZERS
        exponent = key in EXPONENTS
        counts_candidates = key == "decoder.decode_subset"
        tracer = self

        def wrapper(*args, **kwargs):
            stack = tracer._stack
            phase = new_phase or (stack[-1].phase if stack else "main")
            if takes_objective:
                if args:
                    args = (tracer._objective(args[0]),) + args[1:]
                elif "f" in kwargs:
                    kwargs["f"] = tracer._objective(kwargs["f"])
            frame = _Frame(phase)
            stack.append(frame)
            active = tracer._active
            outermost = tuple(g for g in groups if not active[g])
            for g in groups:
                active[g] += 1
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                stack.pop()
                for g in groups:
                    active[g] -= 1
                tracer._record(key, groups, outermost, frame, dt)
            if exponent:
                ek = _exponent_key(key, args)
                if ek is not None:
                    tracer.exponent_keys[(tracer.subcommand, phase)].append(ek)
            if counts_candidates:
                diag = getattr(result, "diagnostics", None) or {}
                tracer.candidates[(tracer.subcommand, phase)] += \
                    int(diag.get("candidates_evaluated", 0))
            return result

        return functools.wraps(fn)(wrapper)

    def _record(self, key, groups, outermost, frame, dt):
        sub = self.subcommand
        rec = self.calls[(sub, frame.phase, key)]
        rec[0] += 1
        rec[1] += dt
        rec[2] += dt - frame.child
        if self._stack:
            self._stack[-1].child += dt
        for g in outermost:
            self.busy[(sub, frame.phase, g)] += dt
        for inner, outer in NESTED:
            if inner in outermost and self._active[outer]:
                nest = self.nested[(sub, inner, outer)]
                nest[0] += 1
                nest[1] += dt

    def _objective(self, f):
        """Counts and times one maximization's objective evaluations."""
        tracer = self

        def objective(*args, **kwargs):
            stack = tracer._stack
            frame = _Frame(stack[-1].phase if stack else "main")
            stack.append(frame)
            key = OBJECTIVE + (".polish" if tracer._active["polish"] else "")
            t0 = time.perf_counter()
            try:
                return f(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                stack.pop()
                tracer._record(key, (), (), frame, dt)

        return objective

    def _open(self, file, mode="r", *args, **kwargs):
        """``open`` for gepkit's modules: times files opened for writing
        from open to close."""
        fh = open(file, mode, *args, **kwargs)
        if not any(c in mode for c in "wax+"):
            return fh
        return _TimedFile(fh, self, self.subcommand)

    # -- queries -------------------------------------------------------------

    def total(self, key, sub=None, phases=None, field=0):
        """Sum of calls (field 0), inclusive (1) or self (2) seconds of
        ``key``, over subcommands and phases (None: all)."""
        return sum(v[field] for (s, p, k), v in self.calls.items()
                   if k == key and (sub is None or s == sub)
                   and (phases is None or p in phases))

    def layer_self(self, layer, sub=None, phases=None):
        prefix = layer + "."
        return sum(v[2] for (s, p, k), v in self.calls.items()
                   if k.startswith(prefix) and (sub is None or s == sub)
                   and (phases is None or p in phases))

    def layer_calls(self, layer):
        prefix = layer + "."
        return sum(v[0] for (_s, _p, k), v in self.calls.items()
                   if k.startswith(prefix) and not k.startswith(OBJECTIVE))

    def group_busy(self, group, sub=None, phases=None):
        return sum(v for (s, p, g), v in self.busy.items()
                   if g == group and (sub is None or s == sub)
                   and (phases is None or p in phases))

    def nested_in(self, inner, outer, sub=None, field=1):
        return sum(v[field] for (s, i, o), v in self.nested.items()
                   if i == inner and o == outer and (sub is None or s == sub))


_MISSING = object()


class _TimedFile:
    """File proxy that adds the time from open to close to the tracer."""

    def __init__(self, fh, tracer, sub):
        self._fh = fh
        self._tracer = tracer
        self._sub = sub
        self._t0 = time.perf_counter()

    def __getattr__(self, name):
        return getattr(self._fh, name)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()
        return False

    def close(self):
        if not self._fh.closed:
            self._fh.close()
            self._tracer.write_s[self._sub] += time.perf_counter() - self._t0
