"""Layer tracing from outside the library.

Spans are recorded by replacing public functions and methods of the
``whitmod`` modules with timing wrappers.  A function is bound under its
name in every module that imported it (``act`` lives in ``wmod``,
``solver`` and ``cli``; ``whittaker_space`` in ``whitmod``, ``solver`` and
``cli``), so every loaded module is scanned and every binding of the
original object is replaced.  A binding that is missed would silently
record nothing, which is why a workload names the spans it expects and
``SpanTracer.missing`` reports any that never fired.

Self time of a span is its duration minus the durations of its direct
child spans, so the self times of all spans add up to the time spent
inside outermost spans.
"""

import sys
import time
from fractions import Fraction
from importlib import import_module

# Span name -> (module, attribute path).  The name is what the per-layer
# metrics are called; the path is where the original object lives.
SPANS = {
    "coeff.ZPoly.divmod_by": ("whitmod.coeff", "ZPoly.divmod_by"),
    "coeff.poly_gcd": ("whitmod.coeff", "poly_gcd"),
    "liecore.psi_eval": ("whitmod.liecore", "psi_eval"),
    "wmod.straighten_word": ("whitmod.wmod", "straighten_word"),
    "wmod.act": ("whitmod.wmod", "act"),
    "wmod.degree_of": ("whitmod.wmod", "degree_of"),
    "solver.Truncation.basis": ("whitmod.solver", "Truncation.basis"),
    "solver.Truncation.contains_vector": ("whitmod.solver", "Truncation.contains_vector"),
    "solver.whittaker_space": ("whitmod.solver", "whittaker_space"),
    "solver.reduce_to_whittaker": ("whitmod.solver", "reduce_to_whittaker"),
    "solver.submodule_generator": ("whitmod.solver", "submodule_generator"),
    "solver.verify_lemma": ("whitmod.solver", "verify_lemma"),
    "solver.random_instance": ("whitmod.solver", "random_instance"),
    "textio.parse_vector": ("whitmod.textio", "parse_vector"),
    "cli.main": ("whitmod.cli", "main"),
}

# Scalar arithmetic is counted in a pass of its own: it is called far
# more often than anything else, and timing it would swamp the spans.
SCALAR_OPS = {
    "coeff.Scalar.mul": ("whitmod.coeff", "Scalar.__mul__"),
    "coeff.Scalar.add": ("whitmod.coeff", "Scalar.__add__"),
}


def _resolve(module, path):
    obj = import_module(module)
    for part in path.split("."):
        obj = getattr(obj, part)
    return obj


class _Patcher:
    """Replaces every binding of an object, and puts them all back."""

    def __init__(self):
        self._undo = []

    def replace(self, original, replacement):
        """Rebind ``original`` to ``replacement`` in every loaded module and
        in the class that owns it; returns how many bindings changed."""
        count = 0
        namespaces = [m for m in list(sys.modules.values()) if m is not None]
        for ns in namespaces:
            try:
                items = list(vars(ns).items())
            except TypeError:
                continue
            for name, value in items:
                if value is original:
                    self._undo.append((ns, name, original))
                    setattr(ns, name, replacement)
                    count += 1
                elif isinstance(value, type) and value.__module__.startswith("whitmod"):
                    for attr, member in list(vars(value).items()):
                        if member is original:
                            self._undo.append((value, attr, original))
                            setattr(value, attr, replacement)
                            count += 1
        return count

    def restore(self):
        while self._undo:
            ns, name, original = self._undo.pop()
            setattr(ns, name, original)


def _act_terms(extra, args, kwargs, result):
    v = args[1] if len(args) > 1 else kwargs["v"]
    extra["terms_in"] += len(v)
    extra["terms_out"] += len(result)


def _reduction_steps(extra, args, kwargs, result):
    extra["steps"] += len(result[1])


# Work counts taken from a span's arguments and result: the names they
# are reported under, and the function that adds to them.
_COUNTERS = {
    "wmod.act": (("terms_in", "terms_out"), _act_terms),
    "solver.reduce_to_whittaker": (("steps",), _reduction_steps),
}


class _Wrapping:
    """Wraps every object named in ``targets`` while active."""

    targets = {}

    def __init__(self):
        self._patcher = _Patcher()

    def __enter__(self):
        for name, (module, path) in self.targets.items():
            original = _resolve(module, path)
            if not self._patcher.replace(original, self._wrap(name, original)):
                self._patcher.restore()
                raise RuntimeError("%s: no binding of %s.%s found" % (name, module, path))
        return self

    def __exit__(self, *exc):
        self._patcher.restore()
        return False


class _Stat:
    __slots__ = ("calls", "self_s", "extra")

    def __init__(self, name):
        self.calls = 0
        self.self_s = 0.0
        self.extra = dict.fromkeys(_COUNTERS.get(name, ((), None))[0], 0)


class SpanTracer(_Wrapping):
    """Times every span in SPANS while active (use as a context manager)."""

    targets = SPANS

    def __init__(self):
        super().__init__()
        self.stats = {name: _Stat(name) for name in SPANS}
        self.top_level_s = 0.0
        self._stack = []  # child time accumulated by each open span

    def _wrap(self, name, fn):
        stat = self.stats[name]
        stack = self._stack
        counter = _COUNTERS.get(name, (None, None))[1]
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            stack.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = clock() - start
                children = stack.pop()
                stat.calls += 1
                stat.self_s += duration - children
                if stack:
                    stack[-1] += duration
                else:
                    self.top_level_s += duration
            if counter is not None:
                counter(stat.extra, args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def missing(self, expected):
        """Expected span names that never fired."""
        return sorted(name for name in expected if not self.stats[name].calls)

    def metrics(self):
        """Flat per-layer metrics: <span>.calls, <span>.self_s and counts."""
        out = {}
        for name, stat in self.stats.items():
            out[name + ".calls"] = (stat.calls, "count")
            out[name + ".self_s"] = (stat.self_s, "s")
            for key, value in stat.extra.items():
                out["%s.%s" % (name, key)] = (value, "count")
        return out

    def self_total(self):
        return sum(stat.self_s for stat in self.stats.values())


class ScalarCounter(_Wrapping):
    """Counts Scalar multiplications and additions while active.

    ``const`` counts the multiplications with a constant operand, the
    case the coefficient layer short-cuts.
    """

    targets = SCALAR_OPS

    def __init__(self):
        super().__init__()
        self.counts = {name: 0 for name in SCALAR_OPS}
        self.const = 0

    def _wrap(self, name, fn):
        counts = self.counts
        is_mul = name == "coeff.Scalar.mul"

        def wrapper(a, b):
            counts[name] += 1
            if is_mul and (_is_constant(a) or _is_constant(b)):
                self.const += 1
            return fn(a, b)

        wrapper.__wrapped__ = fn
        return wrapper

    def metrics(self):
        muls = self.counts["coeff.Scalar.mul"]
        return {
            "coeff.Scalar.mul.calls": (muls, "count"),
            "coeff.Scalar.add.calls": (self.counts["coeff.Scalar.add"], "count"),
            "coeff.Scalar.mul.const_ratio": (self.const / muls if muls else 0.0, "ratio"),
        }


def _is_constant(x):
    is_rational = getattr(x, "is_rational", None)
    return is_rational() if is_rational is not None else isinstance(x, (int, Fraction))


def act_cache_info():
    """(hits, misses, size) of the library's act cache, or None without one."""
    wmod = import_module("whitmod.wmod")
    cache_info = getattr(getattr(wmod, "_act_basis", None), "cache_info", None)
    if cache_info is None:
        return None
    info = cache_info()
    return info.hits, info.misses, info.currsize
