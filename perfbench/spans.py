"""Span tracing around uwacap's public functions, and the per-layer metrics.

Nothing under ``src/`` is changed. ``install`` wraps each function in
``TARGETS`` and rebinds the wrapper in every loaded ``uwacap`` module that
holds the original object, because the package binds names with
``from ... import`` (``gap`` alone lives in capacity, cli, verify, secrecy
and the package root). Spans stay in memory and are written out by the
caller when the run ends.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import statistics
import sys
import threading
import time

# (module, function) pairs that get a span; one per layer boundary the
# per-layer metrics read.
TARGETS = (
    ("cli", "main"),
    ("capacity", "gap"),
    ("capacity", "awggn_bounds"),
    ("capacity", "ergodic_bounds"),
    ("numerics", "integrate"),
    ("numerics", "log_gamma"),
    ("secrecy", "secrecy_rate_awggn"),
    ("secrecy", "secrecy_positive"),
    ("secrecy", "secrecy_threshold"),
    ("gg_noise", "with_variance"),
    ("gg_noise", "tail_radius"),
    ("gg_noise", "sample"),
    ("fading", "unit_power"),
    ("fading", "sample"),
    ("sampling", "chunked_draw"),
    ("sampling", "chunk_rng"),
    ("verify", "output_density"),
    ("verify", "gaussian_input_mi"),
    ("verify", "gg_density_grid"),
    ("verify", "grid_entropy"),
    ("verify", "mc_entropy"),
)


def call_key(signature, args, kwargs):
    """The call's arguments bound to the signature with defaults applied.

    Two calls that pass the same grid through different keyword sets get
    the same key; the arguments are frozen dataclasses and floats, whose
    repr is exact.
    """
    bound = signature.bind(*args, **kwargs)
    bound.apply_defaults()
    return repr(tuple(bound.arguments.items())), bound.arguments


def call_key_selftest():
    """Two keyword sets that name the same grid must give one key."""

    def output_density(config, truncation_mass=1e-10, grid_points=2001):
        pass

    signature = inspect.signature(output_density)
    a = call_key(signature, ("cfg",), {"grid_points": 801})[0]
    b = call_key(signature, ("cfg",), {"truncation_mass": 1e-10, "grid_points": 801})[0]
    c = call_key(signature, ("cfg",), {"grid_points": 2001})[0]
    return a == b != c


def _density_attrs(signature):
    def attrs(args, kwargs, result):
        key, arguments = call_key(signature, args, kwargs)
        return {
            "key": key,
            "points": len(result.points),
            "coarsened": int(result.truncation_mass > arguments["truncation_mass"]),
        }

    return attrs


def _sample_attrs(signature):
    def attrs(args, kwargs, result):
        arguments = call_key(signature, args, kwargs)[1]
        return {"draws": len(result), "threads": int(arguments["threads"])}

    return attrs


class Recorder:
    """Spans as (id, name, start, end, parent id, operation id) tuples."""

    def __init__(self):
        self.spans = []
        self.attrs = {}
        self.op = -1
        self._ids = itertools.count()
        self._local = threading.local()
        self._main_stack = []
        self._local.stack = self._main_stack

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name, fn, attrs=None):
        ids, spans, clock = self._ids, self.spans, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = self._stack()
            if stack:
                parent = stack[-1]
            elif stack is not self._main_stack and self._main_stack:
                # a sampler worker thread: caused by the span open on the main thread
                parent = self._main_stack[-1]
            else:
                parent = -1
            sid = next(ids)
            stack.append(sid)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans.append((sid, name, start, end, parent, self.op))
            if attrs is not None:
                self.attrs[sid] = attrs(args, kwargs, result)
            return result

        wrapper.__wrapped_by_perfbench__ = fn
        return wrapper


def install(recorder):
    """Wrap every target in every uwacap module namespace that binds it."""
    for mod, _ in TARGETS:
        importlib.import_module("uwacap." + mod)
    modules = [m for n, m in list(sys.modules.items()) if n == "uwacap" or n.startswith("uwacap.")]
    for mod, fname in TARGETS:
        original = getattr(sys.modules["uwacap." + mod], fname)
        if hasattr(original, "__wrapped_by_perfbench__"):
            raise RuntimeError("uwacap.%s.%s is already traced" % (mod, fname))
        signature = inspect.signature(original)
        attrs = None
        if fname == "output_density":
            attrs = _density_attrs(signature)
        elif fname == "sample":
            attrs = _sample_attrs(signature)
        wrapper = recorder.wrap("%s.%s" % (mod, fname), original, attrs)
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, wrapper)


def uninstall():
    for module in [m for n, m in list(sys.modules.items()) if n == "uwacap" or n.startswith("uwacap.")]:
        for attr, value in list(vars(module).items()):
            original = getattr(value, "__wrapped_by_perfbench__", None)
            if original is not None:
                setattr(module, attr, original)


# ---------------------------------------------------------- layer metrics


def _union_length(intervals, lo, hi):
    total, cur_lo, cur_hi = 0.0, None, None
    for a, b in sorted(intervals):
        a, b = max(a, lo), min(b, hi)
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def layer_metrics(spans, attrs):
    """Counts, per-call times, self and busy times from one traced pass.

    Self time is a span's duration minus the part of it its child spans
    cover; busy time is the summed duration of a layer's outermost spans.
    """
    by_name = {}
    children = {}
    for sid, name, start, end, parent, _ in spans:
        by_name.setdefault(name, []).append((sid, start, end))
        children.setdefault(parent, []).append((start, end))
    parents = {s[0]: s[4] for s in spans}
    names = {s[0]: s[1] for s in spans}

    def calls(name):
        return len(by_name.get(name, ()))

    def total(name):
        return sum(end - start for _, start, end in by_name.get(name, ()))

    def per_call(name, scale):
        n = calls(name)
        return total(name) / n * scale if n else 0.0

    def self_time(name):
        return sum(
            (end - start) - _union_length(children.get(sid, ()), start, end)
            for sid, start, end in by_name.get(name, ())
        )

    def busy(name):
        out = 0.0
        for sid, start, end in by_name.get(name, ()):
            p = parents[sid]
            while p != -1 and names.get(p) != name:
                p = parents.get(p, -1)
            if p == -1:
                out += end - start
        return out

    def draws_per_s(name, threads_max):
        draws = elapsed = 0
        for sid, start, end in by_name.get(name, ()):
            a = attrs.get(sid)  # absent when the call raised
            if a and (a["threads"] > 1) == threads_max:
                draws += a["draws"]
                elapsed += end - start
        return draws / elapsed if elapsed else 0.0

    density = [attrs[sid] for sid, _, _ in by_name.get("verify.output_density", ()) if sid in attrs]
    return {
        "cli.main.self_s": self_time("cli.main"),
        "capacity.gap.calls": calls("capacity.gap"),
        "capacity.gap.us_per_call": per_call("capacity.gap", 1e6),
        "capacity.awggn_bounds.us_per_call": per_call("capacity.awggn_bounds", 1e6),
        "capacity.ergodic_bounds.calls": calls("capacity.ergodic_bounds"),
        "capacity.ergodic_bounds.ms_per_call": per_call("capacity.ergodic_bounds", 1e3),
        "numerics.integrate.calls": calls("numerics.integrate"),
        "numerics.integrate.self_s": self_time("numerics.integrate"),
        "numerics.log_gamma.calls": calls("numerics.log_gamma"),
        "secrecy.secrecy_rate_awggn.us_per_call": per_call("secrecy.secrecy_rate_awggn", 1e6),
        "secrecy.secrecy_positive.us_per_call": per_call("secrecy.secrecy_positive", 1e6),
        "secrecy.secrecy_threshold.us_per_call": per_call("secrecy.secrecy_threshold", 1e6),
        "gg_noise.sample.draws_per_s.t1": draws_per_s("gg_noise.sample", False),
        "gg_noise.sample.draws_per_s.tmax": draws_per_s("gg_noise.sample", True),
        "fading.sample.draws_per_s.t1": draws_per_s("fading.sample", False),
        "fading.sample.draws_per_s.tmax": draws_per_s("fading.sample", True),
        "sampling.chunked_draw.busy_s": busy("sampling.chunked_draw"),
        "sampling.chunk_rng.busy_s": busy("sampling.chunk_rng"),
        "gg_noise.with_variance.calls": calls("gg_noise.with_variance"),
        "gg_noise.tail_radius.calls": calls("gg_noise.tail_radius"),
        "fading.unit_power.calls": calls("fading.unit_power"),
        "verify.output_density.calls": len(density),
        "verify.output_density.unique_calls": len({a["key"] for a in density}),
        "verify.output_density.s_per_call": per_call("verify.output_density", 1.0),
        "verify.output_density.grid_points": sum(a["points"] for a in density),
        "verify.output_density.coarsened": sum(a["coarsened"] for a in density),
        "verify.gaussian_input_mi.self_s": self_time("verify.gaussian_input_mi"),
        "verify.gg_density_grid.busy_s": busy("verify.gg_density_grid"),
        "verify.grid_entropy.busy_s": busy("verify.grid_entropy"),
        "verify.mc_entropy.busy_s": busy("verify.mc_entropy"),
    }


def median_metrics(runs, counts):
    """Per-name median over traced passes; the metrics named in ``counts`` must agree exactly."""
    merged, mismatched = {}, []
    for name in runs[0]:
        values = [r[name] for r in runs]
        if name in counts:
            if len(set(values)) != 1:
                mismatched.append("%s %s" % (name, values))
            merged[name] = values[0]
        else:
            merged[name] = statistics.median(values)
    return merged, mismatched


# ------------------------------------------------------------ import time


def import_times(stderr_text):
    """Cumulative seconds of the outermost uwacap, numpy and scipy imports.

    Parses ``python -X importtime`` output, which lists each module after
    the modules it imported, indented two spaces per nesting level.
    ``import.uwacap_s`` is the whole package import; numpy's and scipy's
    shares of it are disjoint.
    """
    entries = []
    for line in stderr_text.splitlines():
        if not line.startswith("import time:"):
            continue
        fields = line[len("import time:"):].split("|")
        if len(fields) != 3 or not fields[0].strip().isdigit():
            continue
        raw = fields[2]
        level = (len(raw) - len(raw.lstrip(" ")) - 1) // 2
        entries.append((level, raw.strip(), int(fields[1])))
    totals = {"uwacap": 0, "numpy": 0, "scipy": 0}
    stack = []
    for level, name, cumulative in reversed(entries):
        while stack and stack[-1][0] >= level:
            stack.pop()
        top = name.split(".")[0]
        ancestors = {anc for _, anc in stack}
        # numpy and scipy split what uwacap's import costs: a module nested
        # in either one is charged to the outer package only
        excluded = {top} if top == "uwacap" else {"numpy", "scipy"}
        if top in totals and not ancestors & excluded:
            totals[top] += cumulative
        stack.append((level, top))
    return {"import.%s_s" % p: t * 1e-6 for p, t in totals.items()}
